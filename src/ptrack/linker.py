"""Re-links detections into trajectories guided by a pattern set.

Linking picks one outgoing and one incoming edge per detection so that the
selected edges decompose into entry-to-exit paths, each path following a
single pattern, and the summed aligned/total score ratio over all paths is
maximal; each end inside the batch costs something on every pattern (see
`scoring`).  The search is exact: a bisection over the ratio with one 0/1
feasibility problem per probe.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    SINK_NODE,
    SOURCE_NODE,
    Assignment,
    Config,
    DetectionGraph,
    Pattern,
    Trajectory,
    validate_trajectory_set,
)
from .fracopt import Constraint, SolverModel, maximize_ratio
from .scoring import PatternScorer, ratio_bracket


@dataclass(frozen=True)
class LinkResult:
    """Outcome of one linking solve.

    `trajectories` and `assignment` are the reported output (trajectories
    assigned to the empty pattern are dropped when the config says so);
    `all_trajectories` and `full_assignment` keep the complete decomposition.
    `alpha_star` is the exact objective value of that decomposition and
    `search_alpha` the certified bisection bound it improves on.
    """

    trajectories: tuple[Trajectory, ...]
    assignment: Assignment
    all_trajectories: tuple[Trajectory, ...]
    full_assignment: Assignment
    alpha_star: float
    search_alpha: float
    lower_bound_only: bool = False


def require_empty_pattern(patterns: Sequence[Pattern]) -> int:
    """Index of the single empty pattern; raises if absent or duplicated."""
    empties = [k for k, p in enumerate(patterns) if p.is_empty]
    if len(empties) != 1:
        raise ValueError(f"pattern set must contain exactly one empty pattern, found {len(empties)}")
    return empties[0]


def reported_trajectories(
    trajectories: Sequence[Trajectory],
    assignment: Assignment,
    patterns: Sequence[Pattern],
    cfg: Config,
) -> tuple[tuple[Trajectory, ...], Assignment]:
    """The trajectories and their pattern indices, less those on the empty
    pattern when `cfg.remove_empty` says to drop them."""
    if not cfg.remove_empty:
        return tuple(trajectories), assignment
    kept = [(t, p) for t, p in zip(trajectories, assignment) if not patterns[p].is_empty]
    return tuple(t for t, _ in kept), Assignment(tuple(p for _, p in kept))


def build_link_model(
    graph: DetectionGraph, patterns: Sequence[Pattern], cfg: Config
) -> tuple[SolverModel, tuple[tuple[int, int, int], ...]]:
    """Construct the 0/1 model for linking.

    One variable per (pattern, edge) triple.  Constraints: every detection
    selects exactly one outgoing and one incoming edge across patterns, and the
    selected pattern is conserved through each detection.  These rows already
    make entries balance exits: summed over the n detections, #detection edges
    + #exits = n = #detection edges + #entries.  Returns the model and the
    triple for each variable index.
    """
    edges = graph.sorted_edges
    triples = tuple(
        (p, i, j) for p in range(len(patterns)) for (i, j) in edges
    )
    var_of = {t: k for k, t in enumerate(triples)}

    numer = []
    denom = []
    for pattern in patterns:
        scorer = PatternScorer(graph, pattern, cfg)
        for i, j in edges:
            total, aligned = scorer.edge(i, j)
            numer.append(aligned)
            denom.append(total)

    constraints: list[Constraint] = []
    n_patterns = len(patterns)
    for det in graph.detections:
        d = det.id
        outs = graph.out_neighbors[d]
        ins = graph.in_neighbors[d]
        out_vars = tuple(var_of[(p, d, j)] for p in range(n_patterns) for j in outs)
        in_vars = tuple(var_of[(p, i, d)] for p in range(n_patterns) for i in ins)
        constraints.append(Constraint(out_vars, (1.0,) * len(out_vars), "==", 1.0))
        constraints.append(Constraint(in_vars, (1.0,) * len(in_vars), "==", 1.0))
        for p in range(n_patterns):
            cons_vars = tuple(var_of[(p, i, d)] for i in ins) + tuple(
                var_of[(p, d, j)] for j in outs
            )
            coeffs = (1.0,) * len(ins) + (-1.0,) * len(outs)
            constraints.append(Constraint(cons_vars, coeffs, "==", 0.0))

    return SolverModel(len(triples), tuple(constraints), tuple(numer), tuple(denom)), triples


def _decode(
    graph: DetectionGraph,
    triples: tuple[tuple[int, int, int], ...],
    witness: tuple[int, ...],
) -> tuple[tuple[Trajectory, ...], Assignment]:
    succ: dict[int, tuple[int, int]] = {}
    starts: list[tuple[int, int]] = []
    for k, x in enumerate(witness):
        if not x:
            continue
        p, i, j = triples[k]
        if i == SOURCE_NODE:
            starts.append((j, p))
        else:
            succ[i] = (j, p)
    paths: list[tuple[tuple[int, ...], int]] = []
    for v, p in starts:
        nodes = [v]
        while True:
            nxt, p_next = succ[nodes[-1]]
            assert p_next == p, "pattern changed along a trajectory"
            if nxt == SINK_NODE:
                break
            nodes.append(nxt)
        paths.append((tuple(nodes), p))

    def sort_key(item: tuple[tuple[int, ...], int]):
        head = graph.detection(item[0][0])
        return (head.frame, head.pos[0], head.pos[1], head.id)

    paths.sort(key=sort_key)
    trajectories = tuple(Trajectory(nodes) for nodes, _ in paths)
    assignment = Assignment(tuple(p for _, p in paths))
    violations = validate_trajectory_set(graph, trajectories)
    if violations:
        raise AssertionError(f"solver produced an invalid decomposition: {violations[:3]}")
    return trajectories, assignment


def link(
    graph: DetectionGraph,
    patterns: Sequence[Pattern],
    cfg: Config,
    iters: int = 10,
    time_budget: float | None = None,
) -> LinkResult:
    """Find the optimal pattern-guided decomposition of the graph.

    Raises if the pattern set lacks the empty pattern, a detection has no
    outgoing or incoming edge, or no decomposition has positive total score.
    """
    require_empty_pattern(patterns)
    for det in graph.detections:
        if not graph.out_neighbors[det.id]:
            raise ValueError(f"detection {det.id} has no outgoing edge")
        if not graph.in_neighbors[det.id]:
            raise ValueError(f"detection {det.id} has no incoming edge")

    model, triples = build_link_model(graph, patterns, cfg)
    result = maximize_ratio(model, *ratio_bracket(cfg), iters=iters, time_budget=time_budget)
    all_trajectories, full_assignment = _decode(graph, triples, result.witness)

    trajectories, assignment = reported_trajectories(
        all_trajectories, full_assignment, patterns, cfg
    )
    return LinkResult(
        trajectories=trajectories,
        assignment=assignment,
        all_trajectories=all_trajectories,
        full_assignment=full_assignment,
        alpha_star=result.achieved,
        search_alpha=result.alpha,
        lower_bound_only=result.lower_bound_only,
    )
