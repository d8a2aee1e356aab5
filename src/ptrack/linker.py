"""Re-links detections into trajectories guided by a pattern set.

Linking picks one outgoing and one incoming edge per detection so that the
selected edges decompose into entry-to-exit paths, each path following a
single pattern, and the summed aligned/total score ratio over all paths is
maximal; each end inside the batch costs something on every pattern (see
`scoring`).  The search is a bisection over the ratio with one 0/1
feasibility problem per probe.  It is certified to a gap, not exact: after
`iters` halvings (10 by default) the bound is within (hi - lo) * 2**-iters
of the optimum, and the decomposition returned need not be optimal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
from .fracopt import EQ, SolverModel, maximize_ratio
from .scoring import edge_scores, ratio_bracket


@dataclass(frozen=True)
class LinkResult:
    """Outcome of one linking solve.

    `trajectories` and `assignment` are the reported output (trajectories
    assigned to the empty pattern are dropped when the config says so);
    `all_trajectories` and `full_assignment` keep the complete decomposition.
    `alpha_star` is the exact objective value of that decomposition and
    `search_alpha` the certified bisection bound it improves on.  The
    optimum lies within (hi - lo) * 2**-iters above `search_alpha`, so the
    decomposition need not be optimal.
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

    One variable per (pattern, edge) pair: variable p * E + e pairs pattern p
    with edge e of the E edges of `graph.sorted_edges`.  Constraints: every
    detection selects exactly one outgoing and one incoming edge across
    patterns, and the selected pattern is conserved through each detection.
    These rows already make entries balance exits: summed over the n
    detections, #detection edges + #exits = n = #detection edges + #entries.

    Detection d (of `graph.ids`) has rows (2 + P) * (d - 1) onwards: its
    out-row, its in-row, then one conservation row per pattern p, the in-edges
    at +1 before the out-edges at -1.  In every row, edges are in sorted
    order and the out- and in-rows list pattern by pattern.  The rows are
    written as CSR arrays.  Returns the model and the (pattern, tail, head)
    triple of each variable.
    """
    edges = graph.sorted_edges
    n_edges, n_patterns, n = len(edges), len(patterns), len(graph.detections)
    triples = tuple((p, i, j) for p in range(n_patterns) for (i, j) in edges)

    tail, head = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    scores = [edge_scores(graph, pattern, cfg, tail, head) for pattern in patterns]
    denom = np.concatenate([total for total, _ in scores])
    numer = np.concatenate([aligned for _, aligned in scores])
    # Out-edges of each detection are contiguous in sorted order; in-edges
    # are gathered by a stable sort on the head.  rank is an edge's place
    # among its detection's out- (or in-) edges.
    out_e = np.flatnonzero(tail > 0)
    in_e = np.argsort(head, kind="stable")
    in_e = in_e[head[in_e] > 0]
    out_d, in_d = tail[out_e] - 1, head[in_e] - 1
    out_deg = np.bincount(out_d, minlength=n)
    in_deg = np.bincount(in_d, minlength=n)
    out_rank = np.arange(len(out_e)) - (np.cumsum(out_deg) - out_deg)[out_d]
    in_rank = np.arange(len(in_e)) - (np.cumsum(in_deg) - in_deg)[in_d]

    per_detection = 2 + n_patterns
    lengths = np.empty((n, per_detection), dtype=np.int64)
    lengths[:, 0] = n_patterns * out_deg
    lengths[:, 1] = n_patterns * in_deg
    lengths[:, 2:] = (in_deg + out_deg)[:, None]
    indptr = np.zeros(n * per_detection + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    row_start = indptr[:-1].reshape(n, per_detection)

    # For each pattern p, an edge of detection d sits in d's out- or in-row at
    # p * degree + rank, and in d's conservation row of p at rank (an
    # in-edge, +1) or at in-degree + rank (an out-edge, -1).
    indices = np.empty(indptr[-1], dtype=np.int64)
    coeffs = np.empty(indptr[-1])
    p = np.arange(n_patterns)[:, None]
    for place, e, coeff in (
        (row_start[out_d, 0] + p * out_deg[out_d] + out_rank, out_e, 1.0),
        (row_start[in_d, 1] + p * in_deg[in_d] + in_rank, in_e, 1.0),
        (row_start[in_d, 2 + p] + in_rank, in_e, 1.0),
        (row_start[out_d, 2 + p] + in_deg[out_d] + out_rank, out_e, -1.0),
    ):
        indices[place] = p * n_edges + e
        coeffs[place] = coeff
    rhs = np.zeros((n, per_detection))
    rhs[:, :2] = 1.0
    model = SolverModel(
        len(triples), indptr, indices, coeffs, np.full(len(indptr) - 1, EQ), rhs.ravel(), numer, denom
    )
    return model, triples


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
        return (head.frame, head.pos[0], head.pos[1], item[0][0])

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
    """Find a pattern-guided decomposition of the graph, certified to within
    (hi - lo) * 2**-iters of the best ratio, (lo, hi) being `ratio_bracket(cfg)`.

    Raises if the pattern set lacks the empty pattern, a detection has no
    outgoing or incoming edge, or no decomposition has positive total score.
    """
    require_empty_pattern(patterns)
    tails = {i for i, _ in graph.sorted_edges}
    heads = {j for _, j in graph.sorted_edges}
    for d in graph.ids:
        if d not in tails:
            raise ValueError(f"detection {d} has no outgoing edge")
        if d not in heads:
            raise ValueError(f"detection {d} has no incoming edge")

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
