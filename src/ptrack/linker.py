"""Re-links detections into trajectories guided by a pattern set.

Linking picks one outgoing and one incoming edge (rows of `graph.edges`) per
detection so that the selected edges decompose into entry-to-exit paths, each
path following a single pattern, and the summed aligned/total score ratio over
all paths is maximal; each end inside the batch costs something on every
pattern (see `scoring`).  The solve is exact: Dinkelbach's method over the
model's LP (see `fracopt`), whose vertices have been integral on every link
model measured.  At equal ratio the decomposition with the fewest
trajectories (entry edges) wins, then the one with the largest total.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    SOURCE_NODE,
    Assignment,
    Config,
    DetectionGraph,
    Pattern,
    TrajectorySet,
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
    `alpha_star` is the exact objective value of that decomposition: the
    optimum, unless `lower_bound_only` says the time budget cut the solve.
    """

    trajectories: TrajectorySet
    assignment: Assignment
    all_trajectories: TrajectorySet
    full_assignment: Assignment
    alpha_star: float
    lower_bound_only: bool = False


def require_empty_pattern(patterns: Sequence[Pattern]) -> int:
    """Index of the single empty pattern; raises if absent or duplicated."""
    empties = [k for k, p in enumerate(patterns) if p.is_empty]
    if len(empties) != 1:
        raise ValueError(f"pattern set must contain exactly one empty pattern, found {len(empties)}")
    return empties[0]


def reported_trajectories(
    trajectories: TrajectorySet,
    assignment: Assignment,
    patterns: Sequence[Pattern],
    cfg: Config,
) -> tuple[TrajectorySet, Assignment]:
    """The trajectories and their pattern indices, less those on the empty
    pattern when `cfg.remove_empty` says to drop them."""
    if not cfg.remove_empty:
        return trajectories, assignment
    kept = [k for k, p in enumerate(assignment) if not patterns[p].is_empty]
    return trajectories[kept], Assignment(tuple(assignment[k] for k in kept))


def build_link_model(
    graph: DetectionGraph, patterns: Sequence[Pattern], cfg: Config
) -> tuple[SolverModel, tuple[tuple[int, int, int], ...]]:
    """Construct the 0/1 model for linking.

    One variable per (pattern, edge) pair: variable p * E + e pairs pattern p
    with edge e, row e of `graph.edges`.  Constraints: every
    detection selects exactly one outgoing and one incoming edge across
    patterns, and the selected pattern is conserved through each detection.
    These rows already make entries balance exits: summed over the n
    detections, #detection edges + #exits = n = #detection edges + #entries.

    Detection d (of `graph.ids`) has rows (2 + P) * (d - 1) onwards: its
    out-row, its in-row, then one conservation row per pattern p, the in-edges
    at +1 before the out-edges at -1.  In every row, edges are in sorted
    order and the out- and in-rows list pattern by pattern.  The rows are
    written as CSR arrays.  At equal ratio the fewest trajectories (entry
    edges) win, then the largest total, so that a cover whose total is 0
    never wins a tie: the tiebreak is 1 per entry edge less a small multiple
    of the total.  Returns the model and the (pattern, tail, head) triple of
    each variable.
    """
    n_edges, n_patterns, n = len(graph.edges), len(patterns), len(graph.frames)
    pairs = graph.edges.tolist()
    triples = tuple((p, i, j) for p in range(n_patterns) for i, j in pairs)

    tail, head = graph.edges.T
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
    # Fewest entries first; among those, the largest total, which the
    # weight keeps below half an entry.
    tiebreak = np.tile(tail == SOURCE_NODE, n_patterns) - denom / (2.0 * (1.0 + np.abs(denom).sum()))
    model = SolverModel(
        len(triples), indptr, indices, coeffs, np.full(len(indptr) - 1, EQ), rhs.ravel(), numer, denom,
        tiebreak,
    )
    return model, triples


def _decode(graph: DetectionGraph, witness: tuple[int, ...]) -> tuple[TrajectorySet, Assignment]:
    """The paths of a link witness (variable k: pattern k // E on edge k % E) and their patterns.

    Pointer jumping over each detection's predecessor finds its path's head;
    rows sort by path, then frame, which rises along every edge.  Paths are
    ordered by their head's frame, x, y and id."""
    pattern, edge = np.divmod(np.flatnonzero(witness), len(graph.edges))
    tail, head = graph.edges[edge].T
    entry, step, out = tail == SOURCE_NODE, (tail > 0) & (head > 0), tail > 0
    root = np.arange(len(graph.frames))
    root[head[step] - 1] = tail[step] - 1
    while not np.array_equal(root, jumped := root[root]):
        root = jumped
    heads = head[entry] - 1
    order = np.lexsort((heads, *graph.positions[heads, ::-1].T, graph.frames[heads]))
    path = np.full_like(root, -1)  # a root that no entry reaches, caught below
    path[heads[order]] = np.arange(len(heads))
    path = path[root]
    path_pattern = np.append(pattern[entry][order], -1)
    assert (pattern[out] == path_pattern[path[tail[out] - 1]]).all(), "pattern changed along a trajectory"
    rows = np.lexsort((graph.frames, path))
    trajectories = TrajectorySet(rows, np.searchsorted(path[rows], np.arange(len(heads) + 1)))
    violations = validate_trajectory_set(graph, trajectories)
    if violations:
        raise AssertionError(f"solver produced an invalid decomposition: {violations[:3]}")
    return trajectories, Assignment(tuple(path_pattern[:-1].tolist()))


def link(
    graph: DetectionGraph,
    patterns: Sequence[Pattern],
    cfg: Config,
    time_budget: float | None = None,
) -> LinkResult:
    """Find the pattern-guided decomposition of the graph with the best ratio.

    Raises if the pattern set lacks the empty pattern, a detection has no
    outgoing or incoming edge, or no decomposition has positive total score.
    """
    require_empty_pattern(patterns)
    n = len(graph.frames)
    out_deg, in_deg = (np.bincount(ends[ends > 0], minlength=n + 1)[1:] for ends in graph.edges.T)
    if not (out_deg.all() and in_deg.all()):
        d = int(np.argmin((out_deg > 0) & (in_deg > 0)))
        raise ValueError(f"detection {d + 1} has no {'incoming' if out_deg[d] else 'outgoing'} edge")

    model, _ = build_link_model(graph, patterns, cfg)
    result = maximize_ratio(model, ratio_bracket(cfg)[0], time_budget=time_budget)
    all_trajectories, full_assignment = _decode(graph, result.witness)

    trajectories, assignment = reported_trajectories(all_trajectories, full_assignment, patterns, cfg)
    return LinkResult(
        trajectories=trajectories,
        assignment=assignment,
        all_trajectories=all_trajectories,
        full_assignment=full_assignment,
        alpha_star=result.alpha,
        lower_bound_only=result.lower_bound_only,
    )
