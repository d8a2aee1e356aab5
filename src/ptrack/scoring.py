"""Edge and trajectory scoring against motion patterns.

Every graph edge gets two numbers relative to a pattern: `total`, the length
of the edge plus the centerline arc it spans, and `aligned`, how much of that
length the edge and the centerline actually share.  A trajectory that walks a
pattern's corridor end to end accumulates aligned == total; motion the pattern
cannot explain accumulates total only.  The ratio of the two sums is the
objective the linker maximizes.

One end rule holds on every pattern: an entry at the batch's first frame and
an exit at its last are free, and any other end is charged, so cutting a
track into pieces is never free.  A pattern charges the centerline arc a path
skips before its first detection or after its last; the empty pattern charges
`EMPTY_END_TOTAL` at the empty rate.  `PatternScorer.edge` reads the rule off
`DetectionGraph.batch`, so the linker, the miner, the split-half proxy and
`objective` score any chain of detection ids the same way.

The linker, the miner and the split-half proxy score the same detections
against the same centerlines many times over, at many widths.  So each graph
caches, per centerline, the projections of all its detections (one batched
numpy pass) and, per scored edge, the terms that neither the width nor any
`Config` field changes.  The width, `reverse_penalty` and `empty_rate` are
applied each time the cache is read, so one entry serves every candidate width
and every configuration, and a cached score equals a fresh one bit for bit.
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
)


# Total of an empty-pattern end inside the batch, in the units of the
# detection positions: one unit of unexplained motion.
EMPTY_END_TOTAL = 1.0


@dataclass(frozen=True)
class ScorePair:
    total: float
    aligned: float


def ratio_bracket(cfg: Config) -> tuple[float, float]:
    """(lo, hi) bracket of the ratio search: every achievable ratio lies inside.

    On a pattern, aligned never exceeds total; on the empty pattern aligned is
    `empty_rate` times total, so the top is the larger of 1 and the empty rate.
    The ratio never drops below 0 when off-pattern motion scores
    non-negatively.  A negative empty rate pulls the floor down; reverse
    penalties can push a pattern-assigned trajectory slightly below it,
    hence the extra headroom.
    """
    hi = max(1.0, cfg.empty_rate)
    if cfg.empty_rate < 0:
        return -(1.0 + cfg.reverse_penalty + abs(cfg.empty_rate)), hi
    return 0.0, hi


def _project(points: np.ndarray, pattern: Pattern) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arc, foot and distance of the closest centerline point to each row of `points`.

    Every point is projected onto every segment in one pass; each row's result
    is bit for bit what projecting that point alone gives.  Ties between
    equally close segments resolve to the smaller arc length.
    """
    v = pattern.vertices
    a, b = v[:-1], v[1:]
    d = b - a
    seg_len2 = np.einsum("ij,ij->i", d, d)
    p = points[:, None, :]
    t = np.clip(np.einsum("nij,ij->ni", p - a, d) / seg_len2, 0.0, 1.0)
    feet = a + t[..., None] * d
    dist = np.linalg.norm(feet - p, axis=-1)
    best = np.argmin(dist, axis=-1)
    rows = np.arange(len(points))
    arc = pattern.cum_arc[best] + t[rows, best] * np.sqrt(seg_len2[best])
    return arc, feet[rows, best], dist[rows, best]


class _CenterlineTerms(dict):
    """What scoring one graph against one centerline computes, before any width or `Config`.

    `projections` maps every detection of the graph to (arc, foot x, foot y,
    dist), all projected in one pass; it is empty for the empty pattern, whose
    ends cost `EMPTY_END_TOTAL` wherever they lie.  The mapping itself gives
    (total, backward arc or 0, aligned inside the corridor, gate) per
    detection pair, computed on first lookup; the empty pattern sets only the
    total, the edge length.
    """

    def __init__(self, graph: DetectionGraph, pattern: Pattern):
        super().__init__()
        self.graph = graph
        self.projections: dict[int, tuple[float, float, float, float]] = {}
        if not pattern.is_empty:
            arc, foot, dist = _project(np.array([d.pos for d in graph.detections]), pattern)
            ids = (d.id for d in graph.detections)
            self.projections = dict(zip(ids, zip(arc.tolist(), *foot.T.tolist(), dist.tolist())))

    def __missing__(self, edge: tuple[int, int]) -> tuple[float, float, float, float]:
        terms = self[edge] = self._edge_terms(*edge)
        return terms

    def _edge_terms(self, i: int, j: int) -> tuple[float, float, float, float]:
        pi = self.graph.detection(i).pos
        pj = self.graph.detection(j).pos
        edge_len = float(np.hypot(pj[0] - pi[0], pj[1] - pi[1]))
        if not self.projections:
            return (edge_len, 0.0, 0.0, 0.0)
        arc_i, fxi, fyi, dist_i = self.projections[i]
        arc_j, fxj, fyj, dist_j = self.projections[j]
        total = edge_len + (arc_j - arc_i)
        if arc_j < arc_i:
            return (total, arc_i - arc_j, 0.0, 0.0)
        ex, ey = pj[0] - pi[0], pj[1] - pi[1]
        cx, cy = fxj - fxi, fyj - fyi
        dot = abs(ex * cx + ey * cy)
        chord_len = float(np.hypot(cx, cy))
        # A chord this far below the foot coordinates is cancellation noise
        # from two nearly identical projections; treat it as a zero chord so
        # the 1 / |chord| factor cannot amplify rounding error.
        coord_scale = max(abs(fxi), abs(fyi), abs(fxj), abs(fyj), 1.0)
        if chord_len <= 1e-12 * coord_scale:
            chord_len = 0.0
        aligned = 0.0
        if edge_len > 0.0:
            aligned += dot / edge_len
        if chord_len > 0.0:
            aligned += dot / chord_len
        return (total, 0.0, aligned, max(dist_i, dist_j))


class PatternScorer:
    """Scores graph edges (entries, exits and detection edges) against one pattern.

    Reads the width-free terms of the pattern's centerline from the graph's
    `scoring_cache` and applies the width and the `Config` on top, so all
    widths of a centerline and all configurations share one cache entry.
    """

    def __init__(self, graph: DetectionGraph, pattern: Pattern, cfg: Config):
        self.graph = graph
        self.pattern = pattern
        self.cfg = cfg
        key = pattern.centerline
        if key not in graph.scoring_cache:
            graph.scoring_cache[key] = _CenterlineTerms(graph, pattern)
        self._terms = graph.scoring_cache[key]

    def edge(self, i: int, j: int) -> tuple[float, float]:
        """(total, aligned) of an entry (i is SOURCE_NODE), exit (j is SINK_NODE) or detection edge.

        An entry at the batch's first frame and an exit at its last are free:
        the window, not the object, cut the path there.  Any other end costs
        the arc it skips, or `EMPTY_END_TOTAL` at the empty rate when empty.
        """
        if i == SOURCE_NODE or j == SINK_NODE:
            entry = i == SOURCE_NODE
            det = self.graph.detection(j if entry else i)
            if det.frame == self.graph.batch[0 if entry else 1]:
                return 0.0, 0.0
            if self.pattern.is_empty:
                return EMPTY_END_TOTAL, self.cfg.empty_rate * EMPTY_END_TOTAL
            arc = self._terms.projections[det.id][0]
            return (arc if entry else self.pattern.length - arc), 0.0
        total, back, aligned, gate = self._terms[i, j]
        if self.pattern.is_empty:
            return total, self.cfg.empty_rate * total
        if back > 0.0:
            # Moving against the pattern's direction: penalize in proportion
            # to the arc covered backwards, regardless of corridor width.
            return total, -(1.0 + self.cfg.reverse_penalty) * back
        return total, 0.0 if gate > self.pattern.width else aligned


def trajectory_score(graph: DetectionGraph, traj: Trajectory, pattern: Pattern, cfg: Config) -> ScorePair:
    """Sum edge scores along a trajectory, including its entry and exit edges."""
    edge = PatternScorer(graph, pattern, cfg).edge
    nodes = traj.nodes
    entry_total, entry_aligned = edge(SOURCE_NODE, nodes[0])
    exit_total, exit_aligned = edge(nodes[-1], SINK_NODE)
    total = entry_total + exit_total
    aligned = entry_aligned + exit_aligned
    for a, b in zip(nodes, nodes[1:]):
        edge_total, edge_aligned = edge(a, b)
        total += edge_total
        aligned += edge_aligned
    return ScorePair(total, aligned)


def objective(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    patterns: Sequence[Pattern],
    assignment: Assignment,
    cfg: Config,
) -> float:
    """Quality of a trajectory set under a pattern assignment.

    The ratio of summed aligned scores to summed total scores over all
    trajectories; 1.0 means every trajectory is fully explained by its
    pattern.  Raises if the assignment does not match or the total is not
    positive.
    """
    if len(assignment) != len(trajectories):
        raise ValueError("assignment length does not match trajectory count")
    if any(p >= len(patterns) for p in assignment):
        raise ValueError("assignment references a missing pattern")
    total = 0.0
    aligned = 0.0
    for traj, p_idx in zip(trajectories, assignment):
        score = trajectory_score(graph, traj, patterns[p_idx], cfg)
        total += score.total
        aligned += score.aligned
    if total <= 0.0:
        raise ValueError("degenerate instance: total score is not positive")
    return aligned / total
