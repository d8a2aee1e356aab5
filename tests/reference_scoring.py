"""The scalar scorer that `ptrack.scoring`'s array passes replaced, kept as the reference.

`PatternScorer.edge` scores one edge at a time and `trajectory_score` sums a
trajectory's edges in a Python loop: entry plus exit, then each detection
edge in order.  Per graph and centerline, `_CenterlineTerms` holds the
projection of every detection and, per edge on first lookup, the terms that
no width or `Config` field changes.  `edge_scores` and `score_matrix`
must give the same floats, bit for bit.
"""
from __future__ import annotations

import numpy as np

from ptrack.core import SINK_NODE, SOURCE_NODE, Config, DetectionGraph, Pattern
from ptrack.scoring import EMPTY_END_TOTAL, ScorePair


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
            self.projections = dict(zip(graph.ids, zip(arc.tolist(), *foot.T.tolist(), dist.tolist())))

    def __missing__(self, edge: tuple[int, int]) -> tuple[float, float, float, float]:
        terms = self[edge] = self._edge_terms(*edge)
        return terms

    def _edge_terms(self, i: int, j: int) -> tuple[float, float, float, float]:
        pi = self.graph.detections[i - 1].pos
        pj = self.graph.detections[j - 1].pos
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
        # Kept apart from the entries `ptrack.scoring` makes in the same cache.
        key = (_CenterlineTerms, pattern.centerline)
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
            node = j if entry else i
            if self.graph.detections[node - 1].frame == self.graph.batch[0 if entry else 1]:
                return 0.0, 0.0
            if self.pattern.is_empty:
                return EMPTY_END_TOTAL, self.cfg.empty_rate * EMPTY_END_TOTAL
            arc = self._terms.projections[node][0]
            return (arc if entry else self.pattern.length - arc), 0.0
        total, back, aligned, gate = self._terms[i, j]
        if self.pattern.is_empty:
            return total, self.cfg.empty_rate * total
        if back > 0.0:
            # Moving against the pattern's direction: penalize in proportion
            # to the arc covered backwards, regardless of corridor width.
            return total, -(1.0 + self.cfg.reverse_penalty) * back
        return total, 0.0 if gate > self.pattern.width else aligned


def trajectory_score(graph: DetectionGraph, nodes: tuple[int, ...], pattern: Pattern, cfg: Config) -> ScorePair:
    """Sum edge scores along a trajectory, its detection ids, including its entry and exit edges."""
    edge = PatternScorer(graph, pattern, cfg).edge
    entry_total, entry_aligned = edge(SOURCE_NODE, nodes[0])
    exit_total, exit_aligned = edge(nodes[-1], SINK_NODE)
    total = entry_total + exit_total
    aligned = entry_aligned + exit_aligned
    for a, b in zip(nodes, nodes[1:]):
        edge_total, edge_aligned = edge(a, b)
        total += edge_total
        aligned += edge_aligned
    return ScorePair(total, aligned)
