"""Edge and trajectory scoring against motion patterns.

Every graph edge gets two numbers relative to a pattern: `total`, the length
of the edge plus the centerline arc it spans, and `aligned`, how much of that
length the edge and the centerline actually share.  A trajectory that walks a
pattern's corridor end to end accumulates aligned == total; motion the pattern
cannot explain accumulates total only.  The ratio of the two sums is the
objective the linker maximizes.
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


@dataclass(frozen=True)
class Projection:
    """Closest point of a centerline to a query point."""

    arc: float
    foot: tuple[float, float]
    dist: float


@dataclass(frozen=True)
class ScorePair:
    total: float
    aligned: float


def project_to_centerline(point: tuple[float, float], pattern: Pattern) -> Projection:
    """Project a point onto a pattern's centerline.

    Returns the arc length at the closest point, the closest point itself,
    and the distance to it.  Ties between equally close segments resolve to
    the smaller arc length.
    """
    if pattern.is_empty:
        raise ValueError("empty pattern has no centerline")
    v = pattern.vertices
    a, b = v[:-1], v[1:]
    d = b - a
    seg_len2 = np.einsum("ij,ij->i", d, d)
    p = np.asarray(point, dtype=float)
    t = np.clip(np.einsum("ij,ij->i", p - a, d) / seg_len2, 0.0, 1.0)
    feet = a + t[:, None] * d
    dist = np.linalg.norm(feet - p, axis=1)
    best = int(np.argmin(dist))
    arc = pattern.cum_arc[best] + t[best] * np.sqrt(seg_len2[best])
    return Projection(arc=float(arc), foot=(float(feet[best, 0]), float(feet[best, 1])), dist=float(dist[best]))


class PatternScorer:
    """Scores graph edges against one pattern, caching centerline projections.

    Projections depend on the centerline only, so scorers of patterns that
    share a centerline may share one `projections` cache (detection id to
    projection).
    """

    def __init__(
        self,
        graph: DetectionGraph,
        pattern: Pattern,
        cfg: Config,
        projections: dict[int, Projection] | None = None,
    ):
        self.graph = graph
        self.pattern = pattern
        self.cfg = cfg
        self._projections = {} if projections is None else projections

    def projection(self, det_id: int) -> Projection:
        proj = self._projections.get(det_id)
        if proj is None:
            proj = project_to_centerline(self.graph.detection(det_id).pos, self.pattern)
            self._projections[det_id] = proj
        return proj

    def detection_edge(self, i: int, j: int) -> ScorePair:
        pi = self.graph.detection(i).pos
        pj = self.graph.detection(j).pos
        edge_len = float(np.hypot(pj[0] - pi[0], pj[1] - pi[1]))
        if self.pattern.is_empty:
            return ScorePair(edge_len, self.cfg.empty_rate * edge_len)
        proj_i = self.projection(i)
        proj_j = self.projection(j)
        total = edge_len + (proj_j.arc - proj_i.arc)
        if proj_j.arc < proj_i.arc:
            # Moving against the pattern's direction: penalize in proportion
            # to the arc covered backwards, regardless of corridor width.
            aligned = -(1.0 + self.cfg.reverse_penalty) * (proj_i.arc - proj_j.arc)
            return ScorePair(total, aligned)
        if proj_i.dist > self.pattern.width or proj_j.dist > self.pattern.width:
            return ScorePair(total, 0.0)
        ex, ey = pj[0] - pi[0], pj[1] - pi[1]
        cx, cy = proj_j.foot[0] - proj_i.foot[0], proj_j.foot[1] - proj_i.foot[1]
        dot = abs(ex * cx + ey * cy)
        chord_len = float(np.hypot(cx, cy))
        # A chord this far below the foot coordinates is cancellation noise
        # from two nearly identical projections; treat it as a zero chord so
        # the 1 / |chord| factor cannot amplify rounding error.
        coord_scale = max(
            abs(proj_i.foot[0]), abs(proj_i.foot[1]),
            abs(proj_j.foot[0]), abs(proj_j.foot[1]), 1.0,
        )
        if chord_len <= 1e-12 * coord_scale:
            chord_len = 0.0
        aligned = 0.0
        if edge_len > 0.0:
            aligned += dot / edge_len
        if chord_len > 0.0:
            aligned += dot / chord_len
        return ScorePair(total, aligned)

    def entry_edge(self, v: int, at_batch_begin: bool) -> ScorePair:
        """Score for appearing at detection v; free at the batch's first frame."""
        if self.pattern.is_empty or at_batch_begin:
            return ScorePair(0.0, 0.0)
        return ScorePair(self.projection(v).arc, 0.0)

    def exit_edge(self, v: int, at_batch_end: bool) -> ScorePair:
        """Score for vanishing after detection v; free at the batch's last frame."""
        if self.pattern.is_empty or at_batch_end:
            return ScorePair(0.0, 0.0)
        return ScorePair(self.pattern.length - self.projection(v).arc, 0.0)


def edge_score(
    graph: DetectionGraph,
    i: int,
    j: int,
    pattern: Pattern,
    cfg: Config,
    at_boundary: bool | None = None,
) -> ScorePair:
    """Score a single edge against a pattern.

    For entry edges (i == SOURCE_NODE) `at_boundary` says whether the target
    sits in the batch's first frame; for exit edges (j == SINK_NODE), whether
    the source sits in the last frame.  When None, both are derived from the
    graph's batch range.  The flag is ignored for detection-to-detection
    edges.
    """
    scorer = PatternScorer(graph, pattern, cfg)
    if i == SOURCE_NODE and j == SINK_NODE:
        raise ValueError("edge must touch at least one detection")
    if i == SOURCE_NODE:
        at_begin = graph.detection(j).frame == graph.batch[0] if at_boundary is None else at_boundary
        return scorer.entry_edge(j, at_begin)
    if j == SINK_NODE:
        at_end = graph.detection(i).frame == graph.batch[1] if at_boundary is None else at_boundary
        return scorer.exit_edge(i, at_end)
    return scorer.detection_edge(i, j)


def trajectory_score(
    graph: DetectionGraph,
    traj: Trajectory,
    pattern: Pattern,
    cfg: Config,
    projections: dict[int, Projection] | None = None,
) -> ScorePair:
    """Sum edge scores along a trajectory, including its entry and exit edges.

    The trajectory's own boundary flags decide whether the entry and exit
    are free, so scores stay consistent when trajectories are re-evaluated
    against batches they were not extracted from.  `projections` is an
    optional cache shared with other calls on the same centerline (see
    `PatternScorer`).
    """
    scorer = PatternScorer(graph, pattern, cfg, projections)
    entry = scorer.entry_edge(traj.nodes[0], traj.starts_at_batch_begin)
    leave = scorer.exit_edge(traj.nodes[-1], traj.ends_at_batch_end)
    total = entry.total + leave.total
    aligned = entry.aligned + leave.aligned
    for a, b in zip(traj.nodes, traj.nodes[1:]):
        score = scorer.detection_edge(a, b)
        total += score.total
        aligned += score.aligned
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
