"""Shared data model: detections, graphs, patterns, trajectories, configuration."""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

SOURCE_NODE = -1
SINK_NODE = -2

DEFAULT_WIDTHS = (0.5, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0)
RELATIVE_WIDTH_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

_DUPLICATE_TOL = 1e-12


def _finite_pair(value) -> bool:
    if len(value) != 2:
        return False
    x, y = value
    return (
        isinstance(x, (int, float))
        and math.isfinite(x)
        and isinstance(y, (int, float))
        and math.isfinite(y)
    )


@dataclass(frozen=True)
class Detection:
    """A single localized observation: ground-plane position at an integer frame.

    `source_track` remembers which input track the detection came from, if any;
    `is_track_start` / `is_track_end` mark the endpoints of that input track.
    """

    id: int
    frame: int
    pos: tuple[float, float]
    source_track: int | None = None
    is_track_start: bool = False
    is_track_end: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.id, int) or self.id < 0:
            raise ValueError(f"detection id must be a non-negative int, got {self.id!r}")
        if not isinstance(self.frame, int):
            raise ValueError(f"frame must be an int, got {self.frame!r}")
        pos = self.pos
        if not _finite_pair(pos):
            raise ValueError(f"position must be a finite (x, y) pair, got {pos!r}")
        x, y = pos
        if not (type(pos) is tuple and type(x) is float and type(y) is float):
            object.__setattr__(self, "pos", (float(x), float(y)))


@dataclass(frozen=True)
class DetectionGraph:
    """Detections plus candidate transition edges between them.

    Edges are ordered pairs of detection ids; the virtual entry and exit nodes
    use the sentinels SOURCE_NODE and SINK_NODE.  `batch` is the frame range
    the detections were observed in; it defaults to the detection span but may
    be wider when the data is a window cut from a longer recording.  It is the
    one source of the boundary rule: a path entering at the batch's first
    frame or leaving at its last pays nothing for that entry or exit.
    """

    detections: tuple[Detection, ...]
    edges: frozenset[tuple[int, int]]
    batch: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not self.detections:
            raise ValueError("graph has no detections")
        ids = [d.id for d in self.detections]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate detection ids")
        by_id = {d.id: d for d in self.detections}
        object.__setattr__(self, "_by_id", by_id)
        frames = [d.frame for d in self.detections]
        span = (min(frames), max(frames))
        if self.batch is None:
            object.__setattr__(self, "batch", span)
        else:
            first, last = self.batch
            if first > span[0] or last < span[1]:
                raise ValueError(f"batch {self.batch} does not cover detection frames {span}")
            object.__setattr__(self, "batch", (int(first), int(last)))
        for i, j in self.edges:
            if i == SINK_NODE or j == SOURCE_NODE or (i, j) == (SOURCE_NODE, SINK_NODE):
                raise ValueError(f"invalid edge ({i}, {j})")
            if i >= 0 and i not in by_id:
                raise ValueError(f"edge references unknown detection {i}")
            if j >= 0 and j not in by_id:
                raise ValueError(f"edge references unknown detection {j}")
            if i >= 0 and j >= 0 and by_id[i].frame >= by_id[j].frame:
                raise ValueError(f"edge ({i}, {j}) does not move forward in time")

    def detection(self, det_id: int) -> Detection:
        return self._by_id[det_id]

    def __contains__(self, det_id: int) -> bool:
        return det_id in self._by_id

    @cached_property
    def scoring_cache(self) -> dict:
        """Width-free scoring terms per centerline, filled by `ptrack.scoring`."""
        return {}

    @cached_property
    def detection_edges(self) -> tuple[tuple[int, int], ...]:
        """Detection-to-detection edges, sorted for deterministic iteration."""
        return tuple(sorted((i, j) for i, j in self.edges if i >= 0 and j >= 0))

    @cached_property
    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def out_neighbors(self) -> dict[int, tuple[int, ...]]:
        succ: dict[int, list[int]] = {d.id: [] for d in self.detections}
        succ[SOURCE_NODE] = []
        for i, j in self.sorted_edges:
            succ[i].append(j)
        return {k: tuple(v) for k, v in succ.items()}

    @cached_property
    def in_neighbors(self) -> dict[int, tuple[int, ...]]:
        pred: dict[int, list[int]] = {d.id: [] for d in self.detections}
        pred[SINK_NODE] = []
        for i, j in self.sorted_edges:
            pred[j].append(i)
        return {k: tuple(v) for k, v in pred.items()}


@dataclass(frozen=True)
class Trajectory:
    """An ordered chain of detection ids forming one object's path.

    The graph it is scored on decides whether its entry and exit are free
    (see `DetectionGraph.batch` and `PatternScorer.edge`).
    """

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("trajectory has no nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("trajectory repeats a detection")
        if any(n < 0 for n in self.nodes):
            raise ValueError("trajectory nodes must be detection ids")

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class Pattern:
    """A motion pattern: a centerline polyline with a corridor half-width.

    The empty pattern (no centerline) is the explicit opt-out used for
    objects that follow no learned pattern; its cost is zero and its width
    is ignored.
    """

    centerline: tuple[tuple[float, float], ...]
    width: float = 0.0

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.centerline)
        object.__setattr__(self, "centerline", pts)
        if not pts:
            return
        if len(pts) < 2:
            raise ValueError("centerline needs at least two points")
        for p in pts:
            if not _finite_pair(p):
                raise ValueError(f"centerline point {p!r} is not finite")
        for a, b in zip(pts, pts[1:]):
            if math.dist(a, b) <= _DUPLICATE_TOL:
                raise ValueError("centerline has coincident consecutive points")
        if not (isinstance(self.width, (int, float)) and math.isfinite(self.width) and self.width > 0):
            raise ValueError(f"width must be positive and finite, got {self.width!r}")
        object.__setattr__(self, "width", float(self.width))

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]], width: float) -> "Pattern":
        """Build a pattern from raw points, dropping coincident consecutive ones."""
        cleaned: list[tuple[float, float]] = []
        for p in points:
            q = (float(p[0]), float(p[1]))
            if not cleaned or math.dist(cleaned[-1], q) > _DUPLICATE_TOL:
                cleaned.append(q)
        if len(cleaned) < 2:
            raise ValueError("not enough distinct points for a centerline")
        return cls(tuple(cleaned), width)

    @property
    def is_empty(self) -> bool:
        return not self.centerline

    @cached_property
    def vertices(self) -> np.ndarray:
        return np.asarray(self.centerline, dtype=float)

    @cached_property
    def cum_arc(self) -> np.ndarray:
        """Cumulative arc length at each centerline vertex, starting at 0."""
        if self.is_empty:
            return np.zeros(0)
        seg = np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)
        return np.concatenate(([0.0], np.cumsum(seg)))

    @property
    def length(self) -> float:
        return 0.0 if self.is_empty else float(self.cum_arc[-1])

    @property
    def cost(self) -> float:
        """Area-like price of keeping this pattern: length times width."""
        return 0.0 if self.is_empty else self.length * self.width

    def point_at(self, arc: float) -> tuple[float, float]:
        """Centerline point at the given arc length, clamped to the ends."""
        if self.is_empty:
            raise ValueError("empty pattern has no centerline")
        s = min(max(arc, 0.0), self.length)
        idx = int(np.searchsorted(self.cum_arc, s, side="right")) - 1
        idx = min(idx, len(self.centerline) - 2)
        a = self.vertices[idx]
        b = self.vertices[idx + 1]
        seg = self.cum_arc[idx + 1] - self.cum_arc[idx]
        t = 0.0 if seg <= 0 else (s - self.cum_arc[idx]) / seg
        p = a + t * (b - a)
        return (float(p[0]), float(p[1]))

    def tangent_at(self, arc: float) -> tuple[float, float]:
        """Unit direction of the segment containing the given arc length."""
        if self.is_empty:
            raise ValueError("empty pattern has no centerline")
        s = min(max(arc, 0.0), self.length)
        idx = int(np.searchsorted(self.cum_arc, s, side="right")) - 1
        idx = min(max(idx, 0), len(self.centerline) - 2)
        d = self.vertices[idx + 1] - self.vertices[idx]
        norm = float(np.linalg.norm(d))
        return (float(d[0] / norm), float(d[1] / norm))


EMPTY_PATTERN = Pattern(centerline=(), width=0.0)


@dataclass(frozen=True)
class Assignment:
    """Pattern index chosen for each trajectory, aligned by position."""

    pattern_of: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(not isinstance(p, int) or p < 0 for p in self.pattern_of):
            raise ValueError("pattern indices must be non-negative ints")

    def __getitem__(self, traj_index: int) -> int:
        return self.pattern_of[traj_index]

    def __len__(self) -> int:
        return len(self.pattern_of)

    def __iter__(self):
        return iter(self.pattern_of)


@dataclass(frozen=True)
class Config:
    """Tuning knobs for graph construction, scoring, and pattern mining.

    Distances are in the same unit as detection coordinates (meters for the
    datasets this was written for); `join_gap` is in seconds and is converted
    to frames with `fps`.
    """

    link_radius: float = 2.0
    join_radius: float = 4.0
    join_gap: float = 2.0
    fps: float = 1.0
    remove_empty: bool = True
    max_patterns: int = 5
    pattern_cost_budget: float | None = None
    reverse_penalty: float = 1.0
    empty_rate: float = 0.3
    candidate_widths: tuple[float, ...] = DEFAULT_WIDTHS

    def __post_init__(self) -> None:
        for name in ("link_radius", "join_radius", "join_gap", "fps"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not isinstance(self.max_patterns, int) or self.max_patterns < 1:
            raise ValueError(f"max_patterns must be a positive int, got {self.max_patterns!r}")
        if self.pattern_cost_budget is not None and not (
            math.isfinite(self.pattern_cost_budget) and self.pattern_cost_budget >= 0
        ):
            raise ValueError("pattern_cost_budget must be non-negative when set")
        if not (math.isfinite(self.reverse_penalty) and self.reverse_penalty >= 0):
            raise ValueError("reverse_penalty must be non-negative")
        if not math.isfinite(self.empty_rate):
            raise ValueError("empty_rate must be finite")
        widths = tuple(float(w) for w in self.candidate_widths)
        if not widths or any(not math.isfinite(w) or w <= 0 for w in widths):
            raise ValueError("candidate_widths must be non-empty positive floats")
        object.__setattr__(self, "candidate_widths", widths)

    @classmethod
    def unsupervised(cls, **overrides) -> "Config":
        """Defaults for running without ground truth: off-pattern motion is penalized."""
        overrides.setdefault("empty_rate", -3.0)
        return cls(**overrides)

    def with_cost_budget(self, budget: float) -> "Config":
        return replace(self, pattern_cost_budget=budget)

    def resolved_cost_budget(self, area: float) -> float:
        """Total pattern cost allowed; defaults to a fraction of the scene area."""
        if self.pattern_cost_budget is not None:
            return self.pattern_cost_budget
        return 0.3 * self.max_patterns * area

    def join_gap_frames(self) -> int:
        return max(1, int(round(self.join_gap * self.fps)))


def relative_widths(extent: float, fractions: Sequence[float] = RELATIVE_WIDTH_FRACTIONS) -> tuple[float, ...]:
    """Candidate widths as fractions of the scene extent, for indoor-scale data."""
    if not (math.isfinite(extent) and extent > 0):
        raise ValueError(f"extent must be positive, got {extent!r}")
    return tuple(f * extent for f in fractions)


def bounding_box(points: Iterable[tuple[float, float]]) -> tuple[float, float, float, float]:
    arr = np.asarray(list(points), dtype=float)
    if arr.size == 0:
        raise ValueError("no points")
    return (
        float(arr[:, 0].min()),
        float(arr[:, 1].min()),
        float(arr[:, 0].max()),
        float(arr[:, 1].max()),
    )


def tracking_area(points: Iterable[tuple[float, float]]) -> float:
    """Axis-aligned bounding-box area of the observed positions."""
    x0, y0, x1, y1 = bounding_box(points)
    return (x1 - x0) * (y1 - y0)


def tracking_extent(points: Iterable[tuple[float, float]]) -> float:
    """Larger side of the bounding box; a scale for relative thresholds."""
    x0, y0, x1, y1 = bounding_box(points)
    return max(x1 - x0, y1 - y0)


def validate_trajectory_set(graph: DetectionGraph, trajectories: Sequence[Trajectory]) -> list[str]:
    """Check that trajectories partition the detections along graph edges.

    Returns a list of human-readable violations; an empty list means the set
    is a valid decomposition (every detection in exactly one trajectory and
    every transition an existing edge).
    """
    violations: list[str] = []
    seen: set[int] = set()
    for traj in trajectories:
        for node in traj.nodes:
            if node not in graph:
                violations.append(f"unknown detection {node}")
                continue
            if node in seen:
                violations.append(f"detection {node} used twice")
            seen.add(node)
        for i, j in zip(traj.nodes, traj.nodes[1:]):
            if (i, j) not in graph.edges:
                violations.append(f"transition ({i}, {j}) is not a graph edge")
    for det in graph.detections:
        if det.id not in seen:
            violations.append(f"detection {det.id} uncovered")
    return violations


def tracks_from_trajectories(
    graph: DetectionGraph, trajectories: Sequence[Trajectory]
) -> list[list[Detection]]:
    """Materialize trajectories back into detection lists."""
    return [[graph.detection(n) for n in traj.nodes] for traj in trajectories]
