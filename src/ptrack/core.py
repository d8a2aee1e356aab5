"""Shared data model: detections, graphs, patterns, trajectories, configuration.

A detection is `Detection(frame, pos)`; identity is what linking produces.  A
track is a list of detections in frame order, the only record of which track
a detection belongs to.  A `DetectionGraph` names `detections[k]` by its
position, id k + 1, holds its edges as `graph.edges`, the id pairs as sorted
rows of one (E, 2) int64 array, and `build_graph` keeps the input tracks as
`DetectionGraph.source_tracks`, chains of these ids.
`TrackTable` holds the same tracks as three arrays, one row per detection,
for code that only reads frames and positions (reading and scoring tracks);
`TrackTable.tracks()` and `TrackTable.from_tracks` convert between the two.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

SOURCE_NODE = -1
SINK_NODE = -2

DEFAULT_WIDTHS = (0.5, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0)
RELATIVE_WIDTH_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

_DUPLICATE_TOL = 1e-12


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float that is not a bool."""
    return _is_int(value) or isinstance(value, float) and math.isfinite(value)


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


def _check_ids(kinds: set[type]) -> None:
    if kinds & {bool, np.bool_} or not all(np.can_cast(k, np.int64) for k in kinds):
        raise ValueError("edge ids must be ints, not bools, floats or strings")


def _edge_array(edges) -> np.ndarray:
    """Any collection of (i, j) int pairs as sorted unique rows of a read-only (E, 2) int64 array.

    The ids of a collection other than an array are type-checked before
    `np.fromiter` converts them, as it would truncate a float.
    """
    if not isinstance(edges, np.ndarray):
        pairs = list(edges)
        if not (set(map(type, pairs)) <= {tuple, list, np.ndarray} and set(map(len, pairs)) <= {2}):
            raise ValueError("edges must be (i, j) pairs")
        _check_ids(set(map(type, chain.from_iterable(pairs))))
        try:
            edges = np.fromiter(chain.from_iterable(pairs), np.int64, 2 * len(pairs)).reshape(-1, 2)
        except OverflowError:
            raise ValueError("edge ids must fit in int64") from None
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValueError(f"edges must be (i, j) pairs, got shape {edges.shape}")
    _check_ids({edges.dtype.type})
    edges = edges[np.lexsort(edges.T[::-1])].astype(np.int64, copy=False)
    return _frozen(edges[np.diff(edges, axis=0, prepend=edges[:1] - 1).any(axis=1)])  # drop repeats


@dataclass(frozen=True)
class Detection:
    """A single localized observation: ground-plane position at an integer frame."""

    frame: int
    pos: tuple[float, float]

    def __post_init__(self) -> None:
        if not _is_int(self.frame):
            raise ValueError(f"frame must be an int, got {self.frame!r}")
        pos = self.pos
        if not _finite_pair(pos):
            raise ValueError(f"position must be a finite (x, y) pair, got {pos!r}")
        x, y = pos
        if not (type(pos) is tuple and type(x) is float and type(y) is float):
            object.__setattr__(self, "pos", (float(x), float(y)))


@dataclass(frozen=True, eq=False)
class TrackTable:
    """Tracks as columns: `frames` (int64) and `pos` (an (n, 2) float array).

    Track k is rows `starts[k]:starts[k + 1]`, in the order of its detection
    list; `starts` holds one more entry than there are tracks, so a track
    may be empty.  Positions are finite, as in `Detection`.
    """

    frames: np.ndarray
    pos: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        frames, starts = np.asarray(self.frames), np.asarray(self.starts)
        pos = np.asarray(self.pos, dtype=float)
        if frames.dtype != np.int64 or frames.ndim != 1:
            raise ValueError("frames must be a one-dimensional int64 array")
        if pos.shape != (len(frames), 2) or not np.isfinite(pos).all():
            raise ValueError(f"pos must be {len(frames)} finite (x, y) rows")
        if not (
            starts.ndim == 1
            and starts.dtype.kind in "iu"
            and starts.size
            and starts[0] == 0
            and starts[-1] == len(frames)
            and np.all(starts[1:] >= starts[:-1])
        ):
            raise ValueError("starts must rise from 0 to the row count")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "starts", starts.astype(np.int64, copy=False))

    @classmethod
    def from_tracks(cls, tracks: Sequence[Sequence[Detection]]) -> "TrackTable":
        dets = [d for track in tracks for d in track]
        try:
            frames = np.fromiter((d.frame for d in dets), np.int64, len(dets))
        except OverflowError:
            raise ValueError("frames must fit in int64") from None
        pos = np.array([d.pos for d in dets], dtype=float).reshape(-1, 2)
        starts = np.cumsum([0, *map(len, tracks)], dtype=np.int64)
        return cls(frames, pos, starts)

    def __len__(self) -> int:
        return len(self.starts) - 1

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.starts)

    @property
    def owner(self) -> np.ndarray:
        """Track index of each row."""
        return np.repeat(np.arange(len(self)), self.lengths)

    def tracks(self) -> list[list[Detection]]:
        """Detection lists, one per track, one `Detection(frame, pos)` per row."""
        dets = list(map(Detection, self.frames.tolist(), zip(*self.pos.T.tolist())))
        bounds = self.starts.tolist()
        return [dets[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True, eq=False)
class DetectionGraph:
    """Detections plus candidate transition edges between them.

    Edges are ordered pairs of detection ids, where id k (of `ids`, 1..n) names
    `detections[k - 1]`; the virtual entry and exit nodes use the sentinels
    SOURCE_NODE and SINK_NODE.  `batch` is the frame range the detections were
    observed in; it defaults to the detection span but may be wider when the
    data is a window cut from a longer recording.  It is the one source of the
    boundary rule: a path entering at the batch's first frame or leaving at its
    last pays nothing for that entry or exit.  `source_tracks` holds the input
    tracks as chains of detection ids, a cover of the detections along edges; it
    is empty when the graph was not built from tracks.  The constructor takes
    any collection of int pairs as `edges` and keeps them as a read-only
    (E, 2) int64 array of unique rows in lexicographic order.
    """

    detections: tuple[Detection, ...]
    edges: np.ndarray
    batch: tuple[int, int] | None = None
    source_tracks: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if not self.detections:
            raise ValueError("graph has no detections")
        frames = self.frames
        span = (int(frames.min()), int(frames.max()))
        batch = span if self.batch is None else self.batch
        if not all(_is_int(b) or isinstance(b, float) and b.is_integer() for b in batch):
            raise ValueError(f"batch {batch} bounds must be integers")
        first, last = batch
        if first > span[0] or last < span[1]:
            raise ValueError(f"batch {batch} does not cover detection frames {span}")
        object.__setattr__(self, "batch", (int(first), int(last)))
        edges = _edge_array(self.edges)
        object.__setattr__(self, "edges", edges)
        # Each check names the first offending edge in sorted order.
        tail, head = edges.T
        invalid = (tail == SINK_NODE) | (head == SOURCE_NODE) | (tail == SOURCE_NODE) & (head == SINK_NODE)
        if invalid.any():
            raise ValueError("invalid edge ({}, {})".format(*edges[invalid][0]))
        unknown = ((edges < 1) | (edges > len(frames))) & (edges != SOURCE_NODE) & (edges != SINK_NODE)
        if unknown.any():
            raise ValueError(f"edge references unknown detection {edges[unknown][0]}")
        inner = edges[(tail > 0) & (head > 0)]
        backward = inner[frames[inner[:, 0] - 1] >= frames[inner[:, 1] - 1]]
        if len(backward):
            raise ValueError("edge ({}, {}) does not move forward in time".format(*backward[0]))
        if self.source_tracks:
            violations = validate_trajectory_set(self, [Trajectory(t) for t in self.source_tracks])
            if violations:
                raise ValueError(f"source tracks are not a cover of the graph: {violations[0]}")

    @cached_property
    def ids(self) -> range:
        return range(1, len(self.detections) + 1)

    def detection(self, det_id: int) -> Detection:
        if det_id not in self.ids:
            raise KeyError(det_id)
        return self.detections[det_id - 1]

    def __contains__(self, det_id: int) -> bool:
        return det_id in self.ids

    @cached_property
    def frames(self) -> np.ndarray:
        """Frame of each detection (int64, or Python ints beyond it); id k is row k - 1."""
        return np.array([d.frame for d in self.detections])

    @cached_property
    def positions(self) -> np.ndarray:
        """(x, y) of each detection, an (n, 2) float array; id k is row k - 1."""
        return np.array([d.pos for d in self.detections], dtype=float)

    def rows(self, trajectories: Sequence["Trajectory"]) -> tuple[np.ndarray, np.ndarray]:
        """The trajectories' detections as rows (id - 1), concatenated, and where
        each trajectory starts; `KeyError` on an id outside `ids`, as in `detection`."""
        ids = [n for t in trajectories for n in t.nodes]
        if ids and max(ids) > len(self.detections):  # a `Trajectory` holds no id below 1
            raise KeyError(next(n for n in ids if n > len(self.detections)))
        return np.array(ids, dtype=np.int64) - 1, np.cumsum([0, *map(len, trajectories)])

    @cached_property
    def scoring_cache(self) -> dict:
        """What `ptrack.scoring` keeps: per centerline, the projection of every
        detection, and nothing per trajectory or trajectory set."""
        return {}


@dataclass(frozen=True)
class Trajectory:
    """An ordered chain of detection ids forming one object's path.

    Nodes are detection ids, positive ints (not bools).  The graph it is
    scored on decides whether its entry and exit are free (see
    `DetectionGraph.batch` and `scoring.edge_scores`).
    """

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("trajectory has no nodes")
        if not all(type(n) is int and n >= 1 for n in self.nodes):
            raise ValueError(f"trajectory nodes must be detection ids, ints from 1: {self.nodes!r}")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("trajectory repeats a detection")

    def __len__(self) -> int:
        return len(self.nodes)


def _checked_width(width) -> float:
    if not (isinstance(width, (int, float)) and math.isfinite(width) and width > 0):
        raise ValueError(f"width must be positive and finite, got {width!r}")
    return float(width)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
        object.__setattr__(self, "width", _checked_width(self.width))

    @classmethod
    def from_points(cls, points: Iterable[tuple[float, float]], width: float) -> "Pattern":
        """Build a pattern from raw points, dropping coincident consecutive ones."""
        cleaned: list[tuple[float, float]] = []
        for p in points:
            q = (float(p[0]), float(p[1]))
            if not _finite_pair(q):
                raise ValueError(f"centerline point {q!r} is not finite")
            if not cleaned or math.dist(cleaned[-1], q) > _DUPLICATE_TOL:
                cleaned.append(q)
        if len(cleaned) < 2:
            raise ValueError("not enough distinct points for a centerline")
        return cls(tuple(cleaned), width)

    def with_width(self, width: float) -> "Pattern":
        """`Pattern(self.centerline, width)`, without checking the centerline again.

        The width is checked as the constructor checks it.  The new pattern
        shares this one's `vertices` and `cum_arc`, which are read-only.
        """
        if self.is_empty:
            return Pattern((), width)
        twin = object.__new__(Pattern)
        object.__setattr__(twin, "centerline", self.centerline)
        object.__setattr__(twin, "width", _checked_width(width))
        twin.__dict__.update(vertices=self.vertices, cum_arc=self.cum_arc)
        return twin

    @property
    def is_empty(self) -> bool:
        return not self.centerline

    @cached_property
    def vertices(self) -> np.ndarray:
        return _frozen(np.asarray(self.centerline, dtype=float))

    @cached_property
    def cum_arc(self) -> np.ndarray:
        """Cumulative arc length at each centerline vertex, starting at 0."""
        if self.is_empty:
            return _frozen(np.zeros(0))
        seg = np.linalg.norm(np.diff(self.vertices, axis=0), axis=1)
        return _frozen(np.concatenate(([0.0], np.cumsum(seg))))

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
        # Every number is a finite int or float, never a bool or a string.
        for name in ("link_radius", "join_radius", "join_gap", "fps"):
            v = getattr(self, name)
            if not (_is_real(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not math.isfinite(self.join_gap * self.fps):
            raise ValueError(f"join_gap * fps must be finite, got {self.join_gap!r} * {self.fps!r}")
        if not (_is_int(self.max_patterns) and self.max_patterns >= 1):
            raise ValueError(f"max_patterns must be a positive int, got {self.max_patterns!r}")
        for name in ("pattern_cost_budget", "reverse_penalty"):
            v = getattr(self, name)
            if not (_is_real(v) and v >= 0 or v is None and name == "pattern_cost_budget"):
                raise ValueError(f"{name} must be non-negative and finite, got {v!r}")
        if not _is_real(self.empty_rate):
            raise ValueError(f"empty_rate must be finite, got {self.empty_rate!r}")
        widths = tuple(self.candidate_widths)
        if not (widths and all(_is_real(w) and w > 0 for w in widths)):
            raise ValueError(f"candidate_widths must be positive and finite, got {self.candidate_widths!r}")
        object.__setattr__(self, "candidate_widths", tuple(map(float, widths)))

    @classmethod
    def unsupervised(cls, **overrides) -> "Config":
        """Defaults for running without ground truth: off-pattern motion is penalized."""
        overrides.setdefault("empty_rate", -3.0)
        return cls(**overrides)

    def with_cost_budget(self, budget: float) -> "Config":
        return replace(self, pattern_cost_budget=budget)

    def resolved_cost_budget(self, area: float) -> float:
        """Total pattern cost allowed; defaults to a fraction of the scene area.

        Collinear detections span no area, and a default of 0 would afford
        no pattern at all, so that case asks for an explicit budget instead.
        """
        if self.pattern_cost_budget is not None:
            return self.pattern_cost_budget
        if area <= 0.0:
            raise ValueError(
                "the detections span no area, so the default pattern cost budget is 0; "
                "set pattern_cost_budget (--cost-budget)"
            )
        return 0.3 * self.max_patterns * area

    def join_gap_frames(self) -> int:
        return max(1, int(round(self.join_gap * self.fps)))


def relative_widths(extent: float) -> tuple[float, ...]:
    """Candidate widths as `RELATIVE_WIDTH_FRACTIONS` of the scene extent, for indoor-scale data."""
    if not (_is_real(extent) and extent > 0):
        raise ValueError(f"extent must be positive and finite, got {extent!r}")
    return tuple(f * extent for f in RELATIVE_WIDTH_FRACTIONS)


def bounding_box(points: Iterable[tuple[float, float]]) -> tuple[float, float, float, float]:
    arr = np.asarray(points if isinstance(points, np.ndarray) else list(points), dtype=float)
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
    n, k = len(graph.detections), len(graph.detections) + 3
    # Step and edge i -> j as the key i * k + j, which rises with (i, j); a step
    # off the graph as -1, no edge's key.  A last key above all ends the search.
    edge_keys = np.append(graph.edges @ (k, 1), k * k)
    steps = ((i, j) for t in trajectories for i, j in zip(t.nodes, t.nodes[1:]))
    keys = np.array([i * k + j if i <= n and j <= n else -1 for i, j in steps], dtype=np.int64)
    linked = iter((edge_keys[np.searchsorted(edge_keys, keys)] == keys).tolist())
    for traj in trajectories:
        for node in traj.nodes:
            if node not in graph:
                violations.append(f"unknown detection {node}")
                continue
            if node in seen:
                violations.append(f"detection {node} used twice")
            seen.add(node)
        for i, j in zip(traj.nodes, traj.nodes[1:]):
            if not next(linked):
                violations.append(f"transition ({i}, {j}) is not a graph edge")
    violations += (f"detection {k} uncovered" for k in graph.ids if k not in seen)
    return violations


def tracks_from_trajectories(
    graph: DetectionGraph, trajectories: Sequence[Trajectory]
) -> list[list[Detection]]:
    """Materialize trajectories back into detection lists."""
    return [[graph.detection(n) for n in traj.nodes] for traj in trajectories]
