"""Shared data model: detections, graphs, patterns, trajectories, configuration.

A detection is `Detection(frame, pos)`; identity is what linking produces.  A
track is a list of detections in frame order, the only record of which track
a detection belongs to.  `TrackTable` holds tracks as three arrays, one row
per detection; `TrackTable.tracks()` and `as_track_table` convert between the
two.  A `DetectionGraph` holds one table, names its row k by id k + 1, and
holds its edges as `graph.edges`, the id pairs as sorted rows of one (E, 2)
int64 array.  A `TrajectorySet` holds trajectories as arrays of graph rows.
`_gate_pairs`, the one join of two tables' rows within a radius, finds
`eval`'s gate pairs and `build_graph`'s link and join edges.
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property
from importlib.machinery import PathFinder
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import numpy.ma  # noqa: F401  numpy 2.4's `np.unique` imports it on its first call; load it at start-up.
import scipy

SOURCE_NODE = -1
SINK_NODE = -2

DEFAULT_WIDTHS = (0.5, 1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0, 17.0)
RELATIVE_WIDTH_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)

_DUPLICATE_TOL = 1e-12


def _scipy_extension(name: str):
    """The compiled scipy module `name`, loaded without the package inits above it.

    `import scipy.optimize` spends about 0.4 s in its package init, and ptrack
    needs only two compiled modules from it (`fracopt`'s HiGHS handle and
    `metrics`' assignment solver).  A module already in `sys.modules` is
    returned as it is.  A new one is found under its full name, and goes
    into `sys.modules` under that name before `exec_module`, so a later
    `import scipy.optimize` reuses it: a pybind11 module initialised twice
    fails on its already-registered types.  Such a later import does not
    bind it as an attribute of its parent package; scipy's own code imports
    it by name, which finds it.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    path = Path(scipy.__file__).parent.joinpath(*name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [str(path)])
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no {name}", name=name)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _is_int(value) -> bool:
    """A Python int that is not a bool; a numpy integer, whose arithmetic wraps, is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """A finite int or float, not a bool: `np.float64` is a float, other numpy scalars are not."""
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
    """Any collection of (i, j) int pairs as the rows of an (E, 2) int64 array.

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
    return edges.astype(np.int64, copy=False)


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
        frames, pos = np.asarray(self.frames), np.asarray(self.pos, dtype=float)
        if frames.dtype != np.int64 or frames.ndim != 1:
            raise ValueError("frames must be a one-dimensional int64 array")
        if pos.shape != (len(frames), 2) or not np.isfinite(pos).all():
            raise ValueError(f"pos must be {len(frames)} finite (x, y) rows")
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "starts", _checked_starts(self.starts, len(frames)))

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


def _checked_starts(starts, n: int) -> np.ndarray:
    """`starts` as an int64 array, if it rises from 0 to `n`."""
    starts = np.asarray(starts)
    if not (
        starts.ndim == 1 and starts.dtype.kind in "iu" and starts.size
        and starts[0] == 0 and starts[-1] == n and np.all(starts[1:] >= starts[:-1])
    ):
        raise ValueError("starts must rise from 0 to the row count")
    return starts.astype(np.int64, copy=False)


Tracks = Sequence[Sequence[Detection]] | TrackTable


def as_track_table(tracks: Tracks) -> TrackTable:
    """A `TrackTable` as it is, or detection lists converted once by `TrackTable.from_tracks`."""
    return tracks if isinstance(tracks, TrackTable) else TrackTable.from_tracks(tracks)


def _dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`math.dist` between paired rows of two position arrays, one pair at a time."""
    return np.fromiter(map(math.dist, zip(*a.T.tolist()), zip(*b.T.tolist())), float, len(a))


def _cell_scale(gate: float) -> float:
    """2**-e for the join's cell side 2**e, the least power of two above gate * (1 + 2**-48).

    A pair within the gate is then less than a cell apart on each axis, as
    `math.dist` is at least either rounded difference up to an ulp.  The
    side is at least 2**-1022, so the scale is a finite float.
    """
    mantissa, e = math.frexp(gate)
    return math.ldexp(1.0, -max(e + (mantissa > 1.0 - 2.0**-48), -1022))


def _candidates(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every (query, k) with lo[query] <= k < hi[query]: the pairs the join examines."""
    counts = hi - lo
    query = np.repeat(np.arange(len(lo)), counts)
    return query, np.arange(len(query)) + (lo - np.cumsum(counts) + counts)[query]


@np.errstate(over="ignore")
def _gate_pairs(gt: TrackTable, pred: TrackTable, max_dist: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (gt, pred) of one frame within the gate `max_dist` of each other:
    the gate pairs of `metrics`, and the link and join edges of `build_graph`.

    A sort-based join.  Each row falls in a square cell of its frame, of a
    power-of-two side just above the gate (`_cell_scale`), so a pair within
    the gate lies in neighbouring cells: scaling by a power of two is exact,
    and where it under- or overflows, its rounding keeps such a pair in
    neighbouring cells.  A cell is coded as one int64 ordered by (frame,
    column, row of cells): frames as offsets from the first, or as ranks
    when they are sparser than the rows, and columns and rows as integer
    offsets from the lowest, so each stays exact.  Cells are clipped to
    +-2**61 first, and offsets where the code would pass 2**62; both only
    merge outer cells.  Each predicted row is filed under its own column
    and the two beside it, so one sorted search per truth row finds the
    3 x 3 cells around it.

    `np.hypot` decides every candidate farther than eight ulps of the gate
    from it; both it and `math.dist` are within an ulp of the exact norm of
    the same rounded differences, so they agree there.  `math.dist` decides
    the rest.
    """
    n_g = len(gt.frames)
    if not (n_g and len(pred.frames)):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    frames = np.concatenate((gt.frames, pred.frames))
    first, last = int(frames.min()), int(frames.max())
    if last - first < len(frames):
        frame, n_frames = frames - first, last - first + 1
    else:
        ranked, frame = np.unique(frames, return_inverse=True)
        n_frames = len(ranked)
    cell = np.floor(np.concatenate((gt.pos, pred.pos)).T * _cell_scale(max_dist), order="C")
    np.clip(cell, -(2.0**61), 2.0**61, out=cell)
    cell = cell.astype(np.int64)
    cell -= cell.min(axis=1, keepdims=True)
    span_x, span_y = (int(v) for v in cell.max(axis=1))
    budget = 2**62 // n_frames
    cap_x = min(span_x, math.isqrt(budget) - 3)
    cap_y = min(span_y, budget // (cap_x + 3) - 3)
    col, row = np.minimum(cell, [[cap_x], [cap_y]]) + 1
    side = cap_y + 3
    code = (frame * (cap_x + 3) + col) * side + row
    del frames, frame, cell, col, row  # freed: what follows sets a crowd eval's peak memory
    g_order, p_order = np.argsort(code[:n_g]), np.argsort(code[n_g:])
    g_code, p_code = code[:n_g][g_order], code[n_g:][p_order]
    filed = np.concatenate((p_code - side, p_code, p_code + side))
    by_code = np.argsort(filed, kind="stable")
    lo, hi = np.searchsorted(filed[by_code], np.concatenate((g_code - 1, g_code + 2))).reshape(2, -1)
    query, k = _candidates(lo, hi)
    i, j = g_order[query], p_order[by_code[k] % len(p_code)]
    d = np.take(gt.pos, i, axis=0) - np.take(pred.pos, j, axis=0)
    near = np.hypot(d[:, 0], d[:, 1])
    inside = near <= max_dist
    band = np.flatnonzero(np.abs(near - max_dist) <= 8.0 * math.ulp(max_dist))
    inside[band] = _dists(np.take(gt.pos, i[band], axis=0), np.take(pred.pos, j[band], axis=0)) <= max_dist
    return i[inside], j[inside]


@dataclass(frozen=True, eq=False)
class DetectionGraph:
    """Detections, the rows of a `TrackTable`, plus candidate transition edges between them.

    An edge is an ordered pair of detection ids: id k (of `ids`, 1..n) names row k - 1
    of `table`, whose columns are the graph's `frames` (int64) and `positions` ((n, 2)
    floats), and SOURCE_NODE and SINK_NODE name the virtual entry and exit.  `batch` is
    the frame range the detections were observed in; it defaults to the detection span
    but may be wider when the data is a window cut from a longer recording.  It is the
    one source of the boundary rule: a path entering at the batch's first frame or
    leaving at its last pays nothing for that entry or exit.  Each step of a track of
    the table (row r to row r + 1) must be an edge; loose detections are a table of
    one-row tracks.  The constructor takes any collection of int pairs as `edges` and
    keeps them as a read-only (E, 2) int64 array of unique rows in lexicographic order.
    """

    table: TrackTable
    edges: np.ndarray
    batch: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        frames = self.frames
        if not len(frames):
            raise ValueError("graph has no detections")
        span = (int(frames.min()), int(frames.max()))
        batch = span if self.batch is None else self.batch
        if not all(_is_int(b) or isinstance(b, float) and b.is_integer() for b in batch):
            raise ValueError(f"batch {batch} bounds must be integers")
        first, last = batch
        if first > span[0] or last < span[1]:
            raise ValueError(f"batch {batch} does not cover detection frames {span}")
        object.__setattr__(self, "batch", (int(first), int(last)))
        edges, k = _edge_array(self.edges), len(frames) + 3
        # Each check names the first offending edge in sorted order.
        tail, head = edges.T
        invalid = (tail == SINK_NODE) | (head == SOURCE_NODE) | (tail == SOURCE_NODE) & (head == SINK_NODE)
        if invalid.any():
            raise ValueError("invalid edge ({}, {})".format(*min(edges[invalid].tolist())))
        unknown = ((edges < 1) | (edges > len(frames))) & (edges != SOURCE_NODE) & (edges != SINK_NODE)
        if unknown.any():
            pair, bad = min((p, b) for p, b in zip(edges.tolist(), unknown.tolist()) if any(b))
            raise ValueError(f"edge references unknown detection {pair[bad.index(True)]}")
        # Sorted and deduplicated as the keys of `_linked`, from which (i, j) come back exact.
        keys = np.sort(edges @ (k, 1))
        keys = keys[np.diff(keys, prepend=-k * k) > 0]  # drop repeats
        tail = (keys + 2) // k
        edges = _frozen(np.column_stack((tail, keys - tail * k)))
        object.__setattr__(self, "edges", edges)
        inner = edges[(edges > 0).all(axis=1)]
        backward = inner[frames[inner[:, 0] - 1] >= frames[inner[:, 1] - 1]]
        if len(backward):
            raise ValueError("edge ({}, {}) does not move forward in time".format(*backward[0]))
        # A track's steps: every id whose next row is of the same track goes on to the next id.
        tails = np.flatnonzero(np.diff(self.table.owner) == 0) + 1
        missing = tails[~self._linked(tails * k + tails + 1)]
        if len(missing):
            raise ValueError(f"source track step ({missing[0]}, {missing[0] + 1}) is not a graph edge")

    def _linked(self, keys: np.ndarray) -> np.ndarray:
        """Whether each key i * (n + 3) + j, which rises with (i, j), names an edge i -> j."""
        k = len(self.frames) + 3
        edge_keys = np.append(self.edges @ (k, 1), k * k)  # a last key above all ends the search
        return edge_keys[np.searchsorted(edge_keys, keys)] == keys

    @property
    def frames(self) -> np.ndarray:
        return self.table.frames

    @property
    def positions(self) -> np.ndarray:
        return self.table.pos

    @cached_property
    def detections(self) -> tuple[Detection, ...]:
        """One `Detection` per row, built on first read: for tests and tools, not the pipeline."""
        return tuple(chain.from_iterable(self.table.tracks()))

    @cached_property
    def ids(self) -> range:
        return range(1, len(self.frames) + 1)

    @cached_property
    def scoring_cache(self) -> dict:
        """What `ptrack.scoring` keeps: per centerline, the projection of every
        detection, and nothing per trajectory or trajectory set."""
        return {}


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Trajectories as one pair of read-only int64 arrays.

    Trajectory k is graph rows `rows[starts[k]:starts[k + 1]]`, in path
    order; detection id = row + 1, as in `DetectionGraph`.  No trajectory is
    empty, holds an id below 1 or repeats a detection.  The graph it is
    scored on decides whether its entry and exit are free (see
    `DetectionGraph.batch` and `scoring.edge_scores`).  Sets compare and
    hash by both arrays; indexing by an int, a slice, indices or a mask
    gives the set of the trajectories picked, in order.
    """

    rows: np.ndarray
    starts: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError("rows must be a one-dimensional integer array")
        object.__setattr__(self, "rows", rows := _frozen(rows.astype(np.int64)))
        object.__setattr__(self, "starts", _frozen(np.array(_checked_starts(self.starts, len(rows)))))
        lengths = self.starts[1:] - self.starts[:-1]
        if not lengths.all():
            raise ValueError("trajectory has no nodes")
        bad = (rows < 0) | (rows == np.iinfo(np.int64).max)  # the id, row + 1, is an int64 from 1
        if bad.any():
            raise ValueError(f"trajectory nodes must be detection ids, ints from 1: {int(rows[bad][0]) + 1}")
        # A stable sort keeps each row's uses in trajectory order, so a repeat within one is adjacent.
        order = np.argsort(rows, kind="stable")
        owner = np.repeat(np.arange(len(lengths)), lengths)[order]
        if ((np.diff(rows[order]) == 0) & (np.diff(owner) == 0)).any():
            raise ValueError("trajectory repeats a detection")

    @classmethod
    def from_nodes(cls, chains: Iterable[Sequence[int]]) -> "TrajectorySet":
        """The set of the id sequences `chains`; ids are ints (not bools) from 1 below 2**63."""
        chains = [tuple(nodes) for nodes in chains]
        for nodes in chains:
            if not all(type(n) is int and 1 <= n < 2**63 for n in nodes):
                raise ValueError(f"trajectory nodes must be detection ids, ints from 1: {nodes!r}")
        return cls(np.fromiter(chain.from_iterable(chains), np.int64) - 1, np.cumsum([0, *map(len, chains)]))

    @property
    def nodes(self) -> tuple[tuple[int, ...], ...]:
        """Each trajectory's detection ids, in path order."""
        ids, bounds = (self.rows + 1).tolist(), self.starts.tolist()
        return tuple(tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:]))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, key) -> "TrajectorySet":
        # Trajectories of a checked set pass the constructor's checks again, so they are not run.
        picked = np.atleast_1d(np.arange(len(self))[key])
        _, rows = _candidates(self.starts[picked], self.starts[picked + 1])
        subset = object.__new__(TrajectorySet)
        starts = np.concatenate(([0], np.cumsum(np.diff(self.starts)[picked])))
        subset.__dict__.update(rows=_frozen(self.rows[rows]), starts=_frozen(starts))
        return subset

    def __eq__(self, other) -> bool:
        same = isinstance(other, TrajectorySet) and np.array_equal(self.starts, other.starts)
        return same and np.array_equal(self.rows, other.rows)

    def __hash__(self) -> int:
        return hash((self.rows.tobytes(), self.starts.tobytes()))


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


def validate_trajectory_set(graph: DetectionGraph, trajectories: TrajectorySet) -> list[str]:
    """Check that trajectories partition the detections along graph edges.

    Returns human-readable violations: unknown ids, detections used twice,
    steps that are not edges, uncovered detections, each kind in set or id
    order.  An empty list means a valid decomposition (every detection in
    exactly one trajectory and every transition an existing edge).
    """
    n, k = len(graph.frames), len(graph.frames) + 3
    rows, starts = trajectories.rows, trajectories.starts
    known = rows < n
    uses = np.bincount(rows[known], minlength=n)
    # Step i -> j as its key i * k + j (see `DetectionGraph._linked`); a step off the graph as -1, no key.
    tails = np.delete(np.arange(len(rows)), starts[1:] - 1)
    i, j = rows[tails] + 1, rows[tails + 1] + 1
    off = ~graph._linked(np.where(known[tails] & known[tails + 1], i * k + j, -1))
    return [
        *(f"unknown detection {d}" for d in (rows[~known] + 1).tolist()),
        *(f"detection {d} used twice" for d in (np.flatnonzero(uses > 1) + 1).tolist()),
        *(f"transition ({a}, {b}) is not a graph edge" for a, b in zip(i[off].tolist(), j[off].tolist())),
        *(f"detection {d} uncovered" for d in (np.flatnonzero(uses == 0) + 1).tolist()),
    ]


def tracks_from_trajectories(graph: DetectionGraph, trajectories: TrajectorySet) -> TrackTable:
    """The trajectories as tracks: the graph's table gathered by the set's rows."""
    rows = trajectories.rows
    return TrackTable(graph.frames[rows], graph.positions[rows], trajectories.starts)
