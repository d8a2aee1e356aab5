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
`EMPTY_END_TOTAL` at the empty rate.  The rule is read off
`DetectionGraph.batch`, so the linker, the miner, the split-half proxy and
`objective` score any chain of detection ids the same way.

Scores are arrays: `edge_scores` scores any edges against one pattern, and
`score_matrix` a `TrajectorySet` against several patterns.  It reads the
set's edges off its arrays once, then makes one pass per distinct
centerline over that centerline's distinct widths: only the corridor gate
depends on the width, so the totals are summed once and the aligned sums
once per width.  A graph's `scoring_cache` keeps each centerline's
projection of all detections and nothing else; the width and the `Config`
are applied on each pass.  A trajectory's sum runs entry plus exit, then
each edge in order, so a score is the same float however many
trajectories or patterns are scored at once.  `trajectory_score` is the
one-trajectory, one-pattern case of `score_matrix`; the miner, the
split-half proxy and `objective` score through `score_matrix` too.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core import (
    SINK_NODE,
    SOURCE_NODE,
    Assignment,
    Config,
    DetectionGraph,
    Pattern,
    TrajectorySet,
)


# Total of an empty-pattern end inside the batch, in the units of the
# detection positions: one unit of unexplained motion.
EMPTY_END_TOTAL = 1.0


@dataclass(frozen=True)
class ScorePair:
    total: float
    aligned: float


def ratio_bracket(cfg: Config) -> tuple[float, float]:
    """(lo, hi): every achievable ratio lies inside, and the search starts at lo.

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


def _projection(graph: DetectionGraph, pattern: Pattern) -> tuple[np.ndarray, ...]:
    """Arc, foot x, foot y, distance and max(|foot x|, |foot y|, 1) of every
    detection on the pattern's centerline, cached on the graph."""
    key = pattern.centerline
    if key not in graph.scoring_cache:
        arc, foot, dist = _project(graph.positions, pattern)
        graph.scoring_cache[key] = (arc, *foot.T.copy(), dist, np.maximum(np.abs(foot).max(axis=1), 1.0))
    return graph.scoring_cache[key]


def _end_scores(graph: DetectionGraph, pattern: Pattern, cfg: Config, rows, entry) -> tuple[np.ndarray, ...]:
    """(total, aligned) of the entries (where `entry`, else exits) at `rows`.

    An entry at the batch's first frame and an exit at its last are free: the
    window, not the object, cut the path there.  Any other end costs the arc
    it skips, or `EMPTY_END_TOTAL` at the empty rate when empty.
    """
    frames = graph.frames[rows]
    free = np.where(entry, frames == graph.batch[0], frames == graph.batch[1])
    if pattern.is_empty:
        return np.where(free, 0.0, EMPTY_END_TOTAL), np.where(free, 0.0, cfg.empty_rate * EMPTY_END_TOTAL)
    arc = _projection(graph, pattern)[0][rows]
    return np.where(free, 0.0, np.where(entry, arc, pattern.length - arc)), np.zeros(len(rows))


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)


def _step_scores(graph: DetectionGraph, pattern: Pattern, cfg: Config, i, j, width) -> tuple:
    """(total, aligned) of the detection edges from rows `i` to rows `j`.

    `width` is one width, or a column of them for one row of `aligned` each.
    """
    x, y = graph.positions.T
    ex, ey = x[j] - x[i], y[j] - y[i]
    edge_len = np.hypot(ex, ey)
    if pattern.is_empty:
        return edge_len, cfg.empty_rate * edge_len
    arc, fx, fy, dist, scale = _projection(graph, pattern)
    cx, cy = fx[j] - fx[i], fy[j] - fy[i]
    dot = np.abs(ex * cx + ey * cy)
    chord = np.hypot(cx, cy)
    # A chord this far below the foot coordinates is cancellation noise
    # from two nearly identical projections; treat it as a zero chord so
    # the 1 / |chord| factor cannot amplify rounding error.
    chord[chord <= 1e-12 * np.maximum(scale[i], scale[j])] = 0.0
    aligned = _divide(dot, edge_len) + _divide(dot, chord)
    aligned = np.where(np.maximum(dist[i], dist[j]) > width, 0.0, aligned)
    back = arc[i] - arc[j]
    # Moving against the pattern's direction: penalize in proportion to the
    # arc covered backwards, regardless of corridor width.
    backward = back > 0.0
    aligned[..., backward] = -(1.0 + cfg.reverse_penalty) * back[backward]
    return edge_len - back, aligned


def edge_scores(graph: DetectionGraph, pattern: Pattern, cfg: Config, tails, heads) -> tuple[np.ndarray, ...]:
    """(total, aligned) arrays of the edges `tails[k]` -> `heads[k]` against one pattern.

    An edge is an entry (tail SOURCE_NODE), an exit (head SINK_NODE) or a
    detection edge, in the graph or not.  Raises `KeyError`, naming the id,
    on a detection id outside `graph.ids`.
    """
    tails, heads = np.asarray(tails, dtype=np.int64), np.asarray(heads, dtype=np.int64)
    if tails.ndim != 1 or tails.shape != heads.shape:
        raise ValueError("tails and heads must be one-dimensional and of one length")
    entry, exit_ = tails == SOURCE_NODE, heads == SINK_NODE
    # The detections of each edge; an entry or an exit has one, in both places.
    near, far = np.where(entry, heads, tails), np.where(exit_, tails, heads)
    for ids in (near, far):
        if ((ids < 1) | (ids > len(graph.frames))).any():
            raise KeyError(int(ids[(ids < 1) | (ids > len(graph.frames))][0]))
    ends, step = entry | exit_, ~(entry | exit_)
    total, aligned = np.empty(len(tails)), np.empty(len(tails))
    total[ends], aligned[ends] = _end_scores(graph, pattern, cfg, near[ends] - 1, entry[ends])
    total[step], aligned[step] = _step_scores(
        graph, pattern, cfg, near[step] - 1, far[step] - 1, pattern.width
    )
    return total, aligned


class _Chains(NamedTuple):
    """A trajectory set as rows: `ends` holds each trajectory's first detection,
    then each one's last; `tails` and `heads` are its edges, which sit at
    (`row`, `col`) of a trajectory-by-term matrix of `shape` whose column 0
    is the entry plus the exit."""

    ends: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    row: np.ndarray
    col: np.ndarray
    shape: tuple[int, int]


def _chains(graph: DetectionGraph, trajectories: TrajectorySet) -> _Chains:
    rows, starts = trajectories.rows, trajectories.starts
    if rows.max() >= len(graph.frames):
        raise KeyError(int(rows[rows >= len(graph.frames)][0]) + 1)
    k = np.delete(np.arange(len(rows)), starts[1:] - 1)  # rows followed by an edge
    owner = np.searchsorted(starts, k, side="right") - 1
    return _Chains(
        np.concatenate([rows[starts[:-1]], rows[starts[1:] - 1]]),
        rows[k],
        rows[k + 1],
        owner,
        k - starts[owner] + 1,
        (len(trajectories), int(np.diff(starts).max())),
    )


def _summed(graph: DetectionGraph, chains: _Chains, pattern: Pattern, widths: np.ndarray, cfg: Config):
    """Total (one per trajectory) and aligned (one row per width) sums of `chains`."""
    n = chains.shape[0]
    ends_total, ends_aligned = _end_scores(graph, pattern, cfg, chains.ends, np.arange(2 * n) < n)
    sums = np.full((1 + len(widths), *chains.shape), -0.0)
    sums[0, :, 0] = ends_total[:n] + ends_total[n:]
    sums[1:, :, 0] = ends_aligned[:n] + ends_aligned[n:]
    sums[0, chains.row, chains.col], sums[1:, chains.row, chains.col] = _step_scores(
        graph, pattern, cfg, chains.tails, chains.heads, widths
    )
    # `cumsum` adds along a row in order, as `+=` would; the padding is -0.0,
    # which leaves every sum as it is, the sign of a zero included.
    sums = np.cumsum(sums, axis=2)[:, :, -1]
    return sums[0], sums[1:]


def trajectory_score(graph: DetectionGraph, traj: TrajectorySet, pattern: Pattern, cfg: Config) -> ScorePair:
    """`score_matrix` of a one-trajectory set against one pattern, as a `ScorePair`."""
    if len(traj) != 1:
        raise ValueError(f"expected one trajectory, got {len(traj)}")
    total, aligned = score_matrix(graph, traj, (pattern,), cfg)
    return ScorePair(float(total[0, 0]), float(aligned[0, 0]))


def score_matrix(
    graph: DetectionGraph, trajectories: TrajectorySet, patterns: Sequence[Pattern], cfg: Config
) -> tuple[np.ndarray, np.ndarray]:
    """(total, aligned): trajectories × patterns arrays of each trajectory's
    edge scores against each pattern, summed.

    A trajectory's sum is its entry plus its exit, then each detection edge
    in order, one addition at a time.  The patterns are grouped by
    centerline, then by width: one pass per distinct centerline covers its
    distinct widths (the empty pattern ignores the width), and patterns
    equal in both share a column.  Raises `KeyError` on an id outside
    `graph.ids`.
    """
    sums = np.zeros((2, len(patterns), len(trajectories)))
    if trajectories:
        chains = _chains(graph, trajectories)
        families: dict[tuple, dict[float, list[int]]] = {}
        for p, pattern in enumerate(patterns):
            families.setdefault(pattern.centerline, {}).setdefault(pattern.width, []).append(p)
        for by_width in families.values():
            members = list(by_width.values())
            widths = np.array(list(by_width), dtype=float)[:, None]
            total, aligned = _summed(graph, chains, patterns[members[0][0]], widths, cfg)
            for same, row in zip(members, aligned):
                sums[0, same], sums[1, same] = total, row
    return sums[0].T, sums[1].T


def objective(
    graph: DetectionGraph,
    trajectories: TrajectorySet,
    patterns: Sequence[Pattern],
    assignment: Assignment,
    cfg: Config,
) -> float:
    """Quality of a trajectory set under a pattern assignment.

    The ratio of summed aligned scores to summed total scores over all
    trajectories; 1.0 means every trajectory is fully explained by its
    pattern.  The set is scored in one `score_matrix` call over the
    assigned patterns, and the sums are added in trajectory order.  Raises
    if the assignment does not match or the total is not positive.
    """
    if len(assignment) != len(trajectories):
        raise ValueError("assignment length does not match trajectory count")
    if any(p >= len(patterns) for p in assignment):
        raise ValueError("assignment references a missing pattern")
    used = sorted(set(assignment))
    total, aligned = score_matrix(graph, trajectories, [patterns[p] for p in used], cfg)
    picked = np.arange(len(assignment)), np.searchsorted(used, list(assignment))
    total_sum, aligned_sum = (np.cumsum([0.0, *side[picked]])[-1] for side in (total, aligned))
    if total_sum <= 0.0:
        raise ValueError("degenerate instance: total score is not positive")
    return float(aligned_sum / total_sum)
