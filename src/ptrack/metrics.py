"""Tracking quality metrics: identity scores and per-frame accounting.

Both scores start from one pass over the gate pairs: the (truth row,
predicted row) pairs of one frame whose exact `math.dist` is within the
gate.  `summarize` finds them once and hands them to `idf1` and
`clear_scores`; called alone, each finds its own.

Identity scores (IDF1 and friends) match whole trajectories one-to-one so
that the matched pairs' co-occurring in-gate frames, the identity-true-
positives, are as many as possible; misses plus false positives total
total_gt + total_pred - 2 * idtp, so this matching also minimizes per-frame
disagreement.  The co-occurring frames of two tracks are their gate pairs.

The per-frame score (MOTA) instead matches each frame independently,
carrying matches over between frames so that identity switches can be
counted.  A frame is settled when no row of it is in two gate pairs and no
track, true or predicted, has two rows in it.  A settled frame's matching
is its gate pairs, whatever is carried over: a carried pair is a gate pair,
and with one row per track it takes no other pair's row out of the
leftover, where the rest of the pairs form a matching and every other entry
costs a million gates.  So settled frames are matched all at once; only the
others go frame by frame.

Every metric takes tracks either as detection lists or as a `TrackTable`,
and works on the table: lists are converted once on entry.  Every gate
decision and every matching cost is the exact `math.dist` of the pair;
the KD-tree query and the leftover costs measure it in a power-of-two unit
taken from the gate, so they stay finite at any finite gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .core import Detection, TrackTable, _is_real

Tracks = Sequence[Sequence[Detection]] | TrackTable
# Gate pairs: truth rows, predicted rows and their distances.
Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class MatchConfig:
    """Gate for counting a predicted position as hitting a true one."""

    max_dist: float = 3.0

    def __post_init__(self) -> None:
        if not (_is_real(self.max_dist) and self.max_dist > 0):
            raise ValueError(f"max_dist must be positive and finite, got {self.max_dist!r}")


@dataclass(frozen=True)
class IdfReport:
    idf1: float
    idpr: float
    idrc: float
    idtp: int
    idfp: int
    idfn: int


@dataclass(frozen=True)
class ClearReport:
    mota: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    id_switches: int
    gt_matched_frames: tuple[int, ...]


def _table(tracks: Tracks) -> TrackTable:
    return tracks if isinstance(tracks, TrackTable) else TrackTable.from_tracks(tracks)


def _dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`math.dist` between paired rows of two position arrays, one pair at a time."""
    return np.fromiter(map(math.dist, zip(*a.T.tolist()), zip(*b.T.tolist())), float, len(a))


def _unit(gate: float) -> float:
    """The power of two, at least 1, that gate-sized numbers are measured in.

    The gate is less than twice the unit, and dividing by a power of two is
    exact above the subnormal range; so the KD-tree radius and frame spacing
    and the leftover cost stay finite at any finite gate, and scale with it.
    """
    return math.ldexp(1.0, max(math.frexp(gate)[1] - 1, 0))


def _gate_pairs(gt: TrackTable, pred: TrackTable, max_dist: float) -> Pairs:
    """Rows (gt, pred) of one frame within the gate of each other, and their distances.

    Detections become points (frame * spacing, x, y), in units of `_unit`,
    with a frame spacing twice the search radius, so the KD-tree query only
    pairs detections of one frame.  The radius is loose, and far-out frames
    can round to one coordinate; the exact frame and gate tests decide.
    Unbalanced trees build faster; the query is exact for any tree, so no pair
    depends on the build.
    """
    if not (len(gt.frames) and len(pred.frames)):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    unit = _unit(max_dist)
    radius = 2.0 * (max_dist / unit)
    points = (np.column_stack((side.frames * (2.0 * radius), side.pos / unit)) for side in (gt, pred))
    g_tree, p_tree = (cKDTree(p, balanced_tree=False, compact_nodes=False) for p in points)
    near = g_tree.sparse_distance_matrix(p_tree, radius, output_type="ndarray")
    i, j = near["i"], near["j"]
    same = gt.frames[i] == pred.frames[j]
    i, j = i[same], j[same]
    dist = _dists(gt.pos[i], pred.pos[j])
    inside = dist <= max_dist
    return i[inside], j[inside], dist[inside]


def idf1(
    gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig(), *, _pairs: Pairs | None = None
) -> IdfReport:
    """Identity F1 and its precision/recall decomposition.

    Tracks are matched one-to-one to maximize the identity-true-positives,
    the matched pairs' co-occurring in-gate frames; per-frame disagreement,
    total_gt + total_pred - 2 * idtp, is then minimal.  Two empty inputs
    score as perfect by convention; an empty prediction against non-empty
    truth scores zero.  `_pairs`, the tables' gate pairs, spares finding
    them again.
    """
    gt, pred = _table(gt), _table(pred)
    total_gt, total_pred = len(gt.frames), len(pred.frames)
    if total_gt == 0 and total_pred == 0:
        return IdfReport(1.0, 1.0, 1.0, 0, 0, 0)
    i, j, _ = _gate_pairs(gt, pred, cfg.max_dist) if _pairs is None else _pairs
    n_g, n_p = len(gt), len(pred)
    overlap = np.bincount(gt.owner[i] * n_p + pred.owner[j], minlength=n_g * n_p).reshape(n_g, n_p)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    idfn = total_gt - idtp
    idfp = total_pred - idtp
    f1 = 2.0 * idtp / (total_gt + total_pred)
    idpr = idtp / total_pred if total_pred else 0.0
    idrc = idtp / total_gt if total_gt else 1.0
    return IdfReport(f1, idpr, idrc, idtp, idfp, idfn)


def _keep_last(last_match: np.ndarray, g: np.ndarray, p: np.ndarray) -> None:
    """`last_match[g] = p`, pair by pair: where `g` repeats, its last `p` stays."""
    tracks, last = np.unique(g[::-1], return_index=True)
    last_match[tracks] = p[::-1][last]


def _repeated_frames(frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Frames where a track has two rows, from rows sorted by (frame, track)."""
    twice = (frames[1:] == frames[:-1]) & (owner[1:] == owner[:-1])
    return frames[1:][twice]


def _spans(sorted_frames: np.ndarray, frames: np.ndarray) -> zip[tuple[int, int]]:
    """(start, end) of each of `frames` in a sorted frame column."""
    return zip(*(np.searchsorted(sorted_frames, frames, side).tolist() for side in ("left", "right")))


def _match_frame(
    g_here: np.ndarray, p_here: np.ndarray, cost: np.ndarray, gate: float, last_match: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One frame's matches as (truth track, predicted track), carried pairs first.

    `g_here` and `p_here` are the tracks of the frame's rows, each sorted;
    `cost` holds the rows' gate pairs' distances and a million gates
    elsewhere.  The leftover follows in row order, as a truth track with two
    rows here may match twice; `last_match` is brought up to date.
    """
    # Carry-over: a truth row keeps its track's previous partner when that
    # track is here (at its last row in this frame) and inside the gate; of
    # the rows claiming one partner, the first keeps it.
    partner = last_match[g_here]
    at = np.searchsorted(p_here, partner, side="right") - 1
    claim = np.flatnonzero((partner >= 0) & (at >= 0) & (p_here[at] == partner))
    claim = claim[cost[claim, at[claim]] <= gate]
    _, first = np.unique(partner[claim], return_index=True)
    carried = claim[first]
    left_g = np.ones(len(g_here), dtype=bool)
    left_g[carried] = False
    left_p = ~np.isin(p_here, partner[carried])
    left = cost[left_g][:, left_p]
    rows, cols = linear_sum_assignment(left)
    keep = left[rows, cols] <= gate
    g_new, p_new = g_here[left_g][rows[keep]], p_here[left_p][cols[keep]]
    _keep_last(last_match, g_new, p_new)
    return np.concatenate((g_here[carried], g_new)), np.concatenate((partner[carried], p_new))


def clear_scores(
    gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig(), *, _pairs: Pairs | None = None
) -> ClearReport:
    """Per-frame accounting: misses, false positives, identity switches.

    Matching within each frame keeps the previous frame's pairing wherever it
    is still inside the gate, then pairs the remainder at minimal distance.
    Settled frames (see the module notes) take their gate pairs at once; the
    others are matched one by one, in frame order.  The accuracy score is 1
    minus the error rate and can go negative when errors outnumber true
    detections.  `_pairs` is as for `idf1`.
    """
    gt, pred = _table(gt), _table(pred)
    total_gt, total_pred = len(gt.frames), len(pred.frames)
    if total_gt == 0:
        if total_pred == 0:
            return ClearReport(1.0, 1.0, 1.0, 0, 0, 0, 0, ())
        raise ValueError("no ground-truth detections to evaluate against")
    gi, pj, dist = _gate_pairs(gt, pred, cfg.max_dist) if _pairs is None else _pairs
    g_owner, p_owner = gt.owner, pred.owner
    # Rows sorted by frame, stably: within a frame by track, as a table keeps its tracks in order.
    g_order = np.argsort(gt.frames, kind="stable")
    p_order = np.argsort(pred.frames, kind="stable")
    g_frames, p_frames = gt.frames[g_order], pred.frames[p_order]
    unsettled = np.unique(np.concatenate((
        gt.frames[np.bincount(gi, minlength=total_gt) > 1],
        pred.frames[np.bincount(pj, minlength=total_pred) > 1],
        _repeated_frames(g_frames, g_owner[g_order]),
        _repeated_frames(p_frames, p_owner[p_order]),
    )))
    pair_frames = gt.frames[gi]
    settled = ~np.isin(pair_frames, unsettled)
    # Matches as (truth track, predicted track, frame), each frame's in its order.
    match_g, match_p, match_f = [g_owner[gi[settled]]], [p_owner[pj[settled]]], [pair_frames[settled]]
    if len(unsettled):
        unit = _unit(cfg.max_dist)
        gate = cfg.max_dist / unit
        by_frame = np.argsort(match_f[0], kind="stable")
        s_g, s_p = match_g[0][by_frame], match_p[0][by_frame]
        s_ends = np.searchsorted(match_f[0][by_frame], unsettled).tolist()
        u_pairs = np.flatnonzero(~settled)
        u_pairs = u_pairs[np.argsort(pair_frames[u_pairs], kind="stable")]
        g_rank, p_rank = np.argsort(g_order), np.argsort(p_order)
        last_match = np.full(len(gt), -1)
        s_done = 0
        spans = (_spans(f, unsettled) for f in (g_frames, p_frames, pair_frames[u_pairs]))
        for frame, s_end, (ga, gb), (pa, pb), (ua, ub) in zip(unsettled.tolist(), s_ends, *spans):
            # The settled frames since the last unsettled one took their pairs.
            _keep_last(last_match, s_g[s_done:s_end], s_p[s_done:s_end])
            s_done = s_end
            if ga == gb or pa == pb:
                continue
            here = u_pairs[ua:ub]
            cost = np.full((gb - ga, pb - pa), gate * 1e6)
            cost[g_rank[gi[here]] - ga, p_rank[pj[here]] - pa] = dist[here] / unit
            g, p = _match_frame(g_owner[g_order[ga:gb]], p_owner[p_order[pa:pb]], cost, gate, last_match)
            match_g.append(g)
            match_p.append(p)
            match_f.append(np.full(len(g), frame))
    g, p, f = map(np.concatenate, (match_g, match_p, match_f))
    # Each truth track's matches in time order; lexsort is stable, so a
    # frame's matches keep their order.
    order = np.lexsort((f, g))
    g_seq, p_seq = g[order], p[order]
    switches = int(np.count_nonzero((g_seq[1:] == g_seq[:-1]) & (p_seq[1:] != p_seq[:-1])))
    tp = len(g)
    fp, fn = total_pred - tp, total_gt - tp
    mota = 1.0 - (fp + fn + switches) / total_gt
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / total_gt
    matched_frames = np.bincount(g, minlength=len(gt))
    return ClearReport(mota, precision, recall, tp, fp, fn, switches, tuple(matched_frames.tolist()))


def track_coverage(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> tuple[int, int, int]:
    """Counts of mostly-tracked, partially-tracked, mostly-lost truth tracks.

    A truth track is mostly tracked when at least 80% of its frames are
    matched, mostly lost below 20%, partially tracked in between.
    """
    gt = _table(gt)
    return _coverage(gt, clear_scores(gt, pred, cfg))


def _coverage(gt: TrackTable, report: ClearReport) -> tuple[int, int, int]:
    mt = pt = ml = 0
    for length, hits in zip(gt.lengths.tolist(), report.gt_matched_frames):
        if not length:
            continue
        ratio = hits / length
        if ratio >= 0.8:
            mt += 1
        elif ratio < 0.2:
            ml += 1
        else:
            pt += 1
    return mt, pt, ml


METRIC_COLUMNS = ("IDF1", "IDPR", "IDRC", "MOTA", "PR", "RC", "MT", "PT", "ML")


def summarize(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> dict[str, float]:
    """All reported metrics keyed by their column names.

    The inputs are converted and their gate pairs found once; `idf1` and
    `clear_scores` get the tables and the pairs.
    """
    gt, pred = _table(gt), _table(pred)
    pairs = _gate_pairs(gt, pred, cfg.max_dist)
    idf = idf1(gt, pred, cfg, _pairs=pairs)
    clear = clear_scores(gt, pred, cfg, _pairs=pairs)
    mt, pt, ml = _coverage(gt, clear)
    return {
        "IDF1": idf.idf1,
        "IDPR": idf.idpr,
        "IDRC": idf.idrc,
        "MOTA": clear.mota,
        "PR": clear.precision,
        "RC": clear.recall,
        "MT": float(mt),
        "PT": float(pt),
        "ML": float(ml),
    }
