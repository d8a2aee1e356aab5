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
The matching splits over the connected blocks of the (truth track,
predicted track) overlap graph (Ristani et al., arXiv 1609.01775): past a
small overlap matrix, a block with one track on either side keeps its
largest overlap, and the other blocks share one assignment over their
tracks alone.

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
and works on the table: lists are converted once on entry.  The gate pairs
come from a sort-based join over cells a power of two wide (`_gate_pairs`),
which squares no coordinate, so rows any finite distance apart compare
without overflow.  Every gate decision agrees with the exact `math.dist` of
the pair, and every matching cost is that distance, measured in a power-of-
two unit taken from the gate so that it stays finite at any finite gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import Detection, TrackTable, _is_real

Tracks = Sequence[Sequence[Detection]] | TrackTable
# Gate pairs: truth rows and predicted rows.
Pairs = tuple[np.ndarray, np.ndarray]


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
    """The power of two, at least 1, that the leftover costs are measured in.

    The gate is less than twice the unit, and dividing by a power of two is
    exact above the subnormal range; so a million gates stays finite at any
    finite gate, and the costs scale with it.
    """
    return math.ldexp(1.0, max(math.frexp(gate)[1] - 1, 0))


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
def _gate_pairs(gt: TrackTable, pred: TrackTable, max_dist: float) -> Pairs:
    """Rows (gt, pred) of one frame within the gate of each other.

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


# An overlap matrix of at most this many cells runs one assignment: below
# it, a dense `linear_sum_assignment` costs less than finding the blocks.
_ONE_ASSIGNMENT_CELLS = 2**12


def _idtp(g_owner: np.ndarray, p_owner: np.ndarray, n_g: int, n_p: int) -> int:
    """The most gate pairs a one-to-one track matching keeps.

    `g_owner` and `p_owner` are the tracks of each gate pair.  A maximum-
    weight matching is one per connected block of the overlap graph, so a
    small overlap matrix runs one assignment; in a larger one, a block with
    one track on either side (a star) keeps its largest overlap, and the
    other blocks run one assignment on a matrix of their tracks alone.
    """
    if n_g * n_p <= _ONE_ASSIGNMENT_CELLS:
        return _most_overlap(np.bincount(g_owner * n_p + p_owner, minlength=n_g * n_p).reshape(n_g, n_p))
    keys, overlap = np.unique(g_owner * n_p + p_owner, return_counts=True)
    g, p = np.divmod(keys, n_p)
    # A truth track is a star's centre when each of its partners overlaps it alone; so is a predicted one.
    g_star = np.bincount(g, np.bincount(p)[p] > 1, minlength=n_g) == 0
    p_star = np.bincount(p, np.bincount(g)[g] > 1, minlength=n_p) == 0
    star = g_star[g] | p_star[p]
    best = np.zeros(n_g + n_p, dtype=np.int64)
    np.maximum.at(best, np.where(g_star[g], g, n_g + p)[star], overlap[star])
    idtp = int(best.sum())
    if star.all():
        return idtp
    # The other blocks share one assignment over their own tracks; a track
    # of one block overlaps no track of another, so it adds up their best.
    rest = ~star
    return idtp + _most_overlap(_matrix(g[rest], p[rest], overlap[rest]))


def _matrix(g: np.ndarray, p: np.ndarray, overlap: np.ndarray) -> np.ndarray:
    """The overlap matrix of tracks `g` by tracks `p` alone, from each (g, p) pair's overlap."""
    rows, g = np.unique(g, return_inverse=True)
    cols, p = np.unique(p, return_inverse=True)
    matrix = np.zeros((len(rows), len(cols)), dtype=np.int64)
    matrix[g, p] = overlap
    return matrix


def _most_overlap(matrix: np.ndarray) -> int:
    """The most overlap a one-to-one matching of the matrix's rows to its columns keeps."""
    return int(matrix[linear_sum_assignment(matrix, maximize=True)].sum())


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
    i, j = _gate_pairs(gt, pred, cfg.max_dist) if _pairs is None else _pairs
    idtp = _idtp(gt.owner[i], pred.owner[j], len(gt), len(pred))
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
    gi, pj = _gate_pairs(gt, pred, cfg.max_dist) if _pairs is None else _pairs
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
        u_cost = _dists(gt.pos[gi[u_pairs]], pred.pos[pj[u_pairs]]) / unit
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
            cost[g_rank[gi[here]] - ga, p_rank[pj[here]] - pa] = u_cost[ua:ub]
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
