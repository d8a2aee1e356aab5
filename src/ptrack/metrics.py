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
counted: a truth track keeps its latest partner while inside the gate, and
the leftover rows share one assignment, where a pair outside the gate costs
a million gates; so leftover gate pairs that already form a matching are
the answer without one.  A frame is settled when no row of it is in two gate
pairs and no track, true or predicted, has two rows in it.  A settled
frame's matching is its gate pairs, whatever is carried over: a carried
pair is a gate pair, and with one row per track it takes no other pair's
row out of the leftover.  So settled frames are matched all at once; when
all are, a truth track's matched rows are its matches, in time order where
its frames rise, as a read table's do.  The others go frame by frame in
Python over their own rows and gate pairs, after one sorted search for each
truth track's latest settled match before them.

Every metric takes tracks either as detection lists or as a `TrackTable`,
and works on the table: lists are converted once on entry.  The gate pairs
come from `core._gate_pairs` (`build_graph`'s edges do too), a sort-based
join over cells a power of two wide, which squares no coordinate, so rows
any finite distance apart compare without overflow.  Every gate decision
agrees with the exact `math.dist` of the pair, and every matching cost is
that distance, measured in a power-of-two unit taken from the gate so that
it stays finite at any finite gate.  The assignments are scipy's
`linear_sum_assignment`, taken from its compiled module `scipy.optimize._lsap`
by `core._scipy_extension`, so importing ptrack does not run
`scipy.optimize`'s package init.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import TrackTable, Tracks, _gate_pairs, _is_real, _scipy_extension, as_track_table

linear_sum_assignment = _scipy_extension("scipy.optimize._lsap").linear_sum_assignment

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


def _unit(gate: float) -> float:
    """The power of two, at least 1, that the leftover costs are measured in.

    The gate is less than twice the unit, and dividing by a power of two is
    exact above the subnormal range; so a million gates stays finite at any
    finite gate, and the costs scale with it.
    """
    return math.ldexp(1.0, max(math.frexp(gate)[1] - 1, 0))


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
    gt, pred = as_track_table(gt), as_track_table(pred)
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


def _rises(frames: np.ndarray, owner: np.ndarray) -> bool:
    """Whether each track's frames rise strictly, as in a table the reader built."""
    return bool(np.all((frames[1:] > frames[:-1]) | (owner[1:] != owner[:-1])))


def _repeated_frames(frames: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """Frames where a track has two rows: sorted stably by frame, a frame's rows are by track."""
    order = np.argsort(frames, kind="stable")
    frames, owner = frames[order], owner[order]
    twice = (frames[1:] == frames[:-1]) & (owner[1:] == owner[:-1])
    return frames[1:][twice]


def _in_frames(k: np.ndarray, n: int, *columns: np.ndarray) -> list[list[tuple]]:
    """Tuples of the columns' entries, in their order, bucketed by their frame index `k` in 0..n-1."""
    order = np.argsort(k, kind="stable")
    bounds = np.searchsorted(k[order], np.arange(n + 1)).tolist()
    rows = list(zip(*(c[order].tolist() for c in columns)))
    return [rows[a:b] for a, b in zip(bounds, bounds[1:])]


def _match_by_frame(
    gt: TrackTable, pred: TrackTable, g_owner: np.ndarray, p_owner: np.ndarray,
    gi: np.ndarray, pj: np.ndarray, unsettled: np.ndarray, max_dist: float,
) -> np.ndarray:
    """Every match as a column (truth track, predicted track), each truth track's
    in time order: the settled frames' gate pairs, and the `unsettled` frames
    (sorted) matched one by one, as the module notes say."""
    n = len(unsettled)
    # A row is in the k-th unsettled frame when its frame is unsettled[k].
    g_k, p_k = (np.searchsorted(unsettled, t.frames) for t in (gt, pred))
    g_in, p_in = (unsettled.take(k, mode="clip") == t.frames for k, t in ((g_k, gt), (p_k, pred)))
    settled = ~g_in[gi]
    matched = np.array((g_owner[gi[settled]], p_owner[pj[settled]], gt.frames[gi[settled]]))
    g_s, p_s, f_s = matched = matched[:, np.lexsort(matched[2::-2])]
    # Keyed (track, unsettled frames before it), a track's latest settled match before the k-th
    # unsettled frame is its last key at or below (track, k); index -1 reads an appended non-track.
    keys = g_s * (n + 1) + np.searchsorted(unsettled, f_s)
    g_rows, p_rows, u = np.flatnonzero(g_in), np.flatnonzero(p_in), np.flatnonzero(~settled)
    tracks = g_owner[g_rows]
    at = np.searchsorted(keys, tracks * (n + 1) + g_k[g_rows], "right") - 1
    found = np.append(g_s, -1)[at] == tracks
    # Each unsettled frame's truth rows with that match as (frame, predicted track), else
    # (least frame, -1), which any match outranks; its predicted rows; its gate pairs.
    prior_f = np.where(found, np.append(f_s, 0)[at], np.iinfo(np.int64).min)
    here_g = _in_frames(g_k[g_rows], n, g_rows, tracks, prior_f, np.where(found, np.append(p_s, -1)[at], -1))
    here_p = _in_frames(p_k[p_rows], n, p_rows, p_owner[p_rows])
    here_pairs = _in_frames(g_k[gi[u]], n, gi[u], pj[u], g_owner[gi[u]], p_owner[pj[u]])
    near = {(i, j) for pairs_here in here_pairs for i, j, _, _ in pairs_here}
    unit = _unit(max_dist)
    gate = max_dist / unit
    last = {}  # truth track -> (frame, predicted track) of its latest unsettled match
    matches = []  # truth track, predicted track, frame, ...: each frame's in its order
    for frame, rows_g, rows_p, pairs_here in zip(unsettled.tolist(), here_g, here_p, here_pairs):
        # Carry-over: a truth row keeps its track's latest partner when that
        # track is here (at its last row in this frame) and inside the gate;
        # of the rows claiming one partner, the first keeps it.
        last_row = {p: row for row, p in rows_p}
        carried = {}  # predicted track -> (truth row, truth track)
        for row, g, f, p in rows_g:
            p = max((f, p), last.get(g, (f, p)))[1]
            if p not in carried and (row, last_row.get(p)) in near:
                carried[p] = row, g
        taken = {row for row, _ in carried.values()}
        left = sorted((i, j, g, p) for i, j, g, p in pairs_here if i not in taken and p not in carried)
        # Leftover gate pairs that form a matching are the answer (see the module notes).
        if len({i for i, _, _, _ in left}) == len(left) == len({j for _, j, _, _ in left}):
            new = [(g, p) for _, _, g, p in left]
        else:
            left_g = [(row, g) for row, g, _, _ in rows_g if row not in taken]
            left_p = [(row, p) for row, p in rows_p if p not in carried]
            cost = [[math.dist(gt.pos[i], pred.pos[j]) / unit for j, _ in left_p] for i, _ in left_g]
            cost = [[d if d <= gate else gate * 1e6 for d in costs] for costs in cost]
            rows, cols = (x.tolist() for x in linear_sum_assignment(cost))
            new = [(left_g[a][1], left_p[c][1]) for a, c in zip(rows, cols) if cost[a][c] <= gate]
        for g, p in [(g, p) for p, (_, g) in carried.items()] + new:
            last[g] = frame, p
            matches += g, p, frame
    matched = np.concatenate((matched, np.array(matches, dtype=np.int64).reshape(-1, 3).T), axis=1)
    # By truth track, then frame; lexsort is stable, so a frame's matches keep their order.
    return matched[:2, np.lexsort(matched[2::-2])]


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
    gt, pred = as_track_table(gt), as_track_table(pred)
    total_gt, total_pred = len(gt.frames), len(pred.frames)
    if total_gt == 0:
        if total_pred == 0:
            return ClearReport(1.0, 1.0, 1.0, 0, 0, 0, 0, ())
        raise ValueError("no ground-truth detections to evaluate against")
    gi, pj = _gate_pairs(gt, pred, cfg.max_dist) if _pairs is None else _pairs
    g_owner, p_owner = gt.owner, pred.owner
    rises = _rises(gt.frames, g_owner), _rises(pred.frames, p_owner)
    unsettled = np.unique(np.concatenate((
        gt.frames[np.bincount(gi, minlength=total_gt) > 1],
        pred.frames[np.bincount(pj, minlength=total_pred) > 1],
        *(_repeated_frames(t.frames, o) for t, o, r in zip((gt, pred), (g_owner, p_owner), rises) if not r),
    )))
    if not len(unsettled):
        # Every gate pair is a match, at most one per truth row: a truth
        # track's rows in time order, where matched, are its matches in order.
        partner = np.full(total_gt, -1)
        partner[gi] = p_owner[pj]
        in_time = slice(None) if rises[0] else np.lexsort((gt.frames, g_owner))
        g_seq, p_seq = g_owner[in_time], partner[in_time]
        g_seq, p_seq = g_seq[p_seq >= 0], p_seq[p_seq >= 0]
    else:
        g_seq, p_seq = _match_by_frame(gt, pred, g_owner, p_owner, gi, pj, unsettled, cfg.max_dist)
    switches = int(np.count_nonzero((g_seq[1:] == g_seq[:-1]) & (p_seq[1:] != p_seq[:-1])))
    tp = len(g_seq)
    fp, fn = total_pred - tp, total_gt - tp
    mota = 1.0 - (fp + fn + switches) / total_gt
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / total_gt
    matched_frames = np.bincount(g_seq, minlength=len(gt))
    return ClearReport(mota, precision, recall, tp, fp, fn, switches, tuple(matched_frames.tolist()))


def track_coverage(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> tuple[int, int, int]:
    """Counts of mostly-tracked, partially-tracked, mostly-lost truth tracks.

    A truth track is mostly tracked when at least 80% of its frames are
    matched, mostly lost below 20%, partially tracked in between.
    """
    gt = as_track_table(gt)
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
    gt, pred = as_track_table(gt), as_track_table(pred)
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
