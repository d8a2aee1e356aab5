"""Tracking quality metrics: identity scores and per-frame accounting.

Identity scores (IDF1 and friends) match whole trajectories one-to-one so
that the matched pairs' co-occurring in-gate frames, the identity-true-
positives, are as many as possible; misses plus false positives total
total_gt + total_pred - 2 * idtp, so this matching also minimizes per-frame
disagreement.  The per-frame score (MOTA) instead matches each frame
independently, carrying matches over between frames so that identity
switches can be counted.

Every metric takes tracks either as detection lists or as a `TrackTable`,
and works on the table: lists are converted once on entry.  Every gate
decision and every matching cost is the exact `math.dist` of the pair.
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


@dataclass(frozen=True)
class MatchConfig:
    """Gate for counting a predicted position as hitting a true one."""

    max_dist: float = 3.0

    def __post_init__(self) -> None:
        if not (_is_real(self.max_dist) and self.max_dist > 0):
            raise ValueError(f"max_dist must be positive, got {self.max_dist!r}")


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


def _overlap_counts(gt: TrackTable, pred: TrackTable, max_dist: float) -> np.ndarray:
    """Frames where each (gt, pred) track pair co-occurs within the gate.

    Detections become points (frame * spacing, x, y) with a frame spacing
    twice the search radius, so the KD-tree query only pairs detections of
    one frame.  The radius is loose, and far-out frames can round to one
    coordinate; the exact frame and gate tests decide.  Unbalanced trees build
    faster; the query is exact for any tree, so no count depends on the build.
    """
    counts = np.zeros((len(gt), len(pred)), dtype=int)
    if not (len(gt.frames) and len(pred.frames)):
        return counts
    spacing = 4.0 * max_dist
    points = (np.column_stack((side.frames * spacing, side.pos)) for side in (gt, pred))
    g_tree, p_tree = (cKDTree(p, balanced_tree=False, compact_nodes=False) for p in points)
    near = g_tree.sparse_distance_matrix(p_tree, 2.0 * max_dist, output_type="ndarray")
    i, j = near["i"], near["j"]
    keep = (gt.frames[i] == pred.frames[j]) & (_dists(gt.pos[i], pred.pos[j]) <= max_dist)
    np.add.at(counts, (gt.owner[i[keep]], pred.owner[j[keep]]), 1)
    return counts


def idf1(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> IdfReport:
    """Identity F1 and its precision/recall decomposition.

    Tracks are matched one-to-one to maximize the identity-true-positives,
    the matched pairs' co-occurring in-gate frames; per-frame disagreement,
    total_gt + total_pred - 2 * idtp, is then minimal.  Two empty inputs
    score as perfect by convention; an empty prediction against non-empty
    truth scores zero.
    """
    gt, pred = _table(gt), _table(pred)
    total_gt, total_pred = len(gt.frames), len(pred.frames)
    if total_gt == 0 and total_pred == 0:
        return IdfReport(1.0, 1.0, 1.0, 0, 0, 0)
    overlap = _overlap_counts(gt, pred, cfg.max_dist)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    idtp = int(overlap[rows, cols].sum())
    idfn = total_gt - idtp
    idfp = total_pred - idtp
    f1 = 2.0 * idtp / (total_gt + total_pred)
    idpr = idtp / total_pred if total_pred else 0.0
    idrc = idtp / total_gt if total_gt else 1.0
    return IdfReport(f1, idpr, idrc, idtp, idfp, idfn)


def _by_frame(table: TrackTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Frames, track indices and positions of the rows sorted by (frame, track).

    The sort is stable, so a track's rows within one frame keep their order.
    """
    order = np.argsort(table.frames, kind="stable")
    return table.frames[order], table.owner[order], table.pos[order]


def _leftover_matching(
    g_xy: np.ndarray, p_xy: np.ndarray, gate: float
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-distance pairing of one frame's unmatched rows, inside the gate.

    A pair costs its distance inside the gate and gate * 1e6 outside it.
    Only pairs within twice the gate on both axes are measured; the others
    are surely outside.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        near = (np.abs(g_xy[:, None, :] - p_xy[None, :, :]) <= 2.0 * gate).all(axis=2)
    r, c = np.nonzero(near)
    dist = _dists(g_xy[r], p_xy[c])
    inside = dist <= gate
    if not inside.any():
        return r[:0], c[:0]
    cost = np.full((len(g_xy), len(p_xy)), gate * 1e6)
    cost[r[inside], c[inside]] = dist[inside]
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] <= gate
    return rows[keep], cols[keep]


def clear_scores(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> ClearReport:
    """Per-frame accounting: misses, false positives, identity switches.

    Matching within each frame keeps the previous frame's pairing wherever it
    is still inside the gate, then pairs the remainder at minimal distance.
    The accuracy score is 1 minus the error rate and can go negative when
    errors outnumber true detections.
    """
    gt, pred = _table(gt), _table(pred)
    total_gt, total_pred = len(gt.frames), len(pred.frames)
    if total_gt == 0:
        if total_pred == 0:
            return ClearReport(1.0, 1.0, 1.0, 0, 0, 0, 0, ())
        raise ValueError("no ground-truth detections to evaluate against")
    gate = cfg.max_dist
    g_frames, g_track, g_pos = _by_frame(gt)
    p_frames, p_track, p_pos = _by_frame(pred)
    frames = np.union1d(g_frames, p_frames)
    g_ends = np.searchsorted(g_frames, frames, side="right").tolist()
    p_ends = np.searchsorted(p_frames, frames, side="right").tolist()
    last_match = np.full(len(gt), -1)
    matched_frames = np.zeros(len(gt), dtype=int)
    tp = fp = fn = switches = 0
    g_start = p_start = 0
    for g_end, p_end in zip(g_ends, p_ends):
        g_here, g_xy = g_track[g_start:g_end], g_pos[g_start:g_end]
        p_here, p_xy = p_track[p_start:p_end], p_pos[p_start:p_end]
        g_start, p_start = g_end, p_end
        pairs = 0
        if len(g_here) and len(p_here):
            # Carry-over: a truth row keeps its track's previous partner when
            # that track is here (at its last row in this frame) and inside
            # the gate; of the rows claiming one partner, the first keeps it.
            partner = last_match[g_here]
            at = np.searchsorted(p_here, partner, side="right") - 1
            claim = np.flatnonzero((partner >= 0) & (at >= 0) & (p_here[at] == partner))
            claim = claim[_dists(g_xy[claim], p_xy[at[claim]]) <= gate]
            _, first = np.unique(partner[claim], return_index=True)
            carried = claim[first]
            # A carried pair repeats its truth track's last match: no switch.
            matched_frames[g_here[carried]] += 1
            left_g = np.ones(len(g_here), dtype=bool)
            left_g[carried] = False
            left_p = ~np.isin(p_here, partner[carried])
            rows, cols = _leftover_matching(g_xy[left_g], p_xy[left_p], gate)
            pairs = len(carried) + len(rows)
            # In row order, as a truth track with two rows here may match twice.
            for g, p in zip(g_here[left_g][rows].tolist(), p_here[left_p][cols].tolist()):
                if last_match[g] not in (-1, p):
                    switches += 1
                last_match[g] = p
                matched_frames[g] += 1
        tp += pairs
        fp += len(p_here) - pairs
        fn += len(g_here) - pairs
    mota = 1.0 - (fp + fn + switches) / total_gt
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / total_gt
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

    The inputs are converted once; `idf1` and `clear_scores` get the tables.
    """
    gt, pred = _table(gt), _table(pred)
    idf = idf1(gt, pred, cfg)
    clear = clear_scores(gt, pred, cfg)
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
