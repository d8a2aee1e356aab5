"""Tracking quality metrics: identity scores and per-frame accounting.

Identity scores (IDF1 and friends) match whole trajectories one-to-one so
that the matched pairs' co-occurring in-gate frames, the identity-true-
positives, are as many as possible; misses plus false positives total
total_gt + total_pred - 2 * idtp, so this matching also minimizes per-frame
disagreement.  The per-frame score (MOTA) instead matches each frame
independently, carrying matches over between frames so that identity
switches can be counted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

from .core import Detection

Tracks = Sequence[Sequence[Detection]]


@dataclass(frozen=True)
class MatchConfig:
    """Gate for counting a predicted position as hitting a true one."""

    max_dist: float = 3.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.max_dist) and self.max_dist > 0):
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


def _frame_table(tracks: Tracks) -> dict[int, list[tuple[int, tuple[float, float]]]]:
    table: dict[int, list[tuple[int, tuple[float, float]]]] = {}
    for t_idx, track in enumerate(tracks):
        for det in track:
            table.setdefault(det.frame, []).append((t_idx, det.pos))
    return table


def _overlap_counts(gt: Tracks, pred: Tracks, max_dist: float) -> np.ndarray:
    """Frames where each (gt, pred) track pair co-occurs within the gate.

    Detections become points (frame * spacing, x, y) with a frame spacing
    twice the search radius, so the KD-tree query only pairs detections of
    one frame.  The radius is loose; the exact gate test decides.
    """
    counts = np.zeros((len(gt), len(pred)), dtype=int)
    g_dets, p_dets = ([det for track in side for det in track] for side in (gt, pred))
    if not (g_dets and p_dets):
        return counts
    spacing = 4.0 * max_dist
    g_tree, p_tree = (
        cKDTree(
            np.column_stack(
                (np.array([d.frame for d in dets], dtype=float) * spacing, [d.pos for d in dets])
            )
        )
        for dets in (g_dets, p_dets)
    )
    near = g_tree.sparse_distance_matrix(p_tree, 2.0 * max_dist, output_type="ndarray")
    i, j = near["i"], near["j"]
    keep = np.array(
        [math.dist(g_dets[a].pos, p_dets[b].pos) <= max_dist for a, b in zip(i.tolist(), j.tolist())],
        dtype=bool,
    )
    g_owner, p_owner = (np.repeat(np.arange(len(side)), [len(t) for t in side]) for side in (gt, pred))
    np.add.at(counts, (g_owner[i[keep]], p_owner[j[keep]]), 1)
    return counts


def idf1(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> IdfReport:
    """Identity F1 and its precision/recall decomposition.

    Tracks are matched one-to-one to maximize the identity-true-positives,
    the matched pairs' co-occurring in-gate frames; per-frame disagreement,
    total_gt + total_pred - 2 * idtp, is then minimal.  Two empty inputs
    score as perfect by convention; an empty prediction against non-empty
    truth scores zero.
    """
    total_gt = sum(len(t) for t in gt)
    total_pred = sum(len(t) for t in pred)
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


def clear_scores(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> ClearReport:
    """Per-frame accounting: misses, false positives, identity switches.

    Matching within each frame keeps the previous frame's pairing wherever it
    is still inside the gate, then pairs the remainder at minimal distance.
    The accuracy score is 1 minus the error rate and can go negative when
    errors outnumber true detections.
    """
    total_gt = sum(len(t) for t in gt)
    total_pred = sum(len(t) for t in pred)
    if total_gt == 0:
        if total_pred == 0:
            return ClearReport(1.0, 1.0, 1.0, 0, 0, 0, 0, ())
        raise ValueError("no ground-truth detections to evaluate against")
    gt_frames = _frame_table(gt)
    pred_frames = _frame_table(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))
    last_match: dict[int, int] = {}
    matched_frames = [0] * len(gt)
    tp = fp = fn = switches = 0
    for frame in frames:
        gt_here = gt_frames.get(frame, [])
        pred_here = pred_frames.get(frame, [])
        pred_pos = {p: pos for p, pos in pred_here}
        pairs: list[tuple[int, int]] = []
        used_p: set[int] = set()
        leftover_g: list[tuple[int, tuple[float, float]]] = []
        for g, gpos in gt_here:
            p = last_match.get(g)
            if p is not None and p in pred_pos and p not in used_p and math.dist(gpos, pred_pos[p]) <= cfg.max_dist:
                pairs.append((g, p))
                used_p.add(p)
            else:
                leftover_g.append((g, gpos))
        leftover_p = [(p, pos) for p, pos in pred_here if p not in used_p]
        if leftover_g and leftover_p:
            dist = np.array(
                [[math.dist(gpos, ppos) for _, ppos in leftover_p] for _, gpos in leftover_g]
            )
            gated = np.where(dist <= cfg.max_dist, dist, cfg.max_dist * 1e6)
            rows, cols = linear_sum_assignment(gated)
            for r, c in zip(rows, cols):
                if dist[r, c] <= cfg.max_dist:
                    pairs.append((leftover_g[r][0], leftover_p[c][0]))
        for g, p in pairs:
            prev = last_match.get(g)
            if prev is not None and prev != p:
                switches += 1
            last_match[g] = p
            matched_frames[g] += 1
        tp += len(pairs)
        fp += len(pred_here) - len(pairs)
        fn += len(gt_here) - len(pairs)
    mota = 1.0 - (fp + fn + switches) / total_gt
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / total_gt
    return ClearReport(mota, precision, recall, tp, fp, fn, switches, tuple(matched_frames))


def track_coverage(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> tuple[int, int, int]:
    """Counts of mostly-tracked, partially-tracked, mostly-lost truth tracks.

    A truth track is mostly tracked when at least 80% of its frames are
    matched, mostly lost below 20%, partially tracked in between.
    """
    return _coverage(gt, clear_scores(gt, pred, cfg))


def _coverage(gt: Tracks, report: ClearReport) -> tuple[int, int, int]:
    mt = pt = ml = 0
    for track, hits in zip(gt, report.gt_matched_frames):
        if not track:
            continue
        ratio = hits / len(track)
        if ratio >= 0.8:
            mt += 1
        elif ratio < 0.2:
            ml += 1
        else:
            pt += 1
    return mt, pt, ml


METRIC_COLUMNS = ("IDF1", "IDPR", "IDRC", "MOTA", "PR", "RC", "MT", "PT", "ML")


def summarize(gt: Tracks, pred: Tracks, cfg: MatchConfig = MatchConfig()) -> dict[str, float]:
    """All reported metrics keyed by their column names."""
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
