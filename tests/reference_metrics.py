"""The former KD-tree gate-pair pass, kept as the reference for `core._gate_pairs`.

`reference_gate_pairs` queries two `cKDTree`s with `sparse_distance_matrix`
and tests every candidate with `math.dist`; the join must find the same pairs.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from ptrack import TrackTable
from ptrack.metrics import _unit


def reference_gate_pairs(gt: TrackTable, pred: TrackTable, max_dist):
    """Rows (gt, pred) of one frame within the gate of each other.

    Detections become points (frame * spacing, x, y), in units of `_unit`,
    with a frame spacing twice the search radius, so the KD-tree query only
    pairs detections of one frame.  The query squares coordinate differences,
    so it overflows when detections lie more than about 1e154 units apart.
    """
    if not (len(gt.frames) and len(pred.frames)):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    unit = _unit(max_dist)
    radius = 2.0 * (max_dist / unit)
    points = (np.column_stack((side.frames * (2.0 * radius), side.pos / unit)) for side in (gt, pred))
    g_tree, p_tree = (cKDTree(p, balanced_tree=False, compact_nodes=False) for p in points)
    near = g_tree.sparse_distance_matrix(p_tree, radius, output_type="ndarray")
    i, j = near["i"], near["j"]
    same = gt.frames[i] == pred.frames[j]
    i, j = i[same], j[same]
    inside = np.array([math.dist(gt.pos[a], pred.pos[b]) <= max_dist for a, b in zip(i, j)], dtype=bool)
    return i[inside], j[inside]
