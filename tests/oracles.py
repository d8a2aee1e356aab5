"""Slow reference implementations used as oracles by the test suite.

Everything here favors being obviously correct over being fast: dense
sampling instead of closed-form projection, exhaustive enumeration instead
of search, and an independent transliteration of the edge scoring rules.
Nothing in this module shares code with the package under test.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from ptrack import Config

from helpers import edge_set


def dense_nearest_point(point, centerline, step=1e-3):
    """Nearest point on a polyline found by brute-force sampling.

    Returns (arc, foot, dist) like the projection under test; the arc is
    accurate to about `step`, the distance to about step squared.
    """
    px, py = point
    best = None
    arc_base = 0.0
    for (ax, ay), (bx, by) in zip(centerline, centerline[1:]):
        seg = math.dist((ax, ay), (bx, by))
        n_samples = max(2, int(seg / step) + 1)
        for k in range(n_samples):
            t = k / (n_samples - 1)
            fx, fy = ax + t * (bx - ax), ay + t * (by - ay)
            d = math.hypot(px - fx, py - fy)
            if best is None or d < best[2] - 1e-15:
                best = (arc_base + t * seg, (fx, fy), d)
        arc_base += seg
    return best


def _segment_projection(point, a, b):
    """Closed-form projection onto a single segment: (arc, foot, dist)."""
    ax, ay = a
    bx, by = b
    px, py = point
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(max(t, 0.0), 1.0)
    fx, fy = ax + t * dx, ay + t * dy
    return t * math.sqrt(seg2), (fx, fy), math.hypot(px - fx, py - fy)


def straight_edge_score(pos_i, pos_j, centerline, width, empty, cfg):
    """Reference (total, aligned) for a detection edge and one pattern.

    Independent transliteration of the scoring rules, limited to two-point
    centerlines so the projection stays closed-form.
    """
    edge_len = math.dist(pos_i, pos_j)
    if empty:
        return edge_len, cfg.empty_rate * edge_len
    assert len(centerline) == 2, "reference scorer handles straight centerlines only"
    a, b = centerline
    s_i, foot_i, dist_i = _segment_projection(pos_i, a, b)
    s_j, foot_j, dist_j = _segment_projection(pos_j, a, b)
    if s_j < s_i:
        return edge_len - (s_i - s_j), -(1.0 + cfg.reverse_penalty) * (s_i - s_j)
    total = edge_len + (s_j - s_i)
    if dist_i > width or dist_j > width:
        return total, 0.0
    ex, ey = pos_j[0] - pos_i[0], pos_j[1] - pos_i[1]
    cx, cy = foot_j[0] - foot_i[0], foot_j[1] - foot_i[1]
    dot = abs(ex * cx + ey * cy)
    chord = math.hypot(cx, cy)
    aligned = 0.0
    if edge_len > 0.0:
        aligned += dot / edge_len
    if chord > 0.0:
        aligned += dot / chord
    return total, aligned


# Total of an empty-pattern entry or exit away from the batch boundary.
EMPTY_END_TOTAL = 1.0


def straight_boundary_score(pos, centerline, width, empty, entry, at_boundary, cfg=Config()):
    """Reference (total, aligned) for an entry or exit edge.

    An end at the batch boundary is free on every pattern.  Any other end
    costs the arc it skips on a pattern, and one unit of motion at the empty
    rate on the empty pattern.
    """
    if at_boundary:
        return 0.0, 0.0
    if empty:
        return EMPTY_END_TOTAL, cfg.empty_rate * EMPTY_END_TOTAL
    a, b = centerline
    s, _, _ = _segment_projection(pos, a, b)
    if entry:
        return s, 0.0
    return math.dist(a, b) - s, 0.0


def satisfies(constraint, x):
    value = sum(c * x[v] for v, c in zip(constraint.vars, constraint.coeffs))
    if constraint.sense == "<=":
        return value <= constraint.rhs + 1e-9
    if constraint.sense == ">=":
        return value >= constraint.rhs - 1e-9
    return abs(value - constraint.rhs) <= 1e-9


def enumerate_assignments(model):
    """All 0/1 assignments satisfying the model's linear constraints."""
    for bits in itertools.product((0, 1), repeat=model.num_vars):
        if all(satisfies(c, bits) for c in model.constraints):
            yield bits


def brute_force_best_ratio(model):
    """Exact optimum of the ratio over feasible positive-denominator points.

    Returns (best_ratio, witness) or (None, None) when no feasible
    assignment has a positive denominator.
    """
    best = None
    witness = None
    for bits in enumerate_assignments(model):
        den = sum(n * x for n, x in zip(model.denom, bits))
        if den <= 0.0:
            continue
        num = sum(m * x for m, x in zip(model.numer, bits))
        ratio = num / den
        if best is None or ratio > best:
            best, witness = ratio, bits
    return best, witness


def brute_force_argmax_value(model, alpha):
    """The largest (numer - alpha * denom)·x over the model's 0/1 points, or None."""
    values = [
        sum((m - alpha * n) * x for m, n, x in zip(model.numer, model.denom, bits))
        for bits in enumerate_assignments(model)
    ]
    return max(values, default=None)


def brute_force_feasible(model, alpha):
    """Whether some constraint-satisfying assignment reaches the ratio level."""
    for bits in enumerate_assignments(model):
        value = sum((m - alpha * n) * x for m, n, x in zip(model.numer, model.denom, bits))
        if value >= 0.0:
            return True
    return False


def enumerate_path_covers(graph, cap=200_000):
    """All partitions of the detections into edge-connected forward chains.

    Detections are processed in (frame, node) order; each one either opens a
    new chain or extends the chain whose current tail links to it, which
    yields every cover exactly once.  Returns None when more than `cap`
    covers exist.
    """
    nodes = sorted(graph.ids, key=lambda v: (graph.detections[v - 1].frame, v))
    det_edges = {(i, j) for i, j in edge_set(graph) if i >= 0 and j >= 0}
    covers = []
    chains: list[list[int]] = []

    def rec(k):
        if len(covers) > cap:
            return
        if k == len(nodes):
            covers.append(tuple(tuple(c) for c in chains))
            return
        v = nodes[k]
        chains.append([v])
        rec(k + 1)
        chains.pop()
        for chain in chains:
            if (chain[-1], v) in det_edges:
                chain.append(v)
                rec(k + 1)
                chain.pop()

    rec(0)
    if len(covers) > cap:
        return None
    return covers


def _best_labeling_ratio(option_lists):
    """Exact max of sum(aligned)/sum(total) over independent per-chain choices.

    Iteratively re-picks each chain's best option at the current ratio level;
    every iterate is an achievable ratio and the sequence strictly increases,
    so it terminates at the exact optimum.  Returns None when no labeling has
    a positive denominator.
    """
    scale = 1.0 + sum(abs(m) + abs(n) for opts in option_lists for m, n in opts)
    start = [max(opts, key=lambda o: o[1]) for opts in option_lists]
    den = sum(o[1] for o in start)
    if den <= 0.0:
        return None
    lam = sum(o[0] for o in start) / den
    for _ in range(1000):
        picked = [max(opts, key=lambda o: o[0] - lam * o[1]) for opts in option_lists]
        gap = sum(o[0] - lam * o[1] for o in picked)
        if gap <= 1e-12 * scale:
            return lam
        den = sum(o[1] for o in picked)
        if den <= 0.0:
            return lam
        lam = sum(o[0] for o in picked) / den
    raise AssertionError("labeling ratio iteration failed to converge")


def straight_chain_score(graph, nodes, pattern, cfg):
    """Reference (total, aligned) of a chain of detection ids, ends included.

    An end is at the boundary when its detection lies on the graph batch's
    first frame (entry) or last frame (exit).
    """
    first, last = graph.batch
    dets = [graph.detections[v - 1] for v in nodes]
    shape = (pattern.centerline, pattern.width, pattern.is_empty)
    scores = [
        straight_boundary_score(dets[0].pos, *shape, True, dets[0].frame == first, cfg),
        straight_boundary_score(dets[-1].pos, *shape, False, dets[-1].frame == last, cfg),
    ]
    scores += [straight_edge_score(a.pos, b.pos, *shape, cfg) for a, b in zip(dets, dets[1:])]
    return sum(t for t, _ in scores), sum(a for _, a in scores)


def best_cover_objective(graph, patterns, cfg, cap=200_000):
    """Exact optimum of the linking objective by exhaustive cover enumeration.

    Scores every chain of every cover against every (straight or empty)
    pattern with `straight_chain_score`, then maximizes the ratio of sums
    over the independent pattern choices.  Returns None when the cover count
    exceeds `cap`, or when no cover has a positive total.
    """
    covers = enumerate_path_covers(graph, cap)
    if covers is None:
        return None
    score_cache: dict[tuple[int, ...], list[tuple[float, float]]] = {}

    def chain_options(nodes):
        opts = score_cache.get(nodes)
        if opts is None:
            opts = []
            for pattern in patterns:
                total, aligned = straight_chain_score(graph, nodes, pattern, cfg)
                opts.append((aligned, total))
            score_cache[nodes] = opts
        return opts

    best = None
    for cover in covers:
        ratio = _best_labeling_ratio([chain_options(nodes) for nodes in cover])
        if ratio is not None and (best is None or ratio > best):
            best = ratio
    return best


def idf1_by_enumeration(gt, pred, max_dist):
    """Identity F1 by brute force over all one-to-one track matchings."""
    total_gt = sum(len(t) for t in gt)
    total_pred = sum(len(t) for t in pred)
    if total_gt == 0 and total_pred == 0:
        return 1.0
    overlap = np.zeros((len(gt), len(pred)), dtype=int)
    for g, gt_track in enumerate(gt):
        gt_at = {d.frame: d.pos for d in gt_track}
        for p, pred_track in enumerate(pred):
            for det in pred_track:
                pos = gt_at.get(det.frame)
                if pos is not None and math.dist(pos, det.pos) <= max_dist:
                    overlap[g, p] += 1

    best = 0

    def rec(g, used, acc):
        nonlocal best
        if g == len(gt):
            best = max(best, acc)
            return
        rec(g + 1, used, acc)
        for p in range(len(pred)):
            if p not in used:
                rec(g + 1, used | {p}, acc + int(overlap[g, p]))

    rec(0, frozenset(), 0)
    return 2.0 * best / (total_gt + total_pred)


def rigid_transform(points, angle, tx, ty, scale=1.0):
    """Apply rotation, uniform scale, and translation to 2-D points."""
    c, s = math.cos(angle), math.sin(angle)
    return [
        (scale * (c * x - s * y) + tx, scale * (s * x + c * y) + ty)
        for x, y in points
    ]
