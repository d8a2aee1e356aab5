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

from ptrack import SINK_NODE, SOURCE_NODE, Constraint, SolverModel


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


def straight_boundary_score(pos, centerline, width, empty, entry, at_boundary):
    """Reference (total, aligned) for an entry or exit edge."""
    if empty or at_boundary:
        return 0.0, 0.0
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


def with_floor_row(constraints, denom):
    """The rows with the total-score floor appended last, written out by hand.

    The floor keeps the summed denominator at or above 1e-7 * (1 + sum |denom|)
    over the variables with a non-zero denominator; there is no floor row
    when every denominator is 0.
    """
    rows = list(constraints)
    floor_vars = tuple(k for k, n in enumerate(denom) if n != 0.0)
    if floor_vars:
        floor_coeffs = tuple(denom[k] for k in floor_vars)
        floor = 1e-7 * (1.0 + sum(abs(c) for c in floor_coeffs))
        rows.append(Constraint(floor_vars, floor_coeffs, ">=", floor))
    return tuple(rows)


def build_with_reference_floor(monkeypatch, module, build):
    """Run `build`, recording what it hands to `module.ratio_model`.

    Returns the built model and the model that `with_floor_row` makes from
    the same rows and ratio terms.
    """
    real = module.ratio_model
    calls = []

    def recording(num_vars, constraints, numer, denom):
        calls.append((num_vars, tuple(constraints), tuple(numer), tuple(denom)))
        return real(num_vars, constraints, numer, denom)

    monkeypatch.setattr(module, "ratio_model", recording)
    model = build()
    ((num_vars, rows, numer, denom),) = calls
    return model, SolverModel(num_vars, with_floor_row(rows, denom), numer, denom)


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


def brute_force_feasible(model, alpha):
    """Whether some constraint-satisfying assignment reaches the ratio level."""
    for bits in enumerate_assignments(model):
        value = sum((m - alpha * n) * x for m, n, x in zip(model.numer, model.denom, bits))
        if value >= 0.0:
            return True
    return False


def enumerate_path_covers(graph, cap=200_000):
    """All partitions of the detections into edge-connected forward chains.

    Detections are processed in (frame, id) order; each one either opens a
    new chain or extends the chain whose current tail links to it, which
    yields every cover exactly once.  Returns None when more than `cap`
    covers exist.
    """
    dets = sorted(graph.detections, key=lambda d: (d.frame, d.id))
    det_edges = {(i, j) for i, j in graph.edges if i >= 0 and j >= 0}
    covers = []
    chains: list[list[int]] = []

    def rec(k):
        if len(covers) > cap:
            return
        if k == len(dets):
            covers.append(tuple(tuple(c) for c in chains))
            return
        v = dets[k].id
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


def best_cover_objective(graph, patterns, cfg, cap=200_000):
    """Exact optimum of the linking objective by exhaustive cover enumeration.

    Scores every chain of every cover against every pattern, then maximizes
    the ratio of sums over the independent pattern choices.  Returns None
    when the cover count exceeds `cap`.
    """
    from ptrack import Trajectory, trajectory_score

    covers = enumerate_path_covers(graph, cap)
    if covers is None:
        return None
    score_cache: dict[tuple[int, ...], list[tuple[float, float]]] = {}

    def chain_options(nodes):
        opts = score_cache.get(nodes)
        if opts is None:
            opts = []
            for pattern in patterns:
                s = trajectory_score(graph, Trajectory(nodes), pattern, cfg)
                opts.append((s.aligned, s.total))
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
