"""Edge scoring, trajectory aggregation, and the ratio objective."""
import math
from dataclasses import astuple, dataclass, replace

import numpy as np
import pytest

from ptrack import (
    Assignment,
    Config,
    Detection,
    DetectionGraph,
    EMPTY_PATTERN,
    Fragment,
    Pattern,
    ScorePair,
    SINK_NODE,
    SOURCE_NODE,
    Swap,
    Trajectory,
    build_graph,
    build_mine_model,
    corrupt,
    edge_scores,
    generate_candidates,
    generate_scene,
    input_trajectories,
    link,
    mine,
    objective,
    run_unsupervised,
    score_matrix,
    trajectory_score,
    two_flow_scene,
)
from ptrack.scoring import _project, _projection

from helpers import bench_scenes, edge_score
from reference_scoring import PatternScorer as ReferenceScorer
from reference_scoring import trajectory_score as reference_trajectory_sum
from oracles import (
    dense_nearest_point,
    rigid_transform,
    straight_boundary_score,
    straight_edge_score,
)

CFG = Config()
LANE = Pattern(((0.0, 0.0), (10.0, 0.0)), 2.0)


def make_graph(specs, edges=(), batch=None):
    """Detections from (frame, x, y) specs; the k-th spec is detection k (from 1)."""
    dets = tuple(Detection(f, (x, y)) for f, x, y in specs)
    return DetectionGraph(dets, frozenset(edges), batch)


def pair_graph(pos_i, pos_j, batch=None):
    return make_graph(
        [(1, *pos_i), (2, *pos_j)],
        [(1, 2), (SOURCE_NODE, 1), (2, SINK_NODE)],
        batch,
    )


@dataclass(frozen=True)
class Projection:
    """Closest point of a centerline to a query point."""

    arc: float
    foot: tuple[float, float]
    dist: float


def project_to_centerline(point, pattern):
    """One point through the scorer's batched projection."""
    arc, foot, dist = _project(np.asarray([point], dtype=float), pattern)
    return Projection(arc=float(arc[0]), foot=(float(foot[0, 0]), float(foot[0, 1])), dist=float(dist[0]))


class TestProjection:
    def test_orthogonal_projection_onto_segment(self):
        proj = project_to_centerline((3.0, 2.0), LANE)
        assert proj.arc == pytest.approx(3.0, rel=1e-9)
        assert proj.foot == pytest.approx((3.0, 0.0), rel=1e-9)
        assert proj.dist == pytest.approx(2.0, rel=1e-9)

    def test_clamped_to_segment_start(self):
        proj = project_to_centerline((-2.0, 1.0), LANE)
        assert proj.arc == 0.0
        assert proj.foot == (0.0, 0.0)
        assert proj.dist == pytest.approx(math.sqrt(5.0), rel=1e-9)

    def test_v_shape_matches_dense_sampling(self):
        v = Pattern(((0.0, 0.0), (5.0, 5.0), (10.0, 0.0)), 1.0)
        for point in [(5.0, 1.0), (2.0, 3.0), (8.5, 2.5), (-1.0, -1.0), (5.0, 7.0)]:
            proj = project_to_centerline(point, v)
            arc, foot, dist = dense_nearest_point(point, v.centerline, step=1e-3)
            assert proj.dist == pytest.approx(dist, abs=1e-5)
            assert proj.arc == pytest.approx(arc, abs=2e-3)
            assert proj.foot == pytest.approx(foot, abs=2e-3)

    def test_projection_is_idempotent(self):
        v = Pattern(((0.0, 0.0), (5.0, 5.0), (10.0, 0.0)), 1.0)
        first = project_to_centerline((4.0, 1.0), v)
        again = project_to_centerline(first.foot, v)
        assert again.dist <= 1e-12
        assert again.foot == pytest.approx(first.foot, abs=1e-12)

    def test_tie_breaks_toward_smaller_arc(self):
        u = Pattern(((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0)), 1.0)
        proj = project_to_centerline((0.0, 5.0), u)
        assert proj.dist == pytest.approx(5.0)
        assert proj.arc == 0.0
        assert proj.foot == (0.0, 0.0)

    def test_empty_pattern_is_never_projected(self):
        # The empty pattern has no centerline: its scorer projects nothing and
        # charges an interior entry one unit at the empty rate, wherever the
        # detection lies.
        g = pair_graph((0.0, 0.0), (3.0, 0.0), batch=(0, 9))
        assert edge_score(g, SOURCE_NODE, 2, EMPTY_PATTERN, CFG) == ScorePair(1.0, 0.3)
        assert edge_score(g, SOURCE_NODE, 1, EMPTY_PATTERN, CFG) == ScorePair(1.0, 0.3)
        assert edge_score(g, 1, 2, EMPTY_PATTERN, CFG) == ScorePair(3.0, 0.3 * 3.0)
        assert EMPTY_PATTERN.centerline not in g.scoring_cache


class TestEdgeScoreTable:
    """Hand-derived values for every scoring case, at 1e-9 relative."""

    def test_forward_parallel_equal_length(self):
        g = pair_graph((2.0, 1.0), (5.0, 1.0))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert s.total == pytest.approx(6.0, rel=1e-9)
        assert s.aligned == pytest.approx(6.0, rel=1e-9)

    def test_forward_outside_width_drops_aligned(self):
        g = pair_graph((2.0, 5.0), (5.0, 5.0))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert s.total == pytest.approx(6.0, rel=1e-9)
        assert s.aligned == 0.0

    def test_width_boundary_is_inclusive(self):
        g = pair_graph((2.0, 2.0), (5.0, 2.0))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert s.aligned == pytest.approx(6.0, rel=1e-9)

    def test_reversed_edge_penalized(self):
        g = pair_graph((5.0, 1.0), (2.0, 1.0))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert s.total == pytest.approx(0.0, abs=1e-12)
        assert s.aligned == pytest.approx(-6.0, rel=1e-9)

    def test_reversed_ignores_width(self):
        g = pair_graph((5.0, 50.0), (2.0, 50.0))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert s.aligned == pytest.approx(-6.0, rel=1e-9)

    def test_empty_pattern_scores_proportionally(self):
        g = pair_graph((0.0, 0.0), (2.0, 0.0))
        s = edge_score(g, 1, 2, EMPTY_PATTERN, CFG)
        assert s.total == pytest.approx(2.0, rel=1e-9)
        assert s.aligned == pytest.approx(0.6, rel=1e-9)
        s_neg = edge_score(g, 1, 2, EMPTY_PATTERN, Config(empty_rate=-3.0))
        assert s_neg.total == pytest.approx(2.0, rel=1e-9)
        assert s_neg.aligned == pytest.approx(-6.0, rel=1e-9)

    def test_entry_free_at_batch_start(self):
        g = pair_graph((4.0, 1.0), (5.0, 1.0))
        s = edge_score(g, SOURCE_NODE, 1, LANE, CFG)
        assert (s.total, s.aligned) == (0.0, 0.0)

    def test_entry_charges_arc_when_interior(self):
        g = pair_graph((4.0, 1.0), (5.0, 1.0), batch=(0, 3))
        s = edge_score(g, SOURCE_NODE, 1, LANE, CFG)
        assert s.total == pytest.approx(4.0, rel=1e-9)
        assert s.aligned == 0.0

    def test_exit_charges_remaining_arc_when_interior(self):
        g = pair_graph((4.0, 1.0), (5.0, 1.0), batch=(0, 3))
        s = edge_score(g, 2, SINK_NODE, LANE, CFG)
        assert s.total == pytest.approx(5.0, rel=1e-9)
        assert s.aligned == 0.0

    def test_exit_free_at_batch_end(self):
        g = pair_graph((4.0, 1.0), (5.0, 1.0))
        s = edge_score(g, 2, SINK_NODE, LANE, CFG)
        assert (s.total, s.aligned) == (0.0, 0.0)

    def test_graph_batch_decides_each_end(self):
        starts_at_begin = pair_graph((4.0, 1.0), (5.0, 1.0), batch=(1, 3))
        assert edge_score(starts_at_begin, SOURCE_NODE, 1, LANE, CFG) == ScorePair(0.0, 0.0)
        s = edge_score(starts_at_begin, 2, SINK_NODE, LANE, CFG)
        assert s.total == pytest.approx(5.0, rel=1e-9)
        ends_at_end = pair_graph((4.0, 1.0), (5.0, 1.0), batch=(0, 2))
        s = edge_score(ends_at_end, SOURCE_NODE, 1, LANE, CFG)
        assert s.total == pytest.approx(4.0, rel=1e-9)
        assert edge_score(ends_at_end, 2, SINK_NODE, LANE, CFG) == ScorePair(0.0, 0.0)

    def test_empty_pattern_interior_entry_and_exit_cost_one_unit(self):
        g = pair_graph((4.0, 1.0), (5.0, 1.0), batch=(0, 3))
        assert edge_score(g, SOURCE_NODE, 1, EMPTY_PATTERN, CFG) == ScorePair(1.0, 0.3)
        assert edge_score(g, 2, SINK_NODE, EMPTY_PATTERN, CFG) == ScorePair(1.0, 0.3)
        dissent = Config(empty_rate=-3.0)
        assert edge_score(g, SOURCE_NODE, 1, EMPTY_PATTERN, dissent) == ScorePair(1.0, -3.0)
        assert edge_score(g, 2, SINK_NODE, EMPTY_PATTERN, dissent) == ScorePair(1.0, -3.0)

    def test_empty_pattern_entry_and_exit_are_free(self):
        # At the batch boundary, as on every pattern.
        g = pair_graph((4.0, 1.0), (5.0, 1.0))
        assert edge_score(g, SOURCE_NODE, 1, EMPTY_PATTERN, CFG) == ScorePair(0.0, 0.0)
        assert edge_score(g, 2, SINK_NODE, EMPTY_PATTERN, CFG) == ScorePair(0.0, 0.0)

    def test_standing_still_scores_zero(self):
        g = pair_graph((3.0, 1.0), (3.0, 1.0))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert (s.total, s.aligned) == (0.0, 0.0)

    def test_zero_chord_carries_no_alignment(self):
        g = pair_graph((10.5, 0.5), (11.0, 0.5))
        s = edge_score(g, 1, 2, LANE, CFG)
        assert s.total == pytest.approx(0.5, rel=1e-9)
        assert s.aligned == 0.0


def test_randomized_edges_match_reference_table():
    """Scores agree with an independent transliteration of the rules."""
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(-10.0, 10.0, 2)
        b = a + rng.uniform(-10.0, 10.0, 2)
        while np.linalg.norm(b - a) < 0.5:
            b = a + rng.uniform(-10.0, 10.0, 2)
        width = float(rng.choice([0.5, 2.0, 5.0]))
        pattern = Pattern((tuple(a), tuple(b)), width)
        t_i, t_j = sorted(rng.uniform(-0.3, 1.3, 2))
        pos_i = tuple(a + t_i * (b - a) + rng.normal(0.0, width, 2))
        pos_j = tuple(a + t_j * (b - a) + rng.normal(0.0, width, 2))
        if rng.random() < 0.3:
            pos_i, pos_j = pos_j, pos_i
        g = pair_graph(pos_i, pos_j, batch=(0, 3))
        cfg = Config(empty_rate=float(rng.choice([0.3, -3.0])))

        got = edge_score(g, 1, 2, pattern, cfg)
        want = straight_edge_score(pos_i, pos_j, pattern.centerline, width, False, cfg)
        assert got.total == pytest.approx(want[0], rel=1e-9, abs=1e-9)
        assert got.aligned == pytest.approx(want[1], rel=1e-9, abs=1e-9)

        got = edge_score(g, 1, 2, EMPTY_PATTERN, cfg)
        want = straight_edge_score(pos_i, pos_j, None, 0.0, True, cfg)
        assert got.aligned == pytest.approx(want[1], rel=1e-9, abs=1e-9)

        got = edge_score(g, SOURCE_NODE, 1, pattern, cfg)
        want = straight_boundary_score(pos_i, pattern.centerline, width, False, True, False)
        assert got.total == pytest.approx(want[0], rel=1e-9, abs=1e-9)

        got = edge_score(g, 2, SINK_NODE, pattern, cfg)
        want = straight_boundary_score(pos_j, pattern.centerline, width, False, False, False)
        assert got.total == pytest.approx(want[0], rel=1e-9, abs=1e-9)


def test_forward_within_width_aligned_never_exceeds_total():
    rng = np.random.default_rng(11)
    for _ in range(300):
        pos_i = (float(rng.uniform(0, 10)), float(rng.uniform(-2, 2)))
        pos_j = (float(rng.uniform(0, 10)), float(rng.uniform(-2, 2)))
        g = pair_graph(pos_i, pos_j)
        s = edge_score(g, 1, 2, LANE, CFG)
        if s.aligned >= 0.0:
            assert s.aligned <= s.total + 1e-9


def walker_graph():
    """Four detections walking the lane centerline, batch equal to their span."""
    specs = [(k + 1, 2.0 * k + 1.0, 0.0) for k in range(4)]
    edges = [(k + 1, k + 2) for k in range(3)]
    edges += [(SOURCE_NODE, d) for d in (1, 2, 3, 4)]
    edges += [(d, SINK_NODE) for d in (1, 2, 3, 4)]
    return make_graph(specs, edges)


class TestTrajectoryScore:
    def test_full_batch_walk_is_fully_aligned(self):
        g = walker_graph()
        s = trajectory_score(g, Trajectory((1, 2, 3, 4)), LANE, CFG)
        assert s.total > 0.0
        assert s.aligned == s.total

    def test_single_detection_charges_both_arcs(self):
        g = make_graph(
            [(1, 4.0, 1.0)],
            [(SOURCE_NODE, 1), (1, SINK_NODE)],
            batch=(0, 2),
        )
        s = trajectory_score(g, Trajectory((1,)), LANE, CFG)
        assert s.total == pytest.approx(10.0, rel=1e-9)
        assert s.aligned == 0.0

    def test_empty_pattern_is_proportional(self):
        g = walker_graph()
        traj = Trajectory((1, 2, 3, 4))
        s = trajectory_score(g, traj, EMPTY_PATTERN, CFG)
        assert s.total == pytest.approx(6.0, rel=1e-9)
        assert s.aligned == pytest.approx(0.3 * s.total, rel=1e-12)

    def test_boundary_comes_from_the_graph_batch(self):
        # Detections 2 and 3 are inside the walker's batch, but they span a
        # graph of their own, as its detections 1 and 2: there both ends are free.
        cut = make_graph([(2, 3.0, 0.0), (3, 5.0, 0.0)], [(1, 2)])
        charged = trajectory_score(walker_graph(), Trajectory((2, 3)), LANE, CFG)
        free = trajectory_score(cut, Trajectory((1, 2)), LANE, CFG)
        assert free.total == free.aligned == edge_score(cut, 1, 2, LANE, CFG).total
        assert charged.total == pytest.approx(free.total + 3.0 + 5.0, rel=1e-12)


class TestObjective:
    def test_perfect_cover_scores_one(self):
        g = walker_graph()
        ts = [Trajectory((1, 2, 3, 4))]
        assert objective(g, ts, [EMPTY_PATTERN, LANE], Assignment((1,)), CFG) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_all_empty_scores_at_empty_rate(self):
        g = walker_graph()
        ts = [Trajectory((1, 2)), Trajectory((3, 4))]
        value = objective(g, ts, [EMPTY_PATTERN, LANE], Assignment((0, 0)), CFG)
        assert value == pytest.approx(0.3, rel=1e-12)

    def test_mixed_instance_matches_edge_by_edge_oracle(self):
        specs = [(1, 1.0, 0.5), (2, 3.0, 0.4), (3, 5.5, 0.2), (2, 2.0, 7.0), (3, 2.4, 7.5)]
        edges = [(1, 2), (2, 3), (4, 5)]
        edges += [(SOURCE_NODE, d) for d in range(1, 6)]
        edges += [(d, SINK_NODE) for d in range(1, 6)]
        g = make_graph(specs, edges, batch=(0, 4))
        ts = [Trajectory((1, 2, 3)), Trajectory((4, 5))]
        value = objective(g, ts, [EMPTY_PATTERN, LANE], Assignment((1, 0)), CFG)

        pos = {i: (x, y) for i, (_, x, y) in enumerate(specs, start=1)}
        center = LANE.centerline
        n1 = straight_boundary_score(pos[1], center, 2.0, False, True, False)
        n2 = straight_boundary_score(pos[3], center, 2.0, False, False, False)
        e1 = straight_edge_score(pos[1], pos[2], center, 2.0, False, CFG)
        e2 = straight_edge_score(pos[2], pos[3], center, 2.0, False, CFG)
        e3 = straight_edge_score(pos[4], pos[5], None, 0.0, True, CFG)
        # Trajectory (4, 5) starts and stops inside the batch, on the empty pattern.
        n3 = straight_boundary_score(pos[4], None, 0.0, True, True, False, CFG)
        n4 = straight_boundary_score(pos[5], None, 0.0, True, False, False, CFG)
        assert n3 == n4 == (1.0, 0.3)
        total = n1[0] + n2[0] + e1[0] + e2[0] + e3[0] + n3[0] + n4[0]
        aligned = n1[1] + n2[1] + e1[1] + e2[1] + e3[1] + n3[1] + n4[1]
        assert value == pytest.approx(aligned / total, rel=1e-9)

    def test_assignment_length_must_match(self):
        g = walker_graph()
        with pytest.raises(ValueError, match="length"):
            objective(g, [Trajectory((1, 2, 3, 4))], [EMPTY_PATTERN], Assignment((0, 0)), CFG)

    def test_missing_pattern_index_rejected(self):
        g = walker_graph()
        with pytest.raises(ValueError, match="missing pattern"):
            objective(g, [Trajectory((1, 2, 3, 4))], [EMPTY_PATTERN], Assignment((3,)), CFG)

    def test_zero_total_is_degenerate(self):
        g = make_graph([(1, 4.0, 1.0)], [(SOURCE_NODE, 1), (1, SINK_NODE)])
        with pytest.raises(ValueError, match="degenerate"):
            objective(g, [Trajectory((1,))], [EMPTY_PATTERN], Assignment((0,)), CFG)


def test_rigid_motion_leaves_scores_unchanged():
    bent = Pattern(((0.0, 0.0), (4.0, 1.0), (9.0, -1.0)), 2.0)
    specs = [(1, 0.5, 0.3), (2, 3.0, 0.8), (3, 6.0, -0.2)]
    edges = [(1, 2), (2, 3)]
    edges += [(SOURCE_NODE, d) for d in (1, 2, 3)]
    edges += [(d, SINK_NODE) for d in (1, 2, 3)]
    g = make_graph(specs, edges, batch=(0, 4))
    traj = Trajectory((1, 2, 3))
    base = trajectory_score(g, traj, bent, CFG)

    angle, tx, ty = 0.77, -12.0, 31.0
    moved_pts = rigid_transform([(x, y) for _, x, y in specs], angle, tx, ty)
    moved_specs = [(f, px, py) for (f, _, _), (px, py) in zip(specs, moved_pts)]
    moved_pattern = Pattern(tuple(rigid_transform(bent.centerline, angle, tx, ty)), 2.0)
    g2 = make_graph(moved_specs, edges, batch=(0, 4))
    moved = trajectory_score(g2, traj, moved_pattern, CFG)
    assert moved.total == pytest.approx(base.total, rel=1e-9)
    assert moved.aligned == pytest.approx(base.aligned, rel=1e-9)


# The scalar scoring code that the per-graph cache replaced, kept as the
# reference: every cached projection and score must equal it bit for bit.
def reference_projection(point, pattern):
    v = pattern.vertices
    a, b = v[:-1], v[1:]
    d = b - a
    seg_len2 = np.einsum("ij,ij->i", d, d)
    p = np.asarray(point, dtype=float)
    t = np.clip(np.einsum("ij,ij->i", p - a, d) / seg_len2, 0.0, 1.0)
    feet = a + t[:, None] * d
    dist = np.linalg.norm(feet - p, axis=1)
    best = int(np.argmin(dist))
    arc = pattern.cum_arc[best] + t[best] * np.sqrt(seg_len2[best])
    return Projection(arc=float(arc), foot=(float(feet[best, 0]), float(feet[best, 1])), dist=float(dist[best]))


def reference_detection_edge(graph, pattern, cfg, i, j):
    pi = graph.detection(i).pos
    pj = graph.detection(j).pos
    edge_len = float(np.hypot(pj[0] - pi[0], pj[1] - pi[1]))
    if pattern.is_empty:
        return ScorePair(edge_len, cfg.empty_rate * edge_len)
    proj_i = reference_projection(pi, pattern)
    proj_j = reference_projection(pj, pattern)
    total = edge_len + (proj_j.arc - proj_i.arc)
    if proj_j.arc < proj_i.arc:
        aligned = -(1.0 + cfg.reverse_penalty) * (proj_i.arc - proj_j.arc)
        return ScorePair(total, aligned)
    if proj_i.dist > pattern.width or proj_j.dist > pattern.width:
        return ScorePair(total, 0.0)
    ex, ey = pj[0] - pi[0], pj[1] - pi[1]
    cx, cy = proj_j.foot[0] - proj_i.foot[0], proj_j.foot[1] - proj_i.foot[1]
    dot = abs(ex * cx + ey * cy)
    chord_len = float(np.hypot(cx, cy))
    coord_scale = max(
        abs(proj_i.foot[0]), abs(proj_i.foot[1]),
        abs(proj_j.foot[0]), abs(proj_j.foot[1]), 1.0,
    )
    if chord_len <= 1e-12 * coord_scale:
        chord_len = 0.0
    aligned = 0.0
    if edge_len > 0.0:
        aligned += dot / edge_len
    if chord_len > 0.0:
        aligned += dot / chord_len
    return ScorePair(total, aligned)


# The former trajectory score, whose callers passed the boundary flags that
# producers derived from the batch; `batch_flags` derives them the same way.
# Each end away from the boundary is charged: on a pattern the arc it skips,
# on the empty pattern one unit at the empty rate.
def reference_trajectory_score(graph, nodes, pattern, cfg, starts_at_batch_begin, ends_at_batch_end):
    total = aligned = 0.0
    if pattern.is_empty:
        for at_boundary in (starts_at_batch_begin, ends_at_batch_end):
            if not at_boundary:
                total += 1.0
                aligned += cfg.empty_rate * 1.0
    else:
        if not starts_at_batch_begin:
            total += reference_projection(graph.detection(nodes[0]).pos, pattern).arc
        if not ends_at_batch_end:
            total += pattern.length - reference_projection(graph.detection(nodes[-1]).pos, pattern).arc
    for a, b in zip(nodes, nodes[1:]):
        score = reference_detection_edge(graph, pattern, cfg, a, b)
        total += score.total
        aligned += score.aligned
    return ScorePair(total, aligned)


def batch_flags(graph, nodes):
    first, last = graph.batch
    return graph.detection(nodes[0]).frame == first, graph.detection(nodes[-1]).frame == last


def bits(*values):
    """Exact identity of floats, telling -0.0 from 0.0."""
    return [float(v).hex() for v in values]


def points_graph(points):
    """One detection per point, frames 0..n-1 (so point k is detection k + 1), no edges.

    The batch is one frame wider on each side, so no entry or exit is free.
    """
    dets = tuple(Detection(k, (float(x), float(y))) for k, (x, y) in enumerate(points))
    return DetectionGraph(dets, frozenset(), batch=(-1, len(points)))


CFGS = (Config(), Config(reverse_penalty=0.25, empty_rate=-3.0))


class TestScoreCache:
    """Cached scores equal the former scalar code exactly, and never leak across inputs."""

    def assert_matches_reference(self, points, centerline, pairs, widths=(0.5, 2.0, 7.0)):
        """`pairs` index `points`; the graph's ids are those indices plus one."""
        g = points_graph(points)
        pairs = [(i + 1, j + 1) for i, j in pairs]
        for width in widths:
            pattern = Pattern(centerline, width)
            for cfg in CFGS:
                entries = edge_scores(g, pattern, cfg, [SOURCE_NODE] * len(g.ids), list(g.ids))
                arc, foot_x, foot_y, dist, _ = g.scoring_cache[pattern.centerline]
                for node, det in enumerate(g.detections, start=1):
                    want = reference_projection(det.pos, pattern)
                    k = node - 1
                    assert bits(arc[k], foot_x[k], foot_y[k], dist[k]) == bits(want.arc, *want.foot, want.dist)
                    got = project_to_centerline(det.pos, pattern)
                    assert bits(got.arc, *got.foot, got.dist) == bits(want.arc, *want.foot, want.dist)
                    assert bits(entries[0][k], entries[1][k]) == bits(want.arc, 0.0)
                self.assert_pairs_match(g, pattern, cfg, pairs)
        for cfg in CFGS:
            self.assert_pairs_match(g, EMPTY_PATTERN, cfg, pairs)

    @staticmethod
    def assert_pairs_match(g, pattern, cfg, pairs):
        if not pairs:
            return
        total, aligned = edge_scores(g, pattern, cfg, *zip(*pairs))
        for (i, j), t, a in zip(pairs, total, aligned):
            want = reference_detection_edge(g, pattern, cfg, i, j)
            assert bits(t, a) == bits(want.total, want.aligned), (i, j)

    def test_random_polylines(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            steps = rng.normal(size=(int(rng.integers(2, 25)), 2)) * rng.uniform(0.2, 8.0)
            verts = np.cumsum(steps, axis=0)
            pattern = Pattern.from_points(verts.tolist(), 1.0)
            n = int(rng.integers(1, 60))
            pts = verts[rng.integers(0, len(verts), n)] + rng.normal(size=(n, 2)) * rng.choice([0.3, 3.0])
            pairs = [tuple(int(k) for k in rng.integers(0, n, 2)) for _ in range(3 * n)]
            self.assert_matches_reference(pts.tolist(), pattern.centerline, pairs)

    def test_integer_vertices_with_equally_close_segments(self):
        rng = np.random.default_rng(5)
        centerlines = [((0, 0), (10, 0), (10, 10), (0, 10)), ((0, 0), (4, 4), (8, 0), (12, 4))]
        for _ in range(10):
            centerlines.append(tuple(map(tuple, rng.integers(-6, 7, size=(6, 2)).tolist())))
        ties = 0
        for centerline in centerlines:
            try:
                pattern = Pattern.from_points(centerline, 1.0)
            except ValueError:
                continue
            pts = rng.integers(-8, 13, size=(80, 2)).astype(float)
            for p in pts:
                dists = [reference_projection(p, Pattern((a, b), 1.0)).dist
                         for a, b in zip(pattern.centerline, pattern.centerline[1:])]
                ties += dists.count(min(dists)) > 1
            pairs = [(i, j) for i in range(0, 80, 3) for j in range(1, 80, 7)]
            self.assert_matches_reference(pts.tolist(), pattern.centerline, pairs)
        assert ties > 50

    def test_points_on_vertices(self):
        centerline = ((0.0, 0.0), (3.0, 4.0), (3.0, 9.5), (-2.0, 9.5), (-2.25, 1.0))
        pts = list(centerline) + [centerline[2], (0.0, 0.0)]
        pairs = [(i, j) for i in range(len(pts)) for j in range(len(pts))]
        self.assert_matches_reference(pts, centerline, pairs)

    def test_far_offsets(self):
        rng = np.random.default_rng(9)
        for sx, sy in ((1000.0, 1000.0), (-1000.0, 1000.0), (1000.0, -1000.0), (-1000.0, -1000.0)):
            verts = np.cumsum(rng.normal(size=(8, 2)) * 3.0, axis=0) + (sx, sy)
            pts = verts[rng.integers(0, 8, 40)] + rng.normal(size=(40, 2))
            pairs = [(i, j) for i in range(40) for j in range(0, 40, 3)]
            self.assert_matches_reference(pts.tolist(), tuple(map(tuple, verts.tolist())), pairs)

    def test_zero_length_edges(self):
        pts = [(2.0, 1.0), (2.0, 1.0), (12.0, 0.5), (12.0, 0.5), (-1.0, 3.0), (-1.0, 3.0)]
        self.assert_matches_reference(pts, LANE.centerline, [(0, 1), (1, 0), (2, 3), (4, 5), (0, 0)])

    def test_nearly_coincident_projections_take_the_zero_chord_branch(self):
        base = 1000.0
        pts = [(base + k * 1e-13, 0.5 + 0.1 * k) for k in range(6)]
        centerline = ((900.0, 0.0), (1100.0, 0.0))
        pairs = [(i, j) for i in range(6) for j in range(6) if i != j]
        pattern = Pattern(centerline, 1.0)
        feet = [reference_projection(p, pattern).foot for p in pts]
        chords = [math.hypot(feet[j][0] - feet[i][0], feet[j][1] - feet[i][1]) for i, j in pairs]
        assert any(0.0 < c <= 1e-12 * base for c in chords)
        self.assert_matches_reference(pts, centerline, pairs)

    def test_distance_equal_to_width_is_inside(self):
        pts = [(2.0, 2.0), (5.0, 2.0), (7.0, -2.0), (9.0, 2.0000000000000004)]
        pairs = [(0, 1), (1, 2), (2, 3), (0, 3)]
        self.assert_matches_reference(pts, LANE.centerline, pairs, widths=(2.0, 1.999))
        g = points_graph(pts)
        assert edge_score(g, 1, 2, LANE, CFG).aligned > 0.0
        assert edge_score(g, 3, 4, LANE, CFG).aligned == 0.0

    def test_backward_edges(self):
        pts = [(8.0, 1.0), (3.0, -1.5), (6.0, 30.0), (1.0, 0.0), (9.0, -4.0)]
        pairs = [(i, j) for i in range(5) for j in range(5) if pts[j][0] < pts[i][0]]
        for i, j in pairs:
            assert reference_projection(pts[j], LANE).arc < reference_projection(pts[i], LANE).arc
        self.assert_matches_reference(pts, LANE.centerline, pairs)

    def test_mine_model_on_the_noise_free_family(self):
        corridors = (
            Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
            Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
        )
        agents = tuple((k % 2, k + 1) for k in range(12))
        scene = generate_scene(corridors, agents, speed=math.sqrt(2.0))
        g = build_graph(scene.track_lists(), CFG, scene.meta.batch)
        trajectories = input_trajectories(g)
        candidates = generate_candidates(g, trajectories, CFG)
        assert len(candidates) == 121
        scores = score_matrix(g, trajectories, candidates.patterns, CFG)
        model = build_mine_model(g, scores, candidates, CFG)
        n_cand = len(candidates)
        for t, traj in enumerate(trajectories):
            for p, pattern in enumerate(candidates.patterns):
                want = reference_trajectory_score(g, traj.nodes, pattern, CFG, *batch_flags(g, traj.nodes))
                got = trajectory_score(g, traj, pattern, CFG)
                assert bits(got.total, got.aligned) == bits(want.total, want.aligned)
                k = t * n_cand + p
                assert bits(model.denom[k], model.numer[k]) == bits(want.total, want.aligned)

    @staticmethod
    def every_score(graph, pattern, cfg):
        ids = list(graph.ids)
        tails = [i for i in ids for _ in ids] + [SOURCE_NODE] * len(ids) + ids
        heads = ids * len(ids) + ids + [SINK_NODE] * len(ids)
        out = list(zip(*edge_scores(graph, pattern, cfg, tails, heads)))
        whole = trajectory_score(graph, Trajectory(tuple(ids)), pattern, cfg)
        out.append((whole.total, whole.aligned))
        return [bits(*s) for s in out]

    # Inside the 2 m corridor but outside the 0.5 m one, forward and backward.
    ISOLATION_POINTS = [(1.0, 0.2), (3.0, 1.0), (2.0, -1.5), (6.0, 0.3), (4.0, 0.1)]

    def test_config_and_width_are_applied_when_the_cache_is_read(self):
        wide, narrow = LANE, Pattern(LANE.centerline, 0.5)
        combos = [(p, cfg) for p in (wide, narrow, EMPTY_PATTERN) for cfg in CFGS]
        fresh = {
            (p, cfg): self.every_score(points_graph(self.ISOLATION_POINTS), p, cfg) for p, cfg in combos
        }
        assert len({tuple(map(tuple, v)) for v in fresh.values()}) == len(combos)
        for order in (combos, combos[::-1], combos[1::2] + combos[::2]):
            g = points_graph(self.ISOLATION_POINTS)
            for p, cfg in order:
                assert self.every_score(g, p, cfg) == fresh[(p, cfg)]

    def test_graphs_with_the_same_ids_do_not_share_entries(self):
        moved = [(1.5 * x, y + 0.3) for x, y in self.ISOLATION_POINTS]
        for pattern in (LANE, EMPTY_PATTERN):
            for cfg in CFGS:
                first = self.every_score(points_graph(self.ISOLATION_POINTS), pattern, cfg)
                g = points_graph(moved)
                again = self.every_score(g, pattern, cfg)
                assert again != first
                assert again == self.every_score(points_graph(moved), pattern, cfg)
                assert self.every_score(g, pattern, cfg) == again


def crossing_family(agents, noisy):
    """`agents` agents on two crossing corridors, one swap at the crossing.

    The noisy variant adds lateral and speed noise and a fragment, as in the
    benchmark's noisy family.
    """
    corridors = (
        Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
        Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
    )
    motion = dict(lateral_sigma=0.3, speed_jitter=0.2, seed=1) if noisy else {}
    scene = generate_scene(
        corridors, tuple((k % 2, k + 1) for k in range(agents)), speed=math.sqrt(2.0), **motion
    )
    ops = [Swap(0, 1, frame=8)] + ([Fragment(2, frame=9)] if noisy else [])
    return scene, corrupt(scene.track_lists(), ops), corridors


class TestBoundaryRuleDifferential:
    """Scoring under the graph's batch equals the former flag-taking scorer,
    given the flags every producer derived from the batch."""

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
    @pytest.mark.parametrize("padded", [True, False], ids=["padded-batch", "span-batch"])
    def test_input_and_linked_trajectories(self, noisy, padded):
        scene, broken, corridors = crossing_family(4, noisy)
        patterns = (EMPTY_PATTERN, *corridors)
        boundary_ends = 0
        for cfg in CFGS:
            g = build_graph(broken, cfg, scene.meta.batch if padded else None)
            res = link(g, patterns, cfg)
            for trajectories in (input_trajectories(g), res.all_trajectories):
                for traj in trajectories:
                    flags = batch_flags(g, traj.nodes)
                    boundary_ends += sum(flags)
                    for pattern in patterns:
                        got = trajectory_score(g, traj, pattern, cfg)
                        want = reference_trajectory_score(g, traj.nodes, pattern, cfg, *flags)
                        assert bits(got.total, got.aligned) == bits(want.total, want.aligned)
            rebuilt = [Trajectory(t.nodes) for t in res.all_trajectories]
            value = objective(g, rebuilt, patterns, res.full_assignment, cfg)
            assert value == pytest.approx(res.alpha_star, rel=1e-12)
        # The padded batch frees no end; the detection span frees some.
        assert (boundary_ends == 0) == padded


def scalar_scores(graph, pattern, cfg, edges, trajectories):
    """The former scalar scorer's edge and trajectory scores, as float bits."""
    edge = ReferenceScorer(graph, pattern, cfg).edge
    return (
        [bits(*edge(i, j)) for i, j in edges],
        [bits(*astuple(reference_trajectory_sum(graph, t, pattern, cfg))) for t in trajectories],
    )


def array_scores(graph, pattern, cfg, edges, trajectories):
    """`edge_scores` and the `score_matrix` column as float bits, in the same layout."""
    tails, heads = zip(*edges)
    totals, aligned = (side[:, 0] for side in score_matrix(graph, trajectories, [pattern], cfg))
    return (
        [bits(t, a) for t, a in zip(*edge_scores(graph, pattern, cfg, tails, heads))],
        [bits(t, a) for t, a in zip(totals, aligned)],
    )


def assert_same_as_scalar(graph, patterns, cfgs, trajectories):
    """Every edge of the graph and every trajectory, bit for bit, also when
    each trajectory is scored on its own."""
    edges = sorted(map(tuple, graph.edges.tolist()))
    for cfg in cfgs:
        for pattern in patterns:
            want = scalar_scores(graph, pattern, cfg, edges, trajectories)
            assert array_scores(graph, pattern, cfg, edges, trajectories) == want
            alone = [bits(*astuple(trajectory_score(graph, t, pattern, cfg))) for t in trajectories]
            assert alone == want[1]


def chain_graph(specs, chains, batch=None):
    """Detections from (frame, x, y) specs, every entry and exit, and each chain's edges."""
    edges = {(SOURCE_NODE, d) for d in range(1, len(specs) + 1)}
    edges |= {(d, SINK_NODE) for d in range(1, len(specs) + 1)}
    edges |= {pair for chain in chains for pair in zip(chain, chain[1:])}
    return make_graph(specs, edges, batch), [Trajectory(tuple(c)) for c in chains]


# Scorer settings that change each term: the default, no reverse penalty with
# a negative empty rate, and a zero empty rate of either sign.
SCALAR_CFGS = (
    Config(),
    Config(reverse_penalty=0.0, empty_rate=-3.0),
    Config(empty_rate=0.0),
    Config(empty_rate=-0.0),
)


class TestArrayScorerAgainstScalar:
    """`edge_scores` and `score_matrix` give the former scalar scorer's floats, bit for bit."""

    def test_seeded_random_graphs(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            verts = np.cumsum(rng.normal(size=(int(rng.integers(2, 7)), 2)) * 4.0, axis=0)
            base = Pattern.from_points(verts.tolist(), 1.0)
            n = int(rng.integers(2, 30))
            frames = np.sort(rng.integers(0, 12, n))
            pts = verts[rng.integers(0, len(verts), n)] + rng.normal(size=(n, 2)) * rng.choice([0.2, 2.0])
            specs = [(int(f), float(x), float(y)) for f, (x, y) in zip(frames, pts)]
            ids = rng.permutation(n) + 1
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
            chains = [sorted(c.tolist(), key=lambda d: (specs[d - 1][0], d)) for c in np.split(ids, cuts)]
            chains = [c for c in chains if len({specs[d - 1][0] for d in c}) == len(c)]
            if not chains:
                continue
            span = (int(frames[0]), int(frames[-1]))
            batch = span if rng.random() < 0.5 else (span[0] - 1, span[1] + 1)
            g, ts = chain_graph(specs, chains, batch)
            patterns = [EMPTY_PATTERN] + [Pattern(base.centerline, w) for w in (0.3, 1.0, 4.0)]
            assert_same_as_scalar(g, patterns, SCALAR_CFGS, ts)

    def test_zero_length_edge(self):
        specs = [(1, 2.0, 1.0), (2, 2.0, 1.0), (3, 2.0, 1.0), (4, 12.0, 0.5), (5, 12.0, 0.5)]
        g, ts = chain_graph(specs, [(1, 2, 3), (4, 5)], batch=(0, 6))
        assert edge_score(g, 1, 2, LANE, CFG) == ScorePair(0.0, 0.0)
        assert_same_as_scalar(g, (EMPTY_PATTERN, LANE), SCALAR_CFGS, ts)

    def test_chord_cancellation_near_a_million(self):
        base = 1e6
        specs = [(k + 1, base + k * 1e-10, 0.5 + 0.1 * k) for k in range(4)]
        specs += [(k + 5, base + 1.0 + k * 3e-7, -0.3) for k in range(4)]
        pattern = Pattern(((base - 100.0, 0.0), (base + 100.0, 0.0)), 1.0)
        g, ts = chain_graph(specs, [(1, 2, 3, 4), (5, 6, 7, 8)], batch=(0, 9))
        feet = _project(g.positions, pattern)[1]
        chords = [math.hypot(*(feet[k + 1] - feet[k])) for k in (0, 1, 2, 4, 5, 6)]
        assert any(0.0 < c <= 1e-12 * base for c in chords)
        assert_same_as_scalar(g, (pattern, Pattern(pattern.centerline, 0.6)), SCALAR_CFGS, ts)

    def test_gate_exactly_equal_to_the_width(self):
        specs = [(1, 2.0, 2.0), (2, 5.0, 2.0), (3, 7.0, -2.0), (4, 9.0, 2.0000000000000004)]
        g, ts = chain_graph(specs, [(1, 2, 3, 4)], batch=(0, 5))
        assert edge_score(g, 1, 2, LANE, CFG).aligned > 0.0
        assert edge_score(g, 3, 4, LANE, CFG).aligned == 0.0
        patterns = (LANE, Pattern(LANE.centerline, 1.999), Pattern(LANE.centerline, 2.0000000000000004))
        assert_same_as_scalar(g, patterns, SCALAR_CFGS, ts)

    def test_backward_edge_without_a_reverse_penalty(self):
        specs = [(1, 8.0, 1.0), (2, 3.0, -1.5), (3, 6.0, 30.0), (4, 1.0, 0.0)]
        g, ts = chain_graph(specs, [(1, 2), (3, 4)], batch=(0, 5))
        free = Config(reverse_penalty=0.0)
        assert edge_score(g, 1, 2, LANE, free).aligned == -(8.0 - 3.0)
        assert_same_as_scalar(g, (LANE, Pattern(LANE.centerline, 0.5)), (free, CFG), ts)

    def test_negative_empty_rate(self):
        specs = [(1, 1.0, 0.5), (2, 3.0, 0.4), (3, 5.5, 0.2), (2, 2.0, 7.0), (3, 2.4, 7.5)]
        g, ts = chain_graph(specs, [(1, 2, 3), (4, 5)], batch=(0, 4))
        dissent = Config.unsupervised()
        assert trajectory_score(g, ts[1], EMPTY_PATTERN, dissent).aligned < 0.0
        assert_same_as_scalar(g, (EMPTY_PATTERN, LANE), (dissent, Config(empty_rate=-0.25)), ts)

    @pytest.mark.parametrize("batch", [None, (1, 9), (0, 4), (0, 9)], ids=["span", "first", "last", "padded"])
    def test_entries_and_exits_on_and_off_the_batch_bounds(self, batch):
        specs = [(1, 1.0, 0.5), (2, 3.0, 0.4), (4, 5.5, 0.2), (1, 2.0, 7.0), (3, 2.4, 7.5), (2, 9.0, 0.0)]
        g, ts = chain_graph(specs, [(1, 2, 3), (4, 5), (6,)], batch)
        assert_same_as_scalar(g, (EMPTY_PATTERN, LANE), SCALAR_CFGS, ts)

    @pytest.mark.parametrize("base", [2**70, 2**63, -(2**70)])
    def test_frames_beyond_int64(self, base):
        # `Detection` takes any int frame; the batch bounds still free the ends.
        specs = [(base + f, x, y) for f, x, y in ((1, 1.0, 0.5), (2, 3.0, 0.4), (4, 5.5, 0.2), (2, 9.0, 0.0))]
        for batch in (None, (base, base + 5)):
            g, ts = chain_graph(specs, [(1, 2, 3), (4,)], batch)
            assert_same_as_scalar(g, (EMPTY_PATTERN, LANE), SCALAR_CFGS[:2], ts)

    def test_the_empty_pattern(self):
        specs = [(1, 0.0, 0.0), (2, 0.0, 0.0), (3, 4.0, 3.0), (2, -5.0, 1.0)]
        g, ts = chain_graph(specs, [(1, 2, 3), (4,)], batch=(0, 3))
        assert_same_as_scalar(g, (EMPTY_PATTERN,), SCALAR_CFGS, ts)
        assert EMPTY_PATTERN.centerline not in g.scoring_cache

    @pytest.mark.parametrize("workload", ["track-noisy", "supervised-dense", "unsupervised-two-flows"])
    def test_benchmark_graphs(self, workload, tmp_path):
        for s in bench_scenes().BUILDERS[workload](0, tmp_path):
            for rows in (s.gt, s.broken):
                tracks = [[Detection(f, (x, y)) for f, x, y in t] for t in rows]
                for cfg in (Config(), Config.unsupervised()):
                    g = build_graph(tracks, cfg, s.batch)
                    ts = input_trajectories(g)
                    candidates = generate_candidates(g, ts, cfg)
                    assert_same_as_scalar(g, candidates.patterns, (cfg,), ts)


def assert_matrix_is_per_pattern(graph, trajectories, patterns, cfg):
    """Column p of `score_matrix` is the scalar scorer's sums against
    `patterns[p]`, bit for bit; each side is computed on a fresh copy of the
    graph."""
    total, aligned = score_matrix(replace(graph), trajectories, patterns, cfg)
    assert total.shape == aligned.shape == (len(trajectories), len(patterns))
    scalar = replace(graph)
    for p, pattern in enumerate(patterns):
        want = [reference_trajectory_sum(scalar, t, pattern, cfg) for t in trajectories]
        assert bits(*total[:, p], *aligned[:, p]) == bits(*(w.total for w in want), *(w.aligned for w in want))
    return total, aligned


class TestScoreMatrixAgainstPerPattern:
    """`score_matrix`, one pass per centerline, equals the scalar scorer per pattern."""

    def test_seeded_random_graphs(self):
        rng = np.random.default_rng(21)
        checked_gates = backward = 0
        for _ in range(25):
            lines = [np.cumsum(rng.normal(size=(int(rng.integers(2, 6)), 2)) * 4.0, axis=0) for _ in range(2)]
            n = int(rng.integers(2, 24))
            frames = np.sort(rng.integers(0, 10, n))
            pts = lines[0][rng.integers(0, len(lines[0]), n)] + rng.normal(size=(n, 2)) * rng.choice([0.3, 2.0])
            specs = [(int(f), float(x), float(y)) for f, (x, y) in zip(frames, pts)]
            ids = rng.permutation(n) + 1
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
            chains = [sorted(c.tolist(), key=lambda d: (specs[d - 1][0], d)) for c in np.split(ids, cuts)]
            chains = [c for c in chains if len({specs[d - 1][0] for d in c}) == len(c)]
            # A stationary trajectory: three detections at one position.
            specs += [(k, 3.0, -1.0) for k in range(3, 6)]
            chains.append([n + 1, n + 2, n + 3])
            span = (min(f for f, _, _ in specs), max(f for f, _, _ in specs))
            g, ts = chain_graph(specs, chains, span if rng.random() < 0.5 else (span[0] - 1, span[1] + 1))
            bases = [Pattern.from_points(line.tolist(), 1.0) for line in lines]
            # Widths exactly at an edge's gate, max(dist_i, dist_j), and the
            # floats either side of it.
            dist = _projection(replace(g), bases[0])[3]
            gates = [float(max(dist[a - 1], dist[b - 1])) for c in chains for a, b in zip(c, c[1:])]
            gates = [w for w in gates if w > 0.0][:2]
            checked_gates += len(gates)
            widths = [*gates, *np.nextafter(gates, np.inf), *np.nextafter(gates, 0.0), 0.3, 1.0, 4.0]
            # The two centerlines interleaved, each width twice, and the empty
            # pattern at the front, in the middle and at the end.
            patterns = [EMPTY_PATTERN]
            for w in rng.permutation(widths * 2):
                patterns += [bases[0].with_width(float(w)), bases[1].with_width(float(w))]
                if rng.random() < 0.1:
                    patterns.append(EMPTY_PATTERN)
            patterns.append(EMPTY_PATTERN)
            for cfg in SCALAR_CFGS:
                _, aligned = assert_matrix_is_per_pattern(g, ts, patterns, cfg)
                backward += int((aligned < 0.0).any())
        assert checked_gates > 20 and backward > 0

    def test_backward_edges_and_a_stationary_trajectory(self):
        specs = [(1, 9.0, 0.2), (2, 6.0, -0.4), (3, 6.5, 0.1), (4, 2.0, 3.0), (2, 1.0, 0.0), (3, 1.0, 0.0)]
        g, ts = chain_graph(specs, [(1, 2, 3, 4), (5, 6)], batch=(0, 5))
        across = Pattern(((5.0, -5.0), (5.0, 5.0)), 1.0)
        patterns = [LANE.with_width(0.4), across, EMPTY_PATTERN, LANE, across.with_width(6.0), LANE.with_width(0.4)]
        for cfg in (*SCALAR_CFGS, Config(reverse_penalty=2.0)):
            total, aligned = assert_matrix_is_per_pattern(g, ts, patterns, cfg)
            # Duplicate patterns share a column; the backward walk scores
            # below zero on the lane at every width.
            assert bits(*total[:, 0], *aligned[:, 0]) == bits(*total[:, 5], *aligned[:, 5])
            assert aligned[0, 0] == aligned[0, 3] < 0.0

    def test_no_patterns_and_no_trajectories(self):
        g, ts = chain_graph([(1, 0.0, 0.0), (2, 1.0, 0.0)], [(1, 2)], batch=(0, 3))
        for trajectories, patterns in ((ts, []), ([], [LANE, EMPTY_PATTERN])):
            total, aligned = score_matrix(g, trajectories, patterns, CFG)
            assert total.shape == aligned.shape == (len(trajectories), len(patterns))


class TestIdsOutsideTheGraph:
    """The array scorer refuses a detection id outside 1..n, as `graph.detection` does."""

    def test_edge_scores(self):
        g = pair_graph((0.0, 0.0), (1.0, 0.0))
        for tails, heads, bad in (
            ([1, 3], [2, 1], 3),
            ([SOURCE_NODE], [0], 0),
            ([2], [-3], -3),
            ([SINK_NODE], [1], SINK_NODE),
            ([1], [SOURCE_NODE], SOURCE_NODE),
            ([SOURCE_NODE], [SINK_NODE], SINK_NODE),
        ):
            for pattern in (EMPTY_PATTERN, LANE):
                with pytest.raises(KeyError, match=str(bad)):
                    edge_scores(g, pattern, CFG, tails, heads)

    def test_trajectory_scores(self):
        g = pair_graph((0.0, 0.0), (1.0, 0.0))
        for pattern in (EMPTY_PATTERN, LANE):
            with pytest.raises(KeyError, match="3"):
                score_matrix(g, [Trajectory((1,)), Trajectory((2, 3))], [pattern], CFG)
            with pytest.raises(KeyError, match="3"):
                trajectory_score(g, Trajectory((3,)), pattern, CFG)
            with pytest.raises(KeyError, match=str(10**30)):
                trajectory_score(g, Trajectory((1, 10**30)), pattern, CFG)


def reference_objective(graph, trajectories, patterns, assignment, cfg):
    """The former `objective`: one scalar trajectory score per trajectory, added in order."""
    total = aligned = 0.0
    for traj, p in zip(trajectories, assignment):
        score = reference_trajectory_sum(graph, traj, patterns[p], cfg)
        total += score.total
        aligned += score.aligned
    return aligned / total


class TestScoringCacheSize:
    """A graph's `scoring_cache` keeps one projection per centerline and
    nothing per trajectory or trajectory set."""

    @staticmethod
    def assert_only_centerlines(graph, centerlines=None):
        for key, terms in graph.scoring_cache.items():
            assert Pattern(key, 1.0).centerline == key
            assert len(terms) == 5 and all(t.shape == (len(graph.detections),) for t in terms)
        if centerlines is not None:
            assert set(graph.scoring_cache) == centerlines

    def test_one_trajectory_scores_keep_no_entry(self):
        scene, broken, corridors = crossing_family(6, noisy=True)
        g = build_graph(broken, CFG, scene.meta.batch)
        ts = input_trajectories(g)
        for traj in ts:
            for pattern in (EMPTY_PATTERN, *corridors, Pattern(corridors[0].centerline, 0.3)):
                trajectory_score(g, traj, pattern, CFG)
                assert traj not in g.scoring_cache and (traj,) not in g.scoring_cache
        self.assert_only_centerlines(g, {p.centerline for p in corridors})
        for patterns in (corridors[:1], (EMPTY_PATTERN, *corridors)):
            score_matrix(g, ts, patterns, CFG)
            assert tuple(ts) not in g.scoring_cache
            self.assert_only_centerlines(g, {p.centerline for p in corridors})

    def test_objective_keeps_one_entry_for_its_set(self):
        """Repeated `objective` calls on one set keep one projection per
        centerline of its patterns; the cache does not grow per call."""
        scene, broken, corridors = crossing_family(6, noisy=True)
        g = build_graph(broken, CFG, scene.meta.batch)
        ts = input_trajectories(g)
        patterns = (EMPTY_PATTERN, *corridors)
        for k in range(3):
            objective(g, ts, patterns, Assignment(tuple((t + k) % 3 for t in range(len(ts)))), CFG)
            assert tuple(ts) not in g.scoring_cache
            self.assert_only_centerlines(g, {p.centerline for p in corridors})
            assert len(g.scoring_cache) == len(corridors)

    def test_only_centerlines_stay(self):
        scene, broken, corridors = crossing_family(6, noisy=True)
        cfg = Config(candidate_widths=(1.0, 3.0))
        g = build_graph(broken, cfg, scene.meta.batch)
        ts = input_trajectories(g)
        patterns = (EMPTY_PATTERN, *corridors, Pattern(corridors[0].centerline, 0.3))
        for traj in ts:
            for pattern in patterns:
                trajectory_score(g, traj, pattern, cfg)
        self.assert_only_centerlines(g, {p.centerline for p in corridors})
        for k in range(3):
            score_matrix(g, ts, patterns[k:], cfg)
            objective(g, ts, patterns, Assignment(tuple((t + k) % 4 for t in range(len(ts)))), cfg)
        self.assert_only_centerlines(g, {p.centerline for p in corridors})
        candidates = generate_candidates(g, ts, cfg)
        mine(g, ts, candidates, cfg)
        link(g, patterns[:3], cfg)
        self.assert_only_centerlines(g, {p.centerline for p in (*corridors, *candidates.patterns[1:])})
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        scene, corrupted = two_flow_scene(seed=0)
        g = build_graph(corrupted, cfg, batch=scene.meta.batch)
        run_unsupervised(g, input_trajectories(g), cfg, iterations_per_level=2)
        self.assert_only_centerlines(g)
        assert g.scoring_cache

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise-free", "noisy"])
    def test_objective_equals_the_scalar_sum_bit_for_bit(self, noisy):
        scene, broken, corridors = crossing_family(6, noisy)
        patterns = (EMPTY_PATTERN, *corridors, Pattern(corridors[1].centerline, 0.2))
        rng = np.random.default_rng(7)
        for cfg in SCALAR_CFGS:
            g = build_graph(broken, cfg, scene.meta.batch)
            for ts in (input_trajectories(g), link(g, patterns[:3], cfg).all_trajectories):
                for _ in range(4):
                    assignment = Assignment(tuple(int(p) for p in rng.integers(0, len(patterns), len(ts))))
                    got = objective(g, ts, patterns, assignment, cfg)
                    want = reference_objective(g, ts, patterns, assignment, cfg)
                    assert bits(got) == bits(want)
