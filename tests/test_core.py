"""Domain type construction, validation, and the trajectory-set checker."""
import dataclasses
import math

import numpy as np
import pytest

from ptrack import (
    Assignment,
    Config,
    Detection,
    DetectionGraph,
    EMPTY_PATTERN,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    TrackTable,
    Trajectory,
    relative_widths,
    tracking_area,
    tracking_extent,
    tracks_from_trajectories,
    validate_trajectory_set,
)
from ptrack.core import bounding_box


def det(frame, x, y):
    return Detection(frame, (x, y))


def chain_graph():
    """Three detections in a row with their chain edges and entry/exit edges."""
    dets = (det(1, 0.0, 0.0), det(2, 1.0, 0.0), det(3, 2.0, 0.0))
    edges = {(1, 2), (2, 3)}
    for k in (1, 2, 3):
        edges.add((SOURCE_NODE, k))
        edges.add((k, SINK_NODE))
    return DetectionGraph(dets, frozenset(edges))


class TestDetection:
    def test_holds_only_frame_and_position(self):
        assert [f.name for f in dataclasses.fields(Detection)] == ["frame", "pos"]

    def test_position_is_coerced_to_floats(self):
        d = det(0, 1, 2)
        assert d.pos == (1.0, 2.0)
        assert all(isinstance(c, float) for c in d.pos)

    @pytest.mark.parametrize(
        "pos", [[1.0, 2.0], (np.float64(1.0), 2.0), np.array([1.0, 2.0]), (True, 2.0)]
    )
    def test_any_real_pair_becomes_a_tuple_of_plain_floats(self, pos):
        d = Detection(0, pos)
        assert d.pos == (1.0, 2.0)
        assert type(d.pos) is tuple
        assert all(type(c) is float for c in d.pos)

    def test_float_tuple_position_is_kept(self):
        pos = (1.5, -0.0)
        assert Detection(0, pos).pos is pos

    def test_non_integer_frame_rejected(self):
        with pytest.raises(ValueError, match="frame"):
            Detection(1.5, (0.0, 0.0))

    @pytest.mark.parametrize("frame", [True, False])
    def test_bool_frame_rejected(self, frame):
        # A bool frame would reach the graph's batch and be written as
        # "True", a row that `read_tracks` refuses.
        with pytest.raises(ValueError, match="frame"):
            Detection(frame, (0.0, 0.0))

    def test_non_finite_position_rejected(self):
        with pytest.raises(ValueError, match="position"):
            det(0, math.nan, 0.0)


class TestTrackTable:
    def test_tracks_become_contiguous_rows(self):
        tracks = [[det(2, 1.0, 2.0), det(3, -0.0, 5.5)], [], [det(-7, 3.0, 4.0)]]
        table = TrackTable.from_tracks(tracks)
        assert table.frames.dtype == np.int64 and table.frames.tolist() == [2, 3, -7]
        assert table.pos.tolist() == [[1.0, 2.0], [-0.0, 5.5], [3.0, 4.0]]
        assert table.starts.tolist() == [0, 2, 2, 3]
        assert len(table) == 3
        assert table.lengths.tolist() == [2, 0, 1]
        assert table.owner.tolist() == [0, 0, 2]

    def test_tracks_become_detection_lists(self):
        tracks = [[det(2, 1.0, 2.0), det(3, -0.0, 5.5)], [], [det(-7, 3.0, 4.0)]]
        back = TrackTable.from_tracks(tracks).tracks()
        assert back == tracks
        assert math.copysign(1.0, back[0][1].pos[0]) == -1.0
        assert all(type(c) is float for t in back for d in t for c in d.pos)

    def test_no_tracks(self):
        table = TrackTable.from_tracks([])
        assert len(table) == 0 and table.pos.shape == (0, 2) and table.tracks() == []
        assert TrackTable.from_tracks([[], []]).tracks() == [[], []]

    def test_frames_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            TrackTable.from_tracks([[det(2**63, 0.0, 0.0)]])

    @pytest.mark.parametrize(
        "frames, pos, starts, message",
        [
            (np.array([1.0]), [[0.0, 0.0]], [0, 1], "frames"),
            (np.array([1]), [[0.0, 0.0], [1.0, 1.0]], [0, 1], "pos"),
            (np.array([1]), [[math.inf, 0.0]], [0, 1], "finite"),
            (np.array([1, 2]), np.zeros((2, 2)), [0, 2, 1, 2], "starts"),
            (np.array([1, 2]), np.zeros((2, 2)), [0, 1], "starts"),
            (np.array([1, 2]), np.zeros((2, 2)), [1, 2], "starts"),
            (np.array([1, 2]), np.zeros((2, 2)), [0.0, 2.0], "starts"),
        ],
    )
    def test_malformed_columns_rejected(self, frames, pos, starts, message):
        with pytest.raises(ValueError, match=message):
            TrackTable(frames, np.array(pos), np.array(starts))


class TestDetectionGraph:
    def test_ids_are_positions_from_one(self):
        g = chain_graph()
        assert g.ids == range(1, 4)
        assert [g.detection(k) for k in g.ids] == list(g.detections)
        for k in (0, -1, 4):
            assert k not in g
            with pytest.raises(KeyError):
                g.detection(k)

    def test_equal_detections_are_distinct_nodes(self):
        d = det(0, 0.0, 0.0)
        g = DetectionGraph((d, d), frozenset({(SOURCE_NODE, 1), (SOURCE_NODE, 2)}))
        assert g.ids == range(1, 3) and g.detection(1) is g.detection(2) is d
        assert g.edges.tolist() == [[SOURCE_NODE, 1], [SOURCE_NODE, 2]]

    def test_backward_edge_rejected(self):
        dets = (det(2, 0, 0), det(1, 1, 1))
        with pytest.raises(ValueError, match="forward in time"):
            DetectionGraph(dets, frozenset({(1, 2)}))

    def test_edge_to_unknown_detection_rejected(self):
        with pytest.raises(ValueError, match="unknown detection"):
            DetectionGraph((det(0, 0, 0),), frozenset({(1, 9)}))

    @pytest.mark.parametrize("edge", [(-5, 2), (1, -7), (0, 2), (1, 0)])
    def test_edge_to_a_negative_or_zero_id_rejected(self, edge):
        # Only SOURCE_NODE may start an edge outside 1..n, only SINK_NODE end one.
        dets = (det(0, 0, 0), det(1, 1, 1))
        bad = next(v for v in edge if v not in (1, 2))
        with pytest.raises(ValueError, match=f"edge references unknown detection {bad}$"):
            DetectionGraph(dets, frozenset({edge}))

    def test_source_to_sink_edge_rejected(self):
        with pytest.raises(ValueError, match="invalid edge"):
            DetectionGraph((det(0, 0, 0),), frozenset({(SOURCE_NODE, SINK_NODE)}))

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(3, 2), (2, 1), (2, SOURCE_NODE)], r"invalid edge \(2, -1\)"),
            ([(2, 9), (1, 7), (1, 2)], "unknown detection 7$"),
            ([(3, 1), (2, 1), (1, 2)], r"edge \(2, 1\) does not move forward"),
        ],
    )
    def test_each_error_names_the_first_offending_edge_in_sorted_order(self, edges, message):
        dets = (det(0, 0, 0), det(1, 1, 1), det(2, 2, 2))
        with pytest.raises(ValueError, match=message):
            DetectionGraph(dets, edges)

    def test_edges_from_any_collection_become_one_sorted_array(self):
        dets = (det(0, 0, 0), det(1, 1, 1))
        want = [[SOURCE_NODE, 1], [SOURCE_NODE, 2], [1, SINK_NODE], [1, 2], [2, SINK_NODE]]
        pairs = [(1, 2), (SOURCE_NODE, 2), (1, SINK_NODE), (SOURCE_NODE, 1), (2, SINK_NODE)]
        for edges in (
            frozenset(pairs),
            pairs + pairs[:2],  # duplicates are kept once
            np.array(pairs[::-1], dtype=np.int32),
            [np.array(p) for p in pairs],
        ):
            g = DetectionGraph(dets, edges)
            assert g.edges.dtype == np.int64 and g.edges.tolist() == want
            assert not g.edges.flags.writeable
        same = dataclasses.replace(g, source_tracks=((1, 2),))
        assert same.edges.tolist() == want and same.source_tracks == ((1, 2),)
        assert DetectionGraph(dets, []).edges.shape == (0, 2)
        assert DetectionGraph(dets, np.zeros((0, 2), dtype=np.int64)).edges.shape == (0, 2)

    @pytest.mark.parametrize(
        "edges",
        [
            [(1.0, 2)],
            [(1, 2.5)],
            [(True, 2)],
            [(1, np.True_)],
            [("1", 2)],
            np.array([[1.0, 2.0]]),
            np.array([[True, False]]),
            np.array([[1, 2]], dtype=np.uint64),
            np.array([[1, 2]], dtype=object),
        ],
        ids=repr,
    )
    def test_ids_that_are_not_ints_are_refused(self, edges):
        dets = (det(0, 0, 0), det(1, 1, 1))
        with pytest.raises(ValueError, match="edge ids must be ints"):
            DetectionGraph(dets, edges)

    def test_ids_beyond_int64_are_refused(self):
        dets = (det(0, 0, 0), det(1, 1, 1))
        with pytest.raises(ValueError, match="edge ids must fit in int64"):
            DetectionGraph(dets, [(1, 2**63)])

    @pytest.mark.parametrize(
        "edges",
        [[(1, 2, 3)], [1, 2], [(1, 2), (1,)], [{1, 2}], np.array([1, 2]), np.zeros((1, 2, 2), dtype=int)],
        ids=repr,
    )
    def test_edges_that_are_not_pairs_are_refused(self, edges):
        dets = (det(0, 0, 0), det(1, 1, 1))
        with pytest.raises(ValueError):
            DetectionGraph(dets, edges)

    def test_batch_defaults_to_frame_span(self):
        g = chain_graph()
        assert g.batch == (1, 3)

    def test_batch_may_be_wider_but_not_narrower(self):
        dets = (det(2, 0, 0),)
        assert DetectionGraph(dets, frozenset(), batch=(0, 5)).batch == (0, 5)
        with pytest.raises(ValueError, match="batch"):
            DetectionGraph(dets, frozenset(), batch=(3, 5))

    @pytest.mark.parametrize("batch", [("0", "5"), (True, 5), (0, False), (0, np.True_)], ids=repr)
    def test_batch_bounds_that_are_strings_or_bools_are_refused(self, batch):
        # As `Detection` refuses a bool frame, a bool bound is not read as 0 or 1.
        with pytest.raises(ValueError, match=r"batch \(.*\) bounds must be integers"):
            DetectionGraph((det(1, 0, 0),), frozenset(), batch=batch)

    def test_source_tracks_default_to_empty(self):
        assert chain_graph().source_tracks == ()

    def test_source_tracks_that_cover_the_graph_along_edges_are_kept(self):
        g = chain_graph()
        for tracks in (((1, 2, 3),), ((1, 2), (3,)), ((1,), (2,), (3,))):
            assert dataclasses.replace(g, source_tracks=tracks).source_tracks == tracks

    @pytest.mark.parametrize(
        "tracks, reason",
        [
            (((1, 2), (2, 3)), "used twice"),
            (((1, 2),), "uncovered"),
            (((1, 2, 3), (4,)), "unknown detection"),
            (((1, 3), (2,)), "not a graph edge"),
            (((1, 2, 3, 2),), "repeats"),
        ],
    )
    def test_source_tracks_must_cover_the_graph_along_edges(self, tracks, reason):
        with pytest.raises(ValueError, match=reason):
            dataclasses.replace(chain_graph(), source_tracks=tracks)

    def test_sorted_edges(self):
        g = chain_graph()
        assert g.edges.tolist() == [
            [SOURCE_NODE, 1], [SOURCE_NODE, 2], [SOURCE_NODE, 3],
            [1, SINK_NODE], [1, 2], [2, SINK_NODE], [2, 3], [3, SINK_NODE],
        ]
        assert 2 in g and 9 not in g


class TestTrajectory:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            Trajectory(())

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            Trajectory((1, 2, 1))

    def test_sentinel_node_rejected(self):
        with pytest.raises(ValueError, match="detection ids"):
            Trajectory((SOURCE_NODE, 1))

    @pytest.mark.parametrize(
        "nodes", [(0, 1), (1, 0), (1.5,), (2.0,), (True,), (1, False), ("1",), (None,)]
    )
    def test_nodes_must_be_positive_ints(self, nodes):
        # No graph holds id 0, a float or a bool; an array scorer that read
        # row id - 1 would take id 0 for the last detection.
        with pytest.raises(ValueError, match="detection ids"):
            Trajectory(nodes)

    def test_length(self):
        assert len(Trajectory((1, 2, 3))) == 3


class TestPattern:
    def test_single_point_rejected(self):
        with pytest.raises(ValueError, match="two points"):
            Pattern(((0.0, 0.0),), 1.0)

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            Pattern(((0.0, 0.0), (0.0, 0.0), (1.0, 0.0)), 1.0)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError, match="width"):
            Pattern(((0.0, 0.0), (1.0, 0.0)), 0.0)

    def test_from_points_drops_duplicates(self):
        p = Pattern.from_points([(0, 0), (0, 0), (3, 0), (3, 0), (3, 4)], 1.0)
        assert p.centerline == ((0.0, 0.0), (3.0, 0.0), (3.0, 4.0))
        assert p.length == pytest.approx(7.0)

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0), (math.nan, 0), (1, 0)],
            [(math.nan, 0), (0, 0), (1, 0)],
            [(0, 0), (1, 0), (1, math.inf)],
            [(0, 0), (math.inf, 0), (math.inf, 0)],
        ],
        ids=repr,
    )
    def test_from_points_refuses_a_point_that_is_not_finite(self, points):
        with pytest.raises(ValueError, match="centerline point .* is not finite"):
            Pattern.from_points(points, 1.0)

    def test_empty_pattern_properties(self):
        assert EMPTY_PATTERN.is_empty
        assert EMPTY_PATTERN.length == 0.0
        assert EMPTY_PATTERN.cost == 0.0

    def test_cost_is_length_times_width(self):
        p = Pattern(((0.0, 0.0), (10.0, 0.0)), 2.0)
        assert p.cost == pytest.approx(20.0)

    def test_doubling_width_doubles_cost_exactly(self):
        base = Pattern(((0.0, 0.0), (4.0, 3.0)), 1.3)
        doubled = Pattern(base.centerline, 2.6)
        assert doubled.cost == 2.0 * base.cost

    def test_point_at_clamps_to_ends(self):
        p = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)
        assert p.point_at(-5.0) == (0.0, 0.0)
        assert p.point_at(25.0) == (10.0, 0.0)
        assert p.point_at(4.0) == (4.0, 0.0)

    def test_tangent_follows_segments(self):
        p = Pattern(((0.0, 0.0), (5.0, 0.0), (5.0, 5.0)), 1.0)
        assert p.tangent_at(2.0) == pytest.approx((1.0, 0.0))
        assert p.tangent_at(7.0) == pytest.approx((0.0, 1.0))

    CENTERLINES = (
        ((0.0, 0.0), (10.0, 0.0)),
        ((0.1, 0.7), (3.3, 4.9), (3.3, -1.0), (1e6, 2e-7)),
    )

    def test_with_width_is_the_constructor_at_that_width(self):
        for centerline in self.CENTERLINES:
            base = Pattern(centerline, 1.0)
            for width in (1.0, 0.3, 7, 2.0000000000000004, 1e-300, 1e300, True):
                twin, built = base.with_width(width), Pattern(centerline, width)
                assert twin == built and hash(twin) == hash(built)
                assert type(twin.width) is float
                assert [twin.width.hex(), twin.length.hex(), twin.cost.hex()] == [
                    built.width.hex(), built.length.hex(), built.cost.hex()
                ]
        assert EMPTY_PATTERN.with_width(3.0) == Pattern((), 3.0)

    @pytest.mark.parametrize("width", [0, 0.0, -1.0, math.nan, math.inf, -math.inf, "1", None, 1j])
    def test_with_width_rejects_what_the_constructor_rejects(self, width):
        base = Pattern(self.CENTERLINES[1], 1.0)
        with pytest.raises(ValueError) as built:
            Pattern(base.centerline, width)
        with pytest.raises(ValueError) as twin:
            base.with_width(width)
        assert str(twin.value) == str(built.value)

    def test_twins_share_read_only_arrays(self):
        base = Pattern(self.CENTERLINES[1], 1.0)
        twin = base.with_width(3.0)
        assert twin.vertices is base.vertices and twin.cum_arc is base.cum_arc
        for pattern in (base, twin, Pattern(self.CENTERLINES[0], 2.0), EMPTY_PATTERN):
            for array in (pattern.vertices, pattern.cum_arc):
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 5.0
        assert base.cum_arc[0] == 0.0 and base.vertices[0, 0] == 0.1


class TestAssignment:
    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Assignment((0, -1))

    def test_sequence_protocol(self):
        a = Assignment((2, 0, 1))
        assert len(a) == 3
        assert a[0] == 2
        assert list(a) == [2, 0, 1]


class TestConfig:
    def test_defaults(self):
        cfg = Config()
        assert cfg.link_radius == 2.0
        assert cfg.join_radius == 4.0
        assert cfg.empty_rate == 0.3
        assert cfg.max_patterns == 5

    def test_unsupervised_flips_empty_rate(self):
        assert Config.unsupervised().empty_rate == -3.0
        assert Config.unsupervised(empty_rate=-1.0).empty_rate == -1.0

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            Config(link_radius=0.0)
        with pytest.raises(ValueError):
            Config(max_patterns=0)
        with pytest.raises(ValueError):
            Config(pattern_cost_budget=-1.0)
        with pytest.raises(ValueError):
            Config(candidate_widths=())

    NOT_FINITE_REALS = [
        ("link_radius", True),
        ("join_radius", "4"),
        ("fps", "2"),
        ("max_patterns", True),
        ("max_patterns", 2.0),
        ("empty_rate", True),
        ("empty_rate", "0.3"),
        ("empty_rate", math.nan),
        ("reverse_penalty", "1"),
        ("reverse_penalty", False),
        ("reverse_penalty", math.inf),
        ("reverse_penalty", None),
        ("empty_rate", None),
        ("pattern_cost_budget", True),
        ("pattern_cost_budget", "2"),
        ("candidate_widths", (True,)),
        ("candidate_widths", (1.0, "3")),
        ("candidate_widths", "13"),
    ]

    @pytest.mark.parametrize(
        "field, value", NOT_FINITE_REALS, ids=[f"{f}-{v!r:.12}" for f, v in NOT_FINITE_REALS]
    )
    def test_numbers_must_be_finite_reals_not_bools_or_strings(self, field, value):
        with pytest.raises(ValueError, match=field):
            Config(**{field: value})

    def test_numpy_and_int_numbers_are_accepted(self):
        cfg = Config(link_radius=np.float64(2.5), empty_rate=-3, candidate_widths=(1, np.float64(2.0)))
        assert cfg.link_radius == 2.5 and cfg.empty_rate == -3
        assert cfg.candidate_widths == (1.0, 2.0) and all(type(w) is float for w in cfg.candidate_widths)

    def test_cost_budget_resolution(self):
        cfg = Config(max_patterns=5)
        assert cfg.resolved_cost_budget(100.0) == pytest.approx(150.0)
        assert cfg.with_cost_budget(7.0).resolved_cost_budget(100.0) == 7.0
        assert cfg.with_cost_budget(0.0).resolved_cost_budget(100.0) == 0.0

    def test_default_cost_budget_needs_an_area(self):
        # Collinear detections span no area: the default budget would be 0.
        with pytest.raises(ValueError, match=r"pattern_cost_budget \(--cost-budget\)"):
            Config().resolved_cost_budget(0.0)
        assert Config(pattern_cost_budget=2.5).resolved_cost_budget(0.0) == 2.5

    def test_join_gap_converts_to_frames(self):
        assert Config(join_gap=2.0, fps=1.0).join_gap_frames() == 2
        assert Config(join_gap=2.0, fps=10.0).join_gap_frames() == 20
        assert Config(join_gap=0.01, fps=1.0).join_gap_frames() == 1

    def test_join_gap_in_frames_must_be_finite(self):
        # 1e200 * 1e200 overflows to inf, which no frame count can hold.
        with pytest.raises(ValueError, match=r"join_gap \* fps must be finite"):
            Config(join_gap=1e200, fps=1e200)
        assert Config(join_gap=1e150, fps=1e150).join_gap_frames() == round(1e150 * 1e150)


def test_relative_widths_scale_with_extent():
    widths = relative_widths(100.0)
    assert widths[0] == pytest.approx(5.0)
    assert widths[-1] == pytest.approx(50.0)
    assert len(widths) == 6
    with pytest.raises(ValueError, match="extent"):
        relative_widths(0.0)
    for bad in ("3", True, float("inf"), None):
        with pytest.raises(ValueError, match="extent"):
            relative_widths(bad)
    assert relative_widths(np.float64(100.0)) == widths


def test_bounding_box_and_area():
    pts = [(0.0, 1.0), (4.0, 5.0), (2.0, -1.0)]
    assert bounding_box(pts) == (0.0, -1.0, 4.0, 5.0)
    assert tracking_area(pts) == pytest.approx(24.0)
    assert tracking_extent(pts) == pytest.approx(6.0)
    with pytest.raises(ValueError, match="no points"):
        bounding_box([])


def test_bounding_box_reads_an_array_as_the_points_it_holds():
    pts = [(0.5, 1.0), (-4.0, 5.0), (2.0, -1.25)]
    box = bounding_box(pts)
    assert box == (-4.0, -1.25, 2.0, 5.0)
    assert bounding_box(np.array(pts)) == box
    assert bounding_box(p for p in pts) == box
    with pytest.raises(ValueError, match="no points"):
        bounding_box(np.empty((0, 2)))


class TestValidateTrajectorySet:
    def test_single_covering_chain_is_valid(self):
        g = chain_graph()
        assert validate_trajectory_set(g, [Trajectory((1, 2, 3))]) == []

    def test_detection_used_twice(self):
        g = chain_graph()
        out = validate_trajectory_set(g, [Trajectory((1, 2)), Trajectory((2, 3))])
        assert "detection 2 used twice" in out

    def test_detection_uncovered(self):
        g = chain_graph()
        out = validate_trajectory_set(g, [Trajectory((1, 2))])
        assert "detection 3 uncovered" in out

    def test_non_edge_transition(self):
        g = chain_graph()
        out = validate_trajectory_set(g, [Trajectory((1, 3)), Trajectory((2,))])
        assert "transition (1, 3) is not a graph edge" in out

    def test_unknown_detection(self):
        g = chain_graph()
        out = validate_trajectory_set(g, [Trajectory((1, 2, 3)), Trajectory((9,))])
        assert "unknown detection 9" in out

    def test_valid_set_covers_every_detection_once(self):
        g = chain_graph()
        ts = [Trajectory((1, 2)), Trajectory((3,))]
        assert validate_trajectory_set(g, ts) == []
        assert sum(len(t) for t in ts) == len(g.detections)


def test_tracks_from_trajectories_materializes_detections():
    g = chain_graph()
    tracks = tracks_from_trajectories(g, [Trajectory((1, 2)), Trajectory((3,))])
    first, second, third = g.detections
    assert all(a is b for a, b in zip(tracks[0] + tracks[1], (first, second, third)))
    assert [len(t) for t in tracks] == [2, 1]
