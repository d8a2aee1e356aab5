"""Detection graph assembly from input track tables."""
import pytest

from ptrack import (
    Config,
    Detection,
    DetectionGraph,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    ScorePair,
    build_graph,
    input_trajectories,
    tracks_from_trajectories,
    validate_trajectory_set,
)
from ptrack.synth import crossing_scene, fragmented_corridor_scene, two_flow_scene

from helpers import edge_score, edge_set


def det(frame, x, y=0.0):
    return Detection(frame, (float(x), float(y)))


class TestCrossEdges:
    def test_adjacent_frames_within_radius_are_linked(self):
        g = build_graph([[det(1, 0.0)], [det(2, 1.5)]], Config())
        assert (1, 2) in edge_set(g)

    def test_radius_boundary_is_inclusive(self):
        g = build_graph([[det(1, 0.0)], [det(2, 2.0)]], Config())
        assert (1, 2) in edge_set(g)

    def test_beyond_radius_not_linked(self):
        a = [det(1, 0.0), det(2, 0.0), det(3, 0.0)]
        b = [det(1, 2.5), det(2, 2.5), det(3, 2.5)]
        g = build_graph([a, b], Config())
        # adjacent frames, 2.5 m apart, mid-track so the join rule cannot fire
        assert (2, 6) not in edge_set(g)

    def test_same_frame_never_linked(self):
        g = build_graph([[det(3, 0.0)], [det(3, 0.1)]], Config())
        assert (1, 2) not in edge_set(g) and (2, 1) not in edge_set(g)

    def test_two_frame_gap_needs_join_rule(self):
        a = [det(1, 0.0), det(3, 0.2), det(5, 0.4)]
        b = [det(1, 1.0), det(3, 1.2), det(5, 1.4)]
        g = build_graph([a, b], Config())
        # mid-track detections two frames apart, close, but neither an end/start pair
        assert (1, 5) not in edge_set(g)


class TestJoinEdges:
    def test_fragment_ends_bridge_to_starts(self):
        a = [det(9, -1.0), det(10, 0.0)]
        b = [det(12, 3.0), det(13, 4.0)]
        g = build_graph([a, b], Config())
        assert (2, 3) in edge_set(g)

    def test_gap_beyond_limit_not_bridged(self):
        a = [det(10, 0.0)]
        b = [det(13, 3.0)]
        g = build_graph([a, b], Config())
        assert (1, 2) not in edge_set(g)

    def test_distance_beyond_join_radius_not_bridged(self):
        a = [det(10, 0.0)]
        b = [det(12, 5.0)]
        g = build_graph([a, b], Config())
        assert (1, 2) not in edge_set(g)

    def test_gap_limit_scales_with_fps(self):
        a = [det(10, 0.0)]
        b = [det(14, 3.0)]
        assert (1, 2) in edge_set(build_graph([a, b], Config(fps=2.0)))
        assert (1, 2) not in edge_set(build_graph([a, b], Config(fps=1.0)))

    def test_mid_track_detections_never_join(self):
        a = [det(1, 0.0), det(2, 0.5), det(3, 1.0)]
        b = [det(4, 1.5), det(5, 2.0), det(6, 2.5)]
        g = build_graph([a, b], Config(link_radius=0.1))
        assert (3, 4) in edge_set(g)
        assert (2, 5) not in edge_set(g)


class TestTrackEdges:
    def test_consecutive_same_track_linked_regardless_of_gap(self):
        g = build_graph([[det(1, 0.0), det(50, 100.0)]], Config())
        assert (1, 2) in edge_set(g)

    def test_non_increasing_frames_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            build_graph([[det(5, 0.0), det(5, 1.0)]], Config())

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no detections"):
            build_graph([], Config())
        with pytest.raises(ValueError, match="no detections"):
            build_graph([[], []], Config())


class TestGraphShape:
    def test_single_detection_gets_only_entry_and_exit(self):
        g = build_graph([[det(4, 2.0)]], Config())
        assert edge_set(g) == {(SOURCE_NODE, 1), (1, SINK_NODE)}
        assert g.batch == (4, 4)

    def test_detections_renumbered_serially_with_provenance(self):
        tracks = [[det(1, 0.0), det(2, 1.0)], [det(1, 5.0)]]
        g = build_graph(tracks, Config())
        assert g.ids == range(1, 4)
        inputs = [d for t in tracks for d in t]
        assert all(g.detection(k) is d for k, d in enumerate(inputs, start=1))
        assert g.source_tracks == ((1, 2), (3,))

    def test_every_detection_has_entry_and_exit(self):
        tracks = [[det(f, x) for f, x in [(1, 0.0), (2, 1.0), (3, 2.0)]], [det(2, 9.0)]]
        g = build_graph(tracks, Config())
        for k in g.ids:
            assert (SOURCE_NODE, k) in edge_set(g)
            assert (k, SINK_NODE) in edge_set(g)

    def test_edges_grow_with_radii(self):
        tracks = [[det(1, 0.0)], [det(2, 1.0)], [det(2, 3.0)], [det(4, 2.0)]]
        tight = build_graph(tracks, Config(link_radius=0.5, join_radius=0.5))
        loose = build_graph(tracks, Config(link_radius=4.0, join_radius=4.0))
        assert edge_set(tight) <= edge_set(loose)

    def test_batch_override(self):
        g = build_graph([[det(3, 0.0)]], Config(), batch=(0, 10))
        assert g.batch == (0, 10)
        with pytest.raises(ValueError, match="batch"):
            build_graph([[det(3, 0.0)]], Config(), batch=(4, 10))

    def test_integral_float_batch_bounds_are_frames(self):
        g = build_graph([[det(3, 0.0)]], Config(), batch=(0.0, 15.0))
        assert g.batch == (0, 15) and all(type(b) is int for b in g.batch)

    @pytest.mark.parametrize("batch", [(0.9, 2.5), (0, 2.5), (0.5, 3), (0, float("nan")), (0, float("inf"))])
    def test_fractional_batch_bound_rejected(self, batch):
        # Truncating (0.9, 2.5) to (0, 2) would free exits at frame 2, which
        # a batch ending at 2.5 charges.
        with pytest.raises(ValueError, match=r"batch \(.*\) bounds must be integers"):
            build_graph([[det(1, 0.0), det(2, 1.0)]], Config(), batch=batch)


class TestInputTrajectories:
    def test_tracks_round_trip_as_feasible_cover(self):
        tracks = [
            [det(1, 0.0), det(2, 1.0), det(3, 2.0)],
            [det(2, 8.0), det(3, 8.5)],
        ]
        g = build_graph(tracks, Config())
        ts = input_trajectories(g)
        assert validate_trajectory_set(g, ts) == []
        assert [t.nodes for t in ts] == [(1, 2, 3), (4, 5)]

    def test_graph_batch_decides_free_entries_and_exits(self):
        tracks = [[det(1, 0.0), det(2, 1.0)], [det(2, 8.0), det(3, 8.5)]]
        lane = Pattern(((-1.0, 0.0), (10.0, 0.0)), 1.0)
        g = build_graph(tracks, Config())
        first, second = input_trajectories(g)
        score = lambda graph, i, j: edge_score(graph, i, j, lane, Config())
        assert score(g, SOURCE_NODE, first.nodes[0]) == ScorePair(0.0, 0.0)
        assert score(g, first.nodes[-1], SINK_NODE).total > 0.0
        assert score(g, SOURCE_NODE, second.nodes[0]).total > 0.0
        assert score(g, second.nodes[-1], SINK_NODE) == ScorePair(0.0, 0.0)
        widened = build_graph(tracks, Config(), batch=(0, 4))
        assert input_trajectories(widened) == (first, second)
        for t in (first, second):
            assert score(widened, SOURCE_NODE, t.nodes[0]).total > 0.0
            assert score(widened, t.nodes[-1], SINK_NODE).total > 0.0

    def test_empty_input_tracks_are_skipped(self):
        a = [det(1, 0.0), det(2, 1.0)]
        b = [det(2, 8.0), det(3, 8.5)]
        g = build_graph([a, b], Config())
        for tracks in ([[], a, b], [a, [], b], [a, b, []]):
            padded = build_graph(tracks, Config())
            assert input_trajectories(padded) == input_trajectories(g)
            assert padded.source_tracks == ((1, 2), (3, 4))
            assert edge_set(padded) == edge_set(g)

    @pytest.mark.parametrize("preset", [crossing_scene, fragmented_corridor_scene, two_flow_scene])
    def test_follow_the_corrupted_lists(self, preset):
        scene, corrupted = preset(seed=0)
        g = build_graph(corrupted, Config(), batch=scene.meta.batch)
        adopted = tracks_from_trajectories(g, input_trajectories(g))
        shape = lambda tracks: [[(d.frame, d.pos) for d in t] for t in tracks]
        assert shape(adopted) == shape(corrupted)
        assert shape(adopted) != shape(scene.tracks)

    def test_requires_source_tracks(self):
        g = DetectionGraph(
            (Detection(1, (0.0, 0.0)),),
            frozenset({(SOURCE_NODE, 1), (1, SINK_NODE)}),
        )
        with pytest.raises(ValueError, match="source track"):
            input_trajectories(g)
