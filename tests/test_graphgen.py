"""Detection graph assembly from input track tables."""
import math

import numpy as np
import pytest

from ptrack import (
    Config,
    Detection,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    ScorePair,
    TrackTable,
    build_graph,
    input_trajectories,
    read_homography,
    read_tracks,
    tracks_from_trajectories,
    validate_trajectory_set,
)
from ptrack.synth import crossing_scene, fragmented_corridor_scene, two_flow_scene

from helpers import bench_scenes, edge_score, edge_set
from reference_graph import reference_build_graph

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1
# The configs the columnar build is checked under: the defaults, a join gap
# of 50 and of 2 000 000 frames, and a tight link radius with a wide join.
CONFIGS = {
    "default": Config(),
    "fps25": Config(fps=25),
    "fps1e6": Config(fps=1e6),
    "radii": Config(link_radius=0.5, join_radius=9),
}


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

    def test_the_first_step_back_is_named(self):
        # Track 2, after an empty one, is the first to step back: at its
        # second detection, or at its third; track 3 steps back too.
        for second, frame in ((4, 4), (5, 2)):
            tracks = [[det(1, 0.0), det(2, 0.0)], [], [det(4, 0.0), det(second, 0.0), det(2, 0.0)],
                      [det(9, 0.0), det(8, 0.0)]]
            for build in (build_graph, reference_build_graph):
                with pytest.raises(ValueError, match=rf"^track 2 frames are not strictly increasing at frame {frame}$"):
                    build(tracks, Config())

    @pytest.mark.parametrize("frame", [INT64_MAX + 1, INT64_MIN - 1, 2**70])
    def test_frames_beyond_int64_rejected(self, frame):
        # As every reader and `eval` refuse them: the graph's frames are an int64 column.
        with pytest.raises(ValueError, match="frames must fit in int64"):
            build_graph([[det(0, 0.0)], [det(frame, 0.0)]], Config())

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
        assert g.detections == tuple(d for t in tracks for d in t)
        assert input_trajectories(g).nodes == ((1, 2), (3,))

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
        assert ts.nodes == ((1, 2, 3), (4, 5))

    def test_graph_batch_decides_free_entries_and_exits(self):
        tracks = [[det(1, 0.0), det(2, 1.0)], [det(2, 8.0), det(3, 8.5)]]
        lane = Pattern(((-1.0, 0.0), (10.0, 0.0)), 1.0)
        g = build_graph(tracks, Config())
        first, second = input_trajectories(g).nodes
        score = lambda graph, i, j: edge_score(graph, i, j, lane, Config())
        assert score(g, SOURCE_NODE, first[0]) == ScorePair(0.0, 0.0)
        assert score(g, first[-1], SINK_NODE).total > 0.0
        assert score(g, SOURCE_NODE, second[0]).total > 0.0
        assert score(g, second[-1], SINK_NODE) == ScorePair(0.0, 0.0)
        widened = build_graph(tracks, Config(), batch=(0, 4))
        assert input_trajectories(widened).nodes == (first, second)
        for t in (first, second):
            assert score(widened, SOURCE_NODE, t[0]).total > 0.0
            assert score(widened, t[-1], SINK_NODE).total > 0.0

    def test_empty_input_tracks_are_skipped(self):
        a = [det(1, 0.0), det(2, 1.0)]
        b = [det(2, 8.0), det(3, 8.5)]
        g = build_graph([a, b], Config())
        for tracks in ([[], a, b], [a, [], b], [a, b, []]):
            padded = build_graph(tracks, Config())
            assert input_trajectories(padded) == input_trajectories(g)
            assert input_trajectories(padded).nodes == ((1, 2), (3, 4))
            assert edge_set(padded) == edge_set(g)

    @pytest.mark.parametrize("preset", [crossing_scene, fragmented_corridor_scene, two_flow_scene])
    def test_follow_the_corrupted_lists(self, preset):
        scene, corrupted = preset(seed=0)
        g = build_graph(corrupted, Config(), batch=scene.meta.batch)
        adopted = tracks_from_trajectories(g, input_trajectories(g)).tracks()
        shape = lambda tracks: [[(d.frame, d.pos) for d in t] for t in tracks]
        assert shape(adopted) == shape(corrupted)
        assert shape(adopted) != shape(scene.tracks)


@pytest.fixture(scope="module")
def workload_inputs(tmp_path_factory):
    """Every benchmark workload's input tracks at seeds 0 and 1, read from its
    files as the command line reads them: {(workload, seed, side): (tracks, batch)}."""
    scenes = bench_scenes()
    inputs = {}
    for name, builder in scenes.BUILDERS.items():
        for seed in (0, 1):
            for s in builder(seed, tmp_path_factory.mktemp(f"{name}{seed}")):
                homography = read_homography(s.files["homography"]) if "homography" in s.files else None
                batch = None if name == "eval-crowd" else s.batch
                for side in ("gt", "broken", "pred"):
                    if side in s.files:
                        h = homography if side == "pred" else None
                        inputs.setdefault((name, seed, side), []).append((read_tracks(s.files[side], "auto", h), batch))
    return inputs


def assert_same_graph(tracks, cfg, batch=None):
    """`build_graph` of the lists and of their `TrackTable` give the
    reference's edges, detections, frames, positions, input trajectories and batch."""
    want = reference_build_graph(tracks, cfg, batch)
    for got in (build_graph(tracks, cfg, batch), build_graph(TrackTable.from_tracks(tracks), cfg, batch)):
        assert got.edges.dtype == got.frames.dtype == np.int64
        assert np.array_equal(got.edges, want.edges)
        assert got.detections == want.detections
        assert np.array_equal(got.frames, want.frames) and np.array_equal(got.positions, want.positions)
        assert input_trajectories(got) == input_trajectories(want)
        assert got.batch == want.batch
    return got


class TestAgainstReference:
    """The columnar build gives the graph the former pair-by-pair build gave."""

    @pytest.mark.parametrize("config", CONFIGS)
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("workload", ["track-noisy", "supervised-dense", "unsupervised-two-flows"])
    def test_workload_scenes(self, workload_inputs, workload, seed, config):
        for side in ("gt", "broken"):
            for tracks, batch in workload_inputs[(workload, seed, side)]:
                assert_same_graph(tracks, CONFIGS[config], batch)

    @pytest.mark.parametrize(
        "seed, config", [(0, "default"), (0, "fps25"), (0, "fps1e6"), (0, "radii"), (1, "default")]
    )
    def test_crowd_truth_and_prediction(self, workload_inputs, seed, config):
        for side in ("gt", "pred"):
            ((tracks, _),) = workload_inputs[("eval-crowd", seed, side)]
            g = assert_same_graph(tracks, CONFIGS[config])
            assert len(g.detections) == 24_400

    @pytest.mark.parametrize("config", CONFIGS)
    def test_random_scenes_with_partners_at_each_radius(self, config):
        # Integer positions put many pairs at exactly a radius.  Each track's
        # end gets partners at, one ulp inside and one ulp outside the link
        # radius one frame on, and the join radius 1..3 frames on.
        cfg = CONFIGS[config]
        rng = np.random.default_rng(31)
        for _ in range(40):
            tracks = [[det(0, 0.0, 0.0)]]
            for _ in range(int(rng.integers(1, 9))):
                start = int(rng.integers(0, 6))
                frames = np.cumsum(rng.integers(1, 3, size=int(rng.integers(0, 5)))) + start
                tracks.append([det(int(f), float(rng.integers(0, 8)), float(rng.integers(0, 8))) for f in frames])
            for track in [t for t in tracks if t]:
                end = track[-1]
                for radius, after in ((cfg.link_radius, 1), (cfg.join_radius, int(rng.integers(1, 4)))):
                    x, y = end.pos
                    for side in (-math.inf, math.inf):
                        tracks.append([det(end.frame + after, math.nextafter(x + radius, side), y)])
                        tracks.append([det(end.frame + after, x, math.nextafter(y - radius, side))])
                    tracks.append([det(end.frame + after, x + radius, y)])
            assert_same_graph(tracks, cfg)

    @pytest.mark.parametrize("config", [*CONFIGS.values(), Config(join_gap=1e30)])
    def test_frames_at_the_int64_limits_wrap_no_edge(self, config):
        # Rows at the last frame and the first, in one place: the next frame
        # of the last is not the first, and a gap of 2**64 - 1 frames is
        # joined only under a join gap that long.
        near = [det(INT64_MIN, 0.0), det(INT64_MIN + 1, 0.5)]
        far = [det(INT64_MAX - 1, 0.0), det(INT64_MAX, 0.5)]
        tracks = [far, near, [det(INT64_MIN, 1.0)], [det(INT64_MAX, 1.0)], [det(INT64_MAX - 1, 0.2)]]
        g = assert_same_graph(tracks, config)
        frames = g.frames
        inner = g.edges[(g.edges > 0).all(axis=1)]
        assert (frames[inner[:, 1] - 1] > frames[inner[:, 0] - 1]).all()
        longest = inner[(frames[inner[:, 0] - 1] == INT64_MIN) & (frames[inner[:, 1] - 1] == INT64_MAX)]
        assert longest.tolist() == ([[5, 6]] if config.join_gap_frames() >= 2**64 - 1 else [])
        # Links into the last frame and out of the first stay.
        assert {(7, 6), (5, 4)} <= edge_set(g)
