"""Synthetic scene generation and controlled corruption."""
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import ptrack.synth
from ptrack import Config, Detection, Pattern, build_graph, input_trajectories
from ptrack.metrics import idf1
from ptrack.synth import (
    Fragment,
    Merge,
    Swap,
    corrupt,
    crossing_scene,
    fragmented_corridor_scene,
    generate_scene,
    two_flow_scene,
)

LANE = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)


def shapes(tracks):
    return Counter((d.frame, d.pos) for t in tracks for d in t)


def shift_frames(track, by):
    return [replace(d, frame=d.frame + by) for d in track]


class TestGenerateScene:
    def test_no_jitter_walks_the_centerline(self):
        scene = generate_scene((LANE,), agents=((0, 1),), speed=2.0)
        (track,) = scene.tracks
        assert [d.frame for d in track] == [1, 2, 3, 4, 5, 6]
        assert [d.pos for d in track] == [(2.0 * k, 0.0) for k in range(6)]
        # the agent's one track is its list: the graph adopts it whole
        graph = build_graph(scene.track_lists(), Config(), scene.meta.batch)
        assert input_trajectories(graph).nodes == ((1, 2, 3, 4, 5, 6),)
        assert scene.meta.batch == (0, 7)
        assert scene.meta.pattern_of_agent == (0,)

    def test_batch_pads_the_observed_span(self):
        scene = generate_scene((LANE,), agents=((0, 5), (0, 2)), speed=5.0)
        frames = [d.frame for t in scene.tracks for d in t]
        assert scene.meta.batch == (min(frames) - 1, max(frames) + 1)

    def test_same_seed_reproduces(self):
        kw = dict(agents=((0, 1),), speed=1.0, lateral_sigma=0.3)
        a = generate_scene((LANE,), seed=7, **kw)
        b = generate_scene((LANE,), seed=7, **kw)
        assert shapes(a.tracks) == shapes(b.tracks)
        c = generate_scene((LANE,), seed=8, **kw)
        assert shapes(a.tracks) != shapes(c.tracks)

    def test_lateral_offsets_stay_inside_the_corridor(self):
        wide = Pattern(((0.0, 0.0), (10000.0, 0.0)), 1.0)
        scene = generate_scene(
            (wide,), agents=((0, 1),), speed=1.0, lateral_sigma=wide.width / 3.0
        )
        ys = np.array([d.pos[1] for d in scene.tracks[0]])
        assert len(ys) > 10_000
        assert np.max(np.abs(ys)) < wide.width
        assert 0.2 < np.std(ys) < 0.45

    def test_speed_jitter_varies_the_spacing(self):
        scene = generate_scene((LANE,), agents=((0, 1),), speed=1.0, speed_jitter=0.3, seed=3)
        xs = np.array([d.pos[0] for d in scene.tracks[0]])
        assert np.std(np.diff(xs)) > 0.01

    def test_agent_validation(self):
        with pytest.raises(ValueError, match="no agents"):
            generate_scene((LANE,), agents=())
        from ptrack import EMPTY_PATTERN

        with pytest.raises(ValueError, match="empty pattern"):
            generate_scene((EMPTY_PATTERN,), agents=((0, 1),))

    @pytest.mark.parametrize("name", ["speed", "fps"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf"), True, "1"])
    def test_speed_and_fps_must_be_positive(self, monkeypatch, name, bad):
        # A speed of 0 or below never reaches the end of the pattern: should
        # the check go, the walk stops at a cap instead of running forever.
        made = []

        def capped(*args):
            made.append(None)
            if len(made) > 1000:
                raise RuntimeError("the walk does not end")
            return Detection(*args)

        monkeypatch.setattr(ptrack.synth, "Detection", capped)
        with pytest.raises(ValueError, match=name):
            generate_scene((LANE,), agents=((0, 1),), **{name: bad})

    def test_numpy_speed_and_fps_are_taken(self):
        scene = generate_scene((LANE,), agents=((0, 1),), speed=np.float64(2.0), fps=np.float64(1.0))
        assert scene == generate_scene((LANE,), agents=((0, 1),), speed=2.0, fps=1)


class TestCorrupt:
    def fixture(self):
        scene = generate_scene(
            (LANE, Pattern(((0.0, 6.0), (10.0, 6.0)), 1.0)),
            agents=((0, 1), (1, 1)),
            speed=1.0,
        )
        return scene.track_lists()

    def test_no_ops_is_identity(self):
        tracks = self.fixture()
        out = corrupt(tracks, [])
        assert [[(d.frame, d.pos) for d in t] for t in out] == [
            [(d.frame, d.pos) for d in t] for t in tracks
        ]

    def test_ops_move_detections_but_never_edit_them(self):
        tracks = self.fixture()
        out = corrupt(tracks, [Swap(0, 1, frame=5), Fragment(1, frame=8)])
        assert shapes(out) == shapes(tracks)

    def test_swap_exchanges_tails(self):
        tracks = self.fixture()
        out = corrupt(tracks, [Swap(0, 1, frame=5)])
        assert len(out) == 2
        assert [d.pos[1] for d in out[0]] == [0.0] * 4 + [6.0] * 7
        assert [d.frame for d in out[0]] == list(range(1, 12))

    def test_swap_picks_a_frame_when_unspecified(self):
        tracks = self.fixture()
        out = corrupt(tracks, [Swap(0, 1)], seed=5)
        assert shapes(out) == shapes(tracks)
        assert any(
            len({d.pos[1] for d in t}) > 1 for t in out
        ), "the swap must actually mix the lanes"

    def test_fragment_appends_the_tail(self):
        tracks = self.fixture()
        out = corrupt(tracks, [Fragment(0, frame=4)])
        assert len(out) == 3
        assert [d.frame for d in out[0]] == [1, 2, 3]
        assert [d.frame for d in out[2]] == list(range(4, 12))

    def test_merge_concatenates_and_drops_the_slot(self):
        a = generate_scene((LANE,), agents=((0, 1),), speed=2.0).tracks[0]
        b = shift_frames(a, 10)
        out = corrupt([list(a), b], [Merge(0, 1)])
        assert len(out) == 1
        assert [d.frame for d in out[0]] == [1, 2, 3, 4, 5, 6, 11, 12, 13, 14, 15, 16]

    def test_merge_rejects_time_overlap(self):
        tracks = self.fixture()
        with pytest.raises(ValueError, match="overlaps in time"):
            corrupt(tracks, [Merge(0, 1)])

    def test_conflicting_ops_rejected(self):
        tracks = self.fixture()
        with pytest.raises(ValueError, match="conflicting ops at frame 5 on track 0"):
            corrupt(tracks, [Fragment(0, frame=5), Swap(0, 1, frame=5)])

    def test_swap_may_not_empty_a_track(self):
        tracks = self.fixture()
        with pytest.raises(ValueError, match="leaves a track empty"):
            corrupt(tracks, [Swap(0, 1, frame=1)])

    def test_disjoint_tracks_have_no_swap_frame(self):
        a = generate_scene((LANE,), agents=((0, 1),), speed=2.0).track_lists()[0]
        b = shift_frames(a, 20)
        with pytest.raises(ValueError, match="no valid frame for swap"):
            corrupt([a, b], [Swap(0, 1)])

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="unknown corruption op"):
            corrupt(self.fixture(), ["shuffle"])


class TestPresets:
    def test_crossing_swaps_identities(self):
        scene, corrupted = crossing_scene(seed=0)
        assert len(scene.tracks) == 2
        assert len(corrupted) == 2
        assert shapes(corrupted) == shapes(scene.tracks)
        score = idf1(scene.track_lists(), corrupted).idf1
        assert score < 0.8

    def test_corridor_fragments_a_track(self):
        scene, corrupted = fragmented_corridor_scene(seed=0)
        assert len(scene.tracks) == 2
        assert len(corrupted) == 3
        assert shapes(corrupted) == shapes(scene.tracks)

    def test_two_flows_carry_six_agents(self):
        scene, corrupted = two_flow_scene(seed=0)
        assert len(scene.tracks) == 6
        assert len(corrupted) == 6
        assert set(scene.meta.pattern_of_agent) == {0, 1}
        assert shapes(corrupted) == shapes(scene.tracks)
