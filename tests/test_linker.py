"""Pattern-guided re-linking of detections into trajectories."""
import inspect

import numpy as np
import pytest

from ptrack import (
    Config,
    Detection,
    DetectionGraph,
    EMPTY_PATTERN,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    build_graph,
    build_link_model,
    link,
    objective,
    validate_trajectory_set,
)
import ptrack.linker as linker
from ptrack.linker import require_empty_pattern
from ptrack.scoring import ratio_bracket

from oracles import best_cover_objective, enumerate_assignments

LANE = Pattern(((-3.0, 0.0), (3.0, 0.0)), 1.0)
POLE = Pattern(((0.0, -3.0), (0.0, 2.0)), 1.0)


def det(frame, x, y):
    return Detection(frame, (float(x), float(y)))


def chain_track(xs, y=0.0, start=1):
    return [det(start + k, x, y) for k, x in enumerate(xs)]


def linked_start(monkeypatch, cfg):
    """The level that `link` starts the ratio search from."""
    real = linker.maximize_ratio
    seen = []

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments["start"])
        return real(*args, **kwargs)

    monkeypatch.setattr(linker, "maximize_ratio", recording)
    g = build_graph([chain_track([-2.0, 0.0, 2.0])], cfg)
    link(g, (EMPTY_PATTERN, LANE), cfg)
    (start,) = seen
    return start


class TestRatioBounds:
    def test_non_negative_empty_rate_keeps_unit_bracket(self, monkeypatch):
        assert ratio_bracket(Config()) == (0.0, 1.0)
        assert ratio_bracket(Config(empty_rate=1.0)) == (0.0, 1.0)
        assert linked_start(monkeypatch, Config()) == 0.0

    def test_negative_empty_rate_widens_downward(self, monkeypatch):
        assert ratio_bracket(Config.unsupervised()) == (-5.0, 1.0)
        assert linked_start(monkeypatch, Config.unsupervised()) == -5.0

    def test_empty_rate_above_one_widens_upward(self, monkeypatch):
        # On the empty pattern aligned is empty_rate times total, so the
        # ratio can reach the empty rate itself.
        assert ratio_bracket(Config(empty_rate=3.0)) == (0.0, 3.0)
        assert linked_start(monkeypatch, Config(empty_rate=3.0)) == 0.0

    def test_empty_rate_above_one_is_reached_on_two_flows(self):
        from ptrack.synth import two_flow_scene

        scene, corrupted = two_flow_scene()
        cfg = Config(empty_rate=3.0)
        g = build_graph(corrupted, cfg, batch=scene.meta.batch)
        res = link(g, (EMPTY_PATTERN,) + scene.patterns, cfg)
        assert not res.lower_bound_only
        assert res.alpha_star > 2.99
        assert set(res.full_assignment) == {0}


class TestRequireEmptyPattern:
    def test_finds_the_index(self):
        assert require_empty_pattern((LANE, EMPTY_PATTERN)) == 1

    def test_missing_raises(self):
        with pytest.raises(ValueError, match="found 0"):
            require_empty_pattern((LANE,))

    def test_duplicate_raises(self):
        with pytest.raises(ValueError, match="found 2"):
            require_empty_pattern((EMPTY_PATTERN, EMPTY_PATTERN, LANE))


def test_model_has_one_variable_per_pattern_edge_pair():
    g = build_graph([chain_track([-2.0, -1.0, 0.0])], Config())
    patterns = (EMPTY_PATTERN, LANE, POLE)
    model, triples = build_link_model(g, patterns, Config())
    assert model.num_vars == len(g.edges) * len(patterns)
    assert len(set(triples)) == model.num_vars


def test_detection_rows_balance_entries_and_exits():
    """No entry/exit balance row is needed: the per-detection rows imply it.

    The model holds only those `==` rows; nothing bounds the total score.
    """
    cases = [
        ([chain_track([-2.0, 0.0, 2.0])], (EMPTY_PATTERN,)),
        ([chain_track([-2.0, 0.0]), chain_track([0.0, 2.0], start=2)], (EMPTY_PATTERN,)),
        ([chain_track([-2.0, 0.0])], (EMPTY_PATTERN, LANE)),
        ([[det(1, 0.0, 0.0)], [det(2, 1.0, 0.0)]], (EMPTY_PATTERN, LANE)),
        ([[det(1, 0.0, 0.0)], [det(2, 1.0, 0.0)], [det(2, 1.0, 1.0)]], (EMPTY_PATTERN,)),
    ]
    for tracks, patterns in cases:
        g = build_graph(tracks, Config())
        model, triples = build_link_model(g, patterns, Config())
        assert model.num_vars <= 14
        assert all(c.sense == "==" for c in model.constraints)
        assert len(model.constraints) == len(g.detections) * (2 + len(patterns))
        entries = [k for k, (_, i, _) in enumerate(triples) if i == SOURCE_NODE]
        exits = [k for k, (_, _, j) in enumerate(triples) if j == SINK_NODE]
        feasible = list(enumerate_assignments(model))
        assert feasible
        for x in feasible:
            assert sum(x[k] for k in entries) == sum(x[k] for k in exits)


class TestLinkBasics:
    def test_single_chain_on_pattern_is_fully_aligned(self):
        g = build_graph([chain_track([-2.0, 0.0, 2.0])], Config())
        res = link(g, (EMPTY_PATTERN, LANE), Config())
        assert res.alpha_star == 1.0
        assert tuple(res.assignment) == (1,)
        assert [t.nodes for t in res.trajectories] == [(1, 2, 3)]
        assert not res.lower_bound_only

    def test_far_off_pattern_goes_to_empty(self):
        g = build_graph([chain_track([-2.0, 0.0, 2.0], y=50.0)], Config())
        res = link(g, (EMPTY_PATTERN, LANE), Config())
        assert res.alpha_star == pytest.approx(0.3, rel=1e-12)
        assert tuple(res.full_assignment) == (0,)
        assert res.trajectories == ()
        assert [t.nodes for t in res.all_trajectories] == [(1, 2, 3)]

    def test_empty_only_pattern_set(self):
        g = build_graph([chain_track([-2.0, 0.0, 2.0])], Config())
        assert link(g, (EMPTY_PATTERN,), Config()).alpha_star == pytest.approx(
            0.3, rel=1e-12
        )
        res = link(g, (EMPTY_PATTERN,), Config.unsupervised())
        assert res.alpha_star == pytest.approx(-3.0, rel=1e-12)

    def test_keep_empty_config(self):
        g = build_graph([chain_track([-2.0, 0.0, 2.0], y=50.0)], Config())
        res = link(g, (EMPTY_PATTERN, LANE), Config(remove_empty=False))
        assert res.trajectories == res.all_trajectories
        assert tuple(res.assignment) == tuple(res.full_assignment) == (0,)

    @pytest.mark.parametrize("batch", [None, (0, 5)], ids=["span", "wider"])
    def test_still_objects_give_the_fewest_paths(self, batch):
        # Two objects stand still at (0, 0) and (1, 0) over frames 1-4: on
        # the empty pattern every cover with a positive total ties at the
        # empty rate, and at equal ratio the fewest trajectories win.  Two
        # paths, not eight singletons.
        still = [[det(f, x, 0.0) for f in range(1, 5)] for x in (0.0, 1.0)]
        g = build_graph(still, Config(), batch=batch)
        res = link(g, (EMPTY_PATTERN,), Config())
        assert res.alpha_star == pytest.approx(0.3, rel=1e-12)
        assert len(res.all_trajectories) == 2
        assert validate_trajectory_set(g, res.all_trajectories) == []

    def test_entry_edges_carry_the_tie_break(self):
        # One unit per entry edge, less the total at a weight that keeps
        # the totals of a whole cover below half a unit.
        g = build_graph([chain_track([-2.0, 0.0, 2.0]), chain_track([-1.0, 1.0], y=3.0)], Config())
        model, triples = build_link_model(g, (EMPTY_PATTERN, LANE, POLE), Config())
        entries = np.array([float(i == SOURCE_NODE) for _, i, _ in triples])
        moving = model.denom != 0.0
        weight = (entries - model.tiebreak)[moving] / model.denom[moving]
        assert np.allclose(weight, weight[0])
        assert 0.0 < weight[0] * np.abs(model.denom).sum() < 0.5
        assert (model.tiebreak[~moving] == entries[~moving]).all()

    def test_decoded_solution_scores_its_alpha(self):
        tracks = [chain_track([-2.0, -1.0, 0.0]), chain_track([0.5, 1.2, 2.0], y=0.4)]
        g = build_graph(tracks, Config())
        patterns = (EMPTY_PATTERN, LANE)
        res = link(g, patterns, Config())
        assert validate_trajectory_set(g, res.all_trajectories) == []
        value = objective(g, res.all_trajectories, patterns, res.full_assignment, Config())
        assert value == pytest.approx(res.alpha_star, rel=1e-9)


def test_identity_switch_gets_repaired():
    from ptrack.synth import crossing_scene

    scene, corrupted = crossing_scene(seed=0)
    g = build_graph(corrupted, Config(), batch=scene.meta.batch)
    res = link(g, (EMPTY_PATTERN,) + scene.patterns, Config())

    # corrupted input mixes the two corridors; the repair must reproduce the
    # clean per-agent tracks exactly (the scene has no lateral noise)
    repaired = {
        frozenset((g.detection(v).frame, g.detection(v).pos) for v in t.nodes)
        for t in res.trajectories
    }
    truth = {frozenset((d.frame, d.pos) for d in track) for track in scene.tracks}
    assert repaired == truth
    corrupted_shapes = {
        frozenset((d.frame, d.pos) for d in track) for track in corrupted
    }
    assert corrupted_shapes != truth
    for traj, p in zip(res.trajectories, res.assignment):
        assert p != 0


def test_more_patterns_never_hurt_the_certified_bound():
    tracks = [chain_track([-2.0, -0.8, 0.5], y=0.3), chain_track([-1.0, 0.0, 1.0], y=-2.0)]
    g = build_graph(tracks, Config())
    narrow = link(g, (EMPTY_PATTERN, LANE), Config())
    wide = link(g, (EMPTY_PATTERN, LANE, POLE), Config())
    assert wide.alpha_star >= narrow.alpha_star - 1e-9


class TestLinkErrors:
    def test_pattern_set_needs_empty(self):
        g = build_graph([chain_track([0.0, 1.0])], Config())
        with pytest.raises(ValueError, match="empty pattern"):
            link(g, (LANE,), Config())

    def test_detection_without_exit_edge(self):
        g = DetectionGraph(
            (Detection(1, (0.0, 0.0)),),
            frozenset({(SOURCE_NODE, 1)}),
        )
        with pytest.raises(ValueError, match="no outgoing edge"):
            link(g, (EMPTY_PATTERN,), Config())

    def test_detection_without_entry_edge(self):
        g = DetectionGraph(
            (Detection(1, (0.0, 0.0)),),
            frozenset({(1, SINK_NODE)}),
        )
        with pytest.raises(ValueError, match="no incoming edge"):
            link(g, (EMPTY_PATTERN,), Config())

    def test_first_detection_without_an_edge_is_named(self):
        # Detection 1 lacks an entry, detection 2 lacks both edges: the
        # lowest id is named, its missing exit before its missing entry.
        dets = (Detection(1, (0.0, 0.0)), Detection(1, (5.0, 0.0)))
        g = DetectionGraph(dets, frozenset({(1, SINK_NODE)}))
        with pytest.raises(ValueError, match="^detection 1 has no incoming edge$"):
            link(g, (EMPTY_PATTERN,), Config())
        g = DetectionGraph(dets, frozenset({(SOURCE_NODE, 2)}))
        with pytest.raises(ValueError, match="^detection 1 has no outgoing edge$"):
            link(g, (EMPTY_PATTERN,), Config())

    @pytest.mark.parametrize("budget", [float("nan"), -1.0])
    def test_time_budget_must_be_positive_and_finite(self, budget):
        g = build_graph([chain_track([-2.0, 0.0, 2.0])], Config())
        with pytest.raises(ValueError, match="time_budget"):
            link(g, (EMPTY_PATTERN, LANE), Config(), time_budget=budget)

    def test_zero_score_instance_is_degenerate(self):
        g = build_graph([[det(1, 0.0, 0.0)]], Config())
        with pytest.raises(ValueError, match="degenerate"):
            link(g, (EMPTY_PATTERN,), Config())


def test_small_graphs_match_exhaustive_cover_search():
    """The linker's optimum equals brute force over every chain cover and
    pattern labeling, on graphs small enough to enumerate."""
    rng = np.random.default_rng(5)
    patterns = (EMPTY_PATTERN, Pattern(((0.0, 0.0), (6.0, 0.0)), 1.5),
                Pattern(((0.0, -1.0), (6.0, 1.0)), 1.5))
    cfg = Config(link_radius=3.0, join_radius=3.0)
    done = 0
    while done < 6:
        tracks = []
        for _ in range(int(rng.integers(2, 4))):
            n = int(rng.integers(1, 4))
            start = int(rng.integers(1, 3))
            xs = np.sort(rng.uniform(0.0, 6.0, n))
            ys = rng.uniform(-1.0, 1.0, n)
            tracks.append([det(start + k, xs[k], ys[k]) for k in range(n)])
        dets = sum(len(t) for t in tracks)
        if dets > 7:
            continue
        frames = [d.frame for t in tracks for d in t]
        g = build_graph(tracks, cfg, batch=(min(frames) - 1, max(frames) + 1))
        want = best_cover_objective(g, patterns, cfg)
        if want is None:
            continue
        res = link(g, patterns, cfg)
        assert abs(res.alpha_star - want) <= 1e-9
        assert validate_trajectory_set(g, res.all_trajectories) == []
        done += 1


def test_empty_rate_above_one_matches_exhaustive_cover_search():
    """With empty_rate > 1 the optimum lies above 1; the linker must still
    find it, with the batch both wider than the frames and equal to them."""
    patterns = (EMPTY_PATTERN, Pattern(((0.0, 0.0), (6.0, 0.0)), 1.5))
    rng = np.random.default_rng(11)
    done = 0
    while done < 4:
        tracks = [
            [det(1 + k, x, y) for k, (x, y) in enumerate(zip(np.sort(rng.uniform(0.0, 6.0, n)),
                                                            rng.uniform(-1.0, 1.0, n)))]
            for n in rng.integers(2, 4, size=2)
        ]
        frames = [d.frame for t in tracks for d in t]
        for cfg in (Config(empty_rate=1.5), Config(empty_rate=3.0, link_radius=3.0)):
            for batch in ((min(frames) - 1, max(frames) + 1), None):
                g = build_graph(tracks, cfg, batch=batch)
                want = best_cover_objective(g, patterns, cfg)
                res = link(g, patterns, cfg)
                assert want > 1.0
                assert abs(res.alpha_star - want) <= 1e-9
        done += 1
