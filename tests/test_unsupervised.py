"""Alternating mining/linking loop and its split-half model selection."""
import dataclasses
from types import SimpleNamespace

import pytest

import ptrack.unsupervised as unsupervised
from helpers import crossing_family, mark_lower_bound, mark_proxy_lower_bound
from ptrack import (
    Config,
    Detection,
    EMPTY_PATTERN,
    Swap,
    Trajectory,
    build_graph,
    default_schedule,
    generate_candidates,
    input_trajectories,
    run_unsupervised,
    split_half_score,
    validate_trajectory_set,
)
from ptrack.synth import two_flow_scene
from reference_unsupervised import reference_run_unsupervised


def det(frame, x, y=0.0):
    return Detection(id=0, frame=frame, pos=(float(x), float(y)))


def flow_fixture(cfg):
    scene, corrupted = two_flow_scene(seed=0)
    g = build_graph(corrupted, cfg, batch=scene.meta.batch)
    return scene, g, input_trajectories(g)


class TestSplitHalfScore:
    def test_clean_tracks_score_perfectly(self):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        scene, _ = two_flow_scene(seed=0)
        g = build_graph(scene.track_lists(), cfg, batch=scene.meta.batch)
        proxy, _ = split_half_score(g, input_trajectories(g), cfg)
        assert proxy == pytest.approx(1.0, rel=1e-9)

    def test_unrelated_halves_fall_back_to_empty_rate(self):
        # early half runs along a horizontal corridor, late half along a far
        # vertical one, so neither half's patterns explain the other
        tracks = [
            [det(1 + k, 2.0 * k, 0.0) for k in range(3)],
            [det(2 + k, 2.0 * k, 0.5) for k in range(3)],
            [det(6 + k, 30.0, 2.0 * k) for k in range(3)],
            [det(7 + k, 30.5, 2.0 * k) for k in range(3)],
        ]
        cfg = Config(candidate_widths=(1.0,))
        g = build_graph(tracks, cfg, batch=(0, 10))
        proxy, _ = split_half_score(g, input_trajectories(g), cfg)
        assert proxy == pytest.approx(cfg.empty_rate, abs=1e-12)
        neg = Config.unsupervised(candidate_widths=(1.0,))
        # off-pattern coverage (aligned 0) beats the negative empty rate
        assert split_half_score(g, input_trajectories(g), neg)[0] == 0.0

    @pytest.mark.parametrize("hit", [None, 0, 1])
    def test_a_budget_hit_in_either_half_is_reported(self, monkeypatch, hit):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        scene, _ = two_flow_scene(seed=0)
        g = build_graph(scene.track_lists(), cfg, batch=scene.meta.batch)
        mined = []
        solve = unsupervised.mine

        def mine(*args, **kwargs):
            result = solve(*args, **kwargs)
            mined.append(result)
            return dataclasses.replace(result, lower_bound_only=len(mined) - 1 == hit)

        monkeypatch.setattr(unsupervised, "mine", mine)
        proxy, lower_bound_only = split_half_score(g, input_trajectories(g), cfg)
        assert len(mined) == 2
        assert lower_bound_only == (hit is not None)
        assert proxy == pytest.approx(1.0, rel=1e-9)

    def test_one_sided_split_is_degenerate(self):
        cfg = Config()
        g = build_graph([[det(1, 0.0), det(2, 1.0), det(3, 2.0)]], cfg, batch=(0, 10))
        with pytest.raises(ValueError, match="degenerate split"):
            split_half_score(g, input_trajectories(g), cfg)


class TestDefaultSchedule:
    def test_doubles_from_cheapest_candidates(self):
        cfg = Config(candidate_widths=(0.5, 1.0))
        _, g, ts = flow_fixture(cfg)
        sched = default_schedule(g, ts, cfg, levels=4)
        assert len(sched) == 4
        costs = [
            p.cost for p in generate_candidates(g, ts, cfg).patterns if not p.is_empty
        ]
        assert sched[0] == pytest.approx(2.5 * min(costs))
        for a, b in zip(sched, sched[1:]):
            assert b == pytest.approx(2.0 * a)

    def test_no_candidates_rejected(self):
        cfg = Config()
        g = build_graph([[det(0, 0.0), det(1, 2.0)]], cfg, batch=(0, 1))
        with pytest.raises(ValueError, match="no candidate patterns"):
            default_schedule(g, input_trajectories(g), cfg)


class TestRunUnsupervised:
    def test_zero_budget_reaches_a_fixed_point(self):
        cfg = Config(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        res = run_unsupervised(g, ts, cfg, schedule=(0.0,), iterations_per_level=5)
        assert res.patterns == (EMPTY_PATTERN,)
        assert [h.iteration for h in res.history] == [1, 2, 3, 4, 5]
        rows = {(h.cost_budget, h.n_patterns, h.proxy_score) for h in res.history}
        assert rows == {(0.0, 0, res.history[0].proxy_score)}
        assert res.history[0].proxy_score == pytest.approx(0.3, abs=1e-12)

    def test_two_flows_recovered(self):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        scene, g, ts = flow_fixture(cfg)
        res = run_unsupervised(g, ts, cfg, iterations_per_level=3)
        assert not res.lower_bound_only
        assert validate_trajectory_set(g, res.trajectories) == []
        assert len(res.patterns) - 1 == 2
        best = max(h.proxy_score for h in res.history)
        assert any(h.proxy_score == best and h.n_patterns == 2 for h in res.history)
        # the refined trajectories reproduce the clean tracks
        shapes = {
            frozenset((g.detection(v).frame, g.detection(v).pos) for v in t.nodes)
            for t, p in zip(res.trajectories, res.assignment)
            if p != 0
        }
        truth = {frozenset((d.frame, d.pos) for d in track) for track in scene.tracks}
        assert shapes == truth

    def test_stop_patterns_halts_schedule(self):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        sched = default_schedule(g, ts, cfg, levels=4)
        res = run_unsupervised(
            g, ts, cfg, schedule=sched, iterations_per_level=2, stop_patterns=1
        )
        assert {h.cost_budget for h in res.history} == {sched[0]}

    def test_empty_schedule_rejected(self):
        cfg = Config()
        _, g, ts = flow_fixture(cfg)
        with pytest.raises(ValueError, match="empty budget schedule"):
            run_unsupervised(g, ts, cfg, schedule=())

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_iterations_below_one_rejected(self, iterations):
        cfg = Config()
        _, g, ts = flow_fixture(cfg)
        with pytest.raises(ValueError, match=f"iterations_per_level must be at least 1, got {iterations}"):
            run_unsupervised(g, ts, cfg, schedule=(1.0,), iterations_per_level=iterations)

    @pytest.mark.parametrize("solver", ["mine", "link"])
    def test_a_budget_hit_in_the_alternation_is_reported(self, monkeypatch, solver):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        mark_lower_bound(monkeypatch, unsupervised, solver)
        res = run_unsupervised(g, ts, cfg, iterations_per_level=2)
        assert res.lower_bound_only

    def test_a_budget_hit_in_the_proxy_alone_is_reported(self, monkeypatch):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        mark_proxy_lower_bound(monkeypatch)
        res = run_unsupervised(g, ts, cfg, iterations_per_level=2)
        assert res.lower_bound_only


def same_result(new, ref):
    assert new.history == ref.history
    assert new.trajectories == ref.trajectories
    assert new.patterns == ref.patterns
    assert new.assignment == ref.assignment


class TestAgainstReferenceLoop:
    """The memoized loop returns what the former fixed-point loop returned."""

    @pytest.mark.parametrize("seed", range(3))
    def test_two_flow_scenes(self, seed):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        scene, corrupted = two_flow_scene(seed=seed)
        g = build_graph(corrupted, cfg, batch=scene.meta.batch)
        ts = input_trajectories(g)
        same_result(run_unsupervised(g, ts, cfg), reference_run_unsupervised(g, ts, cfg))

    @pytest.mark.parametrize("iterations", [2, 5])
    @pytest.mark.parametrize("sigma", [0.05, 0.1])
    def test_noisy_crossing_family(self, sigma, iterations):
        scene, broken = crossing_family(6, sigma, [Swap(0, 1, frame=8)])
        cfg = Config.unsupervised()
        g = build_graph(broken, cfg, scene.meta.batch)
        ts = input_trajectories(g)
        same_result(
            run_unsupervised(g, ts, cfg, iterations_per_level=iterations),
            reference_run_unsupervised(g, ts, cfg, iterations_per_level=iterations),
        )

    def test_zero_budget_fixed_point(self):
        cfg = Config(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        kwargs = dict(schedule=(0.0,), iterations_per_level=5)
        same_result(
            run_unsupervised(g, ts, cfg, **kwargs), reference_run_unsupervised(g, ts, cfg, **kwargs)
        )

    def test_a_cycle_is_solved_once_per_distinct_input(self, monkeypatch):
        # Stand-ins that cycle A -> B -> A: the former loop never saw a
        # fixed point and solved all five iterations; the memoized loop
        # solves A and B once each and lists the same five rows.
        a, b = (Trajectory((0,)),), (Trajectory((1,)),)
        mined_from = {a: ("empty", "p"), b: ("empty", "p", "q")}
        linked_to = {mined_from[a]: b, mined_from[b]: a}
        proxy = {a: 0.5, b: 0.25}
        calls = {"mine": 0, "link": 0, "split_half_score": 0}

        def stand_in(name, fn):
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(unsupervised, name, counted)

        monkeypatch.setattr(unsupervised, "generate_candidates", lambda g, ts, cfg: None)
        stand_in("mine", lambda g, ts, cands, cfg: SimpleNamespace(
            patterns=mined_from[ts], lower_bound_only=False
        ))
        stand_in("link", lambda g, pats, cfg: SimpleNamespace(
            all_trajectories=linked_to[pats], full_assignment=pats, lower_bound_only=False
        ))
        stand_in("split_half_score", lambda g, ts, cfg, time_budget: (proxy[ts], False))
        kwargs = dict(schedule=(1.0,), iterations_per_level=5)
        ref = reference_run_unsupervised(None, a, Config(), **kwargs)
        assert calls == {"mine": 5, "link": 5, "split_half_score": 5}
        calls.update(dict.fromkeys(calls, 0))
        res = run_unsupervised(None, a, Config(), **kwargs)
        assert calls == {"mine": 2, "link": 2, "split_half_score": 2}
        same_result(res, ref)
        rows = [(h.n_patterns, h.proxy_score) for h in res.history]
        assert rows == [(1, 0.25), (2, 0.5), (1, 0.25), (2, 0.5), (1, 0.25)]
