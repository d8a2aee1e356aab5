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
    Pattern,
    ScorePair,
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
from reference_scoring import trajectory_score as scalar_trajectory_score
from reference_unsupervised import reference_cross_score, reference_run_unsupervised, reference_split


def det(frame, x, y=0.0):
    return Detection(frame, (float(x), float(y)))


def flow_fixture(cfg):
    scene, corrupted = two_flow_scene(seed=0)
    g = build_graph(corrupted, cfg, batch=scene.meta.batch)
    return scene, g, input_trajectories(g)


class TestCrossScore:
    """`_cross_score` picks and sums as the former scalar loop did, bit for bit."""

    @staticmethod
    def same(g, trajectories, patterns, cfg):
        got = unsupervised._cross_score(g, trajectories, patterns, cfg)
        want = reference_cross_score(g, trajectories, patterns, cfg, scalar_trajectory_score)
        assert type(got) is float and got.hex() == want.hex()

    def test_two_flow_iterates(self):
        for cfg in (Config.unsupervised(candidate_widths=(1.0,)), Config(candidate_widths=(1.0, 3.0))):
            scene, g, ts = flow_fixture(cfg)
            candidates = generate_candidates(g, ts, cfg)
            for k in range(1, len(candidates)):
                self.same(g, ts, candidates.patterns[: k + 1], cfg)
                self.same(g, ts[::-1], candidates.patterns[k::-1], cfg)

    def test_many_noisy_trajectories(self):
        # More than eight trajectories: a pairwise sum would round differently.
        cfg = Config.unsupervised(candidate_widths=(1.0, 3.0))
        scene, broken = crossing_family(12, 0.3, [Swap(0, 1, frame=8), Swap(4, 5, frame=12)])
        g = build_graph(broken, cfg, batch=scene.meta.batch)
        ts = input_trajectories(g)
        assert len(ts) > 8
        patterns = generate_candidates(g, ts, cfg).patterns
        self.same(g, ts, patterns, cfg)
        self.same(g, ts, patterns[::3], Config(candidate_widths=(1.0, 3.0)))

    def test_ties_go_to_the_first_pattern(self):
        # The first walk scores 10 / 20 on the lane (its exit skips 10 of the
        # lane's 15) and 3 / 6 on the empty pattern at rate 0.5: a tie whose
        # totals differ, so the summed ratio shows which pattern was picked.
        cfg = Config(empty_rate=0.5)
        tracks = [[det(1, 0.0), det(2, 5.0)], [det(3, 5.0, 0.3), det(4, 10.0, 0.3), det(5, 15.0, 0.3)]]
        g = build_graph(tracks, cfg, batch=(1, 5))
        ts = input_trajectories(g)
        lane = Pattern(((0.0, 0.0), (15.0, 0.0)), 1.0)
        assert scalar_trajectory_score(g, ts[0], lane, cfg) == ScorePair(20.0, 10.0)
        assert scalar_trajectory_score(g, ts[0], EMPTY_PATTERN, cfg) == ScorePair(6.0, 3.0)
        for patterns in ((EMPTY_PATTERN, lane), (lane, EMPTY_PATTERN)):
            self.same(g, ts, patterns, cfg)
        assert unsupervised._cross_score(g, ts, (EMPTY_PATTERN, lane), cfg) != unsupervised._cross_score(
            g, ts, (lane, EMPTY_PATTERN), cfg
        )

    def test_trajectories_without_a_positive_total_are_left_out(self):
        # A detection standing still across the whole batch has total 0 on
        # every pattern; the moving one carries the score.
        cfg = Config()
        still = [det(0, 3.0, 1.0), det(1, 3.0, 1.0), det(2, 3.0, 1.0)]
        moving = [det(0, 0.0, 0.0), det(1, 2.0, 0.0), det(2, 4.0, 0.0)]
        g = build_graph([still, moving], cfg)
        lane = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)
        self.same(g, input_trajectories(g), (EMPTY_PATTERN, lane), cfg)
        with pytest.raises(ValueError, match="degenerate"):
            unsupervised._cross_score(g, input_trajectories(g)[:1], (EMPTY_PATTERN, lane), cfg)


class TestSplitHalfScore:
    def test_halves_are_split_at_the_middle_frame(self, monkeypatch):
        # Tracks inside, across and at the middle of batches of odd and even
        # length; a tie in frame counts goes to the early half.
        tracks = [
            [det(1, 0.0), det(2, 1.0)],
            [det(3, 0.0, 3.0), det(4, 1.0, 3.0), det(5, 2.0, 3.0), det(6, 3.0, 3.0)],
            [det(4, 0.0, 6.0), det(5, 1.0, 6.0), det(6, 2.0, 6.0)],
            [det(5, 0.0, 9.0), det(6, 1.0, 9.0)],
            [det(8, 0.0, 12.0), det(9, 1.0, 12.0)],
        ]
        halves = []
        monkeypatch.setattr(
            unsupervised, "generate_candidates", lambda g, ts, cfg: halves.append(list(ts))
        )
        monkeypatch.setattr(unsupervised, "mine", lambda *a, **kw: SimpleNamespace(
            patterns=(EMPTY_PATTERN,), lower_bound_only=False
        ))
        cfg = Config(empty_rate=0.5)
        for batch in ((0, 10), (1, 9), (0, 9), (1, 10)):
            g = build_graph(tracks, cfg, batch=batch)
            ts = input_trajectories(g)
            halves.clear()
            split_half_score(g, ts, cfg)
            assert halves == list(reference_split(g, ts))

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
        a, b = (Trajectory((1,)),), (Trajectory((2,)),)
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
