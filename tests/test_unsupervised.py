"""Alternating mining/linking loop and its split-half model selection."""
import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import ptrack.unsupervised as unsupervised
from helpers import crossing_family, mark_lower_bound, mark_proxy_lower_bound
from ptrack import (
    Config,
    Detection,
    EMPTY_PATTERN,
    Fragment,
    Pattern,
    ScorePair,
    Swap,
    TrajectorySet,
    build_graph,
    default_schedule,
    generate_candidates,
    input_trajectories,
    run_unsupervised,
    split_half_score,
    validate_trajectory_set,
)
from ptrack.synth import two_flow_scene
from ptrack.unsupervised import doubling_schedule
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
        assert scalar_trajectory_score(g, ts.nodes[0], lane, cfg) == ScorePair(20.0, 10.0)
        assert scalar_trajectory_score(g, ts.nodes[0], EMPTY_PATTERN, cfg) == ScorePair(6.0, 3.0)
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

    @pytest.mark.parametrize(
        "base", [0, 2**53, 2**60, 2**63 - 9], ids=["0", "2**53", "2**60", "2**63 - 9"]
    )
    def test_frames_beyond_float_precision_split_at_the_exact_middle(self, base, monkeypatch):
        # Batch base - 1 .. base + 8: frames up to base + 3 are in the first
        # half.  At 2**60 a float midpoint rounds down to base, which left
        # both tracks in the second half and the split degenerate.  The
        # last base ends the batch at the last int64 frame, where twice the
        # middle passes int64.
        tracks = [
            [det(base + k, 2.0 * k) for k in range(4)],
            [det(base + k, 2.0 * k, 5.0) for k in range(4, 7)],
        ]
        cfg = Config(candidate_widths=(1.0,))
        g = build_graph(tracks, cfg, batch=(base - 1, base + 8))
        assert g.frames.dtype == np.int64
        ts = input_trajectories(g)
        assert split_half_score(g, ts, cfg) == (0.3, False)
        halves = []
        monkeypatch.setattr(
            unsupervised, "generate_candidates", lambda g, ts, cfg: halves.append(list(ts))
        )
        monkeypatch.setattr(unsupervised, "mine", lambda *a, **kw: SimpleNamespace(
            patterns=(EMPTY_PATTERN,), lower_bound_only=False
        ))
        split_half_score(g, ts, cfg)
        assert halves == [[ts[0]], [ts[1]]]

    def test_one_sided_split_is_degenerate(self):
        cfg = Config()
        g = build_graph([[det(1, 0.0), det(2, 1.0), det(3, 2.0)]], cfg, batch=(0, 10))
        with pytest.raises(unsupervised.DegenerateSplit, match="degenerate split"):
            split_half_score(g, input_trajectories(g), cfg)
        assert issubclass(unsupervised.DegenerateSplit, ValueError)


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

    @pytest.mark.parametrize("levels", [2.5, True, "2", np.int64(2)])
    def test_levels_must_be_an_int(self, levels):
        cfg = Config(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        with pytest.raises(ValueError, match=re.escape(f"levels must be an integer, got {levels!r}")):
            default_schedule(g, ts, cfg, levels=levels)


class TestDoublingSchedule:
    def test_doubles_exactly(self):
        assert doubling_schedule(3.0, 4) == (3.0, 6.0, 12.0, 24.0)
        assert doubling_schedule(0.1, 60) == tuple(0.1 * 2.0**k for k in range(60))
        assert doubling_schedule(5.0, 0) == ()

    def test_the_largest_finite_budgets_are_kept(self):
        assert doubling_schedule(1.0, 1024)[-1] == 2.0**1023

    @pytest.mark.parametrize(
        "start, levels, level", [(1.0, 1025, 1025), (40.0, 1100, 1020), (math.inf, 1, 1), (math.nan, 3, 1)]
    )
    def test_a_budget_that_is_not_finite_is_refused(self, start, levels, level):
        with pytest.raises(ValueError, match=f"^cost budget of level {level} is not finite"):
            doubling_schedule(start, levels)

    def test_the_default_schedule_overflows_as_a_value_error(self):
        # `2.0**k` raised OverflowError from k = 1024 on.
        cfg = Config(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        with pytest.raises(ValueError, match="is not finite"):
            default_schedule(g, ts, cfg, levels=1100)

    @pytest.mark.parametrize("levels", [2.5, True, "2", np.int64(2)])
    def test_levels_must_be_an_int(self, levels):
        with pytest.raises(ValueError, match=re.escape(f"levels must be an integer, got {levels!r}")):
            doubling_schedule(1.0, levels)


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
            frozenset((g.detections[v - 1].frame, g.detections[v - 1].pos) for v in nodes)
            for nodes, p in zip(res.trajectories.nodes, res.assignment)
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

    @pytest.mark.parametrize("iterations", [2.5, True, 2.0, None])
    def test_iterations_must_be_an_int(self, iterations):
        cfg = Config()
        _, g, ts = flow_fixture(cfg)
        with pytest.raises(ValueError, match=re.escape(f"iterations_per_level must be an integer, got {iterations!r}")):
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


class TestRecordedStalls:
    """Runs on which the former bisection's depth-first probe ran for a
    minute or more.  Each solve gets a budget, so a stall shows as a lower
    bound instead of a hang."""

    def test_two_flows_from_a_zero_budget_level(self):
        # The zero-budget level links the six tracks into 18 trajectories;
        # the link after the next mine over them stalled.
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        first = default_schedule(g, ts, cfg, 1)[0]
        res = run_unsupervised(g, ts, cfg, schedule=(0.0, first), iterations_per_level=1, time_budget=20.0)
        assert not res.lower_bound_only
        assert [h.cost_budget for h in res.history] == [0.0, first]
        assert validate_trajectory_set(g, res.trajectories) == []

    def test_six_agent_noisy_crossing_family(self):
        scene, broken = crossing_family(6, 0.3, [Swap(0, 1, frame=8), Fragment(2, frame=9)])
        cfg = Config(candidate_widths=(1.0, 3.0))
        g = build_graph(broken, cfg, scene.meta.batch)
        res = run_unsupervised(g, input_trajectories(g), cfg, iterations_per_level=1, time_budget=20.0)
        assert not res.lower_bound_only
        assert validate_trajectory_set(g, res.trajectories) == []


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

    # At 4 agents a repeated pattern set is linked at a later level: the
    # memo reuses a link across budget levels.
    @pytest.mark.parametrize("sigma", [0.1, 0.3])
    def test_four_agent_noisy_family(self, sigma):
        scene, broken = crossing_family(4, sigma, [Swap(0, 1, frame=8)])
        cfg = Config.unsupervised()
        g = build_graph(broken, cfg, scene.meta.batch)
        ts = input_trajectories(g)
        same_result(
            run_unsupervised(g, ts, cfg, iterations_per_level=2),
            reference_run_unsupervised(g, ts, cfg, iterations_per_level=2),
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
        a, b = TrajectorySet.from_nodes([(1,)]), TrajectorySet.from_nodes([(2,)])
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


class TestLinkMemo:
    """One `link` per distinct mined pattern set over the whole run."""

    # Stand-ins: A and B both mine ("empty", "p"), which links to B.
    A, B = TrajectorySet.from_nodes([(1,)]), TrajectorySet.from_nodes([(2,)])
    PATTERNS = ("empty", "p")

    def stand_ins(self, monkeypatch, first_link_bound=False):
        """Counted stand-ins; only the first `link` may say it hit the time budget."""
        calls = {"mine": 0, "link": 0, "split_half_score": 0}

        def mine(g, ts, cands, cfg, time_budget=None):
            calls["mine"] += 1
            return SimpleNamespace(patterns=self.PATTERNS, lower_bound_only=False)

        def link(g, pats, cfg, time_budget=None):
            calls["link"] += 1
            hit = first_link_bound and calls["link"] == 1
            return SimpleNamespace(all_trajectories=self.B, full_assignment=pats, lower_bound_only=hit)

        def split_half_score(g, ts, cfg, time_budget=None):
            calls["split_half_score"] += 1
            return 0.5, False

        monkeypatch.setattr(unsupervised, "generate_candidates", lambda g, ts, cfg: None)
        for fn in (mine, link, split_half_score):
            monkeypatch.setattr(unsupervised, fn.__name__, fn)
        return calls

    @pytest.mark.parametrize(
        "schedule, iterations", [((1.0,), 2), ((1.0, 2.0), 1)], ids=["one level", "two levels"]
    )
    def test_two_sets_mining_one_pattern_set_link_once(self, monkeypatch, schedule, iterations):
        calls = self.stand_ins(monkeypatch)
        kwargs = dict(schedule=schedule, iterations_per_level=iterations, stop_patterns=5)
        res = run_unsupervised(None, self.A, Config(), **kwargs)
        assert calls == {"mine": 2, "link": 1, "split_half_score": len(schedule)}
        assert not res.lower_bound_only
        same_result(res, reference_run_unsupervised(None, self.A, Config(), **kwargs))

    def test_a_reused_lower_bound_still_marks_the_run(self, monkeypatch):
        # Only the first link hits the budget; B reuses it at the second level.
        calls = self.stand_ins(monkeypatch, first_link_bound=True)
        res = run_unsupervised(None, self.A, Config(), schedule=(1.0, 2.0), iterations_per_level=1,
                               stop_patterns=5)
        assert calls["link"] == 1
        assert res.lower_bound_only

    def test_the_link_does_not_read_the_cost_budget(self):
        # The memo holds across levels, which differ only in the cost budget.
        scene, broken = crossing_family(4, 0.3, [Swap(0, 1, frame=8)])
        cfg = Config.unsupervised()
        g = build_graph(broken, cfg, scene.meta.batch)
        ts = input_trajectories(g)
        schedule = default_schedule(g, ts, cfg)
        lo, hi = (cfg.with_cost_budget(b) for b in (schedule[0], schedule[-1]))
        patterns = unsupervised.mine(g, ts, generate_candidates(g, ts, hi), hi).patterns
        assert len(patterns) > 2
        assert unsupervised.link(g, patterns, lo) == unsupervised.link(g, patterns, hi)


def one_sided_fixture():
    """Two tracks early in a long batch: every split leaves the second half empty."""
    cfg = Config()
    tracks = [[det(f, f) for f in range(1, 6)], [det(f, f, 5.0) for f in range(2, 7)]]
    g = build_graph(tracks, cfg, batch=(0, 40))
    return g, input_trajectories(g), cfg


def proxies_in_turn(monkeypatch, outcomes):
    """Stand in for `split_half_score`: the k-th call raises or returns outcomes[k]."""
    calls = iter(outcomes)

    def proxy(graph, trajectories, cfg, time_budget=None):
        outcome = next(calls)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome, False

    monkeypatch.setattr(unsupervised, "split_half_score", proxy)


class TestDegenerateSplit:
    """An iterate whose split leaves a half empty scores -inf; the run goes on."""

    def test_every_iterate_degenerate_returns_the_first(self, monkeypatch):
        g, ts, cfg = one_sided_fixture()
        linked = []
        link = unsupervised.link
        monkeypatch.setattr(unsupervised, "link", lambda *a, **kw: linked.append(link(*a, **kw)) or linked[-1])
        res = run_unsupervised(g, ts, cfg, schedule=(100.0, 200.0), iterations_per_level=2, stop_patterns=99)
        assert [h.proxy_score for h in res.history] == [-np.inf] * 4
        assert [h.iteration for h in res.history] == [1, 2, 3, 4]
        assert res.trajectories == linked[0].all_trajectories
        assert res.assignment == linked[0].full_assignment

    @pytest.mark.parametrize("first_degenerate", [True, False])
    def test_a_finite_proxy_wins_over_a_degenerate_one(self, monkeypatch, first_degenerate):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        outcomes = [unsupervised.DegenerateSplit("degenerate split"), -5.0]
        proxies_in_turn(monkeypatch, outcomes if first_degenerate else outcomes[::-1])
        mined, linked = [], []
        mine, link = unsupervised.mine, unsupervised.link
        monkeypatch.setattr(unsupervised, "mine", lambda *a, **kw: mined.append(mine(*a, **kw)) or mined[-1])
        monkeypatch.setattr(unsupervised, "link", lambda *a, **kw: linked.append(link(*a, **kw)) or linked[-1])
        # The first level mines both flows; a zero budget mines no pattern.
        schedule = (default_schedule(g, ts, cfg, levels=1)[0], 0.0)
        res = run_unsupervised(g, ts, cfg, schedule=schedule, iterations_per_level=1, stop_patterns=99)
        want = [-np.inf, -5.0] if first_degenerate else [-5.0, -np.inf]
        assert [h.proxy_score for h in res.history] == want
        assert [h.n_patterns for h in res.history] == [2, 0]
        finite = 1 if first_degenerate else 0
        assert res.patterns == mined[finite].patterns
        assert res.trajectories == linked[finite].all_trajectories

    def test_other_value_errors_propagate(self, monkeypatch):
        cfg = Config.unsupervised(candidate_widths=(1.0,))
        _, g, ts = flow_fixture(cfg)
        proxies_in_turn(monkeypatch, [ValueError("degenerate instance: total score is not positive")])
        with pytest.raises(ValueError, match="degenerate instance"):
            run_unsupervised(g, ts, cfg, schedule=(1.0,), iterations_per_level=1)
