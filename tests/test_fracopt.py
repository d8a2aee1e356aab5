"""Exact 0/1 linear-fractional solver: feasibility probes and ratio search."""
import importlib.util
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ptrack.fracopt as fracopt
from ptrack.fracopt import (
    Constraint,
    FeasibilityResult,
    feasible,
    maximize_ratio,
)

from helpers import rows_model
from oracles import brute_force_best_ratio, brute_force_feasible, satisfies
from reference_search import ReferenceSearch


def con(vars_, coeffs, sense, rhs):
    return Constraint(tuple(vars_), tuple(float(c) for c in coeffs), sense, float(rhs))


def cover_row(n):
    return con(range(n), [1.0] * n, ">=", 1.0)


class TestValidation:
    def test_model_needs_a_variable(self):
        with pytest.raises(ValueError, match="at least one variable"):
            rows_model(0, (), (), ())

    def test_model_checks_term_lengths(self):
        with pytest.raises(ValueError, match="length does not match"):
            rows_model(2, (), (1.0,), (1.0, 1.0))

    def test_model_checks_term_finiteness(self):
        with pytest.raises(ValueError, match="must be finite"):
            rows_model(1, (), (float("inf"),), (1.0,))

    def test_model_checks_constraint_indices(self):
        with pytest.raises(ValueError, match="unknown variable"):
            rows_model(2, (con([5], [1.0], "<=", 1.0),), (0.0, 0.0), (1.0, 1.0))

    def test_search_config_needs_ordered_bracket(self):
        m = rows_model(1, (), (1.0,), (1.0,))
        with pytest.raises(ValueError, match="lo < hi"):
            maximize_ratio(m, 1.0, 0.0, 4)

    def test_search_config_needs_positive_int_iters(self):
        m = rows_model(1, (), (1.0,), (1.0,))
        with pytest.raises(ValueError, match="positive int"):
            maximize_ratio(m, 0.0, 1.0, 0)
        with pytest.raises(ValueError, match="positive int"):
            maximize_ratio(m, 0.0, 1.0, 1.5)

    @pytest.mark.parametrize("budget", [float("nan"), -1.0, 0.0, float("inf"), True, "1"])
    def test_time_budget_must_be_positive_and_finite(self, budget):
        # A NaN budget used to turn the budget off (every comparison with NaN
        # is false), and a negative one failed as a timed-out probe.
        m = rows_model(1, (), (1.0,), (1.0,))
        with pytest.raises(ValueError, match="time_budget must be None or positive and finite"):
            maximize_ratio(m, time_budget=budget)
        assert maximize_ratio(m, time_budget=np.float64(10.0)).witness == (1,)


class TestModelQueries:
    def test_ratio_of(self):
        m = rows_model(2, (), (1.0, 3.0), (2.0, 2.0))
        assert m.ratio_of((1, 0)) == 0.5
        assert m.ratio_of((1, 1)) == 1.0
        assert m.ratio_of((0, 0)) is None
        with pytest.raises(ValueError, match="length"):
            m.ratio_of((1,))

    def test_certifies_at_exact_ratio(self):
        m = rows_model(1, (), (1.0,), (2.0,))
        assert m.certifies((1,), 0.5)
        assert not m.certifies((1,), 0.5 + 1e-6)


class TestFeasibility:
    def test_single_variable_at_half(self):
        m = rows_model(1, (), (1.0,), (1.0,))
        res = feasible(m, 0.5)
        assert res.assignment == (1,)
        assert not res.timed_out
        assert m.certifies(res.assignment, 0.5)

    def test_forced_selection_caps_the_ratio(self):
        m = rows_model(2, (con([0, 1], [1.0, 1.0], "==", 1.0),), (0.0, 0.0), (1.0, 1.0))
        res = feasible(m, 0.5)
        assert res.assignment is None
        assert not res.timed_out
        ok = feasible(m, 0.0)
        assert ok.assignment is not None and sum(ok.assignment) == 1

    def test_contradictory_rows_are_infeasible(self):
        rows = (con([0], [1.0], "==", 1.0), con([0], [1.0], "<=", 0.0))
        m = rows_model(1, rows, (1.0,), (1.0,))
        assert feasible(m, 0.0).assignment is None

    @pytest.mark.parametrize(
        "row", [con([], [], ">=", 1.0), con([39], [1.0], ">=", 2.0), con([39], [1.0], "<=", -1.0)]
    )
    def test_unsatisfiable_row_is_refuted_at_the_root(self, row):
        # No assignment satisfies the row.  Checked only once one of its
        # variables is fixed, it would fail at every leaf below that
        # variable: 2**41 - 1 nodes for the empty row, so the deadlines turn
        # a missing root rule into a timed-out result instead of a hang.
        m = rows_model(40, (row,), np.zeros(40), np.zeros(40))
        res = feasible(m, 0.0, deadline=time.monotonic() + 5.0)
        assert res == FeasibilityResult(None)
        assert res.nodes == 1
        with pytest.raises(ValueError, match="no feasible solution"):
            maximize_ratio(m, -1.0, 1.0, time_budget=5.0)
        assert assert_same_search(m, 0.0) == 1

    def test_random_instances_agree_with_enumeration(self):
        rng = np.random.default_rng(42)
        senses = ("<=", "==", ">=")
        for trial in range(120):
            nv = int(rng.integers(2, 9))
            numer = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(nv))
            denom = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(nv))
            rows = []
            for _ in range(int(rng.integers(0, 5))):
                size = int(rng.integers(1, nv + 1))
                vars_ = tuple(int(v) for v in rng.choice(nv, size=size, replace=False))
                coeffs = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(size))
                rows.append(con(vars_, coeffs, senses[int(rng.integers(3))], float(rng.integers(-8, 9)) / 4.0))
            m = rows_model(nv, tuple(rows), numer, denom)
            alpha = float(rng.integers(-8, 9)) / 8.0

            got = feasible(m, alpha)
            want = brute_force_feasible(m, alpha)
            assert (got.assignment is not None) == want, (trial, m, alpha)
            if got.assignment is not None:
                w = np.asarray(numer) - alpha * np.asarray(denom)
                assert float(w @ np.asarray(got.assignment)) >= 0.0
                for row in rows:
                    assert satisfies(row, got.assignment)


class _FullScanSearch(ReferenceSearch):
    """Reference propagation: scans every unfixed variable of a touched row.

    Like the probe, it refutes a model at the root, in one node, when some
    row's whole activity range misses its bounds.
    """

    def run(self):
        for ci, sense in enumerate(self.con_sense):
            top = self.con_rhs[ci] + self.con_tol[ci]
            bottom = self.con_rhs[ci] - self.con_tol[ci]
            if (sense != ">=" and self.neg_un[ci] > top) or (sense != "<=" and self.pos_un[ci] < bottom):
                self.nodes = 1
                return FeasibilityResult(None)
        return super().run()

    def _check_constraint(self, ci, pending):
        sense = self.con_sense[ci]
        rhs = self.con_rhs[ci]
        tol = self.con_tol[ci]
        fixed = self.fixed_sum[ci]
        if sense != ">=" and fixed + self.neg_un[ci] > rhs + tol:
            return False
        if sense != "<=" and fixed + self.pos_un[ci] < rhs - tol:
            return False
        for u, q in zip(self.con_vars[ci], self.con_coeffs[ci]):
            if self.value[u] != -1:
                continue
            lo_rest = self.neg_un[ci] - min(q, 0.0)
            hi_rest = self.pos_un[ci] - max(q, 0.0)
            can_zero = True
            can_one = True
            if sense != ">=":
                if fixed + q + lo_rest > rhs + tol:
                    can_one = False
                if fixed + lo_rest > rhs + tol:
                    can_zero = False
            if sense != "<=":
                if fixed + q + hi_rest < rhs - tol:
                    can_one = False
                if fixed + hi_rest < rhs - tol:
                    can_zero = False
            if not can_zero and not can_one:
                return False
            if not can_zero:
                pending.append((u, 1))
            elif not can_one:
                pending.append((u, 0))
        return True


class _ExactlyOneFullScanSearch(_FullScanSearch):
    """The full scan under the exactly-one group bound, recomputed at every node.

    A group that holds every variable of its `== 1` unit row adds its best
    unfixed w even when it is negative, and 0 once one of its variables is 1;
    a partial group or a lone variable adds max(best unfixed w, 0).
    """

    def __init__(self, model, alpha, deadline=None):
        super().__init__(model, alpha, deadline)
        claimed = set()
        self.groups = []
        for c in model.constraints:
            if c.sense == "==" and c.rhs == 1.0 and all(q == 1.0 for q in c.coeffs):
                members = [v for v in c.vars if v not in claimed]
                if members:
                    claimed.update(members)
                    self.groups.append((members, len(members) == len(c.vars)))
        self.groups += [([v], False) for v in range(model.num_vars) if v not in claimed]

    def _optimistic_bound(self):
        total = 0.0
        for members, exact in self.groups:
            free = [self.w[v] for v in members if self.value[v] == -1]
            if not exact:
                total += max(free + [0.0])
            elif all(self.value[v] != 1 for v in members):
                total += max(free, default=-math.inf)
        return total


def assert_same_search(model, alpha):
    """The probe decides like the full scan, with the same witness.

    Under the exactly-one bound it takes exactly the full scan's nodes, so the
    slack gate forces what the scan forces and the incremental bound equals
    the recomputed one; against the reference's bound, which clips every
    group at 0, it takes no more.  `feasible` is the probe imported above, so
    a test that patches `fracopt.feasible` still replays the unpatched one.
    """
    probe = feasible(model, alpha)
    full = _FullScanSearch(model, alpha, None)
    sharp = _ExactlyOneFullScanSearch(model, alpha, None)
    assert probe == full.run() == sharp.run(), (model, alpha)
    assert probe.nodes == sharp.nodes <= full.nodes, (model, alpha)
    return probe.nodes


class TestSlackGate:
    def test_random_dense_mixed_sign_models_match_full_scan(self):
        # Coefficients and right-hand sides are multiples of 1/4, so row sums
        # are exact and slacks often equal a coefficient exactly; right-hand
        # sides are sums of coefficient subsets, so rows are often tight.
        rng = np.random.default_rng(7)
        senses = ("<=", "==", ">=")
        for _ in range(250):
            nv = int(rng.integers(3, 11))
            numer = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(nv))
            denom = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(nv))
            rows = []
            for _ in range(int(rng.integers(1, 6))):
                size = int(rng.integers(max(2, nv // 2), nv + 1))
                vars_ = [int(v) for v in rng.choice(nv, size=size, replace=False)]
                coeffs = [float(rng.choice([-1, 1]) * rng.integers(1, 9)) / 4.0 for _ in vars_]
                subset = rng.random(size) < 0.5
                rhs = float(np.asarray(coeffs)[subset].sum()) + float(rng.integers(-1, 2)) / 4.0
                rows.append(con(vars_, coeffs, senses[int(rng.integers(3))], rhs))
            m = rows_model(nv, tuple(rows), numer, denom)
            for alpha in (-0.5, 0.0, 0.5):
                assert_same_search(m, alpha)

    def test_slack_equal_to_a_coefficient(self):
        # x0 + 2 x1 + x2 <= 2: nothing fixed leaves slack 2 (+tol), which the
        # gate skips; x0 = 1 leaves slack 1 < 2, so x1 must be forced to 0.
        rows = (con([0, 1, 2], [1.0, 2.0, 1.0], "<=", 2.0), con([0, 1, 2], [1.0, -2.0, 1.0], ">=", -2.0))
        m = rows_model(3, rows, (1.0, 1.5, 0.25), (1.0, 1.0, 1.0))
        for alpha in (0.0, 0.4, 0.6, 0.9):
            assert_same_search(m, alpha)

    def test_coefficient_above_slack_by_less_than_tolerance(self):
        # 0.5 x2 + b x1 <= 1.5 with b = 1 + 7.5e-9: once x2 = 1 the slack is
        # 1 + tol (tol = 5e-9 here), just under b, so x1 is forced to 0 by the
        # scan; the gate must leave that float-boundary case to it.
        row = con([2, 1], [0.5, 1.0 + 7.5e-9], "<=", 1.5)
        m = rows_model(3, (row,), (0.1, 0.5, 1.0), (1.0, 1.0, 1.0))
        assert assert_same_search(m, 0.0) == 3

    def test_noisy_link_model_matches_full_scan(self, monkeypatch):
        from ptrack import EMPTY_PATTERN, Config, Pattern, build_graph
        from ptrack.linker import build_link_model
        from ptrack.scoring import ratio_bracket
        from ptrack.synth import Fragment, Swap, corrupt, generate_scene

        corridors = (
            Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
            Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
        )
        scene = generate_scene(
            corridors, ((0, 1), (1, 2), (0, 3)), speed=2.0**0.5,
            lateral_sigma=0.3, speed_jitter=0.2, seed=1,
        )
        broken = corrupt(scene.track_lists(), [Swap(0, 1, frame=8), Fragment(2, frame=9)])
        cfg = Config()
        graph = build_graph(broken, cfg, scene.meta.batch)
        model, _ = build_link_model(graph, (EMPTY_PATTERN, *corridors), cfg)

        # Replay every probe of the linker's bisection, feasible and not.
        real = fracopt.feasible
        probes = []

        def recording(model, alpha, deadline=None):
            result = real(model, alpha, deadline)
            probes.append((alpha, result.assignment is not None))
            return result

        monkeypatch.setattr(fracopt, "feasible", recording)
        fracopt.maximize_ratio(model, *ratio_bracket(cfg), iters=10)
        assert {ok for _, ok in probes} == {True, False}
        nodes = [assert_same_search(model, alpha) for alpha, _ in probes]
        # A lost pruning or propagation rule shows here as more nodes.
        assert 650 < sum(nodes) <= 741


class TestExactlyOneBound:
    def test_negative_selection_rows_are_refuted_at_the_root(self):
        # Every option of both `== 1` rows loses at alpha 0.5, so no witness
        # exists.  Clipping each group at 0 sees nothing to prune until a row
        # is settled; the exactly-one bound sums the two best options, -0.5
        # and -0.25, and refutes the probe without branching.
        rows = (con([0, 1, 2], [1.0] * 3, "==", 1.0), con([3, 4, 5], [1.0] * 3, "==", 1.0))
        m = rows_model(6, rows, (0.0,) * 6, (1.0, 2.0, 3.0, 0.5, 1.0, 2.0))
        reference = ReferenceSearch(m, 0.5)
        probe = feasible(m, 0.5)
        assert probe == reference.run() == FeasibilityResult(None)
        assert reference.nodes > 1
        assert probe.nodes == 1
        assert not brute_force_feasible(m, 0.5)

    def test_partial_group_may_select_none(self):
        # x1 serves both rows; the second row's group holds only x2 and x3,
        # both losing.  Selecting neither is the only witness, so that group
        # must bound at max(best, 0) = 0, not at its best w of -1.
        rows = (con([0, 1], [1.0, 1.0], "==", 1.0), con([1, 2, 3], [1.0] * 3, "==", 1.0))
        m = rows_model(4, rows, (0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 2.0, 2.0))
        assert m._rows.group_exact.tolist() == [True, False]
        assert brute_force_feasible(m, 0.5)
        assert feasible(m, 0.5).assignment == (0, 1, 0, 0)
        assert_same_search(m, 0.5)


def load_bench_scenes():
    """perfbench/scenes.py, registered so that its dataclasses can resolve their module."""
    name = "perfbench_scenes"
    if name not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "perfbench" / "scenes.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def bench_probes(monkeypatch, tmp_path, workload, command):
    """(model, alpha) of every probe that `command` makes on each scene of a benchmark workload."""
    from ptrack.cli import cli

    scenes = load_bench_scenes().BUILDERS[workload](0, tmp_path)
    real = fracopt.feasible
    probes = []

    def recording(model, alpha, deadline=None):
        probes.append((model, alpha))
        return real(model, alpha, deadline)

    monkeypatch.setattr(fracopt, "feasible", recording)
    for s in scenes:
        argv = [command, "--out", str(tmp_path / f"{s.name}.out"), "--batch-start", str(s.batch[0]),
                "--batch-end", str(s.batch[1])]
        if command == "track":
            argv += ["--tracks", str(s.files["broken"]), "--patterns", str(s.files["patterns"])]
        else:
            argv += ["--tracks", str(s.files["gt"])]
        assert cli(argv) == 0
    return probes


class TestAgainstReference:
    """Every probe of two benchmark workloads, decided again by the reference search."""

    def test_track_noisy_link_probes(self, monkeypatch, tmp_path, capsys):
        # An exit inside the batch costs something on every pattern, so the
        # out-row of a detection that does not stand on the batch's last
        # frame can have a negative best option while it is open.  The
        # exactly-one bound counts it and the reference's clipped bound does
        # not: the probe visits at most the reference's nodes (1804 against
        # 29274 here) and returns the same witness.
        probes = bench_probes(monkeypatch, tmp_path, "track-noisy", "track")
        nodes = []
        for model, alpha in probes:
            probe = feasible(model, alpha)
            reference = ReferenceSearch(model, alpha)
            assert probe == reference.run(), alpha
            assert probe.nodes <= reference.nodes, alpha
            nodes.append(probe.nodes)
        assert len(nodes) == 10
        assert sum(nodes) == 1804

    def test_supervised_dense_mine_probes(self, monkeypatch, tmp_path, capsys):
        probes = bench_probes(monkeypatch, tmp_path, "supervised-dense", "learn-patterns")
        assert probes
        for model, alpha in probes:
            probe = feasible(model, alpha)
            reference = ReferenceSearch(model, alpha)
            assert probe == reference.run(), alpha
            assert probe.nodes <= reference.nodes, alpha


class TestRatioSearch:
    def test_uniform_ratio_is_reached(self):
        m = rows_model(2, (cover_row(2),), (2.0, 3.0), (2.0, 3.0))
        res = maximize_ratio(m, 0.0, 1.0, 10)
        assert res.achieved == 1.0
        assert res.alpha >= 1.0 - 2.0**-10 - 1e-9
        assert not res.lower_bound_only

    def test_certified_bound_never_exceeds_witness_by_much(self):
        m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
        res = maximize_ratio(m)
        assert res.achieved is not None
        assert res.achieved >= res.alpha - 1e-6

    def test_search_is_deterministic(self):
        m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
        assert maximize_ratio(m) == maximize_ratio(m)

    def test_negative_bracket(self):
        m = rows_model(2, (cover_row(2),), (-3.0, -6.0), (1.0, 2.0))
        res = maximize_ratio(m, -4.0, 1.0, 12)
        assert res.achieved == -3.0
        assert -3.0 - 5.0 * 2.0**-12 - 1e-9 <= res.alpha <= -3.0 + 1e-9

    def test_infeasible_bracket_fails_loudly(self):
        m = rows_model(2, (con([0, 1], [1.0, 1.0], ">=", 3.0),), (1.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="degenerate instance: no feasible solution at ratio bound 0.0"):
            maximize_ratio(m)

    def test_zero_denominators_are_degenerate(self):
        m = rows_model(2, (cover_row(2),), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate instance: every solution found has a denominator"):
            maximize_ratio(m)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            m = random_ratio_model(rng, max_vars=8)
            best, _ = brute_force_best_ratio(m)
            res = maximize_ratio(m, 0.0, 1.0, 10)
            assert res.achieved is not None
            assert abs(res.achieved - best) <= 2.0**-10 + 1e-6
            assert best - 2.0**-10 - 1e-6 <= res.alpha <= best + 1e-6
            assert res.achieved >= res.alpha - 1e-6


def random_ratio_model(rng, max_vars=8):
    """Instances with positive denominators and ratios inside [0, 1].

    Rejects candidates until an assignment selecting at least one variable
    satisfies every row, so the search bracket is always feasible.
    """
    while True:
        nv = int(rng.integers(3, max_vars + 1))
        denom = tuple(float(rng.integers(1, 7)) / 2.0 for _ in range(nv))
        numer = tuple(
            min(round(d * float(rng.random()) * 4.0) / 4.0, d) for d in denom
        )
        rows = [cover_row(nv)]
        for _ in range(int(rng.integers(0, 4))):
            size = int(rng.integers(2, min(nv, 4) + 1))
            vars_ = tuple(int(v) for v in rng.choice(nv, size=size, replace=False))
            if rng.random() < 0.5:
                rows.append(con(vars_, [1.0] * size, "==", 1.0))
            else:
                rows.append(con(vars_, [1.0] * size, "<=", float(rng.integers(1, 3))))
        m = rows_model(nv, tuple(rows), numer, denom)
        if brute_force_best_ratio(m)[1] is not None:
            return m


class _FakeClock:
    """Stands in for the `time` module in fracopt: each reading returns `now`
    and then moves it on by `step`."""

    def __init__(self, step=0.0):
        self.now = 0.0
        self.step = step

    def monotonic(self):
        now = self.now
        self.now += self.step
        return now


class TestTimeBudget:
    """A 300-variable unconstrained model needs 301 search nodes for its first
    full assignment, past the per-256-node deadline check."""

    @staticmethod
    def anchor():
        return rows_model(300, (), (0.0,) * 300, (0.0,) * 300)

    def test_tiny_budget_times_out(self, monkeypatch):
        # The deadline lies between the probe's start and its 256th node.
        monkeypatch.setattr(fracopt, "time", _FakeClock(step=1.0))
        res = feasible(self.anchor(), 0.0, deadline=0.5)
        assert res == FeasibilityResult(None, timed_out=True)
        assert res.nodes == 256

    def test_no_budget_completes(self):
        res = feasible(self.anchor(), 0.0)
        assert res.assignment == (0,) * 300
        assert not res.timed_out
        assert res.nodes == 301

    def test_search_reports_timeout_at_bracket(self):
        with pytest.raises(ValueError, match="^probe timed out") as err:
            maximize_ratio(self.anchor(), time_budget=1e-9)
        assert "degenerate" not in str(err.value)


def test_probe_leaves_the_recursion_limit_alone(monkeypatch):
    # A probe's depth grows with the model, and the search must not change
    # interpreter state that every thread of the process shares.
    def refuse(limit):
        raise AssertionError(f"the probe set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    res = feasible(rows_model(3000, (), np.zeros(3000), np.zeros(3000)), 0.0)
    assert res.assignment == (0,) * 3000
    assert res.nodes == 3001


def test_budget_bounds_the_whole_search_not_each_probe(monkeypatch):
    # Every probe costs 1 s of fake time, within a 2.5 s budget on its own,
    # but the search needs more than two probes: with one deadline for the
    # whole search, the third probe runs out and the bound is partial.
    m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
    unbounded = maximize_ratio(m, 0.0, 1.0, 10)
    clock = _FakeClock()
    real = fracopt.feasible
    deadlines, results = [], []

    def one_second_probe(model, alpha, deadline=None):
        deadlines.append(deadline)
        result = real(model, alpha, deadline)
        if not result.timed_out:
            if clock.now + 1.0 > deadline:
                clock.now = deadline
                result = FeasibilityResult(None, timed_out=True)
            else:
                clock.now += 1.0
        results.append(result)
        return result

    monkeypatch.setattr(fracopt, "time", clock)
    monkeypatch.setattr(fracopt, "feasible", one_second_probe)
    res = fracopt.maximize_ratio(m, 0.0, 1.0, 10, time_budget=2.5)
    assert res.lower_bound_only
    assert set(deadlines) == {2.5}
    assert [r.timed_out for r in results[:3]] == [False, False, True]
    assert clock.now == 2.5
    # once the deadline has passed, later probes time out without searching
    assert len(results) > 3
    assert all(r.timed_out and r.nodes == 0 for r in results[3:])

    clock.now = 0.0
    deadlines.clear()
    results.clear()
    ample = fracopt.maximize_ratio(m, 0.0, 1.0, 10, time_budget=100.0)
    assert not ample.lower_bound_only
    assert ample == unbounded
    assert len(results) > 2 and set(deadlines) == {100.0}


def test_timed_out_probe_leaves_lower_bound_only(monkeypatch):
    # Greedy first dive picks x1 (largest gain at the bracket), reaching
    # ratio 1.9/4; the true optimum x2+x3 at 2.09/4 sits above the faked
    # timeout threshold, so the search must flag its bound as partial.
    rows = (
        con([0], [1.0], "==", 1.0),
        con([1, 2], [1.0, 1.0], "==", 1.0),
        con([1, 3], [1.0, 1.0], "==", 1.0),
    )
    m = rows_model(4, rows, (1.0, 0.9, 0.55, 0.54), (2.0, 2.0, 1.0, 1.0))
    assert maximize_ratio(m).achieved == pytest.approx(0.5225)

    real = fracopt.feasible

    def flaky(model, alpha, deadline=None):
        if alpha > 0.49:
            return FeasibilityResult(None, timed_out=True)
        return real(model, alpha)

    monkeypatch.setattr(fracopt, "feasible", flaky)
    res = fracopt.maximize_ratio(m, 0.0, 1.0, 10)
    assert res.lower_bound_only
    assert res.alpha >= 0.475 - 1e-9
    assert res.alpha < 0.5
    # the certified bound undershoots the true optimum, which lives in the
    # region the timed-out probes never explored
    assert res.achieved == pytest.approx(0.5225)
    assert res.achieved >= res.alpha
