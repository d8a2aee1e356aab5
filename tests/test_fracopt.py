"""Exact 0/1 linear-fractional solver: the argmax oracle and the Dinkelbach search."""
import itertools
import math
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, milp

import ptrack.fracopt as fracopt
from ptrack.fracopt import (
    Argmax,
    Constraint,
    HighsOracle,
    feasible,
    maximize_ratio,
)

from helpers import bench_scenes, rows_model, workload_argv
from oracles import brute_force_argmax_value, brute_force_best_ratio, brute_force_feasible, satisfies


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
        # The search starts at the bracket's lower end, a finite number.
        m = rows_model(1, (), (1.0,), (1.0,))
        for start in (math.inf, math.nan, True, "0"):
            with pytest.raises(ValueError, match="start must be a finite number"):
                maximize_ratio(m, start)

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


def assert_exact_argmax(model, alpha):
    """`feasible` returns a point that meets every row, whose value is the
    enumerated maximum and decides the level as enumeration does."""
    step = feasible(model, alpha)
    want = brute_force_argmax_value(model, alpha)
    assert not step.timed_out
    if want is None:
        assert step.assignment is None, (model, alpha)
        return step
    assert step.assignment is not None, (model, alpha)
    assert all(satisfies(row, step.assignment) for row in model.constraints)
    w = np.asarray(model.numer) - alpha * np.asarray(model.denom)
    assert step.value == float(w @ np.asarray(step.assignment))
    assert step.value == pytest.approx(want, rel=1e-12, abs=1e-12), (model, alpha)
    assert (step.value >= 0.0) == brute_force_feasible(model, alpha)
    return step


def random_row_model(rng, nv, rows, dense=False):
    """Coefficients, right-hand sides and terms on a grid of 1/4, so sums are exact."""
    senses = ("<=", "==", ">=")
    numer = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(nv))
    denom = tuple(float(rng.integers(-8, 9)) / 4.0 for _ in range(nv))
    out = []
    for _ in range(rows):
        size = int(rng.integers(max(2, nv // 2), nv + 1)) if dense else int(rng.integers(1, nv + 1))
        vars_ = [int(v) for v in rng.choice(nv, size=size, replace=False)]
        if dense:
            # Right-hand sides are sums of coefficient subsets, so rows are often tight.
            coeffs = [float(rng.choice([-1, 1]) * rng.integers(1, 9)) / 4.0 for _ in vars_]
            rhs = float(np.asarray(coeffs)[rng.random(size) < 0.5].sum()) + float(rng.integers(-1, 2)) / 4.0
        else:
            coeffs = [float(rng.integers(-8, 9)) / 4.0 for _ in vars_]
            rhs = float(rng.integers(-8, 9)) / 4.0
        out.append(con(vars_, coeffs, senses[int(rng.integers(3))], rhs))
    return rows_model(nv, tuple(out), numer, denom)


class TestFeasibility:
    def test_single_variable_at_half(self):
        m = rows_model(1, (), (1.0,), (1.0,))
        res = feasible(m, 0.5)
        assert res == Argmax((1,), 0.5)
        assert float((m.numer - 0.5 * m.denom) @ np.asarray(res.assignment)) == res.value

    def test_forced_selection_caps_the_ratio(self):
        m = rows_model(2, (con([0, 1], [1.0, 1.0], "==", 1.0),), (0.0, 0.0), (1.0, 1.0))
        res = feasible(m, 0.5)
        assert sum(res.assignment) == 1
        assert res.value == -0.5
        assert not res.timed_out
        ok = feasible(m, 0.0)
        assert sum(ok.assignment) == 1 and ok.value == 0.0

    def test_contradictory_rows_are_infeasible(self):
        rows = (con([0], [1.0], "==", 1.0), con([0], [1.0], "<=", 0.0))
        m = rows_model(1, rows, (1.0,), (1.0,))
        assert feasible(m, 0.0) == Argmax(None)

    @pytest.mark.parametrize(
        "row", [con([], [], ">=", 1.0), con([39], [1.0], ">=", 2.0), con([39], [1.0], "<=", -1.0)]
    )
    def test_unsatisfiable_row_is_refuted_at_the_root(self, row):
        # No assignment satisfies the row: HiGHS reports the model infeasible
        # at once, 40 variables or not.
        m = rows_model(40, (row,), np.zeros(40), np.zeros(40))
        assert feasible(m, 0.0, deadline=time.monotonic() + 5.0) == Argmax(None)
        with pytest.raises(ValueError, match="no feasible solution"):
            maximize_ratio(m, -1.0, time_budget=5.0)

    def test_random_instances_agree_with_enumeration(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            m = random_row_model(rng, int(rng.integers(2, 9)), int(rng.integers(0, 5)))
            assert_exact_argmax(m, float(rng.integers(-8, 9)) / 8.0)


class TestSlackGate:
    """Dense mixed-sign rows, tight rows and rows a coefficient fills exactly:
    the argmax is enumeration's, on small models and on a noisy link model."""

    def test_random_dense_mixed_sign_models_match_full_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(250):
            m = random_row_model(rng, int(rng.integers(3, 11)), int(rng.integers(1, 6)), dense=True)
            for alpha in (-0.5, 0.0, 0.5):
                assert_exact_argmax(m, alpha)

    def test_slack_equal_to_a_coefficient(self):
        # x0 + 2 x1 + x2 <= 2: x0 = 1 leaves a slack of 1, so x1 must be 0.
        rows = (con([0, 1, 2], [1.0, 2.0, 1.0], "<=", 2.0), con([0, 1, 2], [1.0, -2.0, 1.0], ">=", -2.0))
        m = rows_model(3, rows, (1.0, 1.5, 0.25), (1.0, 1.0, 1.0))
        for alpha in (0.0, 0.4, 0.6, 0.9):
            assert_exact_argmax(m, alpha)

    def test_coefficient_above_slack_by_less_than_tolerance(self):
        # 0.5 x2 + b x1 <= 1.5 with b = 1 + 7.5e-9 rules out x1 = x2 = 1 by
        # more than the row's tolerance (4e-9), though by less than HiGHS's
        # default feasibility tolerance (1e-7): the LP vertex x1 = 1 / b is
        # fractional, and the exact answer drops x1.
        row = con([2, 1], [0.5, 1.0 + 7.5e-9], "<=", 1.5)
        m = rows_model(3, (row,), (0.1, 0.5, 1.0), (1.0, 1.0, 1.0))
        assert assert_exact_argmax(m, 0.0).assignment == (1, 0, 1)

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

        steps = record_steps(monkeypatch)
        res = fracopt.maximize_ratio(model, ratio_bracket(cfg)[0])
        # Each step's argmax is the MIP optimum; the last proves alpha*.
        for step_model, alpha, step in steps:
            assert step.value == pytest.approx(milp_value(step_model, alpha), rel=1e-9, abs=1e-9)
        assert [s.value > model.tolerance(a) for _, a, s in steps] == [True] * (len(steps) - 1) + [False]
        assert res.alpha == model.ratio_of(steps[-1][2].assignment)
        assert 2 <= len(steps) <= 4


def record_steps(monkeypatch):
    """Patch `fracopt.feasible` to record (model, alpha, result) of every step."""
    real = fracopt.feasible
    steps = []

    def recording(model, alpha, deadline=None, oracle=None):
        result = real(model, alpha, deadline, oracle)
        steps.append((model, alpha, result))
        return result

    monkeypatch.setattr(fracopt, "feasible", recording)
    return steps


def milp_value(model, alpha):
    """The argmax value at alpha by scipy's public MIP solver, an oracle
    independent of the solver's HiGHS object."""
    n, m = model.num_vars, len(model.rhs)
    a = np.zeros((m, n))
    rows = np.repeat(np.arange(m), np.diff(model.indptr))
    a[rows, model.indices] = model.coeffs
    lower = np.where(model.senses == fracopt.LE, -np.inf, model.rhs)
    upper = np.where(model.senses == fracopt.GE, np.inf, model.rhs)
    w = model.numer - alpha * model.denom
    constraints = [LinearConstraint(a, lower, upper)] if m else []
    res = milp(-w, constraints=constraints, integrality=np.ones(n), bounds=(0, 1),
               options={"mip_rel_gap": 0.0})
    assert res.success, res.message
    return float(w @ np.round(res.x))


class TestExactlyOneBound:
    def test_negative_selection_rows_are_refuted_at_the_root(self):
        # Every option of both `== 1` rows loses at alpha 0.5, so alpha is out
        # of reach: the best is -0.5 on the first row and -0.25 on the second.
        rows = (con([0, 1, 2], [1.0] * 3, "==", 1.0), con([3, 4, 5], [1.0] * 3, "==", 1.0))
        m = rows_model(6, rows, (0.0,) * 6, (1.0, 2.0, 3.0, 0.5, 1.0, 2.0))
        step = assert_exact_argmax(m, 0.5)
        assert step == Argmax((1, 0, 0, 1, 0, 0), -0.75)
        assert not brute_force_feasible(m, 0.5)

    def test_partial_group_may_select_none(self):
        # x1 serves both rows, and selecting neither x2 nor x3 is the only
        # point with a non-negative value.
        rows = (con([0, 1], [1.0, 1.0], "==", 1.0), con([1, 2, 3], [1.0] * 3, "==", 1.0))
        m = rows_model(4, rows, (0.0, 1.0, 0.0, 0.0), (1.0, 1.0, 2.0, 2.0))
        assert brute_force_feasible(m, 0.5)
        assert assert_exact_argmax(m, 0.5) == Argmax((0, 1, 0, 0), 0.5)


class TestTieBreak:
    """At equal value the least tiebreak·x wins, in the LP and in the MIP."""

    @staticmethod
    def model(tiebreak):
        # Every point has ratio 1; the cover row keeps one variable at least.
        m = rows_model(3, (cover_row(3),), (1.0, 2.0, 1.0), (1.0, 2.0, 1.0))
        return fracopt.SolverModel(
            3, m.indptr, m.indices, m.coeffs, m.senses, m.rhs, m.numer, m.denom, tiebreak
        )

    @pytest.mark.parametrize("mip", [False, True], ids=["lp", "mip"])
    def test_least_tiebreak_wins(self, mip):
        for tiebreak, want in (((3.0, 1.0, 2.0), (0, 1, 0)), ((1.0, 3.0, -1.0), (0, 0, 1))):
            m = self.model(tiebreak)
            oracle = m.oracle()
            if mip:
                oracle.use_mip()
            step = feasible(m, 1.0, None, oracle)
            assert step == Argmax(want, 0.0)
            assert maximize_ratio(m).witness == want

    def test_no_tiebreak_keeps_one_run(self, monkeypatch):
        m = rows_model(3, (cover_row(3),), (1.0, 2.0, 1.0), (1.0, 2.0, 1.0))
        runs = []
        real = HighsOracle._minimize
        monkeypatch.setattr(HighsOracle, "_minimize", lambda self, *a: runs.append(a) or real(self, *a))
        feasible(m, 1.0)
        assert len(runs) == 1


class TestForcedTieBreak:
    """The tie-break run is skipped where the LP's optimal face is its vertex alone."""

    def test_least_tiebreak_among_the_optimal_points(self, monkeypatch):
        # One `== 1` row per group of variables: every LP vertex is a 0/1
        # point, and the optimal face is the product of each group's best.
        # Small integer terms make ties common, so the tie run happens on
        # some models and is skipped on others.
        rng = np.random.default_rng(53)
        runs, steps = [], []
        real_minimize, real_feasible = HighsOracle._minimize, fracopt.feasible
        monkeypatch.setattr(HighsOracle, "_minimize", lambda self, *a: runs.append(a) or real_minimize(self, *a))
        monkeypatch.setattr(fracopt, "feasible", lambda *a: steps.append(a) or real_feasible(*a))
        skipped = tied = 0
        for _ in range(60):
            sizes = rng.integers(1, 4, size=int(rng.integers(1, 4)))
            bounds = np.cumsum([0, *sizes]).tolist()
            n = bounds[-1]
            rows = [con(range(a, b), [1.0] * (b - a), "==", 1.0) for a, b in zip(bounds, bounds[1:])]
            numer, denom = rng.integers(0, 4, n).astype(float), rng.integers(1, 4, n).astype(float)
            tiebreak = rng.random(n)
            m = rows_model(n, rows, numer, denom)
            m = fracopt.SolverModel(n, m.indptr, m.indices, m.coeffs, m.senses, m.rhs, numer, denom, tiebreak)
            points = []
            for picks in itertools.product(*(range(a, b) for a, b in zip(bounds, bounds[1:]))):
                x = np.zeros(n, dtype=int)
                x[list(picks)] = 1
                points.append((Fraction(int(numer @ x), int(denom @ x)), -float(tiebreak @ x), tuple(x.tolist())))
            runs.clear()
            steps.clear()
            assert maximize_ratio(m).witness == max(points)[2]
            skipped += len(runs) == len(steps)
            tied += len(runs) == len(steps) + 1
        assert skipped + tied == 60 and skipped > 10 and tied > 10

    @pytest.mark.parametrize(
        "senses, basic, runs",
        [
            (("<=", "==", "=="), [0, 1, -1], 1),  # the inequality row is basic
            (("==", "==", "<="), [0, 1, -1], 2),  # an inequality row is at its bound
            (("==", "==", "=="), [0, 1, -2], 1),
            (("==", "==", "=="), [0, -2, -3], 2),  # a loose column is at its bound
            (("==", "==", "=="), None, 2),  # the basis is not read, as HiGHS reports an error
        ],
    )
    def test_the_skip_reads_the_basis(self, monkeypatch, senses, basic, runs):
        # The point (1, 1) alone satisfies the rows, and every point ties at
        # ratio 1, so every column is loose; a stand-in handle reports the
        # basis: column j as j, row r as -1 - r.
        class Handle:
            def __init__(self, highs):
                self.highs = highs

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def getBasicVariables(self):
                if basic is None:
                    return fracopt._highs.HighsStatus.kError, np.array([0, 1, -2], dtype=np.int32)
                return fracopt._highs.HighsStatus.kOk, np.array(basic, dtype=np.int32)

        rows = (con([0, 1], [1.0, 1.0], senses[0], 2.0), con([0], [1.0], senses[1], 1.0),
                con([1], [1.0], senses[2], 1.0))
        m = rows_model(2, rows, (1.0, 1.0), (1.0, 1.0))
        m = fracopt.SolverModel(2, m.indptr, m.indices, m.coeffs, m.senses, m.rhs, m.numer, m.denom, (1.0, 1.0))
        oracle = m.oracle()
        oracle.highs = Handle(oracle.highs)
        made = []
        real = HighsOracle._minimize
        monkeypatch.setattr(HighsOracle, "_minimize", lambda self, *a: made.append(a) or real(self, *a))
        assert feasible(m, 1.0, None, oracle) == Argmax((1, 1), 0.0)
        assert len(made) == runs

    def test_track_noisy_links_run_two_steps_and_no_tie_run(self, monkeypatch, tmp_path, capsys):
        from ptrack.cli import cli

        runs = []
        real = HighsOracle._minimize
        monkeypatch.setattr(HighsOracle, "_minimize", lambda self, *a: runs.append(self) or real(self, *a))
        for s in bench_scenes().track_noisy(0, tmp_path):
            for argv in workload_argv("track-noisy", s, tmp_path):
                assert cli(argv) == 0
        assert sorted(Counter(map(id, runs)).values()) == [2, 2]


def bench_steps(monkeypatch, tmp_path, workload, command):
    """(model, alpha, result) of every step that `command` makes on each scene of a benchmark workload."""
    from ptrack.cli import cli

    scenes = bench_scenes().BUILDERS[workload](0, tmp_path)
    steps = record_steps(monkeypatch)
    for s in scenes:
        argv = [command, "--out", str(tmp_path / f"{s.name}.out"), "--batch-start", str(s.batch[0]),
                "--batch-end", str(s.batch[1])]
        if command == "track":
            argv += ["--tracks", str(s.files["broken"]), "--patterns", str(s.files["patterns"])]
        else:
            argv += ["--tracks", str(s.files["gt"])]
        assert cli(argv) == 0
    return steps


class TestAgainstReference:
    """Every step of two benchmark workloads, checked against scipy's public MIP solver."""

    def test_track_noisy_link_probes(self, monkeypatch, tmp_path, capsys):
        # Two link solves; each step's LP vertex is integral, and the search
        # needs two steps per model where the bisection made five probes.
        steps = bench_steps(monkeypatch, tmp_path, "track-noisy", "track")
        for model, alpha, step in steps:
            assert step.value == pytest.approx(milp_value(model, alpha), rel=1e-9, abs=1e-9), alpha
        assert len({id(model) for model, _, _ in steps}) == 2
        assert len(steps) == 4

    def test_supervised_dense_mine_probes(self, monkeypatch, tmp_path, capsys):
        steps = bench_steps(monkeypatch, tmp_path, "supervised-dense", "learn-patterns")
        assert steps
        for model, alpha, step in steps:
            assert step.value == pytest.approx(milp_value(model, alpha), rel=1e-9, abs=1e-9), alpha


class TestRatioSearch:
    def test_uniform_ratio_is_reached(self):
        m = rows_model(2, (cover_row(2),), (2.0, 3.0), (2.0, 3.0))
        res = maximize_ratio(m, 0.0)
        assert res.alpha == 1.0
        assert not res.lower_bound_only

    def test_certified_bound_never_exceeds_witness_by_much(self):
        m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
        res = maximize_ratio(m)
        assert res.alpha == m.ratio_of(res.witness) == brute_force_best_ratio(m)[0] == 0.5
        # The witness's parametric value at its own ratio is 0: alpha is reached, not passed.
        assert float((m.numer - res.alpha * m.denom) @ np.asarray(res.witness)) == 0.0

    def test_search_is_deterministic(self):
        m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
        assert maximize_ratio(m) == maximize_ratio(m)

    def test_negative_bracket(self):
        m = rows_model(2, (cover_row(2),), (-3.0, -6.0), (1.0, 2.0))
        res = maximize_ratio(m, -4.0)
        assert res.alpha == -3.0

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
            res = maximize_ratio(m, 0.0)
            assert res.alpha == m.ratio_of(res.witness)
            assert abs(res.alpha - best) <= 1e-12

    def test_a_start_above_the_optimum_still_ends_there(self):
        # Dinkelbach's first step at a level above every ratio returns a
        # witness, whose ratio is at most the optimum; the search goes on up.
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = random_ratio_model(rng, max_vars=6)
            assert maximize_ratio(m, 10.0).alpha == pytest.approx(brute_force_best_ratio(m)[0], abs=1e-12)


def random_ratio_model(rng, max_vars=8):
    """Instances with positive denominators and ratios inside [0, 1].

    Rejects candidates until an assignment selecting at least one variable
    satisfies every row, so the search always has a witness.
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


class _RecordingHighs:
    """A HiGHS handle that records the options set on it and passes every call on."""

    def __init__(self, highs):
        self.highs = highs
        self.options = []

    def setOptionValue(self, name, value):
        self.options.append((name, value))
        return self.highs.setOptionValue(name, value)

    def __getattr__(self, name):
        return getattr(self.highs, name)


class TestTimeBudget:
    @staticmethod
    def anchor():
        return rows_model(300, (), (0.0,) * 300, (0.0,) * 300)

    def test_tiny_budget_times_out(self, monkeypatch):
        # The step starts before the deadline, which has passed by the time
        # HiGHS would start: the step times out without a run.
        monkeypatch.setattr(fracopt, "time", _FakeClock(step=1.0))
        res = feasible(self.anchor(), 0.0, deadline=0.5)
        assert res == Argmax(None, timed_out=True)

    def test_no_budget_completes(self):
        res = feasible(self.anchor(), 0.0)
        assert res == Argmax((0,) * 300, 0.0)

    def test_search_reports_timeout_at_bracket(self):
        with pytest.raises(ValueError, match="^probe timed out") as err:
            maximize_ratio(self.anchor(), time_budget=1e-9)
        assert "degenerate" not in str(err.value)

    def test_highs_runs_with_the_time_left(self, monkeypatch):
        clock = _FakeClock()
        monkeypatch.setattr(fracopt, "time", clock)
        m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
        oracle = m.oracle()
        oracle.highs = _RecordingHighs(oracle.highs)
        clock.now = 7.0
        assert feasible(m, 0.0, 10.0, oracle).assignment == (1, 1, 1)
        assert oracle.highs.options == [("time_limit", 3.0)]


def test_probe_leaves_the_recursion_limit_alone(monkeypatch):
    # The solve must not change interpreter state that every thread of the
    # process shares, however large the model.
    def refuse(limit):
        raise AssertionError(f"the solver set the recursion limit to {limit}")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    res = feasible(rows_model(3000, (), np.zeros(3000), np.zeros(3000)), 0.0)
    assert res.assignment == (0,) * 3000


def test_budget_bounds_the_whole_search_not_each_probe(monkeypatch):
    # Every step costs 1 s of fake time, within a 2.5 s budget on its own,
    # but the search needs three steps: with one deadline for the whole
    # search, the third runs out and the result is a lower bound.
    m = rows_model(3, (cover_row(3),), (1.0, 0.5, 0.25), (2.0, 1.0, 1.0))
    unbounded = maximize_ratio(m, 0.0)
    clock = _FakeClock()
    real = fracopt.feasible
    deadlines, results = [], []

    def one_second_step(model, alpha, deadline=None, oracle=None):
        deadlines.append(deadline)
        result = real(model, alpha, deadline, oracle)
        if not result.timed_out:
            if clock.now + 1.0 > deadline:
                clock.now = deadline
                result = Argmax(None, timed_out=True)
            else:
                clock.now += 1.0
        results.append(result)
        return result

    monkeypatch.setattr(fracopt, "time", clock)
    monkeypatch.setattr(fracopt, "feasible", one_second_step)
    res = fracopt.maximize_ratio(m, 0.0, time_budget=2.5)
    assert res.lower_bound_only
    assert set(deadlines) == {2.5}
    assert [r.timed_out for r in results] == [False, False, True]
    assert clock.now == 2.5
    # The last witness stands: here it is already the optimum, unproven.
    assert res.alpha == unbounded.alpha == 0.5

    clock.now = 0.0
    deadlines.clear()
    results.clear()
    ample = fracopt.maximize_ratio(m, 0.0, time_budget=100.0)
    assert not ample.lower_bound_only
    assert ample == unbounded
    assert len(results) == 3 and set(deadlines) == {100.0}


def test_timed_out_probe_leaves_lower_bound_only(monkeypatch):
    # The first step, at 0, already finds the optimum x0 + x2 + x3 at
    # 2.09 / 4; the step that would prove it is cut, so the ratio stands as
    # a lower bound.
    rows = (
        con([0], [1.0], "==", 1.0),
        con([1, 2], [1.0, 1.0], "==", 1.0),
        con([1, 3], [1.0, 1.0], "==", 1.0),
    )
    m = rows_model(4, rows, (1.0, 0.9, 0.55, 0.54), (2.0, 2.0, 1.0, 1.0))
    assert maximize_ratio(m).alpha == pytest.approx(0.5225)

    real = fracopt.feasible

    def flaky(model, alpha, deadline=None, oracle=None):
        if alpha > 0.49:
            return Argmax(None, timed_out=True)
        return real(model, alpha, deadline, oracle)

    monkeypatch.setattr(fracopt, "feasible", flaky)
    res = fracopt.maximize_ratio(m, 0.0)
    assert res.lower_bound_only
    assert res.witness == (1, 0, 1, 1)
    assert res.alpha == pytest.approx(0.5225)
