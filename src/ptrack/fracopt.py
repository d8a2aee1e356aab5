"""Exact solver for 0/1 linear-fractional programs.

The linker and the miner both maximize a ratio of two linear functions,
numer·x / denom·x, over binary x under linear rows.  `maximize_ratio` solves
that by Dinkelbach's method (Dinkelbach 1967, "On nonlinear fractional
programming"): at a level alpha, an oracle returns the argmax of
(numer - alpha * denom)·x; alpha becomes that witness's exact ratio, and the
loop stops once the argmax's value is at most a tolerance of 1e-9 relative
to the terms' magnitude.  Every step's witness is feasible and has an exact
ratio, so the ratios rise strictly, the loop ends after finitely many
steps, and the last witness is optimal up to that tolerance.  The per-step
call is `feasible(model, alpha, deadline)`: alpha is reachable exactly when
the argmax's value is 0 or more.

A model has one form, arrays (see `SolverModel`): its rows in compressed
sparse row (CSR) form with a sense code and a right-hand side each, and the
two ratio terms.  The linker and the miner write those arrays and pass them
to the one constructor; `model.constraints` reads the rows back as
`Constraint` records.  A model may also carry a tie-break term: among the
optimal witnesses, the search returns one with the least tiebreak·x.

The oracle comes from the model (`SolverModel.oracle`).  The default one is
a linear program (LP) on one HiGHS object per solve: dual simplex, presolve
off, one thread.  A step changes only the column costs, so each solve
starts from the last basis.  An LP optimum at an integral vertex is an
integer optimum, since the LP bounds the 0/1 problem; at a fractional
vertex the same object becomes a mixed-integer program (MIP) for the rest
of the solve.  The handle is scipy's private `_highspy._core._Highs`;
`tests/test_highs_handle.py` pins the methods used here.
`core._scipy_extension` loads that compiled module from scipy's directory
without running `scipy.optimize`'s package init, which would add about
0.4 s to the start of every command.  HiGHS runs with its feasibility
tolerances at the model's 1e-9, and `feasible` still checks every witness
against every row and fails loudly on a broken one.

`maximize_ratio` starts at `start`, which must lie at or below every
achievable ratio (`scoring.ratio_bracket` gives it for the linker and the
miner).  It raises ValueError when nothing usable comes back: "degenerate
instance: ..." when no 0/1 point satisfies the rows, or when the argmax has
a denominator of 0 or less and no earlier witness is left to fall back on,
and "probe timed out ..." when the time budget runs out before the first
witness.  The budget becomes one deadline for the whole solve: HiGHS runs
with the time left as its limit, and a solve cut short returns its last
witness as a lower bound.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import _frozen, _is_int, _is_real, _scipy_extension

# A private module: see the module docstring.
_highs = _scipy_extension("scipy.optimize._highspy._core")

# Row sense codes; a code indexes `_SENSES`.
LE, EQ, GE = range(3)
_SENSES = ("<=", "==", ">=")

_OPTIONS = (
    ("output_flag", False),
    ("presolve", "off"),
    ("threads", 1),
    ("simplex_strategy", 1),  # dual simplex
    ("mip_rel_gap", 0.0),
    ("mip_abs_gap", 0.0),
    # The model's rows hold to 1e-9 of their scale (`SolverModel.slack`); so must HiGHS's.
    ("primal_feasibility_tolerance", 1e-9),
    ("dual_feasibility_tolerance", 1e-9),
    ("mip_feasibility_tolerance", 1e-9),
)


@dataclass(frozen=True)
class Constraint:
    """One row of a `SolverModel`, as `model.constraints` gives it back: its
    variables, their coefficients, its sense ("<=", "==" or ">=") and its
    right-hand side."""

    vars: tuple[int, ...]
    coeffs: tuple[float, ...]
    sense: str
    rhs: float


class SolverModel:
    """Binary variables, linear rows and the two linear ratio terms, as arrays.

    Row r holds the variables `indices[indptr[r]:indptr[r + 1]]`, with the
    coefficients at the same places of `coeffs`, the sense code `senses[r]`
    (LE, EQ or GE for "<=", "==" and ">=") and the right-hand side `rhs[r]`.
    `numer` and `denom` hold one float per variable, and so does `tiebreak`
    (zeros when not given): at equal ratio, the least tiebreak·x wins.  The
    arrays are read-only.

    The constructor checks the arrays and raises ValueError on a malformed
    model.  The `constraints` view gives the rows as `Constraint` objects,
    built on first read.
    """

    def __init__(self, num_vars, indptr, indices, coeffs, senses, rhs, numer, denom, tiebreak=None):
        if not _is_int(num_vars):
            raise ValueError(f"num_vars must be an int, got {num_vars!r}")
        if num_vars < 1:
            raise ValueError("model needs at least one variable")
        if tiebreak is None:
            tiebreak = np.zeros(num_vars)
        numer, denom, tiebreak, coeffs, rhs = (
            np.array(a, dtype=float) for a in (numer, denom, tiebreak, coeffs, rhs)
        )
        indptr, indices, senses = np.asarray(indptr), np.asarray(indices), np.asarray(senses)
        if any(a.shape != (num_vars,) for a in (numer, denom, tiebreak)):
            raise ValueError("ratio term length does not match num_vars")
        if not (np.isfinite(numer).all() and np.isfinite(denom).all() and np.isfinite(tiebreak).all()):
            raise ValueError("ratio terms must be finite")
        if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu":
            raise ValueError("constraint variables and row pointers must be integers")
        indptr, indices = indptr.astype(np.int64), indices.astype(np.int64)
        lengths = np.diff(indptr)
        if (
            rhs.ndim != 1
            or indptr.shape != (len(rhs) + 1,)
            or indptr[0] != 0
            or (lengths < 0).any()
            or indices.shape != (indptr[-1],)
            or coeffs.shape != indices.shape
            or senses.shape != rhs.shape
        ):
            raise ValueError("rows are not in CSR form")
        if senses.size and (senses.dtype.kind not in "iu" or senses.min() < LE or senses.max() > GE):
            raise ValueError("unknown sense code")
        if not (np.isfinite(coeffs).all() and np.isfinite(rhs).all()):
            raise ValueError("constraint coefficients must be finite")
        if indices.size and (indices.min() < 0 or indices.max() >= num_vars):
            raise ValueError("constraint references an unknown variable")
        keys = np.repeat(np.arange(len(rhs)) * num_vars, lengths) + indices
        keys.sort()
        if (keys[1:] == keys[:-1]).any():
            raise ValueError("constraint repeats a variable")
        self.num_vars = int(num_vars)
        (
            self.indptr, self.indices, self.coeffs, self.senses, self.rhs,
            self.numer, self.denom, self.tiebreak,
        ) = map(_frozen, (indptr, indices, coeffs, senses.astype(np.int8), rhs, numer, denom, tiebreak))

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as `Constraint` objects, built on first read."""
        ptr, idx, q = self.indptr.tolist(), self.indices.tolist(), self.coeffs.tolist()
        return tuple(
            Constraint(tuple(idx[a:b]), tuple(q[a:b]), _SENSES[s], r)
            for a, b, s, r in zip(ptr, ptr[1:], self.senses.tolist(), self.rhs.tolist())
        )

    def oracle(self) -> HighsOracle:
        """A fresh oracle for one solve (see `HighsOracle`)."""
        return HighsOracle(self)

    @cached_property
    def _row_of(self) -> np.ndarray:
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.indptr))

    @cached_property
    def slack(self) -> np.ndarray:
        """How far each row may pass its right-hand side, as `satisfied` and
        the miner's enumeration allow: 1e-9 of 1 + |rhs| + its |coefficients|."""
        scale = np.bincount(self._row_of, np.abs(self.coeffs), minlength=len(self.rhs))
        return _frozen(1e-9 * (1.0 + np.abs(self.rhs) + scale))

    def satisfied(self, x: np.ndarray) -> bool:
        """Whether a 0/1 vector meets every row, each to within its `slack`."""
        activity = np.bincount(self._row_of, self.coeffs * x[self.indices], minlength=len(self.rhs))
        over = (self.senses != GE) & (activity > self.rhs + self.slack)
        under = (self.senses != LE) & (activity < self.rhs - self.slack)
        return not (over.any() or under.any())

    def tolerance(self, alpha: float) -> float:
        """The slack of a parametric value at level alpha: 1e-9 of the terms' size."""
        return 1e-9 * (1.0 + float(np.abs(self.numer).sum() + abs(alpha) * np.abs(self.denom).sum()))

    def ratio_of(self, assignment: tuple[int, ...]) -> float | None:
        """Achieved ratio of an assignment, or None if its denominator is not positive."""
        x = np.asarray(assignment)
        if x.shape != (self.num_vars,):
            raise ValueError("assignment length does not match num_vars")
        total = float(self.denom @ x)
        if total <= 0.0:
            return None
        return float(self.numer @ x) / total


class HighsOracle:
    """The argmax of w·x over a model's 0/1 points, on one HiGHS object.

    `argmax(w, deadline, tol)` returns a 0/1 vector, or None when no point
    satisfies the rows, and whether the deadline cut the run; `tol` is the
    model's tolerance at the step's level.  The first
    runs solve the LP relaxation; the first fractional vertex turns the
    object into a MIP for good.

    Ties go to the least tiebreak·x where they decide the answer: at a
    level whose best value is within the tolerance of 0, which ends the
    search (see `maximize_ratio`).  In the LP, the optimal face is where
    every column with a nonzero reduced cost keeps its value: those columns
    are fixed and tiebreak·x is minimized over the rest, then the bounds
    are restored.  A MIP has no reduced costs, so there a row w·x >= the
    optimum's value, less the tolerance, is added for that second run and
    removed after it.  A deadline that cuts the second run cuts the step.
    """

    def __init__(self, model: SolverModel):
        self.model = model
        n, m = model.num_vars, len(model.rhs)
        self.cols = np.arange(n, dtype=np.int32)
        self.mip = False
        self.highs = highs = _highs._Highs()
        for option, value in _OPTIONS:
            highs.setOptionValue(option, value)
        highs.passModel(
            n, m, len(model.indices), int(_highs.MatrixFormat.kRowwise), int(_highs.ObjSense.kMinimize), 0.0,
            np.zeros(n), np.zeros(n), np.ones(n),
            np.where(model.senses == LE, -_highs.kHighsInf, model.rhs),
            np.where(model.senses == GE, _highs.kHighsInf, model.rhs),
            model.indptr.astype(np.int32), model.indices.astype(np.int32), model.coeffs,
            np.zeros(n, dtype=np.int32),
        )

    def argmax(self, w: np.ndarray, deadline: float | None, tol: float):
        x, timed_out = self._minimize(-w, deadline)
        if x is None or not self.model.tiebreak.any() or float(w @ x) > tol:
            return x, timed_out
        if self.mip:
            floor = float(w @ x) - tol
            self.highs.addRow(floor, _highs.kHighsInf, len(w), self.cols, w)
            tied, timed_out = self._minimize(self.model.tiebreak, deadline)
            self.highs.deleteRows(1, np.array([len(self.model.rhs)], dtype=np.int32))
        else:
            fixed = self.cols[np.abs(self.highs.getSolution().col_dual) > tol]
            self.highs.changeColsBounds(len(fixed), fixed, x[fixed] * 1.0, x[fixed] * 1.0)
            tied, timed_out = self._minimize(self.model.tiebreak, deadline)
            self.highs.changeColsBounds(len(fixed), fixed, np.zeros(len(fixed)), np.ones(len(fixed)))
        if timed_out:
            return None, True
        # Reduced costs within the tolerance add up over the columns they
        # free; a face point that lost more than the tolerance is not a tie.
        if tied is None or float(w @ tied) < float(w @ x) - tol:
            return x, False
        return tied, False

    def _minimize(self, cost: np.ndarray, deadline: float | None):
        """(x, timed out) of one run at these column costs."""
        highs = self.highs
        highs.changeColsCost(len(cost), self.cols, cost)
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0.0:
                return None, True
            highs.setOptionValue("time_limit", left)
        highs.run()
        status = highs.getModelStatus()
        if status == _highs.HighsModelStatus.kTimeLimit:
            return None, True
        if status == _highs.HighsModelStatus.kInfeasible:
            return None, False
        if status != _highs.HighsModelStatus.kOptimal:
            raise RuntimeError(f"HiGHS stopped with status {highs.modelStatusToString(status)!r}")
        values = np.array(highs.getSolution().col_value)
        x = np.round(values)
        if np.abs(values - x).max() <= 1e-9:
            return x.astype(np.int64), False
        if self.mip:
            raise RuntimeError("HiGHS returned a fractional MIP solution")
        self.use_mip()
        return self._minimize(cost, deadline)

    def use_mip(self) -> None:
        """Make every column integer, for the rest of the solve."""
        self.mip = True
        n = len(self.cols)
        self.highs.changeColsIntegrality(n, self.cols, np.full(n, _highs.HighsVarType.kInteger))


@dataclass(frozen=True)
class Argmax:
    """One step of the ratio search at a level alpha.

    `assignment` is the argmax of (numer - alpha * denom)·x over the model's
    0/1 points (at a level where that is within the tolerance of 0, ties go
    to the least tiebreak·x) and `value` its value; alpha is
    reachable exactly when the value is 0 or more.  `assignment` is None
    when no point satisfies the rows, or when the deadline passed first
    (`timed_out`).
    """

    assignment: tuple[int, ...] | None
    value: float = -math.inf
    timed_out: bool = False


@dataclass(frozen=True)
class RatioSearchResult:
    """Outcome of the ratio search.

    `alpha` is the exact ratio of `witness`.  It is the optimum, up to the
    solver's tolerance, unless the time budget ran out first: then the
    witness is the last step's and `lower_bound_only` is set.
    """

    alpha: float
    witness: tuple[int, ...]
    lower_bound_only: bool = False


def feasible(model: SolverModel, alpha: float, deadline: float | None = None, oracle=None) -> Argmax:
    """The argmax at level alpha: alpha is reachable exactly when its value is 0 or more.

    `oracle` is the solve's oracle, a fresh `model.oracle()` when None.
    `deadline` is a `time.monotonic()` time; a step that starts at or after
    it, or that it cuts, returns timed out.  The witness is checked against
    every row, and one that breaks a row raises AssertionError.
    """
    if deadline is not None and time.monotonic() >= deadline:
        return Argmax(None, timed_out=True)
    w = model.numer - alpha * model.denom
    x, timed_out = (oracle or model.oracle()).argmax(w, deadline, model.tolerance(alpha))
    if x is None:
        return Argmax(None, timed_out=timed_out)
    if not model.satisfied(x):
        raise AssertionError(f"the oracle's argmax at alpha {alpha} breaks a row")
    return Argmax(tuple(x.tolist()), float(w @ x))


def maximize_ratio(
    model: SolverModel, start: float = 0.0, time_budget: float | None = None
) -> RatioSearchResult:
    """Dinkelbach's method from level `start` (see the module docstring).

    `time_budget`, None or a positive finite number of seconds, bounds the
    whole search as one deadline.
    """
    if not _is_real(start):
        raise ValueError(f"start must be a finite number, got {start!r}")
    if time_budget is not None and not (_is_real(time_budget) and time_budget > 0.0):
        raise ValueError(f"time_budget must be None or positive and finite, got {time_budget!r}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    oracle = model.oracle()
    alpha, best = float(start), None
    while True:
        step = feasible(model, alpha, deadline, oracle)
        if step.timed_out:
            if best is None:
                raise ValueError(f"probe timed out at ratio bound {start} before finding any solution")
            return RatioSearchResult(*best, lower_bound_only=True)
        if step.assignment is None:
            raise ValueError(f"degenerate instance: no feasible solution at ratio bound {alpha}")
        ratio = model.ratio_of(step.assignment)
        if abs(step.value) <= model.tolerance(alpha):
            # No point beats alpha, so it is the optimum: the argmax is an
            # optimal witness too, and the tie-break's pick.
            if ratio is not None:
                return RatioSearchResult(ratio, step.assignment)
            if best is not None:
                return RatioSearchResult(*best)
        if ratio is None:
            raise ValueError("degenerate instance: every solution found has a denominator of 0 or less")
        if best is not None and ratio <= best[0]:
            # Rounding stopped the rise: the last witness stands.
            return RatioSearchResult(*best)
        alpha, best = ratio, (ratio, step.assignment)
