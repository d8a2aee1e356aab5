"""Exact solver for 0/1 linear-fractional programs.

The linker and the miner both maximize a ratio of two linear functions over
binary variables under linear constraints.  That reduces to a sequence of
feasibility questions: is there an assignment x with
sum((numer - alpha * denom) * x) >= 0 subject to the constraints?  The answer
is monotone in alpha whenever the denominator stays non-negative, so a
bisection over alpha brackets the optimum to any fixed precision.

`ratio_model` appends the total-score floor row: the summed denominator must
exceed 0 by a margin scaled to the |denominators|, or an assignment with zero
total (in linking, every detection its own path) would pass every probe
vacuously.  It is left out when every denominator is 0.

`maximize_ratio` bisects [lo, hi] `iters` times; lo must lie at or below any
achievable ratio.  It raises ValueError when nothing usable comes back:
"degenerate instance: ..." when the probe at lo is infeasible or every
witness has a denominator of 0 or less, and "probe timed out ..." when the
time budget runs out before the probe at lo ends.

Feasibility itself is decided exactly by depth-first search with bound
propagation and an optimistic bound on the parametric sum.  Instances here
are small and highly structured (selection rows and flow conservation), which
the propagation exploits; there is no approximation anywhere.

Propagation is slack-gated.  Each row keeps the range its activity can still
reach; fixing one more variable shifts that range by the variable's
|coefficient|, so a row can force a variable only when that |coefficient|
exceeds the row's slack.  A row whose largest |coefficient| fits in its slack
is skipped without looking at its variables, which makes dense rows (the
total-score floor, the miner's cost budget) cost next to nothing until they
are nearly tight.  The forced variables are exactly those of a full scan.
The alpha-independent row index is built once per model and shared by every
probe.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

_SENSES = ("<=", "==", ">=")


@dataclass(frozen=True)
class Constraint:
    """A sparse linear constraint over binary variables."""

    vars: tuple[int, ...]
    coeffs: tuple[float, ...]
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        if len(self.vars) != len(self.coeffs):
            raise ValueError("vars and coeffs lengths differ")
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("constraint repeats a variable")
        if not all(math.isfinite(c) for c in self.coeffs) or not math.isfinite(self.rhs):
            raise ValueError("constraint coefficients must be finite")


@dataclass(frozen=True)
class SolverModel:
    """Binary variables, constraints, and the two linear ratio terms."""

    num_vars: int
    constraints: tuple[Constraint, ...]
    numer: tuple[float, ...]
    denom: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 1:
            raise ValueError("model needs at least one variable")
        if len(self.numer) != self.num_vars or len(self.denom) != self.num_vars:
            raise ValueError("ratio term length does not match num_vars")
        if not all(math.isfinite(v) for v in self.numer + self.denom):
            raise ValueError("ratio terms must be finite")
        for con in self.constraints:
            if any(v < 0 or v >= self.num_vars for v in con.vars):
                raise ValueError("constraint references an unknown variable")

    @cached_property
    def _numer_arr(self) -> np.ndarray:
        return np.asarray(self.numer)

    @cached_property
    def _denom_arr(self) -> np.ndarray:
        return np.asarray(self.denom)

    @cached_property
    def _rows(self) -> _RowIndex:
        return _RowIndex(self)

    def ratio_of(self, assignment: tuple[int, ...]) -> float | None:
        """Achieved ratio of an assignment, or None if its denominator is not positive."""
        x = np.asarray(assignment)
        if x.shape != (self.num_vars,):
            raise ValueError("assignment length does not match num_vars")
        total = float(self._denom_arr @ x)
        if total <= 0.0:
            return None
        return float(self._numer_arr @ x) / total

    def certifies(self, assignment: tuple[int, ...], alpha: float) -> bool:
        """Whether an assignment witnesses feasibility at the given ratio level."""
        x = np.asarray(assignment)
        value = float((self._numer_arr - alpha * self._denom_arr) @ x)
        scale = float(np.abs(self._numer_arr).sum() + abs(alpha) * np.abs(self._denom_arr).sum())
        return value >= -1e-9 * (1.0 + scale)


def ratio_model(
    num_vars: int,
    constraints: Sequence[Constraint],
    numer: Sequence[float],
    denom: Sequence[float],
) -> SolverModel:
    """The model with the total-score floor row appended last (see the module docstring)."""
    rows = list(constraints)
    floor_vars = tuple(k for k, d in enumerate(denom) if d != 0.0)
    if floor_vars:
        floor_coeffs = tuple(denom[k] for k in floor_vars)
        floor = 1e-7 * (1.0 + sum(abs(c) for c in floor_coeffs))
        rows.append(Constraint(floor_vars, floor_coeffs, ">=", floor))
    return SolverModel(num_vars, tuple(rows), tuple(numer), tuple(denom))


@dataclass(frozen=True)
class FeasibilityResult:
    assignment: tuple[int, ...] | None
    timed_out: bool = False


@dataclass(frozen=True)
class RatioSearchResult:
    """Outcome of the bisection.

    `alpha` is the certified lower bound reached by the search grid;
    `achieved` is the exact ratio of the returned witness.  When the
    search's time budget runs out before a probe is decided, that probe is
    treated as infeasible and the result is flagged as a lower bound only.
    """

    alpha: float
    witness: tuple[int, ...]
    achieved: float
    lower_bound_only: bool = False


class _Timeout(Exception):
    pass


class _RowIndex:
    """The part of a search that does not depend on alpha, built once per model.

    Per row: variables, coefficients, sense, right-hand side, tolerance, the
    largest |coefficient|, and the sums of its positive and of its negative
    coefficients.  Per variable: the rows it appears in.  Plus the selection
    groups that sharpen the optimistic bound.  Probes share it read-only.
    """

    def __init__(self, model: SolverModel):
        cons = model.constraints
        self.vars = [list(c.vars) for c in cons]
        self.coeffs = [list(c.coeffs) for c in cons]
        self.sense = [c.sense for c in cons]
        self.rhs = [c.rhs for c in cons]
        self.tol = [1e-9 * (1.0 + abs(c.rhs) + sum(abs(q) for q in c.coeffs)) for c in cons]
        self.max_abs = [max((abs(q) for q in c.coeffs), default=0.0) for c in cons]
        self.pos = [sum(max(q, 0.0) for q in c.coeffs) for c in cons]
        self.neg = [sum(min(q, 0.0) for q in c.coeffs) for c in cons]
        n = model.num_vars
        self.var_cons: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for ci, c in enumerate(cons):
            for v, q in zip(c.vars, c.coeffs):
                self.var_cons[v].append((ci, q))

        # Selection rows (sum of a group == 1, unit coefficients) sharpen the
        # optimistic bound: a group contributes at most its best unfixed gain.
        group_of = [-1] * n
        g = 0
        for c in cons:
            if c.sense == "==" and c.rhs == 1.0 and all(q == 1.0 for q in c.coeffs):
                claimed = False
                for v in c.vars:
                    if group_of[v] == -1:
                        group_of[v] = g
                        claimed = True
                if claimed:
                    g += 1
        for v in range(n):
            if group_of[v] == -1:
                group_of[v] = g
                g += 1
        order = sorted(range(n), key=lambda v: (group_of[v], v))
        self.group_order = np.asarray(order)
        starts = [0]
        for k in range(1, n):
            if group_of[order[k]] != group_of[order[k - 1]]:
                starts.append(k)
        self.group_starts = np.asarray(starts)


class _Search:
    """One exact feasibility probe: DFS with propagation and pruning."""

    def __init__(self, model: SolverModel, alpha: float, deadline: float | None):
        n = model.num_vars
        self.n = n
        self.deadline = deadline
        self.nodes = 0
        w = [model.numer[v] - alpha * model.denom[v] for v in range(n)]
        self.w = w
        self.w_tol = 1e-9 * (1.0 + sum(abs(x) for x in w))

        rows = model._rows
        self.con_vars = rows.vars
        self.con_coeffs = rows.coeffs
        self.con_sense = rows.sense
        self.con_rhs = rows.rhs
        self.con_tol = rows.tol
        self.con_max_abs = rows.max_abs
        self.var_cons = rows.var_cons

        self.fixed_sum = [0.0] * len(rows.rhs)
        self.pos_un = list(rows.pos)
        self.neg_un = list(rows.neg)

        self.value = [-1] * n
        self.fixed_w = 0.0
        self.pos_un_w = sum(max(x, 0.0) for x in w)

        self._bound_order = rows.group_order
        self._bound_w = np.asarray(w)[rows.group_order]
        self._group_starts = rows.group_starts
        self._grouped = len(rows.group_starts) < n
        self._unfixed_mask = np.ones(n, dtype=bool)

        self.branch_order = sorted(range(n), key=lambda v: (-abs(w[v]), v))
        self.trail: list[int] = []

    def _optimistic_bound(self) -> float:
        """Best possible parametric gain from the unfixed variables."""
        if not self._grouped:
            return self.pos_un_w
        masked = np.where(self._unfixed_mask[self._bound_order], self._bound_w, -np.inf)
        best = np.maximum.reduceat(masked, self._group_starts)
        return float(np.sum(np.maximum(best, 0.0)))

    def _assign(self, v: int, val: int, pending: list[tuple[int, int]]) -> bool:
        cur = self.value[v]
        if cur != -1:
            return cur == val
        self.value[v] = val
        self.trail.append(v)
        self._unfixed_mask[v] = False
        wv = self.w[v]
        if wv > 0.0:
            self.pos_un_w -= wv
        if val:
            self.fixed_w += wv
        for ci, q in self.var_cons[v]:
            if q > 0.0:
                self.pos_un[ci] -= q
            else:
                self.neg_un[ci] -= q
            if val:
                self.fixed_sum[ci] += q
        if self.fixed_w + self.pos_un_w < -self.w_tol:
            return False
        for ci, _ in self.var_cons[v]:
            if not self._check_constraint(ci, pending):
                return False
        return True

    def _check_constraint(self, ci: int, pending: list[tuple[int, int]]) -> bool:
        sense = self.con_sense[ci]
        rhs = self.con_rhs[ci]
        tol = self.con_tol[ci]
        fixed = self.fixed_sum[ci]
        if sense != ">=" and fixed + self.neg_un[ci] > rhs + tol:
            return False
        if sense != "<=" and fixed + self.pos_un[ci] < rhs - tol:
            return False
        # Fixing an unfixed variable moves the row's activity range by |q|,
        # so nothing is forced while every |q| fits in the slack.  The margin
        # of tol leaves float-boundary cases to the scan below.
        if sense == "<=":
            slack = rhs + tol - (fixed + self.neg_un[ci])
        elif sense == ">=":
            slack = fixed + self.pos_un[ci] - (rhs - tol)
        else:
            slack = min(rhs + tol - (fixed + self.neg_un[ci]), fixed + self.pos_un[ci] - (rhs - tol))
        if self.con_max_abs[ci] + tol <= slack:
            return True
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

    def _propagate(self, v: int, val: int) -> bool:
        pending: list[tuple[int, int]] = [(v, val)]
        while pending:
            u, uval = pending.pop()
            if not self._assign(u, uval, pending):
                return False
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            v = self.trail.pop()
            val = self.value[v]
            self.value[v] = -1
            self._unfixed_mask[v] = True
            wv = self.w[v]
            if wv > 0.0:
                self.pos_un_w += wv
            if val:
                self.fixed_w -= wv
            for ci, q in self.var_cons[v]:
                if q > 0.0:
                    self.pos_un[ci] += q
                else:
                    self.neg_un[ci] += q
                if val:
                    self.fixed_sum[ci] -= q

    def _all_satisfied(self) -> bool:
        if self.fixed_w < -self.w_tol:
            return False
        for ci in range(len(self.con_rhs)):
            fixed = self.fixed_sum[ci]
            rhs = self.con_rhs[ci]
            tol = self.con_tol[ci]
            sense = self.con_sense[ci]
            if sense != ">=" and fixed > rhs + tol:
                return False
            if sense != "<=" and fixed < rhs - tol:
                return False
        return True

    def _dfs(self, order_pos: int) -> bool:
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Timeout
        if self.fixed_w + self._optimistic_bound() < -self.w_tol:
            return False
        while order_pos < self.n and self.value[self.branch_order[order_pos]] != -1:
            order_pos += 1
        if order_pos == self.n:
            return self._all_satisfied()
        v = self.branch_order[order_pos]
        first = 1 if self.w[v] > self.w_tol else 0
        for val in (first, 1 - first):
            mark = len(self.trail)
            if self._propagate(v, val) and self._dfs(order_pos + 1):
                return True
            self._undo(mark)
        return False

    def run(self) -> FeasibilityResult:
        limit = sys.getrecursionlimit()
        needed = self.n * 2 + 200
        if needed > limit:
            sys.setrecursionlimit(needed)
        try:
            if self._dfs(0):
                return FeasibilityResult(tuple(self.value))
            return FeasibilityResult(None)
        except _Timeout:
            return FeasibilityResult(None, timed_out=True)
        finally:
            if needed > limit:
                sys.setrecursionlimit(limit)


def feasible(model: SolverModel, alpha: float, time_budget: float | None = None) -> FeasibilityResult:
    """Decide exactly whether some assignment reaches ratio level alpha.

    Searches for binary x satisfying all constraints with
    sum((numer - alpha * denom) * x) >= 0.  With a time budget, an undecided
    probe is reported as timed out (and callers treat it as infeasible).
    """
    deadline = None if time_budget is None else time.monotonic() + time_budget
    return _Search(model, alpha, deadline).run()


def maximize_ratio(
    model: SolverModel,
    lo: float = 0.0,
    hi: float = 1.0,
    iters: int = 10,
    time_budget: float | None = None,
) -> RatioSearchResult:
    """Bisection for the best achievable ratio over the bracket [lo, hi].

    Probes `lo` first and raises if nothing usable is found there (see the
    module docstring).  Each feasible probe raises the certified bound and
    keeps the best witness seen; each infeasible (or timed-out) probe lowers
    the upper bracket.  After `iters` halvings the certified bound is within
    (hi - lo) * 2**-iters of the true optimum.

    `time_budget` bounds the whole search: each probe gets the time that is
    left, and a probe with no time left counts as timed out.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not isinstance(iters, int) or iters < 1:
        raise ValueError("iters must be a positive int")
    deadline = None if time_budget is None else time.monotonic() + time_budget

    def probe(alpha: float) -> FeasibilityResult:
        if deadline is None:
            return feasible(model, alpha)
        left = deadline - time.monotonic()
        if left <= 0.0:
            return FeasibilityResult(None, timed_out=True)
        return feasible(model, alpha, left)

    first = probe(lo)
    if first.timed_out:
        raise ValueError(f"probe timed out at ratio bound {lo} before finding any solution")
    if first.assignment is None:
        raise ValueError(f"degenerate instance: no feasible solution at ratio bound {lo}")
    witness = first.assignment
    achieved = model.ratio_of(witness)
    lb_only = False
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if model.certifies(witness, mid):
            lo = mid
            continue
        result = probe(mid)
        if result.assignment is not None:
            lo = mid
            ratio = model.ratio_of(result.assignment)
            if achieved is None or (ratio is not None and ratio > achieved):
                witness, achieved = result.assignment, ratio
        else:
            hi = mid
            if result.timed_out:
                lb_only = True
    if achieved is None:
        raise ValueError("degenerate instance: every solution found has a denominator of 0 or less")
    return RatioSearchResult(alpha=lo, witness=witness, achieved=achieved, lower_bound_only=lb_only)
