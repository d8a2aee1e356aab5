"""Exact solver for 0/1 linear-fractional programs.

The linker and the miner both maximize a ratio of two linear functions over
binary variables under linear constraints.  That reduces to a sequence of
feasibility questions: is there an assignment x with
sum((numer - alpha * denom) * x) >= 0 subject to the constraints?  The answer
is monotone in alpha whenever the denominator stays non-negative, so a
bisection over alpha brackets the optimum to any fixed precision.

No row rules out a witness whose denominator is 0 or less, which passes
every probe vacuously: in the linker's and the miner's models every path
pays for its ends inside the batch and for the length it travels, so such
covers are rare (a one-frame batch has them, and so has one where nothing
moves).  `maximize_ratio` keeps the best witness with a positive denominator.

`maximize_ratio` bisects [lo, hi] `iters` times; lo must lie at or below any
achievable ratio.  It raises ValueError when nothing usable comes back:
"degenerate instance: ..." when the probe at lo is infeasible or every
witness has a denominator of 0 or less, and "probe timed out ..." when the
time budget runs out before the probe at lo ends.

Feasibility itself is decided exactly by depth-first search with bound
propagation and an optimistic bound on the parametric sum.  Instances here
are small and highly structured (selection rows and flow conservation), which
the propagation exploits; there is no approximation anywhere.

Each branch runs one flat propagation loop over a stack of pending
assignments: fix a variable, shift the activity range of each of its rows by
its |coefficient|, then check those rows in order, pushing every variable a
row forces.  So a row can force a variable only when that variable's
|coefficient| exceeds the row's slack, and a row whose largest |coefficient|
fits in its slack is skipped without looking at its variables: dense rows
(the miner's count and cost budgets) cost next to nothing until they are
nearly tight, and the forced variables are exactly those of a full
scan.  The alpha-independent row index is built once per model and shared by
every probe.

The bound is kept per selection group (see `_RowIndex`) and updated on every
assignment and undo, through a pointer into the group's variables sorted by
w.  A group that holds its whole `== 1` row must select exactly one of them,
so it adds its best unfixed w even when that is negative; a partial group
may select none and adds max(best, 0).  Both the bound and the propagation
are valid: they cut only subtrees that hold no accepted leaf.  The search
visits leaves in a fixed order (variables by decreasing |w|, the sign of w
picking the first value), so such cuts never change which accepted leaf
comes first: every probe returns the same witness, with or without them.
"""
from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property

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

    Per row, its shape: whether it has an upper and a lower side, its two
    bounds widened by the row's tolerance, its slack gate (largest
    |coefficient| plus tolerance), its variables and its coefficients; and
    the sums of its positive and of its negative coefficients.  Per
    variable: the rows it appears in, as (row, coefficient).  Probes share it
    read-only and bind these lists to locals.

    Each variable also belongs to one bound group, kept as (members, exact).
    A `== 1` row with unit coefficients claims the variables no earlier such
    row claimed; the group is exact when it claims every variable of its row,
    and partial otherwise (the entry-only part of a link model's in-row,
    say).  Each remaining variable is a partial group of its own.
    """

    def __init__(self, model: SolverModel):
        cons = model.constraints
        self.shape = []
        for c in cons:
            tol = 1e-9 * (1.0 + abs(c.rhs) + sum(abs(q) for q in c.coeffs))
            self.shape.append((
                c.sense != ">=",
                c.sense != "<=",
                c.rhs + tol,
                c.rhs - tol,
                max((abs(q) for q in c.coeffs), default=0.0) + tol,
                c.vars,
                c.coeffs,
            ))
        self.pos = [sum(max(q, 0.0) for q in c.coeffs) for c in cons]
        self.neg = [sum(min(q, 0.0) for q in c.coeffs) for c in cons]
        n = model.num_vars
        self.var_cons: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for ci, c in enumerate(cons):
            for v, q in zip(c.vars, c.coeffs):
                self.var_cons[v].append((ci, q))

        self.group_of = [-1] * n
        self.groups: list[tuple[list[int], bool]] = []
        for c in cons:
            if c.sense == "==" and c.rhs == 1.0 and all(q == 1.0 for q in c.coeffs):
                claimed = [v for v in c.vars if self.group_of[v] == -1]
                if claimed:
                    self._add_group(claimed, len(claimed) == len(c.vars))
        for v in range(n):
            if self.group_of[v] == -1:
                self._add_group([v], False)

    def _add_group(self, members: list[int], exact: bool) -> None:
        for v in members:
            self.group_of[v] = len(self.groups)
        self.groups.append((members, exact))


class _Search:
    """One exact feasibility probe: DFS with propagation and pruning.

    `run` binds the model's row index and the probe's state to locals once;
    its nested functions share them.
    """

    def __init__(self, model: SolverModel, alpha: float, deadline: float | None):
        self.model = model
        self.alpha = alpha
        self.deadline = deadline
        self.nodes = 0

    def run(self) -> FeasibilityResult:
        model, deadline = self.model, self.deadline
        n = model.num_vars
        w = [model.numer[v] - self.alpha * model.denom[v] for v in range(n)]
        w_tol = 1e-9 * (1.0 + sum(abs(x) for x in w))
        rows = model._rows
        shape, var_cons, group_of = rows.shape, rows.var_cons, rows.group_of
        fixed_sum = [0.0] * len(shape)
        pos_un = list(rows.pos)
        neg_un = list(rows.neg)
        # value[n] is the "none" option of the bound groups, never fixed.
        value = [-1] * (n + 1)
        trail: list[int] = []
        fixed_w = 0.0
        pos_un_w = sum(max(x, 0.0) for x in w)

        # The group bound.  Each group's options sit in `opt_var`/`opt_w`
        # sorted by w, best first; ptr[g] is the first unfixed one, so
        # opt_w[ptr[g]] is the best a group can still add, and a group adds 0
        # once one of its variables is 1 (they share a `== 1` row, or there
        # is only one).  A partial group may select none of its variables, so
        # its options include "none" (w 0) at its place in that order.  An
        # exact group must select one, so its best unfixed w counts even when
        # negative; its "none" comes last and is reached only when every
        # option is fixed to 0, which propagation rejects before any node
        # reads the bound.
        opt_var: list[int] = []
        opt_w: list[float] = []
        slot = [0] * n
        ptr: list[int] = []
        for members, exact in rows.groups:
            ranked = sorted(members, key=w.__getitem__, reverse=True)
            ranked.insert(len(ranked) if exact else sum(w[v] > 0.0 for v in ranked), n)
            ptr.append(len(opt_var))
            for v in ranked:
                if v < n:
                    slot[v] = len(opt_var)
                opt_var.append(v)
                opt_w.append(w[v] if v < n else 0.0)
        ones = [0] * len(ptr)
        contrib = [opt_w[p] for p in ptr]
        bound = sum(contrib)

        order = sorted(range(n), key=lambda v: (-abs(w[v]), v))
        nodes = 0

        def propagate(v: int, val: int) -> bool:
            """Fix v = val and everything that forces, in the order of a pending stack."""
            nonlocal fixed_w, pos_un_w, bound
            pending = [(v, val)]
            pop, push = pending.pop, pending.append
            while pending:
                u, val = pop()
                cur = value[u]
                if cur != -1:
                    if cur != val:
                        return False
                    continue
                value[u] = val
                trail.append(u)
                wu = w[u]
                if wu > 0.0:
                    pos_un_w -= wu
                cons_u = var_cons[u]
                for ci, q in cons_u:
                    if q > 0.0:
                        pos_un[ci] -= q
                    else:
                        neg_un[ci] -= q
                    if val:
                        fixed_sum[ci] += q
                g = group_of[u]
                p = ptr[g]
                if val:
                    fixed_w += wu
                    ones[g] += 1
                moved = slot[u] == p
                if moved:
                    p += 1
                    while value[opt_var[p]] != -1:
                        p += 1
                    ptr[g] = p
                if val or moved:
                    best = 0.0 if ones[g] else opt_w[p]
                    bound += best - contrib[g]
                    contrib[g] = best
                if fixed_w + pos_un_w < -w_tol:
                    return False

                for ci, _ in cons_u:
                    up, down, top, bottom, gate, row_vars, row_coeffs = shape[ci]
                    fixed = fixed_sum[ci]
                    # Fixing an unfixed variable moves the row's activity
                    # range by |q|, so nothing is forced while every |q| fits
                    # in the slack.  The gate's margin of tol leaves
                    # float-boundary cases to the scan below.
                    if up:
                        least = fixed + neg_un[ci]
                        if least > top:
                            return False
                        slack = top - least
                        if down:
                            most = fixed + pos_un[ci]
                            if most < bottom:
                                return False
                            if most - bottom < slack:
                                slack = most - bottom
                    else:
                        most = fixed + pos_un[ci]
                        if most < bottom:
                            return False
                        slack = most - bottom
                    if gate <= slack:
                        continue
                    neg = neg_un[ci]
                    pos = pos_un[ci]
                    for x, q in zip(row_vars, row_coeffs):
                        if value[x] != -1:
                            continue
                        can_zero = can_one = True
                        if up:
                            lo_rest = neg - q if q < 0.0 else neg
                            if fixed + q + lo_rest > top:
                                can_one = False
                            if fixed + lo_rest > top:
                                can_zero = False
                        if down:
                            hi_rest = pos - q if q > 0.0 else pos
                            if fixed + q + hi_rest < bottom:
                                can_one = False
                            if fixed + hi_rest < bottom:
                                can_zero = False
                        if can_zero:
                            if not can_one:
                                push((x, 0))
                        elif can_one:
                            push((x, 1))
                        else:
                            return False
            return True

        def undo(mark: int) -> None:
            nonlocal fixed_w, pos_un_w, bound
            for _ in range(len(trail) - mark):
                u = trail.pop()
                val = value[u]
                value[u] = -1
                wu = w[u]
                if wu > 0.0:
                    pos_un_w += wu
                for ci, q in var_cons[u]:
                    if q > 0.0:
                        pos_un[ci] += q
                    else:
                        neg_un[ci] += q
                    if val:
                        fixed_sum[ci] -= q
                g = group_of[u]
                if val:
                    fixed_w -= wu
                    ones[g] -= 1
                moved = slot[u] < ptr[g]
                if moved:
                    ptr[g] = slot[u]
                if val or moved:
                    best = 0.0 if ones[g] else opt_w[ptr[g]]
                    bound += best - contrib[g]
                    contrib[g] = best

        def satisfied() -> bool:
            if fixed_w < -w_tol:
                return False
            for (up, down, top, bottom, *_), fixed in zip(shape, fixed_sum):
                if up and fixed > top:
                    return False
                if down and fixed < bottom:
                    return False
            return True

        def dfs(pos: int) -> bool:
            nonlocal nodes
            nodes += 1
            if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
                raise _Timeout
            if fixed_w + bound < -w_tol:
                return False
            while pos < n and value[order[pos]] != -1:
                pos += 1
            if pos == n:
                return satisfied()
            v = order[pos]
            first = 1 if w[v] > w_tol else 0
            for val in (first, 1 - first):
                mark = len(trail)
                if propagate(v, val) and dfs(pos + 1):
                    return True
                undo(mark)
            return False

        limit = sys.getrecursionlimit()
        needed = n * 2 + 200
        if needed > limit:
            sys.setrecursionlimit(needed)
        try:
            if dfs(0):
                return FeasibilityResult(tuple(value[:n]))
            return FeasibilityResult(None)
        except _Timeout:
            return FeasibilityResult(None, timed_out=True)
        finally:
            self.nodes = nodes
            # dfs reaches itself through its closure; break that cycle so the
            # probe's state is freed now, not at the next garbage collection.
            del dfs
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
