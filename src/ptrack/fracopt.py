"""Exact solver for 0/1 linear-fractional programs.

The linker and the miner both maximize a ratio of two linear functions over
binary variables under linear constraints.  That reduces to a sequence of
feasibility questions: is there an assignment x with
sum((numer - alpha * denom) * x) >= 0 subject to the constraints?  The answer
is monotone in alpha whenever the denominator stays non-negative, so a
bisection over alpha brackets the optimum to any fixed precision.

A model has one form, arrays (see `SolverModel`): its rows in compressed
sparse row (CSR) form with a sense code and a right-hand side each, and the
two ratio terms.  The linker and the miner write those arrays and pass them
to the one constructor, `SolverModel(num_vars, indptr, indices, coeffs,
senses, rhs, numer, denom)`; `model.constraints` reads the rows back as
`Constraint` records.

No row rules out a witness whose denominator is 0 or less, which passes
every probe vacuously: in the linker's and the miner's models every path
pays for its ends inside the batch and for the length it travels, so such
covers are rare (a one-frame batch has them, and so has one where nothing
moves).  `maximize_ratio` keeps the best witness with a positive denominator.

`maximize_ratio` bisects [lo, hi] `iters` times; lo must lie at or below any
achievable ratio.  It raises ValueError when nothing usable comes back:
"degenerate instance: ..." when the probe at lo is infeasible or every
witness has a denominator of 0 or less, and "probe timed out ..." when the
time budget runs out before the probe at lo ends.  The budget becomes one
deadline, which every probe of the search shares.

Feasibility itself is decided exactly by depth-first search (one loop over
an explicit path of open nodes) with bound propagation and an optimistic
bound on the parametric sum.  Instances here are small and highly structured
(selection rows and flow conservation), which the propagation exploits;
there is no approximation anywhere.

Each branch runs one flat propagation loop: fix a variable, shift the
activity range of each of its rows by its |coefficient|, then check those
rows.  A variable that a row forces is fixed at once and stacked, and the
rows of each stacked variable are checked in turn.  So a row can force a
variable only when that variable's |coefficient| exceeds the row's slack,
and a row whose largest |coefficient| fits in its slack, or that has no
unfixed variable left, is skipped without looking at its variables: dense
rows (the miner's count and cost budgets) cost next to nothing until they
are nearly tight, and the forced variables are exactly those of a full
scan.  The alpha-independent row index is built once per model and shared by
every probe; both it and each probe's set-up are computed with numpy.

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
import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Row sense codes; a code indexes `_SENSES`.
LE, EQ, GE = range(3)
_SENSES = ("<=", "==", ">=")


@dataclass(frozen=True)
class Constraint:
    """One row of a `SolverModel`, as `model.constraints` gives it back: its
    variables, their coefficients, its sense ("<=", "==" or ">=") and its
    right-hand side."""

    vars: tuple[int, ...]
    coeffs: tuple[float, ...]
    sense: str
    rhs: float


def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class SolverModel:
    """Binary variables, linear rows and the two linear ratio terms, as arrays.

    Row r holds the variables `indices[indptr[r]:indptr[r + 1]]`, with the
    coefficients at the same places of `coeffs`, the sense code `senses[r]`
    (LE, EQ or GE for "<=", "==" and ">=") and the right-hand side `rhs[r]`.
    `numer` and `denom` hold one float per variable.  The arrays are
    read-only.

    The constructor checks the arrays and raises ValueError on a malformed
    model.  The `constraints` view gives the rows as `Constraint` objects,
    built on first read.
    """

    def __init__(self, num_vars, indptr, indices, coeffs, senses, rhs, numer, denom):
        if not _is_int(num_vars):
            raise ValueError(f"num_vars must be an int, got {num_vars!r}")
        if num_vars < 1:
            raise ValueError("model needs at least one variable")
        numer, denom, coeffs, rhs = (np.array(a, dtype=float) for a in (numer, denom, coeffs, rhs))
        indptr, indices, senses = np.asarray(indptr), np.asarray(indices), np.asarray(senses)
        if numer.shape != (num_vars,) or denom.shape != (num_vars,):
            raise ValueError("ratio term length does not match num_vars")
        if not (np.isfinite(numer).all() and np.isfinite(denom).all()):
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
        self.indptr, self.indices, self.coeffs, self.senses, self.rhs, self.numer, self.denom = map(
            _frozen, (indptr, indices, coeffs, senses.astype(np.int8), rhs, numer, denom)
        )

    @cached_property
    def constraints(self) -> tuple[Constraint, ...]:
        """The rows as `Constraint` objects, built on first read."""
        ptr, idx, q = self.indptr.tolist(), self.indices.tolist(), self.coeffs.tolist()
        return tuple(
            Constraint(tuple(idx[a:b]), tuple(q[a:b]), _SENSES[s], r)
            for a, b, s, r in zip(ptr, ptr[1:], self.senses.tolist(), self.rhs.tolist())
        )

    @cached_property
    def _rows(self) -> _RowIndex:
        return _RowIndex(self)

    def ratio_of(self, assignment: tuple[int, ...]) -> float | None:
        """Achieved ratio of an assignment, or None if its denominator is not positive."""
        x = np.asarray(assignment)
        if x.shape != (self.num_vars,):
            raise ValueError("assignment length does not match num_vars")
        total = float(self.denom @ x)
        if total <= 0.0:
            return None
        return float(self.numer @ x) / total

    def certifies(self, assignment: tuple[int, ...], alpha: float) -> bool:
        """Whether an assignment witnesses feasibility at the given ratio level."""
        x = np.asarray(assignment)
        value = float((self.numer - alpha * self.denom) @ x)
        scale = float(np.abs(self.numer).sum() + abs(alpha) * np.abs(self.denom).sum())
        return value >= -1e-9 * (1.0 + scale)


@dataclass(frozen=True)
class FeasibilityResult:
    """A probe's witness or None, whether it timed out, and the search nodes it
    visited; equality compares only the first two."""

    assignment: tuple[int, ...] | None
    timed_out: bool = False
    nodes: int = field(default=0, compare=False)


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


def _sum(values: np.ndarray) -> float:
    """The sum of a vector, added left to right (numpy's `sum` adds pairwise)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _row_sums(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Each CSR row's sum of `values` (one column or more), added left to right.

    Rows are taken longest first, so the rows that still have a k-th entry
    are a prefix; one vector addition per entry position adds them all.
    """
    lengths = np.diff(indptr)
    by_length = np.argsort(-lengths, kind="stable")
    longest = lengths[by_length]
    starts = indptr[:-1][by_length]
    acc = np.zeros((len(lengths), *values.shape[1:]))
    reaching = np.searchsorted(-longest, -np.arange(longest[0] if len(longest) else 0), side="left")
    for k, m in enumerate(reaching.tolist()):
        acc[:m] += values[starts[:m] + k]
    sums = np.empty_like(acc)
    sums[by_length] = acc
    return sums


class _RowIndex:
    """The part of a search that does not depend on alpha, built once per model.

    Per row, its shape: whether it has an upper and a lower side, its two
    bounds widened by the row's tolerance, its slack gate (largest
    |coefficient| plus tolerance), its variables and its coefficients; the
    sums of its positive and of its negative coefficients; and its length.
    Per variable: the rows it appears in, as (row, coefficient).  `refuted`
    says whether some row fails under every assignment.  Probes share the
    index read-only and bind these lists to locals.

    Each variable also belongs to one bound group.  A `== 1` row with unit
    coefficients claims the variables no earlier such row claimed; the group
    is exact when it claims every variable of its row, and partial otherwise
    (the entry-only part of a link model's in-row, say).  Each remaining
    variable is a partial group of its own, after those.  Groups are kept as
    arrays: `group_members` lists every group's variables in turn, group g's
    from `group_starts[g]` on, with `group_exact[g]`; `member_group` is the
    group of each entry of `group_members`, and `group_of` of each variable.
    """

    def __init__(self, model: SolverModel):
        indptr, indices, coeffs, rhs = model.indptr, model.indices, model.coeffs, model.rhs
        n, n_rows = model.num_vars, len(rhs)
        lengths = np.diff(indptr)
        magnitude = np.abs(coeffs)
        size, pos, neg = _row_sums(
            np.column_stack([magnitude, np.maximum(coeffs, 0.0), np.minimum(coeffs, 0.0)]), indptr
        ).T
        tol = 1e-9 * ((1.0 + np.abs(rhs)) + size)
        gate = np.zeros(n_rows)
        nonempty = np.flatnonzero(lengths)
        if nonempty.size:
            gate[nonempty] = np.maximum.reduceat(magnitude, indptr[nonempty])
        gate += tol
        up, down, top, bottom = model.senses != GE, model.senses != LE, rhs + tol, rhs - tol
        # A row whose whole activity range [neg, pos] misses its bounds fails
        # under every assignment; without this flag the search would find
        # that out once per leaf below the row's first variable.
        self.refuted = bool((up & (neg > top)).any() or (down & (pos < bottom)).any())
        ptr, idx, q = indptr.tolist(), indices.tolist(), coeffs.tolist()
        self.shape = list(zip(
            up.tolist(),
            down.tolist(),
            top.tolist(),
            bottom.tolist(),
            gate.tolist(),
            [idx[a:b] for a, b in zip(ptr, ptr[1:])],
            [q[a:b] for a, b in zip(ptr, ptr[1:])],
        ))
        self.pos = pos.tolist()
        self.neg = neg.tolist()
        self.lengths = lengths.tolist()

        # Entries by variable, each variable's in row order.
        row_of = np.repeat(np.arange(n_rows), lengths)
        by_var = np.argsort(indices, kind="stable")
        pairs = list(zip(row_of[by_var].tolist(), coeffs[by_var].tolist()))
        ends = np.cumsum(np.bincount(indices, minlength=n)).tolist()
        self.var_cons = [pairs[a:b] for a, b in zip([0, *ends], ends)]

        # A variable's first entry in a unit row is its claim; the claims of
        # one row, in row order, are its group.
        unit = (model.senses == EQ) & (rhs == 1.0) & (
            np.bincount(row_of[coeffs != 1.0], minlength=n_rows) == 0
        )
        in_unit = by_var[unit[row_of[by_var]]]
        first = np.ones(len(in_unit), dtype=bool)
        first[1:] = indices[in_unit[1:]] != indices[in_unit[:-1]]
        claims = np.sort(in_unit[first])
        claim_rows = row_of[claims]
        head = np.ones(len(claims), dtype=bool)
        head[1:] = claim_rows[1:] != claim_rows[:-1]
        heads = np.flatnonzero(head)
        sizes = np.diff(heads, append=len(claims))
        claimed = np.zeros(n, dtype=bool)
        claimed[indices[claims]] = True
        lone = np.flatnonzero(~claimed)
        self.group_members = np.concatenate([indices[claims], lone])
        self.group_exact = np.concatenate([sizes == lengths[claim_rows[heads]], np.zeros(len(lone), bool)])
        sizes = np.concatenate([sizes, np.ones(len(lone), dtype=np.int64)])
        self.group_starts = np.cumsum(sizes) - sizes
        self.member_group = np.repeat(np.arange(len(sizes)), sizes)
        group_of = np.empty(n, dtype=np.int64)
        group_of[self.group_members] = self.member_group
        self.group_of = group_of.tolist()


def _probe_setup(model: SolverModel, alpha: float) -> dict:
    """The lists a probe at alpha starts from: w = numer - alpha * denom, its
    tolerance and positive sum, the group rankings and the branching order.

    Each group's options are its variables by decreasing w (ties in member
    order), with the "none" option n placed after the positive ones in a
    partial group and last in an exact one; `ptr[g]` is where group g's
    options start, `slot[v]` where v sits.  The branching order is by
    decreasing |w|, ties by index.  Sums add left to right.
    """
    rows = model._rows
    n, members, group = model.num_vars, rows.group_members, rows.member_group
    w = model.numer - alpha * model.denom
    ranked = members[np.lexsort((-w[members], group))]
    positive = np.bincount(group[w[members] > 0.0], minlength=len(rows.group_starts))
    none_at = np.where(rows.group_exact, np.diff(rows.group_starts, append=n), positive)
    place = np.arange(n) + group + (np.arange(n) - rows.group_starts[group] >= none_at[group])
    opt_var = np.full(n + len(rows.group_starts), n)
    opt_var[place] = ranked
    opt_w = np.zeros(len(opt_var))
    opt_w[place] = w[ranked]
    slot = np.empty(n, dtype=np.int64)
    slot[ranked] = place
    ptr = rows.group_starts + np.arange(len(rows.group_starts))
    return dict(
        w=w.tolist(),
        w_tol=1e-9 * (1.0 + _sum(np.abs(w))),
        pos_un_w=_sum(w[w > 0.0]),
        opt_var=opt_var.tolist(),
        opt_w=opt_w.tolist(),
        slot=slot.tolist(),
        ptr=ptr.tolist(),
        contrib=opt_w[ptr].tolist(),
        bound=_sum(opt_w[ptr]),
        order=np.argsort(-np.abs(w), kind="stable").tolist(),
    )


def feasible(model: SolverModel, alpha: float, deadline: float | None = None) -> FeasibilityResult:
    """Decide exactly whether some assignment reaches ratio level alpha.

    Searches for binary x satisfying all constraints with
    sum((numer - alpha * denom) * x) >= 0, depth first in one loop over an
    explicit path.  `deadline` is a `time.monotonic()` time: a probe that
    starts at or after it returns timed out without searching, and one that
    passes it (checked every 256 nodes) stops and returns timed out; callers
    treat a timed-out probe as infeasible.  A model with a row that fails
    under every assignment (`_RowIndex.refuted`) is infeasible after one node.
    """
    if deadline is not None and time.monotonic() >= deadline:
        return FeasibilityResult(None, timed_out=True)
    n = model.num_vars
    rows = model._rows
    if rows.refuted:
        return FeasibilityResult(None, nodes=1)
    shape, var_cons, group_of = rows.shape, rows.var_cons, rows.group_of
    setup = _probe_setup(model, alpha)
    w, w_tol, order = setup["w"], setup["w_tol"], setup["order"]
    fixed_sum = [0.0] * len(shape)
    pos_un = list(rows.pos)
    neg_un = list(rows.neg)
    free = list(rows.lengths)
    # value[n] is the "none" option of the bound groups, never fixed.
    value = [-1] * (n + 1)
    trail: list[int] = []
    fixed_w = 0.0
    pos_un_w = setup["pos_un_w"]

    # The group bound.  Each group's options sit in `opt_var`/`opt_w` sorted
    # by w, best first; ptr[g] is the first unfixed one, so opt_w[ptr[g]] is
    # the best a group can still add, and a group adds 0 once one of its
    # variables is 1 (they share a `== 1` row, or there is only one).  A
    # partial group may select none of its variables, so its options include
    # "none" (w 0) at its place in that order.  An exact group must select
    # one, so its best unfixed w counts even when negative; its "none" comes
    # last and is reached only when every option is fixed to 0, which
    # propagation rejects before any node reads the bound.
    opt_var, opt_w, slot, ptr = setup["opt_var"], setup["opt_w"], setup["slot"], setup["ptr"]
    ones = [0] * len(ptr)
    contrib = setup["contrib"]
    bound = setup["bound"]

    def fix(u: int, val: int) -> bool:
        """Set u = val; False if the parametric sum can no longer reach 0."""
        nonlocal fixed_w, pos_un_w, bound
        value[u] = val
        trail.append(u)
        wu = w[u]
        if wu > 0.0:
            pos_un_w -= wu
        for ci, q in var_cons[u]:
            if q > 0.0:
                pos_un[ci] -= q
            else:
                neg_un[ci] -= q
            free[ci] -= 1
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
        return fixed_w + pos_un_w >= -w_tol

    def propagate(v: int, val: int) -> bool:
        """Fix v = val and all it forces, checking each fixed variable's rows in stack order."""
        if not fix(v, val):
            return False
        stack = [v]
        pop, push = stack.pop, stack.append
        while stack:
            for ci, _ in var_cons[pop()]:
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
                if gate <= slack or not free[ci]:
                    continue
                # A variable fixed during this scan moves the row's sums;
                # the scan goes on from the sums it started with, which
                # are looser, and the row is checked again from that
                # variable.
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
                        if can_one:
                            continue
                        forced = 0
                    elif can_one:
                        forced = 1
                    else:
                        return False
                    if not fix(x, forced):
                        return False
                    push(x)
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
                free[ci] += 1
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

    # One (pos, v, mark, other) per open node on the path: v = order[pos] is
    # set, mark is the trail's length before it was, and other is the value
    # still to try, or -1.
    path: list[tuple[int, int, int, int]] = []
    pos = 0
    nodes = 0
    while True:
        nodes += 1
        if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            return FeasibilityResult(None, timed_out=True, nodes=nodes)
        if fixed_w + bound >= -w_tol:
            while pos < n and value[order[pos]] != -1:
                pos += 1
            if pos == n:
                if satisfied():
                    return FeasibilityResult(tuple(value[:n]), nodes=nodes)
            else:
                v = order[pos]
                val = 1 if w[v] > w_tol else 0
                path.append((pos, v, len(trail), 1 - val))
                if propagate(v, val):
                    pos += 1
                    continue
        # No accepted leaf below this node: undo back to the deepest open
        # node with a value left, and try it.
        while path:
            pos, v, mark, val = path.pop()
            undo(mark)
            if val != -1:
                path.append((pos, v, mark, -1))
                if propagate(v, val):
                    pos += 1
                    break
        else:
            return FeasibilityResult(None, nodes=nodes)


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

    `time_budget`, None or a positive finite number of seconds, bounds the
    whole search: it becomes one deadline that every probe shares, so a probe
    that starts after it counts as timed out.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    if not _is_int(iters) or iters < 1:
        raise ValueError("iters must be a positive int")
    if time_budget is not None and not (_is_real(time_budget) and 0.0 < time_budget < math.inf):
        raise ValueError(f"time_budget must be None or positive and finite, got {time_budget!r}")
    deadline = None if time_budget is None else time.monotonic() + time_budget
    first = feasible(model, lo, deadline)
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
        result = feasible(model, mid, deadline)
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
