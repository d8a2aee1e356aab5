"""The DFS probe before its propagation became one flat loop, kept as the reference.

`ReferenceSearch` and `ReferenceRowIndex` are the probe (then the class
`fracopt._Search`, now `fracopt.feasible`) and `fracopt._RowIndex` as they
were when each assignment and each row check was a method call and the
optimistic bound was recomputed with numpy at every node: every group
clipped at 0, whether or not its selection row is complete.
The current probe must decide every model the same way, with the same
witness, in no more nodes.
"""
from __future__ import annotations

import sys
import time

import numpy as np

from ptrack.fracopt import FeasibilityResult


class _Timeout(Exception):
    pass


class ReferenceRowIndex:
    """The part of a search that does not depend on alpha, built once per model.

    Per row: variables, coefficients, sense, right-hand side, tolerance, the
    largest |coefficient|, and the sums of its positive and of its negative
    coefficients.  Per variable: the rows it appears in.  Plus the selection
    groups that sharpen the optimistic bound.  Probes share it read-only.
    """

    def __init__(self, model):
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


class ReferenceSearch:
    """One exact feasibility probe: DFS with propagation and pruning."""

    def __init__(self, model, alpha, deadline=None):
        n = model.num_vars
        self.n = n
        self.deadline = deadline
        self.nodes = 0
        w = [model.numer[v] - alpha * model.denom[v] for v in range(n)]
        self.w = w
        self.w_tol = 1e-9 * (1.0 + sum(abs(x) for x in w))

        rows = ReferenceRowIndex(model)
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
