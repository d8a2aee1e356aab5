"""The solver model as it was built from `Constraint` objects, kept as the reference.

`former_link_model` and `former_mine_model` are `linker.build_link_model` and
`miner.build_mine_model` as they were when each row was one `Constraint`
tuple and variables were looked up in a dict of (pattern, edge) triples.
`FormerRowIndex` is `fracopt._RowIndex` and `former_probe_setup` the
alpha-dependent set-up of the probe (now `fracopt._probe_setup`) as they
were when both were built in Python loops over those tuples; their sums add
left to right, as Python's `sum` did before 3.12.  The array form must give
the same rows, numbers, index and set-up lists, bit for bit.
"""
from __future__ import annotations

from typing import NamedTuple

from ptrack.fracopt import Constraint
from ptrack.miner import _cost_budget

from reference_scoring import PatternScorer, trajectory_score


def _sum(values, start=0):
    """`sum` as Python adds floats before 3.12: left to right, uncompensated."""
    total = start
    for v in values:
        total += v
    return total


class FormerModel(NamedTuple):
    num_vars: int
    constraints: tuple[Constraint, ...]
    numer: tuple[float, ...]
    denom: tuple[float, ...]


def former_link_model(graph, patterns, cfg):
    """(model, triples) as the former `build_link_model` made them."""
    edges = sorted(map(tuple, graph.edges.tolist()))
    triples = tuple((p, i, j) for p in range(len(patterns)) for (i, j) in edges)
    var_of = {t: k for k, t in enumerate(triples)}

    numer = []
    denom = []
    for pattern in patterns:
        scorer = PatternScorer(graph, pattern, cfg)
        for i, j in edges:
            total, aligned = scorer.edge(i, j)
            numer.append(aligned)
            denom.append(total)

    # Each detection's neighbours in sorted edge order, as the graph's former
    # `out_neighbors` and `in_neighbors` listed them.
    out_neighbors = {d: [] for d in graph.ids}
    in_neighbors = {d: [] for d in graph.ids}
    for i, j in edges:
        if i in out_neighbors:
            out_neighbors[i].append(j)
        if j in in_neighbors:
            in_neighbors[j].append(i)

    constraints = []
    n_patterns = len(patterns)
    for d in graph.ids:
        outs = out_neighbors[d]
        ins = in_neighbors[d]
        out_vars = tuple(var_of[(p, d, j)] for p in range(n_patterns) for j in outs)
        in_vars = tuple(var_of[(p, i, d)] for p in range(n_patterns) for i in ins)
        constraints.append(Constraint(out_vars, (1.0,) * len(out_vars), "==", 1.0))
        constraints.append(Constraint(in_vars, (1.0,) * len(in_vars), "==", 1.0))
        for p in range(n_patterns):
            cons_vars = tuple(var_of[(p, i, d)] for i in ins) + tuple(
                var_of[(p, d, j)] for j in outs
            )
            coeffs = (1.0,) * len(ins) + (-1.0,) * len(outs)
            constraints.append(Constraint(cons_vars, coeffs, "==", 0.0))

    return FormerModel(len(triples), tuple(constraints), tuple(numer), tuple(denom)), triples


def former_mine_model(graph, trajectories, candidates, cfg):
    """The model the former `build_mine_model` made."""
    n_traj = len(trajectories)
    n_cand = len(candidates)
    assign_var = lambda t, p: t * n_cand + p
    select_var = lambda p: n_traj * n_cand + (p - 1)
    num_vars = n_traj * n_cand + (n_cand - 1)

    numer = [0.0] * num_vars
    denom = [0.0] * num_vars
    for t, traj in enumerate(trajectories):
        for p, pattern in enumerate(candidates.patterns):
            score = trajectory_score(graph, traj, pattern, cfg)
            numer[assign_var(t, p)] = score.aligned
            denom[assign_var(t, p)] = score.total

    constraints = []
    for t in range(n_traj):
        cvars = tuple(assign_var(t, p) for p in range(n_cand))
        constraints.append(Constraint(cvars, (1.0,) * n_cand, "==", 1.0))
    for t in range(n_traj):
        for p in range(1, n_cand):
            constraints.append(
                Constraint((assign_var(t, p), select_var(p)), (1.0, -1.0), "<=", 0.0)
            )
    if n_cand > 1:
        sel = tuple(select_var(p) for p in range(1, n_cand))
        constraints.append(Constraint(sel, (1.0,) * len(sel), "<=", float(cfg.max_patterns)))
        costs = tuple(candidates.patterns[p].cost for p in range(1, n_cand))
        constraints.append(Constraint(sel, costs, "<=", _cost_budget(graph, cfg)))

    return FormerModel(num_vars, tuple(constraints), tuple(numer), tuple(denom))


class FormerRowIndex:
    """The row index built row by row from a model's `constraints`.

    Per row, its shape: whether it has an upper and a lower side, its two
    bounds widened by the row's tolerance, its slack gate (largest
    |coefficient| plus tolerance), its variables and its coefficients; and
    the sums of its positive and of its negative coefficients.  Per
    variable: the rows it appears in, as (row, coefficient).  Each variable
    also belongs to one bound group, kept as (members, exact).
    """

    def __init__(self, model):
        cons = model.constraints
        self.shape = []
        for c in cons:
            tol = 1e-9 * (1.0 + abs(c.rhs) + _sum(abs(q) for q in c.coeffs))
            self.shape.append((
                c.sense != ">=",
                c.sense != "<=",
                c.rhs + tol,
                c.rhs - tol,
                max((abs(q) for q in c.coeffs), default=0.0) + tol,
                c.vars,
                c.coeffs,
            ))
        self.pos = [_sum(max(q, 0.0) for q in c.coeffs) for c in cons]
        self.neg = [_sum(min(q, 0.0) for q in c.coeffs) for c in cons]
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


def former_probe_setup(model, alpha):
    """The lists a probe at alpha started from, keyed as `fracopt._probe_setup` keys them."""
    n = model.num_vars
    rows = FormerRowIndex(model)
    w = [model.numer[v] - alpha * model.denom[v] for v in range(n)]
    w_tol = 1e-9 * (1.0 + _sum(abs(x) for x in w))
    pos_un_w = _sum(max(x, 0.0) for x in w)
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
    contrib = [opt_w[p] for p in ptr]
    order = sorted(range(n), key=lambda v: (-abs(w[v]), v))
    return dict(
        w=w, w_tol=w_tol, pos_un_w=pos_un_w, opt_var=opt_var, opt_w=opt_w, slot=slot,
        ptr=ptr, contrib=contrib, bound=_sum(contrib), order=order,
    )
