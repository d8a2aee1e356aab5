"""The solver model as it was built from `Constraint` objects, kept as the reference.

`former_link_model` and `former_mine_model` are `linker.build_link_model` and
`miner.build_mine_model` as they were when each row was one `Constraint`
tuple and variables were looked up in a dict of (pattern, edge) triples.
The array form must give the same rows and numbers, bit for bit.
"""
from __future__ import annotations

from typing import NamedTuple

from ptrack.fracopt import Constraint
from ptrack.miner import _cost_budget

from reference_scoring import PatternScorer, trajectory_score


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
    for t, traj in enumerate(trajectories.nodes):
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
