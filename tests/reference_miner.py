"""The per-candidate twin pass that `ptrack.miner`'s family pass replaced, kept as the reference.

`score_columns` scores each candidate with the scalar reference scorer, one
trajectory at a time; `cheapest_twins` keeps the cheapest candidate of each
distinct column, the lowest index on a cost tie.  The columns of
`scoring.score_matrix` must be these, bit for bit, and `miner._cheapest_twins`
must keep the same indices.
"""
from __future__ import annotations

from reference_scoring import trajectory_score


def score_columns(graph, trajectories, candidates, cfg):
    columns = []
    for pattern in candidates.patterns:
        sums = [trajectory_score(graph, t, pattern, cfg) for t in trajectories]
        columns.append((*(s.total for s in sums), *(s.aligned for s in sums)))
    return columns


def cheapest_twins(graph, trajectories, candidates, cfg):
    cheapest = {}
    columns = score_columns(graph, trajectories, candidates, cfg)
    for p, (pattern, column) in enumerate(zip(candidates.patterns, columns)):
        kept = cheapest.setdefault(column, p)
        if pattern.cost < candidates.patterns[kept].cost:
            cheapest[column] = p
    return tuple(sorted(cheapest.values()))
