"""The per-candidate twin pass that `ptrack.miner`'s family pass replaced, kept as the reference.

`score_columns` scores each candidate in its own `trajectory_scores` pass;
`cheapest_twins` keeps the cheapest candidate of each distinct column, the
lowest index on a cost tie.  The columns of `scoring.score_matrix` must be
these, bit for bit, and `miner._cheapest_twins` must keep the same indices.
"""
from __future__ import annotations

from ptrack.scoring import trajectory_scores


def score_columns(graph, trajectories, candidates, cfg):
    columns = []
    for pattern in candidates.patterns:
        total, aligned = trajectory_scores(graph, trajectories, pattern, cfg)
        columns.append((*total.tolist(), *aligned.tolist()))
    return columns


def cheapest_twins(graph, trajectories, candidates, cfg):
    cheapest = {}
    columns = score_columns(graph, trajectories, candidates, cfg)
    for p, (pattern, column) in enumerate(zip(candidates.patterns, columns)):
        kept = cheapest.setdefault(column, p)
        if pattern.cost < candidates.patterns[kept].cost:
            cheapest[column] = p
    return tuple(sorted(cheapest.values()))
