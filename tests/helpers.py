"""Small conveniences over the package's API that only the tests use."""
from __future__ import annotations

import dataclasses
import math

import numpy as np

import ptrack.unsupervised as unsupervised
from ptrack import (
    Config,
    DetectionGraph,
    Pattern,
    ScorePair,
    corrupt,
    edge_scores,
    generate_scene,
)
from ptrack.fracopt import _SENSES, SolverModel

# The two crossing corridors of the two-flow layout.
CROSS = (
    Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
    Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
)


def edge_score(graph: DetectionGraph, i: int, j: int, pattern: Pattern, cfg: Config) -> ScorePair:
    """Score a single edge against a pattern: `edge_scores` on one edge."""
    total, aligned = edge_scores(graph, pattern, cfg, [i], [j])
    return ScorePair(float(total[0]), float(aligned[0]))


def rows_model(num_vars, rows, numer, denom) -> SolverModel:
    """A `SolverModel` over `Constraint` rows: their CSR arrays, in row order."""
    rows = tuple(rows)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(c.vars) for c in rows], out=indptr[1:])
    flat = [v for c in rows for v in c.vars]
    return SolverModel(
        num_vars,
        indptr,
        np.array(flat) if flat else np.zeros(0, dtype=np.int64),
        [q for c in rows for q in c.coeffs],
        [_SENSES.index(c.sense) for c in rows],
        [c.rhs for c in rows],
        numer,
        denom,
    )


def mark_lower_bound(monkeypatch, module, name: str) -> None:
    """Patch `module.name` so every result it returns says a time budget was hit."""
    solve = getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *a, **kw: dataclasses.replace(solve(*a, **kw), lower_bound_only=True)
    )


def mark_proxy_lower_bound(monkeypatch) -> None:
    """Patch `split_half_score` so that only its own mines say a time budget was hit."""
    proxy = unsupervised.split_half_score

    def marked(*args, **kwargs):
        with monkeypatch.context() as inner:
            mark_lower_bound(inner, unsupervised, "mine")
            return proxy(*args, **kwargs)

    monkeypatch.setattr(unsupervised, "split_half_score", marked)


def config_to_text(cfg: Config) -> str:
    """`key=value` lines that `config_overrides_from_text` reads back into `cfg`."""
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        if field.name == "candidate_widths":
            value = ",".join(f"{w:g}" for w in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{field.name}={value}")
    return "".join(line + "\n" for line in lines)


def crossing_family(n, sigma, ops, jitter=0.2):
    """n agents alternating corridors, starting at frames 1..n, and the corrupted tracks."""
    agents = tuple((k % 2, k + 1) for k in range(n))
    scene = generate_scene(
        CROSS, agents, speed=math.sqrt(2.0), lateral_sigma=sigma, speed_jitter=jitter, seed=1
    )
    return scene, corrupt(scene.track_lists(), ops)
