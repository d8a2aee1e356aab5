"""Small conveniences over the package's API that only the tests use."""
from __future__ import annotations

import dataclasses

from ptrack import Config, DetectionGraph, Pattern, PatternScorer, ScorePair


def edge_score(graph: DetectionGraph, i: int, j: int, pattern: Pattern, cfg: Config) -> ScorePair:
    """Score a single edge against a pattern; see `PatternScorer.edge`."""
    return ScorePair(*PatternScorer(graph, pattern, cfg).edge(i, j))


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
