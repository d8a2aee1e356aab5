"""Alternating pattern mining and re-linking without ground truth.

Patterns mined from the current trajectories re-link the detections into
better trajectories, which in turn yield better patterns.  Model selection
across iterations uses a split-half proxy score: trajectories are divided at
the batch's middle frame, patterns mined from each half are scored on the
other half, and the two cross scores are averaged.  Trajectories that only
exist because two unrelated halves were stitched together score poorly on
the half they were not mined from, so the proxy tracks real identity quality
without labels.  Within a budget level each distinct trajectory set is
mined, linked and proxy-scored once; a repeat reuses those results (in a
timed run, a lower bound too, not re-solved) and still gets a history row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Assignment, Config, DetectionGraph, Pattern, Trajectory
from .linker import LinkResult, link
from .miner import MineResult, generate_candidates, mine
# Unused here: perfbench/tracing.py wraps `trajectory_score` by this name.
from .scoring import trajectory_score, trajectory_scores


@dataclass(frozen=True)
class HistoryEntry:
    iteration: int
    cost_budget: float
    n_patterns: int
    proxy_score: float


@dataclass(frozen=True)
class UnsupervisedResult:
    """Best iterate of the alternation, picked by the split-half proxy score.

    `lower_bound_only` is true when any mine or link hit the time budget,
    the split-half proxy's own mines included.
    """

    trajectories: tuple[Trajectory, ...]
    patterns: tuple[Pattern, ...]
    assignment: Assignment
    history: tuple[HistoryEntry, ...]
    lower_bound_only: bool = False


def _cross_score(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    patterns: Sequence[Pattern],
    cfg: Config,
) -> float:
    """Objective of a trajectory set under its per-trajectory best patterns: the
    first of the best aligned / total among positive totals, added in order."""
    scores = (trajectory_scores(graph, trajectories, pattern, cfg) for pattern in patterns)
    totals, aligned = (np.stack(side, axis=1) for side in zip(*scores))
    scored = totals > 0.0
    ratio = np.divide(aligned, totals, out=np.full_like(totals, -np.inf), where=scored)
    rows = np.flatnonzero(scored.any(axis=1))
    best = np.argmax(scored & (ratio == ratio.max(axis=1, keepdims=True)), axis=1)[rows]
    total_sum, aligned_sum = (np.cumsum([0.0, *side[rows, best]])[-1] for side in (totals, aligned))
    if total_sum <= 0.0:
        raise ValueError("degenerate instance: total score is not positive")
    return float(aligned_sum / total_sum)


def split_half_score(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    cfg: Config,
    time_budget: float | None = None,
) -> tuple[float, bool]:
    """Label-free quality proxy for a trajectory set, and whether a mine hit the budget.

    Splits the set at the batch's middle frame (a trajectory goes to the half
    holding more of its frames), mines patterns from each half, and averages
    the two cross-half objectives.  The flag is true when either half's mine
    hit the time budget.  Raises on a degenerate split where one half is empty.
    """
    first, last = graph.batch
    mid = 0.5 * (first + last)
    half_a: list[Trajectory] = []
    half_b: list[Trajectory] = []
    rows, starts = graph.rows(trajectories)
    frames, starts = graph.frames[rows].tolist(), starts.tolist()
    for traj, a, b in zip(trajectories, starts, starts[1:]):
        early = sum(1 for f in frames[a:b] if f <= mid)
        (half_a if early >= b - a - early else half_b).append(traj)
    if not half_a or not half_b:
        raise ValueError("degenerate split: a half of the batch has no trajectories")
    candidates_a = generate_candidates(graph, half_a, cfg)
    mined_a = mine(graph, half_a, candidates_a, cfg, time_budget=time_budget)
    candidates_b = generate_candidates(graph, half_b, cfg)
    mined_b = mine(graph, half_b, candidates_b, cfg, time_budget=time_budget)
    score = 0.5 * (
        _cross_score(graph, half_b, mined_a.patterns, cfg)
        + _cross_score(graph, half_a, mined_b.patterns, cfg)
    )
    return score, mined_a.lower_bound_only or mined_b.lower_bound_only


def default_schedule(
    graph: DetectionGraph,
    initial: Sequence[Trajectory],
    cfg: Config,
    levels: int = 5,
) -> tuple[float, ...]:
    """Doubling cost-budget schedule starting at about two thin patterns.

    A first level that can only afford a couple of the cheapest candidate
    patterns forces the miner to generalize across trajectories instead of
    memorizing each one; later levels relax the budget.
    """
    candidates = generate_candidates(graph, initial, cfg)
    costs = [p.cost for p in candidates.patterns if not p.is_empty]
    if not costs:
        raise ValueError("no candidate patterns to build a budget schedule from")
    start = 2.5 * min(costs)
    return tuple(start * (2.0**k) for k in range(levels))


def run_unsupervised(
    graph: DetectionGraph,
    initial: Sequence[Trajectory],
    cfg: Config,
    schedule: Sequence[float] | None = None,
    iterations_per_level: int = 5,
    stop_patterns: int | None = None,
    time_budget: float | None = None,
) -> UnsupervisedResult:
    """Alternate mining and linking over a growing cost-budget schedule.

    Runs a fixed number of alternations per budget level, recording the
    split-half proxy score of every iterate, and stops early once a level
    ends with at least `stop_patterns` patterns (default: the pattern count
    budget).  Each distinct trajectory set is solved once per level, so a
    fixed point or a cycle costs lookups only; every iteration still gets a
    history row.  Returns the iterate with the best proxy score; ties go to
    the earliest.  Raises if `iterations_per_level` is below 1.
    """
    if iterations_per_level < 1:
        raise ValueError(f"iterations_per_level must be at least 1, got {iterations_per_level}")
    if schedule is None:
        schedule = default_schedule(graph, initial, cfg)
    if not schedule:
        raise ValueError("empty budget schedule")
    if stop_patterns is None:
        stop_patterns = cfg.max_patterns

    current = tuple(initial)
    history: list[HistoryEntry] = []
    best: tuple[float, tuple[Trajectory, ...], tuple[Pattern, ...], Assignment] | None = None
    lower_bound_only = False
    for budget in schedule:
        level_cfg = cfg.with_cost_budget(budget)
        steps: dict[tuple[Trajectory, ...], tuple[MineResult, LinkResult]] = {}
        proxies: dict[tuple[Trajectory, ...], float] = {}
        for _ in range(iterations_per_level):
            if current not in steps:
                candidates = generate_candidates(graph, current, level_cfg)
                mined = mine(graph, current, candidates, level_cfg, time_budget=time_budget)
                linked = link(graph, mined.patterns, level_cfg, time_budget=time_budget)
                steps[current] = (mined, linked)
                lower_bound_only |= mined.lower_bound_only or linked.lower_bound_only
            mined, linked = steps[current]
            current = linked.all_trajectories
            if current not in proxies:
                proxies[current], proxy_hit = split_half_score(graph, current, level_cfg, time_budget)
                lower_bound_only |= proxy_hit
            proxy = proxies[current]
            history.append(HistoryEntry(len(history) + 1, budget, len(mined.patterns) - 1, proxy))
            if best is None or proxy > best[0]:
                best = (proxy, current, mined.patterns, linked.full_assignment)
        if len(mined.patterns) - 1 >= stop_patterns:
            break

    best_score = max(h.proxy_score for h in history)
    assert best[0] == best_score, "returned iterate must be the history argmax"
    return UnsupervisedResult(
        trajectories=best[1],
        patterns=best[2],
        assignment=best[3],
        history=tuple(history),
        lower_bound_only=lower_bound_only,
    )
