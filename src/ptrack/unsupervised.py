"""Alternating pattern mining and re-linking without ground truth.

Patterns mined from the current trajectories re-link the detections into
better trajectories, which in turn yield better patterns.  Model selection
across iterations uses a split-half proxy score: trajectories are divided at
the batch's middle frame, patterns mined from each half are scored on the
other half, and the two cross scores are averaged.  Trajectories that only
exist because two unrelated halves were stitched together score poorly on
the half they were not mined from, so the proxy tracks real identity quality
without labels.  Within a budget level each distinct trajectory set is
mined and proxy-scored once; over the whole run each distinct mined pattern
set is linked once, since the link never reads the cost budget.  A repeat
reuses those results (in a timed run, a lower bound too, at any later level,
not re-solved) and still gets a history row.
A split that leaves a half empty scores -inf, so its iterate loses to any
other.  Sets are scored against patterns through `scoring.score_matrix`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Assignment, Config, DetectionGraph, Pattern, Trajectory, _is_int
from .linker import LinkResult, link
from .miner import MineResult, generate_candidates, mine
# Unused here: perfbench/tracing.py wraps `trajectory_score` by this name.
from .scoring import score_matrix, trajectory_score


class DegenerateSplit(ValueError):
    """A half of the split-half proxy's split holds no trajectories."""


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
    totals, aligned = score_matrix(graph, trajectories, patterns, cfg)
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
    hit the time budget.  Raises `DegenerateSplit` when a half is empty.
    """
    # Frame f is in the first half when f <= (first + last) / 2, tested in
    # integers: a float midpoint rounds for frames beyond 2**53.
    twice_mid = sum(graph.batch)
    half_a: list[Trajectory] = []
    half_b: list[Trajectory] = []
    rows, starts = graph.rows(trajectories)
    frames, starts = graph.frames[rows].tolist(), starts.tolist()
    for traj, a, b in zip(trajectories, starts, starts[1:]):
        early = sum(1 for f in frames[a:b] if 2 * f <= twice_mid)
        (half_a if early >= b - a - early else half_b).append(traj)
    if not half_a or not half_b:
        raise DegenerateSplit("degenerate split: a half of the batch has no trajectories")
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
    return doubling_schedule(2.5 * min(costs), levels)


def doubling_schedule(start: float, levels: int) -> tuple[float, ...]:
    """`levels` cost budgets from `start`, each twice the one before; a
    budget that is not finite raises ValueError, before any solve."""
    if not _is_int(levels):
        raise ValueError(f"levels must be an integer, got {levels!r}")
    schedule: list[float] = []
    for k in range(levels):
        budget = 2.0 * schedule[-1] if schedule else float(start)
        if not math.isfinite(budget):
            raise ValueError(f"cost budget of level {k + 1} is not finite: {start!r} doubled {k} times")
        schedule.append(budget)
    return tuple(schedule)


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
    budget).  Each distinct trajectory set is mined once per level and each
    distinct pattern set is linked once per run, a timed-out link's lower
    bound included, so a fixed point or a cycle costs lookups only; every
    iteration still gets a history row.  Returns the iterate with the best
    proxy score; ties go to the earliest.  An iterate whose split leaves a
    half empty gets proxy -inf, so it is returned only when every iterate is
    degenerate, and then the first.  Raises if `iterations_per_level` is not
    an integer of at least 1.
    """
    if not _is_int(iterations_per_level):
        raise ValueError(f"iterations_per_level must be an integer, got {iterations_per_level!r}")
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
    # `link` never reads the cost budget, so a pattern set links alike at every level.
    links: dict[tuple[Pattern, ...], LinkResult] = {}
    for budget in schedule:
        level_cfg = cfg.with_cost_budget(budget)
        steps: dict[tuple[Trajectory, ...], tuple[MineResult, LinkResult]] = {}
        proxies: dict[tuple[Trajectory, ...], float] = {}
        for _ in range(iterations_per_level):
            if current not in steps:
                candidates = generate_candidates(graph, current, level_cfg)
                mined = mine(graph, current, candidates, level_cfg, time_budget=time_budget)
                if mined.patterns not in links:
                    links[mined.patterns] = link(graph, mined.patterns, level_cfg, time_budget=time_budget)
                linked = links[mined.patterns]
                steps[current] = (mined, linked)
                lower_bound_only |= mined.lower_bound_only or linked.lower_bound_only
            mined, linked = steps[current]
            current = linked.all_trajectories
            if current not in proxies:
                try:
                    proxies[current], proxy_hit = split_half_score(graph, current, level_cfg, time_budget)
                except DegenerateSplit:
                    proxies[current], proxy_hit = -np.inf, False
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
