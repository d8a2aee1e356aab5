"""Alternating pattern mining and re-linking without ground truth.

Patterns mined from the current trajectories re-link the detections into
better trajectories, which in turn yield better patterns.  Model selection
across iterations uses a split-half proxy score: trajectories are divided at
the batch's middle frame, patterns mined from each half are scored on the
other half, and the two cross scores are averaged.  Trajectories that only
exist because two unrelated halves were stitched together score poorly on
the half they were not mined from, so the proxy tracks real identity quality
without labels.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import Assignment, Config, DetectionGraph, Pattern, Trajectory
from .linker import link
from .miner import generate_candidates, mine
from .scoring import trajectory_score


@dataclass(frozen=True)
class HistoryEntry:
    iteration: int
    cost_budget: float
    n_patterns: int
    proxy_score: float


@dataclass(frozen=True)
class UnsupervisedResult:
    """Best iterate of the alternation, picked by the split-half proxy score."""

    trajectories: tuple[Trajectory, ...]
    patterns: tuple[Pattern, ...]
    assignment: Assignment
    history: tuple[HistoryEntry, ...]


def _cross_score(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    patterns: Sequence[Pattern],
    cfg: Config,
) -> float:
    """Objective of a trajectory set under its per-trajectory best patterns."""
    total = 0.0
    aligned = 0.0
    for traj in trajectories:
        best: tuple[float, float] | None = None
        best_ratio = None
        for pattern in patterns:
            score = trajectory_score(graph, traj, pattern, cfg)
            if score.total <= 0.0:
                continue
            ratio = score.aligned / score.total
            if best_ratio is None or ratio > best_ratio:
                best_ratio = ratio
                best = (score.total, score.aligned)
        if best is not None:
            total += best[0]
            aligned += best[1]
    if total <= 0.0:
        raise ValueError("degenerate instance: total score is not positive")
    return aligned / total


def split_half_score(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    cfg: Config,
    time_budget: float | None = None,
) -> float:
    """Label-free quality proxy for a trajectory set.

    Splits the set at the batch's middle frame (a trajectory goes to the half
    holding more of its frames), mines patterns from each half, and averages
    the two cross-half objectives.  Raises on a degenerate split where one
    half is empty.
    """
    first, last = graph.batch
    mid = 0.5 * (first + last)
    half_a: list[Trajectory] = []
    half_b: list[Trajectory] = []
    for traj in trajectories:
        frames = [graph.detection(n).frame for n in traj.nodes]
        early = sum(1 for f in frames if f <= mid)
        (half_a if early >= len(frames) - early else half_b).append(traj)
    if not half_a or not half_b:
        raise ValueError("degenerate split: a half of the batch has no trajectories")
    candidates_a = generate_candidates(graph, half_a, cfg)
    patterns_a = mine(graph, half_a, candidates_a, cfg, time_budget=time_budget).patterns
    candidates_b = generate_candidates(graph, half_b, cfg)
    patterns_b = mine(graph, half_b, candidates_b, cfg, time_budget=time_budget).patterns
    return 0.5 * (
        _cross_score(graph, half_b, patterns_a, cfg)
        + _cross_score(graph, half_a, patterns_b, cfg)
    )


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
    budget).  Returns the iterate with the best proxy score; ties go to the
    earliest.  Raises if `iterations_per_level` is below 1.
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
    iteration = 0
    for budget in schedule:
        level_cfg = cfg.with_cost_budget(budget)
        previous: tuple[tuple[Trajectory, ...], tuple[Pattern, ...]] | None = None
        level_patterns = 0
        steps_left = iterations_per_level
        while steps_left > 0:
            candidates = generate_candidates(graph, current, level_cfg)
            mined = mine(graph, current, candidates, level_cfg, time_budget=time_budget)
            linked = link(graph, mined.patterns, level_cfg, time_budget=time_budget)
            current = linked.all_trajectories
            level_patterns = len(mined.patterns) - 1
            proxy = split_half_score(graph, current, level_cfg, time_budget)
            repeat = 1
            if previous == (current, mined.patterns):
                # Fixed point: the remaining alternations at this level
                # would reproduce this iterate, so record them directly.
                repeat = steps_left
            for _ in range(repeat):
                iteration += 1
                history.append(HistoryEntry(iteration, budget, level_patterns, proxy))
            steps_left -= repeat
            previous = (current, mined.patterns)
            if best is None or proxy > best[0]:
                best = (proxy, current, mined.patterns, linked.full_assignment)
        if level_patterns >= stop_patterns:
            break

    best_score = max(h.proxy_score for h in history)
    assert best[0] == best_score, "returned iterate must be the history argmax"
    return UnsupervisedResult(
        trajectories=best[1],
        patterns=best[2],
        assignment=best[3],
        history=tuple(history),
    )
