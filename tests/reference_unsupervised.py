"""The former fixed-point loop of `run_unsupervised`, kept as its reference.

`reference_run_unsupervised` re-runs every alternation and only notices a
fixed point once an iterate reproduces the one before it.  The memoized loop
must return the same history, trajectories, patterns and assignment.  Like
the loop it was, it calls `generate_candidates`, `mine`, `link` and
`split_half_score` through `ptrack.unsupervised`, so a stand-in patched in
there serves both loops.
"""
from __future__ import annotations

from ptrack import unsupervised
from ptrack.unsupervised import HistoryEntry, UnsupervisedResult, default_schedule


def reference_run_unsupervised(
    graph,
    initial,
    cfg,
    schedule=None,
    iterations_per_level=5,
    stop_patterns=None,
    time_budget=None,
):
    """The former loop: one whole alternation per iteration until a fixed point."""
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
    best = None
    iteration = 0
    for budget in schedule:
        level_cfg = cfg.with_cost_budget(budget)
        previous = None
        level_patterns = 0
        steps_left = iterations_per_level
        while steps_left > 0:
            candidates = unsupervised.generate_candidates(graph, current, level_cfg)
            mined = unsupervised.mine(graph, current, candidates, level_cfg, time_budget=time_budget)
            linked = unsupervised.link(graph, mined.patterns, level_cfg, time_budget=time_budget)
            current = linked.all_trajectories
            level_patterns = len(mined.patterns) - 1
            proxy, _ = unsupervised.split_half_score(graph, current, level_cfg, time_budget)
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

    return UnsupervisedResult(
        trajectories=best[1],
        patterns=best[2],
        assignment=best[3],
        history=tuple(history),
    )


def reference_split(graph, trajectories):
    """The halves `split_half_score` mines, as its former loop over `graph.detection` made them."""
    first, last = graph.batch
    mid = 0.5 * (first + last)
    half_a, half_b = [], []
    for traj in trajectories:
        frames = [graph.detection(n).frame for n in traj.nodes]
        early = sum(1 for f in frames if f <= mid)
        (half_a if early >= len(frames) - early else half_b).append(traj)
    return half_a, half_b


def reference_cross_score(graph, trajectories, patterns, cfg, trajectory_score):
    """The former `_cross_score`: per trajectory, the first pattern of the best
    aligned / total among positive totals, summed left to right."""
    total = 0.0
    aligned = 0.0
    for traj in trajectories:
        best = None
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
