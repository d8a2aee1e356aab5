"""Selects motion patterns that explain a trajectory set.

Candidates are the trajectories themselves, turned into centerlines at a
range of corridor widths; the empty pattern is always on offer.  Mining picks
a subset within a count budget and a total-cost budget, together with one
pattern per trajectory, maximizing the same aligned/total ratio the linker
uses, scored the same way: an entry or exit at the graph's batch boundary is
free here too, and any other end is charged.  Keeping patterns cheap (short
and narrow) is what forces the selection to generalize instead of memorizing
every trajectory.  Like the linker's, the search is certified to a gap, not
exact: after `iters` halvings (5 by default) the bound is within
(hi - lo) * 2**-iters of the optimum, and the selection returned need not
be optimal.

Many candidates are twins: the same centerline at a width that flips no
corridor gate, or one shape drawn from two trajectories, gives the same
(total, aligned) score on every mined trajectory.  `mine` keeps only the
cheapest candidate of each such score column (the lowest index on a cost
tie; the empty pattern, which costs nothing, always stays) before it builds
its model.  This is exact: a selection that uses a dearer twin can switch to
the cheaper one, which leaves both sums of the ratio as they were and can
only lower the count and the summed cost of the selection.  The columns
come from one `scoring.score_matrix` call, which builds the set's rows once
and scores all candidates on one centerline (the empty pattern is a family
of its own) in one pass, since only the corridor gate depends on the width;
the model builder scores the kept candidates through it again, in one more
call, which reuses the rows kept in `graph.scoring_cache`.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    Assignment,
    Config,
    DetectionGraph,
    EMPTY_PATTERN,
    Pattern,
    Trajectory,
    tracking_area,
)
from .fracopt import EQ, LE, SolverModel, maximize_ratio
# Unused here: perfbench/tracing.py wraps `trajectory_score` by this name.
from .scoring import ratio_bracket, score_matrix, trajectory_score


@dataclass(frozen=True)
class CandidateSet:
    """Candidate patterns for mining; index 0 is always the empty pattern.

    `source` records which trajectory produced each candidate (None for the
    empty pattern).
    """

    patterns: tuple[Pattern, ...]
    source: tuple[int | None, ...]

    def __post_init__(self) -> None:
        if not self.patterns or not self.patterns[0].is_empty:
            raise ValueError("candidate set must start with the empty pattern")
        if any(p.is_empty for p in self.patterns[1:]):
            raise ValueError("only the first candidate may be empty")
        if len(self.source) != len(self.patterns):
            raise ValueError("source length does not match patterns")

    def __len__(self) -> int:
        return len(self.patterns)


@dataclass(frozen=True)
class MineResult:
    """Selected patterns (empty pattern first) and the per-trajectory choice.

    `alpha_star` is the exact objective of the returned assignment;
    `search_alpha` the certified bisection bound, within (hi - lo) *
    2**-iters below the optimum, so the selection need not be optimal.
    `selected_candidates`
    are indices into the candidate set handed to `mine`, for traceability;
    of candidates with the same score column only the cheapest can appear,
    since the others were dropped before the solve without changing the
    optimum.
    """

    patterns: tuple[Pattern, ...]
    assignment: Assignment
    alpha_star: float
    search_alpha: float
    selected_candidates: tuple[int, ...]
    lower_bound_only: bool = False


def generate_candidates(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    cfg: Config,
) -> CandidateSet:
    """Candidate centerlines from trajectories fully inside the graph's batch.

    Trajectories touching the batch's first or last frame are skipped: they
    were cut by the observation window, so their shape is not a complete
    pattern.  Each eligible centerline is checked once and offered at every
    configured width.  Degenerate (stationary) trajectories yield no
    candidates.
    """
    first, last = graph.batch
    patterns: list[Pattern] = [EMPTY_PATTERN]
    source: list[int | None] = [None]
    rows, starts = graph.rows(trajectories)
    frames, points, starts = graph.frames[rows].tolist(), graph.positions[rows].tolist(), starts.tolist()
    for t_idx, (a, b) in enumerate(zip(starts, starts[1:])):
        if min(frames[a:b]) <= first or max(frames[a:b]) >= last:
            continue
        try:
            base = Pattern.from_points(points[a:b], cfg.candidate_widths[0])
        except ValueError:
            continue
        patterns += map(base.with_width, cfg.candidate_widths)
        source += [t_idx] * len(cfg.candidate_widths)
    return CandidateSet(tuple(patterns), tuple(source))


def build_mine_model(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    candidates: CandidateSet,
    cfg: Config,
) -> SolverModel:
    """0/1 model for pattern selection.

    Assignment variables pair each trajectory with each candidate; selection
    variables gate the non-empty candidates.  A trajectory may only use a
    selected candidate, at most `max_patterns` candidates may be selected,
    and their summed cost must fit the budget.  The empty pattern is always
    available and never counts against either budget.  The rows are written
    as CSR arrays (see `SolverModel`); no `Constraint` is made.
    """
    n_traj = len(trajectories)
    n_cand = len(candidates)
    n_assign = n_traj * n_cand
    num_vars = n_assign + (n_cand - 1)
    # Variable t * n_cand + p assigns trajectory t to candidate p; variable
    # n_assign + p - 1 selects candidate p >= 1.
    denom, numer = (
        np.concatenate([side.ravel(), np.zeros(n_cand - 1)])
        for side in score_matrix(graph, trajectories, candidates.patterns, cfg)
    )

    # Rows: each trajectory's `== 1` row over its candidates; for each
    # trajectory t and candidate p >= 1, assign(t, p) - select(p) <= 0; then,
    # when there is a candidate beyond the empty one, the count and the cost
    # budget over the selection variables.
    assign = np.arange(n_assign).reshape(n_traj, n_cand)
    sel = np.arange(n_assign, num_vars)
    n_gates = n_traj * (n_cand - 1)
    gates = np.stack([assign[:, 1:], np.broadcast_to(sel, (n_traj, n_cand - 1))], axis=-1)
    budgets = [float(cfg.max_patterns), _cost_budget(graph, cfg)] if n_cand > 1 else []
    costs = [pattern.cost for pattern in candidates.patterns[1:]]
    return SolverModel(
        num_vars,
        np.cumsum([0] + [n_cand] * n_traj + [2] * n_gates + [n_cand - 1] * len(budgets)),
        np.concatenate([assign.ravel(), gates.ravel(), sel, sel]),
        np.concatenate([np.ones(n_assign), np.tile([1.0, -1.0], n_gates), np.ones(n_cand - 1), costs]),
        [EQ] * n_traj + [LE] * (n_gates + len(budgets)),
        [1.0] * n_traj + [0.0] * n_gates + budgets,
        numer,
        denom,
    )


def _cost_budget(graph: DetectionGraph, cfg: Config) -> float:
    return cfg.resolved_cost_budget(tracking_area(graph.positions))


def _cheapest_twins(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    candidates: CandidateSet,
    cfg: Config,
) -> tuple[int, ...]:
    """Index of the cheapest candidate of each distinct score column, ascending.

    A candidate's column is its `score_matrix` totals, then its aligned
    scores, compared as Python floats (0.0 == -0.0).  Cost ties go to the
    lowest index, so the empty pattern (index 0, cost 0) always stays and
    drops every candidate with its column.
    """
    columns = np.concatenate(score_matrix(graph, trajectories, candidates.patterns, cfg)).T.tolist()
    cheapest: dict[tuple[float, ...], int] = {}
    for p, column in enumerate(map(tuple, columns)):
        kept = cheapest.setdefault(column, p)
        if candidates.patterns[p].cost < candidates.patterns[kept].cost:
            cheapest[column] = p
    return tuple(sorted(cheapest.values()))


def mine(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    candidates: CandidateSet,
    cfg: Config,
    iters: int = 5,
    time_budget: float | None = None,
) -> MineResult:
    """Pick a pattern subset and assignment, certified to within
    (hi - lo) * 2**-iters of the best objective, (lo, hi) being
    `ratio_bracket(cfg)`.

    The returned pattern set always starts with the empty pattern; only
    candidates actually used by some trajectory are included beyond it.
    The model holds only the cheapest candidate of each score column.
    A default budget that affords none of those non-empty candidates
    raises instead of silently mining no pattern; an explicit budget, even
    0, is taken as meant.
    """
    if not trajectories:
        raise ValueError("no trajectories to mine from")
    kept = _cheapest_twins(graph, trajectories, candidates, cfg)
    if cfg.pattern_cost_budget is None and len(kept) > 1:
        budget = _cost_budget(graph, cfg)
        cheapest = min(candidates.patterns[k].cost for k in kept[1:])
        if cheapest > budget:
            raise ValueError(
                f"no candidate pattern fits the default pattern cost budget of {budget:.6g} "
                f"(the cheapest costs {cheapest:.6g}); set pattern_cost_budget (--cost-budget)"
            )
    reduced = CandidateSet(
        tuple(candidates.patterns[k] for k in kept), tuple(candidates.source[k] for k in kept)
    )
    model = build_mine_model(graph, trajectories, reduced, cfg)
    result = maximize_ratio(model, *ratio_bracket(cfg), iters=iters, time_budget=time_budget)

    n_cand = len(reduced)
    chosen: list[int] = []
    for t in range(len(trajectories)):
        row = result.witness[t * n_cand : (t + 1) * n_cand]
        picks = [kept[p] for p, x in enumerate(row) if x]
        assert len(picks) == 1, "each trajectory must use exactly one pattern"
        chosen.append(picks[0])

    used = sorted({p for p in chosen if p != 0})
    selected = (0, *used)
    new_index = {old: new for new, old in enumerate(selected)}
    patterns = tuple(candidates.patterns[p] for p in selected)
    assignment = Assignment(tuple(new_index[p] for p in chosen))
    return MineResult(
        patterns=patterns,
        assignment=assignment,
        alpha_star=result.achieved,
        search_alpha=result.alpha,
        selected_candidates=selected,
        lower_bound_only=result.lower_bound_only,
    )
