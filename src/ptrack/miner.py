"""Selects motion patterns that explain a trajectory set.

Candidates are the trajectories themselves, turned into centerlines at a
range of corridor widths; the empty pattern is always on offer.  Mining picks
a subset within a count budget and a total-cost budget, together with one
pattern per trajectory, maximizing the same aligned/total ratio the linker
uses, scored the same way: an entry or exit at the graph's batch boundary is
free here too, and any other end is charged.  Keeping patterns cheap (short
and narrow) is what forces the selection to generalize instead of memorizing
every trajectory.  The solve is exact: Dinkelbach's method (see `fracopt`)
over an oracle that enumerates every selection within both budgets, each
trajectory taking its best pattern in the selection or the empty one.
Above `ENUMERATION_CAP` selections the oracle is HiGHS, as in the linker.
At equal ratio the selection with the least summed cost wins.

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
of its own) in one pass, since only the corridor gate depends on the width.
The model is built from the kept columns of that matrix, so each set is
scored once.
"""
from __future__ import annotations

import time
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
from .fracopt import EQ, LE, HighsOracle, SolverModel, maximize_ratio
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

    `alpha_star` is the exact objective of the returned assignment: the
    optimum, unless `lower_bound_only` says the time budget cut the solve.
    `selected_candidates` are indices into the candidate set handed to
    `mine`, for traceability; of candidates with the same score column only
    the cheapest can appear, since the others were dropped before the solve
    without changing the optimum.
    """

    patterns: tuple[Pattern, ...]
    assignment: Assignment
    alpha_star: float
    selected_candidates: tuple[int, ...]
    lower_bound_only: bool = False


# Above this many selections within the budgets, the mine oracle is HiGHS.
ENUMERATION_CAP = 4096


class MineModel(SolverModel):
    """A mine model (see `build_mine_model`) that keeps its layout: the
    trajectory and candidate counts, the non-empty candidates' costs and
    the (count, cost) budgets, None when only the empty candidate is left.
    Its oracle enumerates the selections while there are at most
    `ENUMERATION_CAP` of them."""

    def __init__(self, shape, costs, budgets, *arrays):
        super().__init__(*arrays, tiebreak=np.concatenate([np.zeros(shape[0] * shape[1]), costs]))
        self.shape, self.costs, self.budgets = shape, np.asarray(costs, dtype=float), budgets

    def oracle(self):
        # The cost row, the model's last, is enumerated to its limit: its
        # right-hand side plus the slack that `satisfied` allows it.
        budgets = None if self.budgets is None else (self.budgets[0], self.rhs[-1] + self.slack[-1])
        selections = _selections(self.costs, budgets)
        return HighsOracle(self) if selections is None else _SelectionOracle(self, selections)


def _selections(costs: np.ndarray, budgets: tuple[float, float] | None):
    """Every set of non-empty candidates within both budgets, (count, cost
    limit), or None when there are more than `ENUMERATION_CAP`.

    Sets come level by level, level k holding the sets of k candidates, and
    set 0 is the empty one.  Returns, per set, its parent (the set without
    its last candidate), that last candidate and its summed cost, added in
    candidate order as `SolverModel.satisfied` adds the cost row; then where
    each level starts.  The budgets are read only when there is a candidate.
    """
    root = np.zeros(1, dtype=np.int64)
    parent, added, spent, starts = [root], [root], [np.zeros(1)], [0]
    if budgets is not None:
        count, limit = budgets
        candidates = np.arange(1, len(costs) + 1)
        while len(starts) <= count:
            first = starts[-1]
            below, col = np.nonzero((candidates > added[-1][:, None]) & (spent[-1][:, None] + costs <= limit))
            if not below.size:
                break
            starts.append(first + len(added[-1]))
            if starts[-1] + below.size > ENUMERATION_CAP:
                return None
            parent.append(first + below)
            added.append(candidates[col])
            spent.append(spent[-1][below] + costs[col])
    return np.concatenate(parent), np.concatenate(added), np.concatenate(spent), starts


class _SelectionOracle:
    """The argmax of w·x over a mine model, by enumeration of the selections.

    For each selection, each trajectory takes its best option among the
    selection and the empty pattern (the first best, so the empty one on a
    tie); a set's best options are its parent's, raised by its last
    candidate.  Among the selections whose value is within the tolerance of
    the best, the cheapest wins, then the one enumerated first.
    """

    def __init__(self, model: MineModel, selections):
        self.model = model
        self.parent, self.added, self.spent, self.starts = selections

    def argmax(self, w: np.ndarray, deadline: float | None, tol: float):
        n_traj, n_cand = self.model.shape
        scores = w[: n_traj * n_cand].reshape(n_traj, n_cand)
        best = np.empty((len(self.added), n_traj))
        best[0] = scores[:, 0]
        for a, b in zip(self.starts[1:], [*self.starts[2:], len(self.added)]):
            if deadline is not None and time.monotonic() >= deadline:
                return None, True
            best[a:b] = np.maximum(best[self.parent[a:b]], scores[:, self.added[a:b]].T)
        values = best.sum(axis=1)
        near = np.flatnonzero(values >= values.max() - tol)
        pick = int(near[np.argmin(self.spent[near])])
        members = []
        while pick:
            members.append(int(self.added[pick]))
            pick = int(self.parent[pick])
        options = np.array([0, *reversed(members)])
        chosen = options[np.argmax(scores[:, options], axis=1)]
        x = np.zeros(self.model.num_vars, dtype=np.int64)
        x[np.arange(n_traj) * n_cand + chosen] = 1
        x[n_traj * n_cand + options[1:] - 1] = 1
        return x, False


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
    scores: tuple[np.ndarray, np.ndarray],
    candidates: CandidateSet,
    cfg: Config,
) -> MineModel:
    """0/1 model for pattern selection.

    `scores` is the (total, aligned) pair of trajectories × candidates
    arrays that `score_matrix` gives for `candidates.patterns`; the builder
    scores nothing itself.  Assignment variables pair each trajectory with
    each candidate; selection variables gate the non-empty candidates.  A
    trajectory may only use a selected candidate, at most `max_patterns`
    candidates may be selected, and their summed cost must fit the budget.
    The empty pattern is always available and never counts against either
    budget.  The rows are written as CSR arrays (see `SolverModel`); no
    `Constraint` is made.  A selection variable's tiebreak is its
    candidate's cost, so that at equal ratio the cheapest selection wins.
    """
    n_traj, n_cand = scores[0].shape
    n_assign = n_traj * n_cand
    num_vars = n_assign + (n_cand - 1)
    # Variable t * n_cand + p assigns trajectory t to candidate p; variable
    # n_assign + p - 1 selects candidate p >= 1.
    denom, numer = (np.concatenate([side.ravel(), np.zeros(n_cand - 1)]) for side in scores)

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
    return MineModel(
        (n_traj, n_cand),
        costs,
        tuple(budgets) or None,
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


def _cheapest_twins(scores: tuple[np.ndarray, np.ndarray], candidates: CandidateSet) -> tuple[int, ...]:
    """Index of the cheapest candidate of each distinct score column, ascending.

    A candidate's column is its totals in `scores`, then its aligned scores,
    keyed on its bytes once `+ 0.0` has turned -0.0 into 0.0, so that the
    two compare equal as floats do.  Cost ties go to the lowest index, so
    the empty pattern (index 0, cost 0) always stays and drops every
    candidate with its column.
    """
    columns = np.ascontiguousarray(np.concatenate(scores).T) + 0.0
    cheapest: dict[bytes, int] = {}
    for p, column in enumerate(columns):
        kept = cheapest.setdefault(column.tobytes(), p)
        if candidates.patterns[p].cost < candidates.patterns[kept].cost:
            cheapest[column.tobytes()] = p
    return tuple(sorted(cheapest.values()))


def mine(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    candidates: CandidateSet,
    cfg: Config,
    time_budget: float | None = None,
) -> MineResult:
    """Pick the pattern subset and assignment with the best objective.

    The returned pattern set always starts with the empty pattern; only
    candidates actually used by some trajectory are included beyond it.
    The model holds only the cheapest candidate of each score column.
    A default budget that affords none of those non-empty candidates
    raises instead of silently mining no pattern; an explicit budget, even
    0, is taken as meant.
    """
    if not trajectories:
        raise ValueError("no trajectories to mine from")
    scores = score_matrix(graph, trajectories, candidates.patterns, cfg)
    kept = _cheapest_twins(scores, candidates)
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
    model = build_mine_model(graph, tuple(side[:, kept] for side in scores), reduced, cfg)
    result = maximize_ratio(model, ratio_bracket(cfg)[0], time_budget=time_budget)

    picks = np.reshape(result.witness[: len(trajectories) * len(reduced)], (-1, len(reduced)))
    assert (picks.sum(axis=1) == 1).all(), "each trajectory must use exactly one pattern"
    chosen = [kept[p] for p in picks.argmax(axis=1).tolist()]

    used = sorted({p for p in chosen if p != 0})
    selected = (0, *used)
    new_index = {old: new for new, old in enumerate(selected)}
    patterns = tuple(candidates.patterns[p] for p in selected)
    assignment = Assignment(tuple(new_index[p] for p in chosen))
    return MineResult(
        patterns=patterns,
        assignment=assignment,
        alpha_star=result.alpha,
        selected_candidates=selected,
        lower_bound_only=result.lower_bound_only,
    )
