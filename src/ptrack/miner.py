"""Selects motion patterns that explain a trajectory set.

Candidates are the trajectories themselves, turned into centerlines at a
range of corridor widths; the empty pattern is always on offer.  Mining picks
a subset within a count budget and a total-cost budget, together with one
pattern per trajectory, maximizing the same aligned/total ratio the linker
uses, scored the same way: an entry or exit at the graph's batch boundary is
free here too.  Keeping patterns cheap (short and narrow) is what forces the
selection to generalize instead of memorizing every trajectory.

Many candidates are twins: the same centerline at a width that flips no
corridor gate, or one shape drawn from two trajectories, gives the same
(total, aligned) score on every mined trajectory.  `mine` keeps only the
cheapest candidate of each such score column (the lowest index on a cost
tie; the empty pattern, which costs nothing, always stays) before it builds
its model.  This is exact: a selection that uses a dearer twin can switch to
the cheaper one, which leaves the ratio and the total-score floor as they
were and can only lower the count and the summed cost of the selection.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import (
    Assignment,
    Config,
    DetectionGraph,
    EMPTY_PATTERN,
    Pattern,
    Trajectory,
    tracking_area,
)
from .fracopt import Constraint, SolverModel, maximize_ratio, ratio_model
from .scoring import ScorePair, ratio_bracket, trajectory_score


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
    `search_alpha` the certified bisection bound.  `selected_candidates`
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
    pattern.  Each eligible centerline is offered at every configured width.
    Degenerate (stationary) trajectories yield no candidates.
    """
    first, last = graph.batch
    patterns: list[Pattern] = [EMPTY_PATTERN]
    source: list[int | None] = [None]
    for t_idx, traj in enumerate(trajectories):
        frames = [graph.detection(n).frame for n in traj.nodes]
        if min(frames) <= first or max(frames) >= last:
            continue
        points = [graph.detection(n).pos for n in traj.nodes]
        try:
            base = Pattern.from_points(points, cfg.candidate_widths[0])
        except ValueError:
            continue
        for w in cfg.candidate_widths:
            patterns.append(Pattern(base.centerline, w))
            source.append(t_idx)
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
    available and never counts against either budget.
    """
    n_traj = len(trajectories)
    n_cand = len(candidates)
    assign_var = lambda t, p: t * n_cand + p
    select_var = lambda p: n_traj * n_cand + (p - 1)
    num_vars = n_traj * n_cand + (n_cand - 1)

    numer = [0.0] * num_vars
    denom = [0.0] * num_vars
    for t, traj in enumerate(trajectories):
        for p, pattern in enumerate(candidates.patterns):
            score = trajectory_score(graph, traj, pattern, cfg)
            numer[assign_var(t, p)] = score.aligned
            denom[assign_var(t, p)] = score.total

    constraints: list[Constraint] = []
    for t in range(n_traj):
        cvars = tuple(assign_var(t, p) for p in range(n_cand))
        constraints.append(Constraint(cvars, (1.0,) * n_cand, "==", 1.0))
    for t in range(n_traj):
        for p in range(1, n_cand):
            constraints.append(
                Constraint((assign_var(t, p), select_var(p)), (1.0, -1.0), "<=", 0.0)
            )
    if n_cand > 1:
        sel = tuple(select_var(p) for p in range(1, n_cand))
        constraints.append(Constraint(sel, (1.0,) * len(sel), "<=", float(cfg.max_patterns)))
        costs = tuple(candidates.patterns[p].cost for p in range(1, n_cand))
        budget = cfg.resolved_cost_budget(tracking_area(d.pos for d in graph.detections))
        constraints.append(Constraint(sel, costs, "<=", budget))

    return ratio_model(num_vars, constraints, numer, denom)


def _cheapest_twins(
    graph: DetectionGraph,
    trajectories: Sequence[Trajectory],
    candidates: CandidateSet,
    cfg: Config,
) -> tuple[int, ...]:
    """Index of the cheapest candidate of each distinct score column, ascending.

    A column is the (total, aligned) score of every trajectory against the
    candidate.  Cost ties go to the lowest index, so the empty pattern (index
    0, cost 0) always stays and drops every candidate with its column.
    """
    cheapest: dict[tuple[ScorePair, ...], int] = {}
    for p, pattern in enumerate(candidates.patterns):
        column = tuple(trajectory_score(graph, traj, pattern, cfg) for traj in trajectories)
        kept = cheapest.setdefault(column, p)
        if pattern.cost < candidates.patterns[kept].cost:
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
    """Pick the pattern subset and assignment with the best objective.

    The returned pattern set always starts with the empty pattern; only
    candidates actually used by some trajectory are included beyond it.
    The model holds only the cheapest candidate of each score column.
    """
    if not trajectories:
        raise ValueError("no trajectories to mine from")
    kept = _cheapest_twins(graph, trajectories, candidates, cfg)
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
