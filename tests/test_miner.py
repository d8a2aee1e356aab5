"""Pattern mining: candidate generation and budgeted selection."""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from ptrack import (
    Config,
    Detection,
    DetectionGraph,
    EMPTY_PATTERN,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    Trajectory,
    build_graph,
    generate_candidates,
    generate_scene,
    input_trajectories,
    mine,
    tracking_area,
    tracks_from_trajectories,
    trajectory_score,
)
import ptrack.miner as miner
from ptrack.core import DEFAULT_WIDTHS
from ptrack.fracopt import HighsOracle, maximize_ratio
from ptrack.miner import CandidateSet, build_mine_model
from ptrack.scoring import _projection, ratio_bracket, score_matrix

import reference_miner
from oracles import brute_force_best_ratio, enumerate_assignments


def det(frame, x, y=0.0):
    return Detection(frame, (float(x), float(y)))


def two_flow_fixture(widths=DEFAULT_WIDTHS):
    flow = lambda y, start: [det(start + k, 2.0 * k, y) for k in range(4)]
    tracks = [flow(0.0, 1), flow(0.0, 2), flow(20.0, 1), flow(20.0, 2)]
    cfg = Config(candidate_widths=widths)
    g = build_graph(tracks, cfg, batch=(0, 7))
    return g, input_trajectories(g), cfg


class TestCandidateSet:
    def test_must_start_with_empty(self):
        with pytest.raises(ValueError, match="start with the empty pattern"):
            CandidateSet((Pattern(((0.0, 0.0), (1.0, 0.0)), 1.0),), (0,))

    def test_single_empty_only(self):
        with pytest.raises(ValueError, match="only the first"):
            CandidateSet((EMPTY_PATTERN, EMPTY_PATTERN), (None, None))

    def test_source_length_checked(self):
        with pytest.raises(ValueError, match="source length"):
            CandidateSet((EMPTY_PATTERN,), (None, 1))


class TestGenerateCandidates:
    def test_interior_trajectories_at_every_width(self):
        g, ts, cfg = two_flow_fixture()
        cands = generate_candidates(g, ts, cfg)
        assert len(cands) == 4 * len(DEFAULT_WIDTHS) + 1
        assert cands.patterns[0].is_empty and cands.source[0] is None
        per_traj = [cands.source[1 + k * 10] for k in range(4)]
        assert per_traj == [0, 1, 2, 3]
        assert [p.width for p in cands.patterns[1:11]] == list(DEFAULT_WIDTHS)
        assert cands.patterns[1].centerline == ((0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (6.0, 0.0))

    def test_boundary_touching_trajectories_skipped(self):
        tracks = [[det(0, 0.0), det(1, 2.0)], [det(2, 0.0), det(3, 2.0)]]
        cfg = Config()
        g = build_graph(tracks, cfg, batch=(0, 5))
        cands = generate_candidates(g, input_trajectories(g), cfg)
        assert set(cands.source) == {None, 1}

    def test_graph_batch_decides_eligibility(self):
        g, ts, cfg = two_flow_fixture()
        narrowed = build_graph(tracks_from_trajectories(g, ts), cfg, batch=(1, 7))
        assert input_trajectories(narrowed) == ts
        cands = generate_candidates(narrowed, ts, cfg)
        # trajectories starting at frame 1 now touch the window edge
        assert set(cands.source) == {None, 1, 3}

    def test_stationary_trajectory_yields_nothing(self):
        tracks = [[det(2, 1.0, 1.0), det(3, 1.0, 1.0)]]
        cfg = Config()
        g = build_graph(tracks, cfg, batch=(0, 5))
        cands = generate_candidates(g, input_trajectories(g), cfg)
        assert len(cands) == 1


class TestMine:
    def test_two_flows_need_two_patterns(self):
        g, ts, cfg = two_flow_fixture()
        cands = generate_candidates(g, ts, cfg)
        res = mine(g, ts, cands, cfg)
        assert res.alpha_star == 1.0
        assert len(res.patterns) == 3
        assert res.patterns[0].is_empty
        a = list(res.assignment)
        assert a[0] == a[1] and a[2] == a[3] and a[0] != a[2]
        assert res.selected_candidates[0] == 0
        assert len(res.selected_candidates) == len(res.patterns)
        assert set(a) == set(range(1, len(res.patterns)))

    def test_pattern_count_budget_bites(self):
        g, ts, cfg = two_flow_fixture(widths=(0.5, 1.0))
        cfg = Config(candidate_widths=(0.5, 1.0), max_patterns=1)
        cands = generate_candidates(g, ts, cfg)
        res = mine(g, ts, cands, cfg)
        assert len(res.patterns) == 2
        # covered flow: aligned == total == 12 per trajectory; other flow on
        # the empty pattern: 6 m of motion and two ends inside the batch at
        # one unit each, so 0.3 * 8 aligned of 8 per trajectory
        assert res.alpha_star == pytest.approx(28.8 / 40.0, rel=1e-9)

    def test_cost_budget_bites(self):
        g, ts, _ = two_flow_fixture(widths=(0.5, 1.0))
        cfg = Config(candidate_widths=(0.5, 1.0), pattern_cost_budget=7.0)
        cands = generate_candidates(g, ts, cfg)
        res = mine(g, ts, cands, cfg)
        assert res.alpha_star == 1.0
        picked = res.patterns[1:]
        assert len(picked) == 2
        assert all(p.width == 0.5 for p in picked)
        assert sum(p.cost for p in picked) <= 7.0

    def test_budgets_always_respected(self):
        g, ts, _ = two_flow_fixture(widths=(0.5, 1.0))
        cfg = Config(candidate_widths=(0.5, 1.0), max_patterns=2, pattern_cost_budget=9.5)
        res = mine(g, ts, generate_candidates(g, ts, cfg), cfg)
        assert len(res.patterns) - 1 <= cfg.max_patterns
        area = tracking_area(d.pos for d in g.detections)
        assert sum(p.cost for p in res.patterns[1:]) <= cfg.resolved_cost_budget(area) + 1e-9

    def test_zero_cost_budget_forces_empty(self):
        g, ts, _ = two_flow_fixture(widths=(0.5, 1.0))
        for cfg, expected in [
            (Config(candidate_widths=(0.5, 1.0), pattern_cost_budget=0.0), 0.3),
            (Config.unsupervised(candidate_widths=(0.5, 1.0), pattern_cost_budget=0.0), -3.0),
        ]:
            res = mine(g, ts, generate_candidates(g, ts, cfg), cfg)
            assert res.patterns == (EMPTY_PATTERN,)
            assert res.selected_candidates == (0,)
            assert abs(res.alpha_star - expected) <= 1e-12

    def test_default_budget_below_every_candidate_rejected(self):
        # Three agents on a nearly straight lane span 0.54 m^2: the default
        # budget is 0.81, and the cheapest candidate (14 m x 0.5 m) costs 7.
        scene = generate_scene(
            [Pattern(((0.0, 0.0), (14.0, 0.0)), 1.0)], [(0, 1), (0, 3), (0, 5)], lateral_sigma=0.01
        )
        cfg = Config()
        g = build_graph(scene.track_lists(), cfg, scene.meta.batch)
        ts = input_trajectories(g)
        cands = generate_candidates(g, ts, cfg)
        assert min(p.cost for p in cands.patterns[1:]) > 7.0 > 0.81 > cfg.resolved_cost_budget(
            tracking_area(d.pos for d in g.detections)
        )
        with pytest.raises(ValueError, match=r"pattern_cost_budget \(--cost-budget\)"):
            mine(g, ts, cands, cfg)
        explicit = Config(pattern_cost_budget=0.81)
        assert mine(g, ts, cands, explicit).patterns == (EMPTY_PATTERN,)
        assert len(mine(g, ts, cands, Config(pattern_cost_budget=8.0)).patterns) == 2

    def test_relaxing_budgets_never_lowers_certified_bound(self):
        g, ts, _ = two_flow_fixture(widths=(0.5, 1.0))
        by_count = [
            mine(g, ts, generate_candidates(g, ts, cfg), cfg).alpha_star
            for cfg in (
                Config(candidate_widths=(0.5, 1.0), max_patterns=1),
                Config(candidate_widths=(0.5, 1.0), max_patterns=2),
            )
        ]
        assert by_count[0] <= by_count[1] + 1e-9
        by_cost = [
            mine(g, ts, generate_candidates(g, ts, cfg), cfg).alpha_star
            for cfg in (
                Config(candidate_widths=(0.5, 1.0), pattern_cost_budget=3.0),
                Config(candidate_widths=(0.5, 1.0), pattern_cost_budget=6.0),
            )
        ]
        assert by_cost[0] <= by_cost[1] + 1e-9

    def test_no_trajectories_rejected(self):
        g, ts, cfg = two_flow_fixture()
        with pytest.raises(ValueError, match="no trajectories"):
            mine(g, [], generate_candidates(g, ts, cfg), cfg)

    def test_isolated_singleton_is_degenerate(self):
        # In a batch of its own frame both ends of a singleton are free, and
        # nothing is left to score.
        cfg = Config()
        g = build_graph([[det(2, 1.0, 1.0)]], cfg)
        assert g.batch == (2, 2)
        ts = input_trajectories(g)
        cands = generate_candidates(g, ts, cfg)
        assert len(cands) == 1
        with pytest.raises(ValueError, match="degenerate"):
            mine(g, ts, cands, cfg)

    def test_singleton_inside_the_batch_scores_at_the_empty_rate(self):
        # Inside a wider batch its two ends cost one unit each on the empty pattern.
        cfg = Config()
        g = build_graph([[det(2, 1.0, 1.0)]], cfg, batch=(0, 4))
        ts = input_trajectories(g)
        res = mine(g, ts, generate_candidates(g, ts, cfg), cfg)
        assert res.patterns == (EMPTY_PATTERN,)
        assert res.alpha_star == pytest.approx(0.3, rel=1e-12)


def dense_crossing_fixture():
    """The 12-agent noise-free crossing family, mined from its ground truth."""
    from ptrack.synth import generate_scene

    corridors = (
        Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
        Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
    )
    agents = tuple((k % 2, k + 1) for k in range(12))
    scene = generate_scene(corridors, agents, speed=2.0**0.5)
    cfg = Config()
    g = build_graph(scene.track_lists(), cfg, scene.meta.batch)
    ts = input_trajectories(g)
    return g, ts, generate_candidates(g, ts, cfg), cfg


def test_small_instance_matches_exhaustive_selection():
    """Mining equals brute force over every candidate subset and labeling."""
    tracks = [
        [det(1, 0.0, 0.0), det(2, 2.0, 0.2), det(3, 4.0, 0.0)],
        [det(2, 0.0, 0.4), det(3, 2.0, -0.1), det(4, 4.0, 0.3)],
    ]
    # The default budget (0.6) affords neither candidate (4.02 and 4.10),
    # and `mine` rejects it; 4.05 affords only the cheaper one.
    cfg = Config(candidate_widths=(1.0,), max_patterns=1, pattern_cost_budget=4.05)
    g = build_graph(tracks, cfg, batch=(0, 5))
    ts = input_trajectories(g)
    cands = generate_candidates(g, ts, cfg)
    assert len(cands) == 3
    with pytest.raises(ValueError, match="default pattern cost budget"):
        mine(g, ts, cands, Config(candidate_widths=(1.0,), max_patterns=1))

    scores = [
        [trajectory_score(g, t, p, cfg) for p in cands.patterns] for t in ts
    ]
    area = tracking_area(d.pos for d in g.detections)
    budget = cfg.resolved_cost_budget(area)
    best = None
    for subset in itertools.chain.from_iterable(
        itertools.combinations((1, 2), k) for k in range(cfg.max_patterns + 1)
    ):
        if sum(cands.patterns[p].cost for p in subset) > budget:
            continue
        allowed = (0, *subset)
        for labeling in itertools.product(allowed, repeat=len(ts)):
            total = sum(scores[t][p].total for t, p in enumerate(labeling))
            aligned = sum(scores[t][p].aligned for t, p in enumerate(labeling))
            if total > 0.0 and (best is None or aligned / total > best):
                best = aligned / total

    res = mine(g, ts, cands, cfg)
    assert abs(res.alpha_star - best) <= 1e-9


def mine_model(g, ts, cands, cfg):
    """The mine model over every candidate in `cands`, scored in one `score_matrix` call."""
    return build_mine_model(g, score_matrix(g, ts, cands.patterns, cfg), cands, cfg)


def cheapest_twins(g, ts, cands, cfg):
    """`miner._cheapest_twins` of the candidates' `score_matrix`."""
    return miner._cheapest_twins(score_matrix(g, ts, cands.patterns, cfg), cands)


def recorded_mine(monkeypatch, g, ts, cands, cfg, **kwargs):
    """`mine`'s result and the candidate set it handed to `build_mine_model`."""
    seen = []

    def recording(graph, scores, candidates, config):
        seen.append(candidates)
        return build_mine_model(graph, scores, candidates, config)

    monkeypatch.setattr(miner, "build_mine_model", recording)
    res = mine(g, ts, cands, cfg, **kwargs)
    (reduced,) = seen
    return res, reduced


class TestTwinReduction:
    """`mine` solves over one candidate per distinct score column, with the same optimum."""

    def test_dense_family_keeps_three_candidates(self, monkeypatch):
        g, ts, cands, cfg = dense_crossing_fixture()
        assert len(cands) == 121
        res, reduced = recorded_mine(monkeypatch, g, ts, cands, cfg)
        assert len(reduced) == 3
        full = maximize_ratio(mine_model(g, ts, cands, cfg), ratio_bracket(cfg)[0])
        # The same assignment, its ratio summed over a shorter vector: equal
        # up to the rounding of the sums.
        assert res.alpha_star == pytest.approx(full.alpha, rel=1e-15, abs=0.0)
        n = len(cands)
        full_choice = [full.witness[t * n : (t + 1) * n].index(1) for t in range(len(ts))]
        # Twins of one cost tie, so the full model may pick any of them.
        assert [cands.patterns[k] for k in full_choice] == [res.patterns[p] for p in res.assignment]

    def test_forced_twins_match_brute_force_on_the_full_model(self, monkeypatch):
        # Noise-free straight flows: no width flips a corridor gate, and the
        # first two flows are one shape at different frames.
        flow = lambda y, start, n=3: [det(start + k, 2.0 * k, y) for k in range(n)]
        instances = [
            # Flows on one line span no area, so they need an explicit budget;
            # 12 is what the default resolves to for the flows at y=0 and y=2.
            ([flow(0.0, 1), flow(0.0, 2)], Config(candidate_widths=(1.0, 3.0), pattern_cost_budget=12.0)),
            (
                [flow(0.0, 1), flow(0.0, 2)],
                Config(candidate_widths=(1.0, 3.0), max_patterns=1, pattern_cost_budget=12.0),
            ),
            ([flow(0.0, 1), flow(2.0, 2)], Config(candidate_widths=(1.0, 3.0))),
            ([flow(0.0, 1), flow(2.0, 2)], Config.unsupervised(candidate_widths=(1.0, 3.0))),
            ([flow(0.0, 1), flow(0.0, 2)], Config(candidate_widths=(0.5, 1.0), pattern_cost_budget=3.0)),
            ([flow(0.0, 1), flow(2.0, 2)], Config(candidate_widths=(1.0, 3.0), empty_rate=2.0)),
        ]
        for tracks, cfg in instances:
            g = build_graph(tracks, cfg, batch=(0, 6))
            ts = input_trajectories(g)
            cands = generate_candidates(g, ts, cfg)
            assert len(cands) == 5
            res, reduced = recorded_mine(monkeypatch, g, ts, cands, cfg)
            assert len(reduced) < len(cands)
            best, _ = brute_force_best_ratio(mine_model(g, ts, cands, cfg))
            best_reduced, _ = brute_force_best_ratio(mine_model(g, ts, reduced, cfg))
            assert best_reduced == pytest.approx(best, rel=0.0, abs=1e-12)
            assert abs(res.alpha_star - best) <= 1e-9

    def test_equal_cost_twins_resolve_to_the_lowest_index(self, monkeypatch):
        g, ts, cfg = two_flow_fixture(widths=(1.0,))
        cands = generate_candidates(g, ts, cfg)
        # Trajectories 0 and 1 share a shape, so candidates 1 and 2 are one
        # pattern at one cost; so are 3 and 4.
        assert cands.patterns[1] == cands.patterns[2] and cands.patterns[3] == cands.patterns[4]
        assert cheapest_twins(g, ts, cands, cfg) == (0, 1, 3)
        res, reduced = recorded_mine(monkeypatch, g, ts, cands, cfg)
        assert reduced.source == (None, 0, 2)
        assert res.selected_candidates == (0, 1, 3)

    def test_cheaper_twin_wins_over_a_lower_index(self):
        g, ts, cfg = two_flow_fixture(widths=(3.0, 1.0))
        cands = generate_candidates(g, ts, cfg)
        assert [p.width for p in cands.patterns[1:3]] == [3.0, 1.0]
        assert cheapest_twins(g, ts, cands, cfg) == (0, 2, 6)

    def test_twin_of_the_empty_pattern_is_dropped(self, monkeypatch):
        # Two walks across the lane, end to end in the batch: they gain no
        # arc and stay outside the corridor, so with an empty rate of 0 the
        # lane scores them exactly like the empty pattern does.
        cfg = Config(empty_rate=0.0)
        across = [det(1, 5.0, 10.0), det(2, 5.0, 12.0), det(3, 5.0, 14.0)]
        along = [det(1, 8.0, 20.0), det(2, 8.0, 22.0), det(3, 8.0, 24.0)]
        g = build_graph([across, along], cfg, batch=(1, 3))
        ts = input_trajectories(g)
        lane = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)
        along_lane = Pattern(((8.0, 20.0), (8.0, 24.0)), 1.0)
        cands = CandidateSet((EMPTY_PATTERN, lane, along_lane), (None, None, None))
        assert [trajectory_score(g, t, lane, cfg) for t in ts] == [
            trajectory_score(g, t, EMPTY_PATTERN, cfg) for t in ts
        ]
        assert cheapest_twins(g, ts, cands, cfg) == (0, 2)
        res, reduced = recorded_mine(monkeypatch, g, ts, cands, cfg)
        assert reduced.patterns == (EMPTY_PATTERN, along_lane)
        assert res.selected_candidates == (0, 2)
        assert res.patterns == (EMPTY_PATTERN, along_lane)

    def test_selected_candidates_index_the_original_set(self, monkeypatch):
        g, ts, cfg = two_flow_fixture()
        cands = generate_candidates(g, ts, cfg)
        res, reduced = recorded_mine(monkeypatch, g, ts, cands, cfg)
        # Every default width is a twin of the narrowest, and each flow's two
        # trajectories share a shape: one candidate per flow survives.
        assert len(reduced) == 3
        assert res.selected_candidates == (0, 1, 21)
        assert res.patterns == tuple(cands.patterns[k] for k in res.selected_candidates)
        assert [cands.source[k] for k in res.selected_candidates] == [None, 0, 2]
        assert all(p.width == min(DEFAULT_WIDTHS) for p in res.patterns[1:])


def bits(column):
    """Exact identity of floats, telling -0.0 from 0.0."""
    return [float(v).hex() for v in column]


def matrix_columns(g, ts, cands, cfg):
    """Each candidate's `score_matrix` column: its totals, then its aligned scores."""
    return np.concatenate(score_matrix(g, ts, cands.patterns, cfg)).T.tolist()


def assert_family_pass_matches(g, ts, cands, cfg):
    """The family pass gives the per-candidate loop's kept indices, and its
    columns equal the scalar scorer's sums bit for bit.  Each side is
    computed on a fresh copy of the graph."""
    fresh = lambda: dataclasses.replace(g)
    got = matrix_columns(fresh(), ts, cands, cfg)
    want = reference_miner.cheapest_twins(fresh(), ts, cands, cfg)
    assert cheapest_twins(fresh(), ts, cands, cfg) == want
    assert [bits(c) for c in got] == [bits(c) for c in reference_miner.score_columns(fresh(), ts, cands, cfg)]


def chain_graph(specs, chains, batch):
    """Detections from (frame, x, y) specs, every entry and exit, and each chain's edges."""
    dets = tuple(Detection(f, (x, y)) for f, x, y in specs)
    edges = {(SOURCE_NODE, d) for d in range(1, len(specs) + 1)}
    edges |= {(d, SINK_NODE) for d in range(1, len(specs) + 1)}
    edges |= {pair for chain in chains for pair in zip(chain, chain[1:])}
    return DetectionGraph(dets, frozenset(edges), batch), tuple(Trajectory(tuple(c)) for c in chains)


# Scorer settings that change each term: the default, a reverse penalty with a
# negative empty rate, no reverse penalty, and a zero empty rate.
FAMILY_CFGS = (
    Config(),
    Config(reverse_penalty=0.25, empty_rate=-3.0),
    Config(reverse_penalty=0.0),
    Config(empty_rate=0.0),
)


class TestFamilyPassAgainstPerCandidateLoop:
    """`score_matrix`, one family pass per centerline, gives what one pass per candidate gave."""

    def test_seeded_random_graphs_with_widths_on_the_gates(self):
        rng = np.random.default_rng(20)
        checked_gates = 0
        for _ in range(30):
            lines = [np.cumsum(rng.normal(size=(int(rng.integers(2, 6)), 2)) * 4.0, axis=0) for _ in range(2)]
            n = int(rng.integers(2, 24))
            frames = np.sort(rng.integers(0, 10, n))
            near = lines[0][rng.integers(0, len(lines[0]), n)]
            pts = near + rng.normal(size=(n, 2)) * rng.choice([0.3, 2.0])
            specs = [(int(f), float(x), float(y)) for f, (x, y) in zip(frames, pts)]
            ids = rng.permutation(n) + 1
            cuts = np.sort(rng.choice(np.arange(1, n), int(rng.integers(0, n)), replace=False))
            chains = [sorted(c.tolist(), key=lambda d: (specs[d - 1][0], d)) for c in np.split(ids, cuts)]
            chains = [c for c in chains if len({specs[d - 1][0] for d in c}) == len(c)]
            if not chains:
                continue
            span = (int(frames[0]), int(frames[-1]))
            g, ts = chain_graph(specs, chains, span if rng.random() < 0.5 else (span[0] - 1, span[1] + 1))
            bases = [Pattern.from_points(line.tolist(), 1.0) for line in lines]
            # A width exactly at an edge's gate, max(dist_i, dist_j), keeps
            # that edge inside the corridor; the next float up and down too.
            dist = _projection(dataclasses.replace(g), bases[0])[3]
            gates = [max(dist[a - 1], dist[b - 1]) for c in chains for a, b in zip(c, c[1:])]
            gates = [w for w in gates if w > 0.0][:3]
            checked_gates += len(gates)
            widths = [*gates, *np.nextafter(gates, np.inf), *np.nextafter(gates, 0.0)]
            widths = [float(w) for w in rng.permutation([*widths, 0.3, 1.0, 4.0, 1.0])]
            patterns = [EMPTY_PATTERN]
            for base in bases:
                patterns += [base.with_width(w) for w in widths]
            # An equal centerline in a separately built pattern joins the family.
            patterns.append(Pattern(bases[0].centerline, widths[0]))
            cands = CandidateSet(tuple(patterns), (None,) * len(patterns))
            for cfg in FAMILY_CFGS:
                assert_family_pass_matches(g, ts, cands, cfg)
        assert checked_gates > 20

    def test_backward_edges_under_the_reverse_penalty(self):
        lane = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)
        specs = [(1, 9.0, 0.2), (2, 6.0, -0.4), (3, 6.5, 0.1), (4, 2.0, 3.0), (2, 1.0, 0.0), (3, 4.0, 0.9)]
        g, ts = chain_graph(specs, [(1, 2, 3, 4), (5, 6)], batch=(0, 5))
        cands = CandidateSet(
            (EMPTY_PATTERN, *(lane.with_width(w) for w in (0.5, 0.9, 1.0, 3.0, 0.4))), (None,) * 6
        )
        for penalty in (0.0, 0.25, 2.0):
            cfg = Config(reverse_penalty=penalty)
            assert_family_pass_matches(g, ts, cands, cfg)
            # The backward edges score the same at every width.
            columns = matrix_columns(g, ts, cands, cfg)
            assert columns[1][2] == columns[4][2] < 0.0

    def test_two_trajectories_sharing_one_centerline(self):
        g, ts, cfg = two_flow_fixture()
        cands = generate_candidates(g, ts, cfg)
        assert cands.patterns[1:11] == cands.patterns[11:21]
        assert_family_pass_matches(g, ts, cands, cfg)

    def test_a_stationary_trajectory(self):
        tracks = [
            [det(2, 3.0, 1.0), det(3, 3.0, 1.0), det(4, 3.0, 1.0)],
            [det(1, 0.0, 0.0), det(2, 2.0, 0.5), det(3, 4.0, 0.0), det(4, 6.0, 0.5)],
        ]
        for cfg in FAMILY_CFGS:
            g = build_graph(tracks, cfg, batch=(0, 5))
            ts = input_trajectories(g)
            cands = generate_candidates(g, ts, cfg)
            assert set(cands.source) == {None, 1}
            assert_family_pass_matches(g, ts, cands, cfg)

    def test_the_empty_pattern(self):
        g, ts, cfg = two_flow_fixture()
        for c in FAMILY_CFGS:
            assert_family_pass_matches(g, ts, CandidateSet((EMPTY_PATTERN,), (None,)), c)
        # A lane that scores both walks as the empty pattern does is its twin.
        c = Config(empty_rate=0.0)
        across = [det(1, 5.0, 10.0), det(2, 5.0, 12.0), det(3, 5.0, 14.0)]
        along = [det(1, 8.0, 20.0), det(2, 8.0, 22.0), det(3, 8.0, 24.0)]
        g = build_graph([across, along], c, batch=(1, 3))
        lane = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)
        patterns = (EMPTY_PATTERN, lane, lane.with_width(3.0), Pattern(((8.0, 20.0), (8.0, 24.0)), 1.0))
        cands = CandidateSet(patterns, (None,) * 4)
        assert_family_pass_matches(g, input_trajectories(g), cands, c)
        assert cheapest_twins(g, input_trajectories(g), cands, c) == (0, 3)

    def test_the_dense_fixture(self):
        g, ts, cands, cfg = dense_crossing_fixture()
        assert len(cands) == 121
        assert len({p.centerline for p in cands.patterns}) == 3
        assert_family_pass_matches(g, ts, cands, cfg)
        assert cheapest_twins(g, ts, cands, cfg) == (0, 1, 11)


class TestCandidatesAtEachWidth:
    """`generate_candidates` builds each width without checking the centerline again."""

    @pytest.mark.parametrize(
        "widths", [None, (0.5, 2.0000000000000004, 7, 1e-300)], ids=["dense", "odd-widths"]
    )
    def test_each_candidate_is_the_constructor_at_its_width(self, widths):
        if widths is None:
            g, ts, cands, cfg = dense_crossing_fixture()
        else:
            g, ts, cfg = two_flow_fixture(widths)
            cands = generate_candidates(g, ts, cfg)
        for pattern in cands.patterns[1:]:
            built = Pattern(pattern.centerline, pattern.width)
            assert pattern == built and hash(pattern) == hash(built)
            assert [pattern.width.hex(), pattern.length.hex(), pattern.cost.hex()] == [
                built.width.hex(), built.length.hex(), built.cost.hex()
            ]
        # The widths of one trajectory share its centerline's arrays.
        first = cands.patterns[1 : 1 + len(cfg.candidate_widths)]
        assert [p.width for p in first] == list(cfg.candidate_widths)
        assert all(p.cum_arc is first[0].cum_arc and p.vertices is first[0].vertices for p in first)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_a_bad_width_raises_as_the_constructor_does(self, bad):
        # `Config` rejects such widths, so the check is reached only past it.
        g, ts, cfg = two_flow_fixture((1.0,))
        object.__setattr__(cfg, "candidate_widths", (1.0, bad))
        with pytest.raises(ValueError) as built:
            Pattern(generate_candidates(g, ts, Config(candidate_widths=(1.0,))).patterns[1].centerline, bad)
        with pytest.raises(ValueError) as generated:
            generate_candidates(g, ts, cfg)
        assert str(generated.value) == str(built.value)


def least_cost_optimum(model, costs):
    """Brute force: the best ratio, and the least summed selection cost among
    the points that reach it."""
    best, _ = brute_force_best_ratio(model)
    n_sel = len(costs)
    spent = [
        sum(c for c, x in zip(costs, bits[model.num_vars - n_sel :]) if x)
        for bits in enumerate_assignments(model)
        if model.ratio_of(bits) is not None and model.ratio_of(bits) >= best - 1e-12
    ]
    return best, min(spent)


def selection_cost(model, witness):
    n_sel = len(model.costs)
    return sum(c for c, x in zip(model.costs.tolist(), witness[model.num_vars - n_sel :]) if x)


def small_mining_instance(rng):
    """Two short noisy flows and their candidates at two widths: 14 variables."""
    tracks = []
    for _ in range(2):
        y, start = float(rng.integers(-4, 5)), int(rng.integers(1, 3))
        tracks.append([det(start + k, 2.0 * k + float(rng.integers(-2, 3)) / 4.0, y) for k in range(3)])
    cfg = Config(
        candidate_widths=(0.5, 3.0),
        max_patterns=int(rng.integers(1, 3)),
        pattern_cost_budget=float(rng.integers(0, 30)) / 2.0,
        empty_rate=float(rng.choice([0.3, -3.0])),
    )
    g = build_graph(tracks, cfg, batch=(0, 6))
    ts = input_trajectories(g)
    return g, ts, generate_candidates(g, ts, cfg), cfg


class TestMineOracle:
    """The enumeration oracle, its HiGHS fallback above the cap, and the tie rule."""

    def test_both_oracles_match_brute_force(self, monkeypatch):
        rng = np.random.default_rng(31)
        for _ in range(12):
            g, ts, cands, cfg = small_mining_instance(rng)
            model = mine_model(g, ts, cands, cfg)
            assert model.num_vars == 14
            best, cost = least_cost_optimum(model, model.costs.tolist())
            start = ratio_bracket(cfg)[0]
            enumerated = maximize_ratio(model, start)
            with monkeypatch.context() as m:
                m.setattr(miner, "ENUMERATION_CAP", 0)
                solved = maximize_ratio(model, start)
            for res in (enumerated, solved):
                assert res.alpha == pytest.approx(best, rel=0.0, abs=1e-12)
                assert selection_cost(model, res.witness) == pytest.approx(cost, rel=1e-12)

    @pytest.mark.parametrize("cap", [None, 0], ids=["enumeration", "highs"])
    def test_least_summed_cost_wins_a_tie(self, monkeypatch, cap):
        # No width flips a corridor gate here, so each trajectory's candidate
        # at 0.5 and at 3 score alike; the model keeps both (the twin pass is
        # skipped), and the narrow, cheaper ones must be picked.
        if cap is not None:
            monkeypatch.setattr(miner, "ENUMERATION_CAP", cap)
        g, ts, cfg = two_flow_fixture(widths=(3.0, 0.5))
        cands = generate_candidates(g, ts, cfg)
        model = mine_model(g, ts, cands, cfg)
        res = maximize_ratio(model, 0.0)
        assert res.alpha == 1.0
        chosen = {p for t in range(len(ts)) for p in range(1, len(cands)) if res.witness[t * len(cands) + p]}
        assert {cands.patterns[p].width for p in chosen} == {0.5}
        assert len(chosen) == 2

    def test_a_zero_area_scene_with_only_the_empty_candidate(self):
        # Both tracks lie on one line and touch the batch's ends, so no
        # candidate is drawn and the default cost budget cannot be sized; no
        # budget is needed when only the empty pattern is on offer.
        tracks = [[det(k, 2.0 * k) for k in range(1, 5)], [det(k, 2.0 * k + 1.0) for k in range(1, 5)]]
        cfg = Config()
        g = build_graph(tracks, cfg)
        ts = input_trajectories(g)
        cands = generate_candidates(g, ts, cfg)
        assert len(cands) == 1 and tracking_area(g.positions) == 0.0
        with pytest.raises(ValueError, match="span no area"):
            cfg.resolved_cost_budget(0.0)
        res = mine(g, ts, cands, cfg)
        assert res.patterns == (EMPTY_PATTERN,)
        assert res.alpha_star == pytest.approx(0.3, rel=1e-12)

    def test_the_enumeration_checks_the_deadline(self, monkeypatch):
        import ptrack.fracopt as fracopt

        class Clock:
            now = 0.0

            def monotonic(self):
                self.now += 1.0
                return self.now - 1.0

        clock = Clock()
        monkeypatch.setattr(fracopt, "time", clock)
        monkeypatch.setattr(miner, "time", clock)
        g, ts, cfg = two_flow_fixture(widths=(1.0,))
        model = mine_model(g, ts, generate_candidates(g, ts, cfg), cfg)
        assert not isinstance(model.oracle(), HighsOracle)
        # The deadline is set at 0 and the step starts at 1, before it; the
        # enumeration's first level reads 2, past it.
        with pytest.raises(ValueError, match="^probe timed out"):
            maximize_ratio(model, 0.0, time_budget=1.5)

    def test_above_the_cap_highs_answers(self, monkeypatch):
        g, ts, cfg = two_flow_fixture(widths=(1.0, 3.0))
        cands = generate_candidates(g, ts, cfg)
        enumerated = mine(g, ts, cands, cfg)
        monkeypatch.setattr(miner, "ENUMERATION_CAP", 2)
        assert isinstance(mine_model(g, ts, cands, cfg).oracle(), HighsOracle)
        assert mine(g, ts, cands, cfg) == enumerated


class TestCostRowSlack:
    """The enumeration allows the cost row the slack `SolverModel.satisfied` allows it."""

    def model(self, cost):
        # One trajectory; candidate 1 (ratio 1) costs `cost` against a
        # budget of 10, candidate 2 (ratio 0.5) costs 3.
        g, _, _ = two_flow_fixture(widths=(1.0,))
        lane = lambda length: Pattern(((0.0, 0.0), (length, 0.0)), 1.0)
        cands = CandidateSet((EMPTY_PATTERN, lane(cost), lane(3.0)), (None, None, None))
        scores = (np.ones((1, 3)), np.array([[0.3, 1.0, 0.5]]))
        return build_mine_model(g, scores, cands, Config(max_patterns=2, pattern_cost_budget=10.0))

    def test_a_selection_at_the_edge_is_kept_and_one_ulp_past_it_is_not(self):
        cost = 10.0
        for _ in range(3):  # the slack moves with the cost by far less than an ulp
            model = self.model(cost)
            cost = float(model.rhs[-1] + model.slack[-1])
        at, past = self.model(cost), self.model(math.nextafter(cost, math.inf))
        assert at.slack[-1] == 1e-9 * (1.0 + 10.0 + (cost + 3.0))
        assert at.costs[0] == at.rhs[-1] + at.slack[-1] < past.costs[0]
        assert past.costs[0] > past.rhs[-1] + past.slack[-1]
        first = np.array([0, 1, 0, 1, 0])  # trajectory 0 on candidate 1, which is selected
        for model, kept in ((at, True), (past, False)):
            assert model.satisfied(first) is kept
            assert (1 in model.oracle().added.tolist()) is kept
            witness = maximize_ratio(model, 0.0).witness
            assert witness == ((0, 1, 0, 1, 0) if kept else (0, 0, 1, 0, 1))


def test_a_negative_zero_column_is_a_twin():
    # Columns that differ only in the sign of a zero are one column, as the
    # floats compare; the cheaper candidate (width 1, index 2) stays.
    lane = Pattern(((0.0, 0.0), (10.0, 0.0)), 3.0)
    cands = CandidateSet((EMPTY_PATTERN, lane, lane.with_width(1.0)), (None, None, None))
    total = np.array([[1.0, 0.0, -0.0], [2.0, 3.0, 3.0]])
    aligned = np.array([[0.3, -0.0, 0.0], [0.6, 1.0, 1.0]])
    assert miner._cheapest_twins((total, aligned), cands) == (0, 2)
    same_cost = CandidateSet((EMPTY_PATTERN, lane, lane), (None, None, None))
    assert miner._cheapest_twins((total, aligned), same_cost) == (0, 1)
