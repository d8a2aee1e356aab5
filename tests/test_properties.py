"""Property-based tests: randomized inputs against invariants that must hold.

Four suites: cover validation, geometric invariance of the scoring, model
relaxation monotonicity, and serialization round-trips and parsing.  Each runs a fixed
thousand deterministic examples so failures reproduce.  The draws can still
shift when a literal in `src/` changes (Hypothesis also draws constants it
collects from the loaded modules), so corner cases a draw once found are
pinned with `@example`.
"""
from __future__ import annotations

import dataclasses
import math

from hypothesis import assume, example, given, settings, strategies as st

from helpers import config_to_text, edge_score, edge_set
from oracles import rigid_transform
from reference_io import outcome, reference_tracks_from_csv
from ptrack import (
    EMPTY_PATTERN,
    Config,
    Detection,
    Pattern,
    TrackTable,
    TrajectorySet,
    build_graph,
    generate_candidates,
    input_trajectories,
    mine,
    track_table_from_csv,
    tracks_from_csv,
    tracks_to_csv,
    patterns_from_text,
    patterns_to_text,
)
from ptrack.core import validate_trajectory_set
from ptrack.scoring import objective, trajectory_score
from ptrack.cli import config_overrides_from_text

RUNS = settings(max_examples=1000, deadline=None, derandomize=True, database=None)

CFG = Config()


def quarters(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: k / 4.0)


def thousandths(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda k: k / 1000.0)


@st.composite
def track_tables(draw, position=quarters(-160, 160)):
    """Random tracks with strictly increasing frames and gridded positions."""
    tracks = []
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(1, 5))
        length = draw(st.integers(1, 5))
        coords = draw(
            st.lists(st.tuples(position, position), min_size=length, max_size=length)
        )
        tracks.append([Detection(start + k, pos) for k, pos in enumerate(coords)])
    return tracks


class TestCoverValidation:
    @RUNS
    @given(tracks=track_tables())
    def test_input_cover_is_valid_and_mutations_are_flagged(self, tracks):
        graph = build_graph(tracks, CFG, batch=(0, 12))
        cover = input_trajectories(graph)
        assert validate_trajectory_set(graph, cover) == []

        dropped = validate_trajectory_set(graph, cover[1:])
        assert dropped
        assert all("uncovered" in v for v in dropped)

        nodes = cover.nodes
        doubled = validate_trajectory_set(graph, TrajectorySet.from_nodes([*nodes, nodes[0]]))
        assert any("used twice" in v for v in doubled)

        ghost = (len(graph.detections) + 7,)
        haunted = validate_trajectory_set(graph, TrajectorySet.from_nodes([*nodes, ghost]))
        assert any("unknown detection" in v for v in haunted)

        multi = next((k for k, t in enumerate(nodes) if len(t) > 1), None)
        if multi is not None:
            flipped = tuple(reversed(nodes[multi]))
            rest = nodes[:multi] + nodes[multi + 1 :]
            broken = validate_trajectory_set(graph, TrajectorySet.from_nodes([*rest, flipped]))
            assert any("not a graph edge" in v for v in broken)


GEO_CFG = Config(link_radius=2.0, join_radius=4.0)
GEO_PATTERN = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.5)


@st.composite
def walks(draw):
    """A single wiggly track near a straight corridor, plus a transform."""
    length = draw(st.integers(2, 6))
    steps = draw(st.lists(quarters(-8, 8), min_size=length - 1, max_size=length - 1))
    ys = draw(st.lists(quarters(-10, 10), min_size=length, max_size=length))
    xs = [0.0]
    for dx in steps:
        xs.append(xs[-1] + dx)
    points = list(zip(xs, ys))
    angle = draw(st.integers(0, 628)) / 100.0
    shift = (draw(quarters(-200, 200)), draw(quarters(-200, 200)))
    scale = draw(st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.75)))
    return points, angle, shift, scale


def _walk_graph(points, cfg):
    track = [Detection(k + 1, (float(x), float(y))) for k, (x, y) in enumerate(points)]
    return build_graph([track], cfg, batch=(0, len(points) + 1))


def _corridor_distance(point, pattern):
    x, y = point
    t = min(max(x, 0.0), 10.0)
    return math.hypot(x - t, y)


class TestGeometricInvariance:
    @RUNS
    @given(scene=walks())
    def test_scores_are_rigid_invariant_and_scale_linearly(self, scene):
        points, angle, shift, scale = scene
        # keep every detection clear of the corridor boundary so the
        # alignment gate cannot flip under transform rounding
        assume(
            all(
                abs(_corridor_distance(p, GEO_PATTERN) - GEO_PATTERN.width) > 0.05
                for p in points
            )
        )
        base = _walk_graph(points, GEO_CFG)
        moved_cfg = dataclasses.replace(
            GEO_CFG,
            link_radius=GEO_CFG.link_radius * scale,
            join_radius=GEO_CFG.join_radius * scale,
        )
        moved_pattern = Pattern(
            rigid_transform(GEO_PATTERN.centerline, angle, *shift, scale=scale),
            GEO_PATTERN.width * scale,
        )
        moved = _walk_graph(rigid_transform(points, angle, *shift, scale=scale), moved_cfg)
        assert edge_set(moved) == edge_set(base)

        for i, j in edge_set(base):
            before = edge_score(base, i, j, GEO_PATTERN, GEO_CFG)
            after = edge_score(moved, i, j, moved_pattern, moved_cfg)
            assert math.isclose(after.total, scale * before.total, rel_tol=1e-9, abs_tol=1e-9)
            assert math.isclose(after.aligned, scale * before.aligned, rel_tol=1e-9, abs_tol=1e-9)

        (traj,) = input_trajectories(base)
        before = trajectory_score(base, traj, GEO_PATTERN, GEO_CFG)
        after = trajectory_score(moved, traj, moved_pattern, moved_cfg)
        assert math.isclose(after.total, scale * before.total, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(after.aligned, scale * before.aligned, rel_tol=1e-9, abs_tol=1e-9)

        patterns = (EMPTY_PATTERN, GEO_PATTERN)
        moved_patterns = (EMPTY_PATTERN, moved_pattern)
        value = objective(base, traj, patterns, (1,), GEO_CFG)
        moved_value = objective(moved, traj, moved_patterns, (1,), moved_cfg)
        assert math.isclose(moved_value, value, rel_tol=1e-9, abs_tol=1e-12)


MINE_CFG = Config(candidate_widths=(0.5, 3.0))


@st.composite
def mining_instances(draw):
    """Two jittered three-detection tracks and a pair of nested budgets."""
    gap = draw(st.integers(16, 80)) / 4.0
    tracks = []
    for base_y in (0.0, gap):
        dets = []
        for k in range(3):
            x = 2.0 * k + draw(st.integers(-2, 2)) / 4.0
            y = base_y + draw(st.integers(-4, 4)) / 4.0
            dets.append(Detection(k + 1, (x, y)))
        tracks.append(dets)
    cost_lo = draw(st.integers(0, 80)) / 2.0
    cost_hi = cost_lo + draw(st.integers(0, 80)) / 2.0
    pat_lo = draw(st.integers(1, 2))
    pat_hi = pat_lo + draw(st.integers(0, 1))
    return tracks, (cost_lo, pat_lo), (cost_hi, pat_hi)


class TestRelaxationMonotonicity:
    @RUNS
    @given(instance=mining_instances())
    def test_larger_budgets_never_lower_the_certified_bound(self, instance):
        tracks, tight, loose = instance
        graph = build_graph(tracks, MINE_CFG, batch=(0, 5))
        trajectories = input_trajectories(graph)
        candidates = generate_candidates(graph, trajectories, MINE_CFG)

        results = []
        for cost_budget, max_patterns in (tight, loose):
            cfg = dataclasses.replace(
                MINE_CFG, pattern_cost_budget=cost_budget, max_patterns=max_patterns
            )
            res = mine(graph, trajectories, candidates, cfg)
            assert res.alpha_star <= 1.0 + 1e-9
            results.append(res)

        assert results[1].alpha_star >= results[0].alpha_star - 1e-9


class TestSerializationRoundTrips:
    @RUNS
    @given(tracks=track_tables(position=thousandths(-100_000, 100_000)))
    # Corner cases pinned so that they do not depend on the draw: the MOT
    # marker for a box-only row is x == y == -1, and -0.0 is written as
    # -0.000000.  The last has tracks whose frames interleave and meet.
    @example(tracks=[[Detection(1, (-1.0, -1.0))]])
    @example(tracks=[[Detection(2, (-1.0, 0.5)), Detection(3, (0.5, -1.0))]])
    @example(tracks=[[Detection(1, (-0.0, -0.0))], [Detection(1, (-1.0, -1.0))]])
    @example(tracks=[
        [Detection(1, (0.5, -0.0)), Detection(3, (1.0, 2.0)), Detection(4, (-0.0, 1.5))],
        [Detection(2, (4.0, 4.0)), Detection(3, (-0.0, 0.0)), Detection(5, (3.0, -2.5))],
    ])
    def test_track_tables_survive_both_formats(self, tracks):
        for fmt in ("plain", "mot"):
            text = tracks_to_csv(tracks, fmt=fmt)
            # A table writes the bytes its detection lists write.
            assert tracks_to_csv(TrackTable.from_tracks(tracks), fmt=fmt) == text
            back = tracks_from_csv(text)
            assert [[(d.frame, d.pos) for d in t] for t in back] == [
                [(d.frame, d.pos) for d in t] for t in tracks
            ]
            assert tracks_to_csv(back, fmt=fmt) == text

    @RUNS
    @given(cell=st.text(), column=st.integers(0, 3))
    # Pinned: numpy's reader strips U+001F around a cell, which float()
    # rejects; float() alone takes digit underscores and non-ASCII digits;
    # both take a leading no-break space.  Draws also found a brace quoted in
    # a message, an infinite frame and a NaN position.
    @example(cell="\x1f1", column=2)
    @example(cell="1\x1f", column=3)
    @example(cell="\x1f1", column=3)
    @example(cell="1_0", column=0)
    @example(cell="٢", column=2)
    @example(cell="\xa02", column=1)
    @example(cell="{", column=0)
    @example(cell="{;}", column=2)
    @example(cell="INFINITY", column=0)
    @example(cell="nan", column=3)
    def test_any_cell_reads_as_the_row_parser_reads_it(self, cell, column):
        cells = ["3", "7", "1.5", "-2"]
        cells[column] = cell
        text = "1,7,0,0\n" + ",".join(cells) + "\n"
        read_table = lambda *args: track_table_from_csv(*args).tracks()
        assert outcome(read_table, text, "auto", None) == outcome(
            reference_tracks_from_csv, text, "auto", None
        )

    @RUNS
    @given(
        widths=st.lists(thousandths(50, 20_000), min_size=1, max_size=3),
        xs=st.lists(st.integers(-100_000, 100_000), min_size=2, max_size=5, unique=True),
        ys=st.lists(thousandths(-100_000, 100_000), min_size=5, max_size=5),
    )
    def test_pattern_text_is_exact_for_quantized_coordinates(self, widths, xs, ys):
        centerline = tuple((x / 1000.0, y) for x, y in zip(sorted(xs), ys))
        patterns = [Pattern(centerline, w) for w in widths]
        back = patterns_from_text(patterns_to_text(patterns))
        assert [(p.centerline, p.width) for p in back] == [
            (p.centerline, p.width) for p in patterns
        ]

    @RUNS
    @given(
        link_radius=st.integers(1, 5000).map(lambda k: k / 100.0),
        join_radius=st.integers(1, 5000).map(lambda k: k / 100.0),
        join_gap=st.integers(1, 5000).map(lambda k: k / 100.0),
        fps=st.integers(1, 6000).map(lambda k: k / 100.0),
        remove_empty=st.booleans(),
        max_patterns=st.integers(1, 9),
        budget=st.one_of(st.none(), st.integers(0, 99999).map(lambda k: k / 100.0)),
        reverse_penalty=st.integers(0, 500).map(lambda k: k / 100.0),
        empty_rate=st.integers(-500, 500).map(lambda k: k / 100.0),
        widths=st.lists(
            st.integers(1, 5000).map(lambda k: k / 100.0), min_size=1, max_size=4, unique=True
        ),
    )
    def test_config_text_reproduces_every_field(
        self,
        link_radius,
        join_radius,
        join_gap,
        fps,
        remove_empty,
        max_patterns,
        budget,
        reverse_penalty,
        empty_rate,
        widths,
    ):
        cfg = Config(
            link_radius=link_radius,
            join_radius=join_radius,
            join_gap=join_gap,
            fps=fps,
            remove_empty=remove_empty,
            max_patterns=max_patterns,
            pattern_cost_budget=budget,
            reverse_penalty=reverse_penalty,
            empty_rate=empty_rate,
            candidate_widths=tuple(widths),
        )
        assert Config(**config_overrides_from_text(config_to_text(cfg))) == cfg
