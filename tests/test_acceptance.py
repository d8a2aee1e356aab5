"""Acceptance gate: one test per shipped guarantee.

Each test prints a single `ACCEPTANCE nn <name>: PASS/FAIL` line before
asserting, so a plain pytest run doubles as the acceptance report.  Where a
criterion carries a runtime budget the elapsed time is part of the check.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from oracles import best_cover_objective, brute_force_best_ratio
from ptrack import (
    EMPTY_PATTERN,
    Config,
    Detection,
    Pattern,
    build_graph,
    build_link_model,
    clear_scores,
    crossing_scene,
    fragmented_corridor_scene,
    generate_candidates,
    idf1,
    input_trajectories,
    link,
    mine,
    run_unsupervised,
    tracks_from_trajectories,
    two_flow_scene,
)
from ptrack.core import SINK_NODE, SOURCE_NODE
from ptrack.fracopt import Constraint, SolverModel, maximize_ratio
from helpers import edge_score, rows_model
from test_metrics import shattered_fixture


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number:02d} {name}: {status}{suffix}"


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_01_edge_score_table():
    t0 = time.perf_counter()
    pattern = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0)
    cfg = Config()
    dissent = Config(empty_rate=-3.0)
    track = [
        Detection(k, pos)
        for k, pos in enumerate([(2.0, 1.0), (5.0, 1.0), (2.0, 5.0), (5.0, 5.0), (4.0, 1.0)], start=1)
    ]
    g = build_graph([track], cfg, batch=(0, 6))

    checks = []
    forward = edge_score(g, 1, 2, pattern, cfg)
    checks.append(_close(forward.total, 6.0) and forward.aligned == forward.total)
    outside = edge_score(g, 3, 4, pattern, cfg)
    checks.append(_close(outside.total, 6.0) and outside.aligned == 0.0)
    reverse = edge_score(g, 2, 1, pattern, cfg)
    checks.append(_close(reverse.total, 0.0) and _close(reverse.aligned, -6.0))
    checks.append(_close(edge_score(g, SOURCE_NODE, 5, pattern, cfg).total, 4.0))
    checks.append(_close(edge_score(g, 2, SINK_NODE, pattern, cfg).total, 5.0))
    # A batch that starts at detection 5's frame, or ends at detection 2's.
    enter_free = edge_score(build_graph([track[4:]], cfg, batch=(5, 6)), SOURCE_NODE, 1, pattern, cfg)
    leave_free = edge_score(build_graph([track[:2]], cfg, batch=(0, 2)), 2, SINK_NODE, pattern, cfg)
    checks.append(enter_free == leave_free and enter_free.total == 0.0 and enter_free.aligned == 0.0)
    absorb = edge_score(g, 1, 2, EMPTY_PATTERN, cfg)
    checks.append(_close(absorb.total, 3.0) and _close(absorb.aligned, 0.9))
    punish = edge_score(g, 1, 2, EMPTY_PATTERN, dissent)
    checks.append(_close(punish.total, 3.0) and _close(punish.aligned, -9.0))
    # The empty pattern's ends follow the same rule: one unit of motion at
    # the empty rate inside the batch, free at its boundary.
    enter = edge_score(g, SOURCE_NODE, 5, EMPTY_PATTERN, cfg)
    checks.append(_close(enter.total, 1.0) and _close(enter.aligned, 0.3))
    leave = edge_score(g, 2, SINK_NODE, EMPTY_PATTERN, dissent)
    checks.append(_close(leave.total, 1.0) and _close(leave.aligned, -3.0))
    empty_free = edge_score(build_graph([track[:2]], cfg, batch=(0, 2)), 2, SINK_NODE, EMPTY_PATTERN, cfg)
    checks.append(empty_free.total == 0.0 and empty_free.aligned == 0.0)

    elapsed = time.perf_counter() - t0
    ok = all(checks) and elapsed < 1.0
    _report(1, "edge score table", ok, f"{sum(checks)}/{len(checks)} cases, {elapsed:.2f}s")


def _random_ratio_instance(rng) -> tuple[SolverModel, float]:
    """A solvable 0/1 ratio model with the optimum inside [0, 1]."""
    while True:
        n = int(rng.integers(2, 11))
        denom = tuple(float(rng.integers(1, 7)) / 2.0 for _ in range(n))
        numer = tuple(float(rng.integers(0, int(d * 4) + 1)) / 4.0 for d in denom)
        rows = [Constraint(tuple(range(n)), (1.0,) * n, ">=", 1.0)]
        for _ in range(int(rng.integers(0, 5))):
            size = int(rng.integers(1, n + 1))
            sel = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
            if rng.integers(0, 2):
                rows.append(Constraint(sel, (1.0,) * size, "<=", float(rng.integers(1, size + 1))))
            else:
                rows.append(Constraint(sel, (1.0,) * size, "==", 1.0))
        model = rows_model(n, tuple(rows), numer, denom)
        best, _ = brute_force_best_ratio(model)
        if best is not None:
            return model, best


def test_02_ratio_solver_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    ok = True
    for _ in range(200):
        model, best = _random_ratio_instance(rng)
        result = maximize_ratio(model)
        gap = abs(result.alpha - best)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-9
        ok = ok and model.ratio_of(result.witness) == result.alpha
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(2, "ratio solver vs enumeration", ok, f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_03_linker_matches_exhaustive_covers():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    patterns = (
        EMPTY_PATTERN,
        Pattern(((0.0, 0.0), (6.0, 0.0)), 1.5),
        Pattern(((0.0, -1.0), (6.0, 1.0)), 1.5),
    )
    cfg = Config(link_radius=3.0, join_radius=3.0)
    done = 0
    worst = 0.0
    ok = True
    while done < 50:
        tracks = []
        for _ in range(int(rng.integers(2, 5))):
            n = int(rng.integers(1, 5))
            start = int(rng.integers(1, 3))
            xs = np.sort(rng.uniform(0.0, 6.0, n))
            ys = rng.uniform(-1.0, 1.0, n)
            tracks.append(
                [Detection(start + k, (float(xs[k]), float(ys[k]))) for k in range(n)]
            )
        if sum(len(t) for t in tracks) > 12:
            continue
        frames = [d.frame for t in tracks for d in t]
        g = build_graph(tracks, cfg, batch=(min(frames) - 1, max(frames) + 1))
        want = best_cover_objective(g, patterns, cfg)
        if want is None:
            continue
        res = link(g, patterns, cfg)
        gap = abs(res.alpha_star - want)
        worst = max(worst, gap)
        ok = ok and gap <= 1e-9
        done += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _report(3, "linker vs exhaustive covers", ok, f"50 graphs, worst gap {worst:.2e}, {elapsed:.1f}s")


def _mine_patterns(gt_tracks, batch, cfg):
    g = build_graph(gt_tracks, cfg, batch=batch)
    trajectories = input_trajectories(g)
    candidates = generate_candidates(g, trajectories, cfg)
    return mine(g, trajectories, candidates, cfg)


def _repair(corrupted, patterns, batch, cfg):
    g = build_graph(corrupted, cfg, batch=batch)
    res = link(g, patterns, cfg)
    return tracks_from_trajectories(g, res.trajectories)


def test_04_identity_switch_repair():
    t0 = time.perf_counter()
    scene, corrupted = crossing_scene(seed=0)
    cfg = Config()
    gt = scene.track_lists()
    mined = _mine_patterns(gt, scene.meta.batch, cfg)
    repaired = _repair(corrupted, mined.patterns, scene.meta.batch, cfg)
    before = idf1(gt, corrupted).idf1
    after = idf1(gt, repaired).idf1
    elapsed = time.perf_counter() - t0
    ok = after == 1.0 and before <= 0.75 and after > before and elapsed < 10.0
    _report(4, "identity switch repair", ok, f"idf1 {before:.3f} -> {after:.3f}, {elapsed:.1f}s")


def test_05_fragmentation_repair():
    t0 = time.perf_counter()
    scene, corrupted = fragmented_corridor_scene(seed=0)
    cfg = Config()
    gt = scene.track_lists()
    mined = _mine_patterns(gt, scene.meta.batch, cfg)
    repaired = _repair(corrupted, mined.patterns, scene.meta.batch, cfg)
    after = idf1(gt, repaired).idf1
    mota_before = clear_scores(gt, corrupted).mota
    mota_after = clear_scores(gt, repaired).mota
    elapsed = time.perf_counter() - t0
    ok = after == 1.0 and mota_after >= mota_before and elapsed < 10.0
    _report(
        5,
        "fragmentation repair",
        ok,
        f"idf1 {after:.3f}, mota {mota_before:.3f} -> {mota_after:.3f}, {elapsed:.1f}s",
    )


def test_06_shattered_track_metric_anchor():
    t0 = time.perf_counter()
    gt, pred = shattered_fixture()
    identity = idf1(gt, pred)
    clear = clear_scores(gt, pred)
    elapsed = time.perf_counter() - t0
    ok = abs(identity.idf1 - 0.30) <= 0.01 and clear.mota < 0.0 and elapsed < 1.0
    _report(
        6,
        "shattered track metric anchor",
        ok,
        f"idf1 {identity.idf1:.3f}, mota {clear.mota:.3f}, {elapsed:.2f}s",
    )


def test_07_miner_recovers_generating_paths():
    t0 = time.perf_counter()
    scene, _ = crossing_scene(seed=0)
    cfg = Config()
    gt = scene.track_lists()
    mined = _mine_patterns(gt, scene.meta.batch, cfg)
    walks = {tuple(d.pos for d in track) for track in gt}
    recovered = any(p.centerline in walks for p in mined.patterns if not p.is_empty)

    starved = _mine_patterns(gt, scene.meta.batch, cfg.with_cost_budget(0.0))
    opted_out = starved.patterns == (EMPTY_PATTERN,)
    exact_rate = abs(starved.alpha_star - cfg.empty_rate) <= 1e-12

    elapsed = time.perf_counter() - t0
    ok = recovered and mined.alpha_star >= 0.9 and opted_out and exact_rate and elapsed < 60.0
    _report(
        7,
        "miner self consistency",
        ok,
        f"alpha {mined.alpha_star:.3f}, zero-budget alpha {starved.alpha_star:.3f}, {elapsed:.1f}s",
    )


def test_08_unsupervised_matches_supervised():
    t0 = time.perf_counter()
    scene, corrupted = two_flow_scene(seed=0)
    gt = scene.track_lists()
    cfg = Config()
    g = build_graph(corrupted, cfg, batch=scene.meta.batch)

    supervised = link(g, (EMPTY_PATTERN, *scene.patterns), cfg)
    sup_idf1 = idf1(gt, tracks_from_trajectories(g, supervised.trajectories)).idf1

    blind_cfg = Config.unsupervised(candidate_widths=(1.0,))
    res = run_unsupervised(g, input_trajectories(g), blind_cfg, iterations_per_level=3)
    kept = [t for t, p in zip(res.trajectories, res.assignment) if p != 0]
    blind_idf1 = idf1(gt, tracks_from_trajectories(g, kept)).idf1

    elapsed = time.perf_counter() - t0
    ok = blind_idf1 >= sup_idf1 - 0.05 and elapsed < 600.0
    _report(
        8,
        "unsupervised matches supervised",
        ok,
        f"idf1 {blind_idf1:.3f} vs supervised {sup_idf1:.3f}, {elapsed:.1f}s",
    )


def _staggered_lane_tracks(n_agents: int) -> list[list[Detection]]:
    """One walker per five-frame slot, so agents per frame stays constant."""
    tracks = []
    for a in range(n_agents):
        start = 1 + 5 * a
        tracks.append(
            [Detection(start + i, (0.9 * i, 0.0)) for i in range(5)]
        )
    return tracks


def test_09_model_size_scaling():
    lane = Pattern(((0.0, 0.0), (10.0, 0.0)), 1.5)
    drift = Pattern(((0.0, -1.0), (10.0, 1.0)), 1.5)
    cfg = Config()
    sizes = {}
    ok = True
    for label, agents in (("base", 4), ("doubled", 8)):
        tracks = _staggered_lane_tracks(agents)
        frames = [d.frame for t in tracks for d in t]
        g = build_graph(tracks, cfg, batch=(0, max(frames) + 1))
        small, _ = build_link_model(g, (EMPTY_PATTERN, lane), cfg)
        large, _ = build_link_model(g, (EMPTY_PATTERN, lane, drift), cfg)
        ok = ok and small.num_vars == 2 * len(g.edges)
        ok = ok and large.num_vars == 3 * len(g.edges)
        sizes[label] = (max(frames), small.num_vars)
    frame_ratio = sizes["doubled"][0] / sizes["base"][0]
    var_ratio = sizes["doubled"][1] / sizes["base"][1]
    _report(
        9,
        "model size scaling",
        ok,
        f"vars == edges x patterns exact; frames x{frame_ratio:.2f} -> vars x{var_ratio:.2f}",
    )


def test_10_randomized_invariant_suites():
    import test_properties

    t0 = time.perf_counter()
    ok = test_properties.RUNS.max_examples >= 1000
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(Path(__file__).with_name("test_properties.py")), "-q"],
        capture_output=True,
        text=True,
        cwd=str(Path(__file__).resolve().parent.parent),
    )
    ok = ok and proc.returncode == 0
    elapsed = time.perf_counter() - t0
    _report(
        10,
        "randomized invariant suites",
        ok,
        f"{test_properties.RUNS.max_examples} cases per suite, {elapsed:.1f}s",
    )
