"""Repair never lowers IDF1: the output scores at least as well as the input.

Three seeded families on the two crossing corridors of the two-flow layout:
the noise-free 12-agent family with patterns learned from its ground truth,
the noisy family linked against the true corridors, and the noisy family
repaired without ground truth.  With free entries and exits on the empty
pattern, every singleton scored 0/0, and each family held a case whose
repair cut true tracks into pieces and dropped them.
"""
from __future__ import annotations

import numpy as np
import pytest

from helpers import CROSS, crossing_family
from ptrack import (
    EMPTY_PATTERN,
    Config,
    Fragment,
    Swap,
    build_graph,
    corrupt,
    generate_candidates,
    idf1,
    input_trajectories,
    link,
    mine,
    run_unsupervised,
    tracks_from_trajectories,
)


def assert_repair_keeps_idf1(gt, broken, graph, kept):
    before = idf1(gt, broken).idf1
    after = idf1(gt, tracks_from_trajectories(graph, kept)).idf1
    assert after >= before, f"IDF1 {before:.3f} -> {after:.3f}"
    return after


@pytest.fixture(scope="module")
def noise_free_truth():
    """The noise-free 12-agent scene and the patterns mined from its ground truth."""
    scene, _ = crossing_family(12, 0.0, [], jitter=0.0)
    cfg = Config()
    g = build_graph(scene.track_lists(), cfg, scene.meta.batch)
    trajectories = input_trajectories(g)
    return scene, mine(g, trajectories, generate_candidates(g, trajectories, cfg), cfg).patterns


# Seeds 2, 3 and 4 lowered IDF1 while the empty pattern's ends were free
# (0.910 -> 0.887, 0.955 -> 0.909 and 0.923 -> 0.901).
@pytest.mark.parametrize("seed", range(5))
def test_supervised_noise_free_family(noise_free_truth, seed):
    """One swap and two fragments on four distinct agents drawn by the seed, at seeded frames."""
    scene, patterns = noise_free_truth
    a, b, c, d = (int(k) for k in np.random.default_rng(seed).choice(12, 4, replace=False))
    gt = scene.track_lists()
    broken = corrupt(gt, [Swap(a, b), Fragment(c), Fragment(d)], seed=seed)
    cfg = Config()
    g = build_graph(broken, cfg, scene.meta.batch)
    assert_repair_keeps_idf1(gt, broken, g, link(g, patterns, cfg).trajectories)


# Every case up to 8 agents lowered IDF1 while the empty pattern's ends were
# free, to 0.406 at 4 agents, 0.289 at 6 and 0.228 at 8.  The bisection over
# a depth-first probe took 43 s and more at 8 agents sigma 0.1; the exact
# solve takes tens of milliseconds up to 32 agents and repairs every case
# below to IDF1 1.000.
@pytest.mark.parametrize(
    "n, sigma, fragment",
    [(n, s, f) for n in (4, 6, 8) for s in (0.1, 0.3) for f in (False, True)]
    + [(16, 0.3, True), (32, 0.3, True)],
)
def test_supervised_noisy_family_with_true_corridors(n, sigma, fragment):
    ops = [Swap(0, 1, frame=8)] + ([Fragment(2, frame=9)] if fragment else [])
    scene, broken = crossing_family(n, sigma, ops)
    cfg = Config()
    g = build_graph(broken, cfg, scene.meta.batch)
    res = link(g, (EMPTY_PATTERN, *CROSS), cfg)
    assert not res.lower_bound_only
    assert assert_repair_keeps_idf1(scene.track_lists(), broken, g, res.trajectories) == 1.0


# Each case is `n, sigma, fragment`; the rows of ROADMAP item 1 that lower
# IDF1 (0.804 -> 0.627, 0.792 -> 0.688, 0.792 -> 0.753, 0.842 -> 0.723 and
# 0.854 -> 0.806, in order) are pinned until the mining generalizes.
LOWERS_IDF1 = pytest.mark.xfail(strict=True, reason="ROADMAP item 1")


@pytest.mark.parametrize(
    "n, sigma, fragment",
    [(4, 0.1, False), (6, 0.3, False), (8, 0.3, False)]
    + [pytest.param(*case, marks=LOWERS_IDF1) for case in
       [(4, 0.3, False), (6, 0.1, True), (6, 0.3, True), (8, 0.3, True), (8, 0.5, True)]],
)
def test_unsupervised_noisy_family_rows(n, sigma, fragment):
    ops = [Swap(0, 1, frame=8)] + ([Fragment(2, frame=9)] if fragment else [])
    scene, broken = crossing_family(n, sigma, ops)
    cfg = Config.unsupervised()
    g = build_graph(broken, cfg, scene.meta.batch)
    res = run_unsupervised(g, input_trajectories(g), cfg, iterations_per_level=2)
    kept = [t for t, p in zip(res.trajectories, res.assignment) if not res.patterns[p].is_empty]
    assert_repair_keeps_idf1(scene.track_lists(), broken, g, kept)


def test_unsupervised_noisy_family():
    """6 agents, sigma 0.1: this run raised "degenerate instance" from the split-half proxy."""
    scene, broken = crossing_family(6, 0.1, [Swap(0, 1, frame=8)])
    cfg = Config.unsupervised()
    g = build_graph(broken, cfg, scene.meta.batch)
    res = run_unsupervised(g, input_trajectories(g), cfg, iterations_per_level=2)
    kept = [t for t, p in zip(res.trajectories, res.assignment) if not res.patterns[p].is_empty]
    assert_repair_keeps_idf1(scene.track_lists(), broken, g, kept)
