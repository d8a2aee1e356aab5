"""The array-built solver model against the former `Constraint`-built one.

Every model the benchmark workloads build, the noisy family's, and seeded
random ones must come out bit for bit as `tests/reference_model.py` built
them: ratio terms, rows, the `constraints` view, the row index and each
probe's set-up.
"""
from __future__ import annotations

import numpy as np
import pytest

import ptrack.fracopt as fracopt
import ptrack.linker as linker
import ptrack.miner as miner
from ptrack import (
    EMPTY_PATTERN,
    Config,
    Detection,
    DetectionGraph,
    Pattern,
    SINK_NODE,
    SOURCE_NODE,
    build_graph,
    generate_candidates,
    input_trajectories,
)
from ptrack.cli import cli
from ptrack.fracopt import Constraint, SolverModel, maximize_ratio
from ptrack.miner import CandidateSet
from ptrack.synth import Fragment, Swap
from ptrack.tracksio import read_tracks

from helpers import rows_model
from reference_model import (
    FormerModel,
    FormerRowIndex,
    former_link_model,
    former_mine_model,
    former_probe_setup,
)
from test_fracopt import load_bench_scenes


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).reshape(-1).view(np.int64).tolist()


def assert_same_index(model, former) -> None:
    rows, want = fracopt._RowIndex(model), FormerRowIndex(former)
    assert len(rows.shape) == len(want.shape)
    for got, ref in zip(rows.shape, want.shape):
        assert got[:2] == ref[:2]
        assert bits(got[2:5]) == bits(ref[2:5])
        assert got[5] == list(ref[5])
        assert bits(got[6]) == bits(ref[6])
    assert bits(rows.pos) == bits(want.pos)
    assert bits(rows.neg) == bits(want.neg)
    assert [[(ci, bits([q])) for ci, q in vc] for vc in rows.var_cons] == [
        [(ci, bits([q])) for ci, q in vc] for vc in want.var_cons
    ]
    assert rows.group_of == want.group_of
    ends = [*rows.group_starts.tolist()[1:], model.num_vars]
    groups = [
        (rows.group_members[a:b].tolist(), bool(exact))
        for a, b, exact in zip(rows.group_starts.tolist(), ends, rows.group_exact)
    ]
    assert groups == want.groups


def assert_same_setup(model, former, alpha) -> None:
    got = fracopt._probe_setup(model, alpha)
    want = former_probe_setup(former, alpha)
    assert got.keys() == want.keys()
    for key in ("opt_var", "slot", "ptr", "order"):
        assert got[key] == want[key], key
    for key in ("w", "w_tol", "pos_un_w", "opt_w", "contrib", "bound"):
        assert bits(got[key]) == bits(want[key]), key


def assert_same_model(model, former, alphas=(0.0, 0.5)) -> None:
    """`model` holds exactly `former`'s numbers, rows, index and set-ups."""
    assert model.num_vars == former.num_vars
    assert bits(model.numer) == bits(former.numer)
    assert bits(model.denom) == bits(former.denom)
    cons = former.constraints
    assert model.indptr.tolist() == np.cumsum([0] + [len(c.vars) for c in cons]).tolist()
    assert model.indices.tolist() == [v for c in cons for v in c.vars]
    assert bits(model.coeffs) == bits([q for c in cons for q in c.coeffs])
    assert [fracopt._SENSES[s] for s in model.senses] == [c.sense for c in cons]
    assert bits(model.rhs) == bits([c.rhs for c in cons])
    assert model.constraints == cons
    assert_same_index(model, former)
    for alpha in alphas:
        assert_same_setup(model, former, alpha)


@pytest.fixture
def recorded_models(monkeypatch):
    """Every link and mine model built while recording, with the former builder's model."""
    pairs = []
    real_link, real_mine, real_feasible = linker.build_link_model, miner.build_mine_model, fracopt.feasible
    alphas = {}

    def link_model(graph, patterns, cfg):
        model, triples = real_link(graph, patterns, cfg)
        former, former_triples = former_link_model(graph, patterns, cfg)
        assert triples == former_triples
        pairs.append((model, former))
        return model, triples

    def mine_model(graph, trajectories, candidates, cfg):
        model = real_mine(graph, trajectories, candidates, cfg)
        pairs.append((model, former_mine_model(graph, trajectories, candidates, cfg)))
        return model

    def feasible(model, alpha, deadline=None):
        alphas.setdefault(id(model), []).append(alpha)
        return real_feasible(model, alpha, deadline)

    monkeypatch.setattr(linker, "build_link_model", link_model)
    monkeypatch.setattr(miner, "build_mine_model", mine_model)
    monkeypatch.setattr(fracopt, "feasible", feasible)
    return pairs, alphas


def workload_argv(workload, s, work):
    batch = ["--batch-start", str(s.batch[0]), "--batch-end", str(s.batch[1])]
    out = str(work / f"{s.name}.out")
    if workload == "track-noisy":
        return [["track", "--tracks", str(s.files["broken"]), "--patterns", str(s.files["patterns"]),
                 "--out", out, *batch]]
    if workload == "supervised-dense":
        learned = str(work / "learned.txt")
        return [["learn-patterns", "--tracks", str(s.files["gt"]), "--out", learned, *batch],
                ["track", "--tracks", str(s.files["broken"]), "--patterns", learned, "--out", out, *batch]]
    return [["unsupervised", "--tracks", str(s.files["broken"]), "--out", out,
             "--patterns-out", str(work / "learned.txt"), "--widths", "1.0", "--stop-patterns", "2", *batch]]


class TestBenchmarkScenes:
    @pytest.mark.parametrize("seed", [0, 1009])
    @pytest.mark.parametrize("workload", ["track-noisy", "supervised-dense", "unsupervised-two-flows"])
    def test_every_model_of_a_workload(self, workload, seed, recorded_models, tmp_path, capsys):
        pairs, alphas = recorded_models
        for s in load_bench_scenes().BUILDERS[workload](seed, tmp_path):
            for argv in workload_argv(workload, s, tmp_path):
                assert cli(argv) == 0
        assert pairs
        for model, former in pairs:
            assert_same_model(model, former, alphas.get(id(model), [0.0]))

    @pytest.mark.parametrize("seed", [0, 1009])
    def test_crowd_window(self, seed, tmp_path):
        # eval-crowd solves nothing; link a window of its ground truth instead:
        # the first 12 frames of its first two lane rows, on their two lanes.
        (s,) = load_bench_scenes().BUILDERS["eval-crowd"](seed, tmp_path)
        tracks = [
            [d for d in t if d.frame <= 12] for t in read_tracks(s.files["gt"])
            if t[0].pos[1] < 12.0 and t[0].frame <= 12
        ]
        cfg = Config()
        graph = build_graph([t for t in tracks if t], cfg)
        lanes = (Pattern(((0.0, 0.0), (60.0, 0.0)), 1.0), Pattern(((0.0, 8.0), (60.0, 8.0)), 1.0))
        model, _ = linker.build_link_model(graph, (EMPTY_PATTERN, *lanes), cfg)
        former, _ = former_link_model(graph, (EMPTY_PATTERN, *lanes), cfg)
        assert model.num_vars > 500
        assert_same_model(model, former, (0.0, 0.3, 0.9))


class TestNoisyFamily:
    @pytest.mark.parametrize("agents", [4, 5, 6, 7, 8])
    def test_link_and_mine_models(self, agents):
        scenes = load_bench_scenes()
        scene, broken = scenes.noisy_family(
            agents, 0.3, 0.2, 1, [Swap(0, 1, frame=8), Fragment(2, frame=9)]
        )
        cfg = Config()
        graph = build_graph(broken, cfg, scene.meta.batch)
        patterns = (EMPTY_PATTERN, *scenes.CROSS)
        model, _ = linker.build_link_model(graph, patterns, cfg)
        assert_same_model(model, former_link_model(graph, patterns, cfg)[0], (0.0, 0.25, 0.5, 0.75))

        truth = build_graph(scene.track_lists(), cfg, scene.meta.batch)
        trajectories = input_trajectories(truth)
        candidates = generate_candidates(truth, trajectories, cfg)
        model = miner.build_mine_model(truth, trajectories, candidates, cfg)
        former = former_mine_model(truth, trajectories, candidates, cfg)
        assert_same_model(model, former, (0.0, 0.5, 0.9))


class TestSmallMineModels:
    def test_only_the_empty_candidate_or_one_trajectory(self):
        cfg = Config()
        flows = [[Detection(k, (float(k), y)) for k in range(1, 5)] for y in (0.0, 2.0)]
        graph = build_graph(flows, cfg, batch=(0, 6))
        trajectories = input_trajectories(graph)
        candidates = generate_candidates(graph, trajectories, cfg)
        for cands in (CandidateSet((EMPTY_PATTERN,), (None,)), candidates):
            for chosen in (trajectories, trajectories[:1]):
                model = miner.build_mine_model(graph, chosen, cands, cfg)
                assert_same_model(model, former_mine_model(graph, chosen, cands, cfg))


def random_graph(rng) -> DetectionGraph:
    n = int(rng.integers(1, 12))
    frames = np.sort(rng.integers(0, 6, n))
    dets = tuple(Detection(int(f), (float(x), float(y))) for f, (x, y) in zip(frames, rng.normal(0, 3, (n, 2))))
    edges = set()
    for i in range(1, n + 1):
        if rng.random() < 0.8:
            edges.add((SOURCE_NODE, i))
        if rng.random() < 0.8:
            edges.add((i, SINK_NODE))
        for j in range(1, n + 1):
            if frames[i - 1] < frames[j - 1] and rng.random() < 0.5:
                edges.add((i, j))
    return DetectionGraph(dets, frozenset(edges))


class TestRandomModels:
    def test_random_link_models(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            graph = random_graph(rng)
            if not graph.edges:
                continue
            corridors = tuple(
                Pattern(tuple(map(tuple, rng.normal(0, 4, (2, 2)))), float(rng.uniform(0.5, 2.0)))
                for _ in range(int(rng.integers(0, 3)))
            )
            cfg = Config(empty_rate=float(rng.uniform(-0.5, 1.5)))
            patterns = (EMPTY_PATTERN, *corridors)
            model, triples = linker.build_link_model(graph, patterns, cfg)
            former, former_triples = former_link_model(graph, patterns, cfg)
            assert triples == former_triples
            assert_same_model(model, former, tuple(rng.uniform(-1, 1.5, 3)))

    def test_random_constraint_models(self):
        # Long rows of random float coefficients: sums whose value depends on
        # the order of addition, and rows claimed by earlier `== 1` rows.
        rng = np.random.default_rng(23)
        senses = ("<=", "==", ">=")
        for _ in range(150):
            nv = int(rng.integers(1, 40))
            rows = []
            for _ in range(int(rng.integers(0, 12))):
                size = int(rng.integers(0, nv + 1))
                vars_ = tuple(int(v) for v in rng.choice(nv, size=size, replace=False))
                if rng.random() < 0.4:
                    rows.append(Constraint(vars_, (1.0,) * size, "==", 1.0))
                else:
                    coeffs = tuple(float(q) for q in rng.normal(0, 1, size) * 10.0 ** rng.integers(-3, 4, size))
                    rows.append(Constraint(vars_, coeffs, senses[int(rng.integers(3))], float(rng.normal(0, 5))))
            numer = tuple(rng.normal(0, 1, nv).tolist())
            denom = tuple(rng.normal(0.5, 1, nv).tolist())
            model = rows_model(nv, rows, numer, denom)
            # The view built from the arrays gives back the same rows.
            assert model.constraints == tuple(rows)
            assert_same_model(model, FormerModel(nv, tuple(rows), numer, denom), tuple(rng.uniform(-2, 2, 3)))
            # The constructor takes a model's own read-only arrays back.
            rebuilt = SolverModel(
                nv, model.indptr, model.indices, model.coeffs, model.senses, model.rhs, numer, denom
            )
            assert rebuilt.constraints == tuple(rows)


    def test_signed_zero_coefficients_keep_their_bits(self):
        rows = (
            Constraint((0, 1, 2, 3), (0.0, -0.0, 1.0, 1.0), "<=", 1.0),
            Constraint((1, 3), (-0.0, 0.0), ">=", -0.0),
        )
        model = rows_model(4, rows, (1.0, 0.5, -0.5, 0.0), (1.0, 1.0, 1.0, 2.0))
        assert_same_model(model, FormerModel(4, rows, model.numer.tolist(), model.denom.tolist()))


class TestMalformedModels:
    """Refused at construction, not with a TypeError inside the first probe."""

    def test_fractional_variable_index(self):
        row = Constraint((1.5,), (1.0,), "<=", 1.0)
        with pytest.raises(ValueError, match="must be integers"):
            rows_model(2, (row,), (0.0, 0.0), (1.0, 1.0))

    def test_fractional_variable_count(self):
        with pytest.raises(ValueError, match="num_vars must be an int"):
            rows_model(2.0, (), (0.0, 0.0), (1.0, 1.0))

    def test_boolean_iteration_count(self):
        m = rows_model(1, (), (1.0,), (1.0,))
        with pytest.raises(ValueError, match="positive int"):
            maximize_ratio(m, 0.0, 1.0, True)

    def test_rows_that_are_not_csr(self):
        with pytest.raises(ValueError, match="CSR"):
            SolverModel(2, [0, 2], [0], [1.0], [0], [1.0], (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="sense"):
            SolverModel(2, [0, 1], [0], [1.0], [3], [1.0], (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="repeats"):
            SolverModel(2, [0, 2], [1, 1], [1.0, 1.0], [0], [1.0], (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SolverModel(2, [0, 1], [0], [float("nan")], [0], [1.0], (0.0, 0.0), (1.0, 1.0))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            SolverModel(2, [0, 1], [0], [1.0], [2], [-float("inf")], (0.0, 0.0), (1.0, 1.0))

    def test_arrays_are_read_only(self):
        m = rows_model(2, (Constraint((0, 1), (1.0, 1.0), "==", 1.0),), (0.0, 1.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            m.numer[0] = 5.0
        with pytest.raises(ValueError):
            m.indices[0] = 1
