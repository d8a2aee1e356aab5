"""The benchmark's tracing hooks still find every function they wrap.

`perfbench/tracing.py` replaces named functions in the modules that look
them up.  A refactor that renames or stops calling one of them would only
show up as a crash, or as a silently changed count, in a traced benchmark
run; these tests make it fail here instead.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from ptrack import Config, Detection, build_graph, generate_candidates, input_trajectories

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


def lookup(module_name, attr):
    return getattr(importlib.import_module(module_name), attr)


@pytest.mark.parametrize(
    "module_name, attr, span", tracing.WRAPPED, ids=[f"{m}.{a}" for m, a, _ in tracing.WRAPPED]
)
def test_wrapped_name_resolves(module_name, attr, span):
    assert callable(lookup(module_name, attr))
    assert span.split(".")[0] in tracing.LAYERS


def test_install_wraps_and_uninstall_restores():
    originals = {(m, a): lookup(m, a) for m, a, _ in tracing.WRAPPED}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (m, a), fn in originals.items():
            assert lookup(m, a) is not fn
    finally:
        tracer.uninstall()
    for (m, a), fn in originals.items():
        assert lookup(m, a) is fn


def two_flow_mining(widths=(1.0, 3.0)):
    """Two straight flows inside a wider batch: (graph, trajectories, candidates, cfg)."""
    flow = lambda y, start: [Detection(start + k, (2.0 * k, y)) for k in range(4)]
    cfg = Config(candidate_widths=widths)
    g = build_graph([flow(0.0, 1), flow(20.0, 2)], cfg, batch=(0, 7))
    trajectories = input_trajectories(g)
    return g, trajectories, generate_candidates(g, trajectories, cfg), cfg


def scored_columns(monkeypatch):
    """Patch the miner's `score_matrix`, the family pass `scoring._summed` it
    makes and `build_mine_model` to record each call: whether the model
    builder made it, then the patterns of a `score_matrix` call, or the
    centerline and the widths of a family pass."""
    import ptrack.miner as miner
    import ptrack.scoring as scoring

    matrices, passes = [], []
    in_builder = []
    matrix, family, build = miner.score_matrix, scoring._summed, miner.build_mine_model

    def counted_matrix(graph, trajectories, patterns, cfg):
        matrices.append((bool(in_builder), tuple(patterns)))
        return matrix(graph, trajectories, patterns, cfg)

    def counted_family(graph, chains, pattern, widths, cfg):
        passes.append((bool(in_builder), pattern.centerline, tuple(widths.ravel().tolist())))
        return family(graph, chains, pattern, widths, cfg)

    def building(*args):
        in_builder.append(True)
        try:
            return build(*args)
        finally:
            in_builder.pop()

    monkeypatch.setattr(miner, "score_matrix", counted_matrix)
    monkeypatch.setattr(scoring, "_summed", counted_family)
    monkeypatch.setattr(miner, "build_mine_model", building)
    return matrices, passes


def test_mine_scores_each_candidate_column_once(monkeypatch):
    # The twin pass makes one `score_matrix` call, which makes one family
    # pass per centerline over its distinct widths, so every candidate's
    # column is scored exactly once.  The model builder then makes one more
    # call, over the kept candidates only.
    from ptrack import mine

    g, trajectories, candidates, cfg = two_flow_mining()
    assert len(candidates) == 5
    matrices, passes = scored_columns(monkeypatch)
    res = mine(g, trajectories, candidates, cfg)
    # Neither width flips a corridor gate: one candidate per flow survives.
    kept = tuple(candidates.patterns[k] for k in (0, 1, 3))
    assert matrices == [(False, candidates.patterns), (True, kept)]
    picked = [(c, widths) for in_builder, c, widths in passes if not in_builder]
    assert [c for c, _ in picked] == list(dict.fromkeys(p.centerline for p in candidates.patterns))
    covered = [(c, w) for c, widths in picked for w in widths]
    assert len(covered) == len(set(covered)) == len(candidates)
    assert set(covered) == {(p.centerline, p.width) for p in candidates.patterns}
    built = [(c, widths) for in_builder, c, widths in passes if in_builder]
    assert built == [(p.centerline, (p.width,)) for p in kept]
    assert res.selected_candidates == (0, 1, 3)


def test_the_miner_model_scores_each_candidate_once(monkeypatch):
    from ptrack.miner import build_mine_model

    g, trajectories, candidates, cfg = two_flow_mining()
    matrices, passes = scored_columns(monkeypatch)
    build_mine_model(g, trajectories, candidates, cfg)
    assert [patterns for _, patterns in matrices] == [candidates.patterns]
    families = list(dict.fromkeys(p.centerline for p in candidates.patterns))
    assert [c for _, c, _ in passes] == families
    covered = [(c, w) for _, c, widths in passes for w in widths]
    assert sorted(covered) == sorted((p.centerline, p.width) for p in candidates.patterns)


def test_every_solve_goes_through_the_wrapped_names():
    # The benchmark counts one `maximize_ratio` call per `link` and per `mine`,
    # and sizes each link model from `build_link_model`: its rows are the
    # `==` rows of the detections, 2 + one per pattern each, and nothing else.
    from ptrack import build_link_model, link, mine

    flow = lambda y, start: [Detection(start + k, (2.0 * k, y)) for k in range(4)]
    cfg = Config(candidate_widths=(1.0, 3.0))
    g = build_graph([flow(0.0, 1), flow(20.0, 2)], cfg, batch=(0, 7))
    trajectories = input_trajectories(g)
    candidates = generate_candidates(g, trajectories, cfg)
    patterns = mine(g, trajectories, candidates, cfg).patterns
    model, _ = build_link_model(g, patterns, cfg)
    assert all(c.sense == "==" for c in model.constraints)
    assert len(model.constraints) == len(g.detections) * (2 + len(patterns))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        link(g, patterns, cfg)
        mine(g, trajectories, candidates, cfg)
    finally:
        tracer.uninstall()
    assert tracer.calls["fracopt.maximize_ratio"] == 2
    assert tracer.calls["linker.build_link_model"] == tracer.calls["miner.build_mine_model"] == 1
    assert tracer.counts["linker.rows"] == len(model.constraints)
    assert tracer.counts["linker.nonzeros"] == sum(len(c.vars) for c in model.constraints)


def test_the_miner_model_counts_distinct_score_columns():
    # `mine` hands `build_mine_model` one candidate per distinct score column,
    # so the benchmark's `miner.candidates` and `miner.vars` count those.
    from ptrack import mine

    flow = lambda y, start: [Detection(start + k, (2.0 * k, y)) for k in range(4)]
    cfg = Config(candidate_widths=(1.0, 3.0))
    g = build_graph([flow(0.0, 1), flow(20.0, 2)], cfg, batch=(0, 7))
    trajectories = input_trajectories(g)
    candidates = generate_candidates(g, trajectories, cfg)
    assert len(candidates) == 5
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mine(g, trajectories, candidates, cfg)
    finally:
        tracer.uninstall()
    # Neither width flips a corridor gate: one candidate per flow survives.
    assert tracer.counts["miner.candidates"] == 3
    assert tracer.counts["miner.vars"] == len(trajectories) * 3 + 2
    # The miner scores in columns, not through the wrapped scalar name.
    assert tracer.calls["scoring.trajectory_score"] == 0


def test_the_unsupervised_loop_solves_each_distinct_iterate_once():
    # Per budget level the benchmark counts one `link` and one alternation
    # `mine` per distinct mine input, one `split_half_score` (and its two
    # mines) per distinct link output, and one iteration per history row.
    import ptrack.cli
    from ptrack import link, mine
    from ptrack.synth import two_flow_scene

    cfg = Config.unsupervised(candidate_widths=(1.0,))
    scene, corrupted = two_flow_scene(seed=0)
    g = build_graph(corrupted, cfg, batch=scene.meta.batch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = ptrack.cli.run_unsupervised(g, input_trajectories(g), cfg, iterations_per_level=3)
    finally:
        tracer.uninstall()

    inputs = outputs = 0
    current = input_trajectories(g)
    for budget in dict.fromkeys(h.cost_budget for h in res.history):
        level_cfg = cfg.with_cost_budget(budget)
        seen_inputs, seen_outputs = set(), set()
        for _ in range(3):
            seen_inputs.add(current)
            mined = mine(g, current, generate_candidates(g, current, level_cfg), level_cfg)
            current = link(g, mined.patterns, level_cfg).all_trajectories
            seen_outputs.add(current)
        inputs += len(seen_inputs)
        outputs += len(seen_outputs)
    assert tracer.calls["linker.link"] == inputs < len(res.history)
    assert tracer.calls["unsupervised.split_half_score"] == outputs
    assert tracer.calls["miner.mine"] == inputs + 2 * outputs
    assert tracer.counts["unsupervised.iterations"] == len(res.history)
