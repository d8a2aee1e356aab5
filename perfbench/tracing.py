"""In-memory spans around calls into the program's modules.

Spans are recorded from the benchmark's side only: a public function is
replaced, in the module that looks it up, by a wrapper that opens a span and
updates counters.  Nothing inside `src/` is touched.  Spans are kept in memory
(name, start, end, parent) and written out once the round ends.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# (module that looks the name up, function name, span name).
WRAPPED = (
    ("ptrack.cli", "read_tracks", "tracksio.read_tracks"),
    ("ptrack.cli", "read_patterns", "tracksio.read_patterns"),
    ("ptrack.cli", "read_homography", "tracksio.read_homography"),
    ("ptrack.cli", "write_tracks", "tracksio.write_tracks"),
    ("ptrack.cli", "write_patterns", "tracksio.write_patterns"),
    ("ptrack.cli", "write_history", "tracksio.write_history"),
    ("ptrack.cli", "write_metrics", "tracksio.write_metrics"),
    ("ptrack.cli", "build_graph", "graphgen.build_graph"),
    ("ptrack.cli", "input_trajectories", "graphgen.input_trajectories"),
    ("ptrack.cli", "link", "linker.link"),
    ("ptrack.unsupervised", "link", "linker.link"),
    ("ptrack.linker", "build_link_model", "linker.build_link_model"),
    ("ptrack.cli", "generate_candidates", "miner.generate_candidates"),
    ("ptrack.unsupervised", "generate_candidates", "miner.generate_candidates"),
    ("ptrack.cli", "mine", "miner.mine"),
    ("ptrack.unsupervised", "mine", "miner.mine"),
    ("ptrack.miner", "build_mine_model", "miner.build_mine_model"),
    ("ptrack.linker", "maximize_ratio", "fracopt.maximize_ratio"),
    ("ptrack.miner", "maximize_ratio", "fracopt.maximize_ratio"),
    ("ptrack.fracopt", "feasible", "fracopt.feasible"),
    ("ptrack.miner", "trajectory_score", "scoring.trajectory_score"),
    ("ptrack.unsupervised", "trajectory_score", "scoring.trajectory_score"),
    ("ptrack.cli", "default_schedule", "unsupervised.default_schedule"),
    ("ptrack.cli", "run_unsupervised", "unsupervised.run_unsupervised"),
    ("ptrack.unsupervised", "split_half_score", "unsupervised.split_half_score"),
    ("ptrack.cli", "summarize", "metrics.summarize"),
    ("ptrack.metrics", "idf1", "metrics.idf1"),
    ("ptrack.metrics", "clear_scores", "metrics.clear_scores"),
    ("ptrack.metrics", "track_coverage", "metrics.track_coverage"),
)

LAYERS = (
    "cli", "tracksio", "graphgen", "scoring", "linker", "miner", "fracopt", "unsupervised", "metrics",
)


def _model_size(model) -> tuple[int, int, int]:
    return model.num_vars, len(model.constraints), sum(len(c.vars) for c in model.constraints)


def _count_result(counts: Counter, name: str, args, result) -> None:
    """Work counters read off a wrapped call's arguments and result."""
    if name == "tracksio.read_tracks":
        counts["tracksio.rows_read"] += sum(len(t) for t in result)
    elif name == "graphgen.build_graph":
        counts["graphgen.detections"] += len(result.detections)
        counts["graphgen.edges"] += len(result.edges)
    elif name == "linker.build_link_model":
        v, r, nz = _model_size(result[0])
        counts["linker.vars"] += v
        counts["linker.rows"] += r
        counts["linker.nonzeros"] += nz
    elif name == "miner.build_mine_model":
        v, r, _ = _model_size(result)
        counts["miner.vars"] += v
        counts["miner.rows"] += r
        counts["miner.candidates"] += len(args[2])
    elif name == "fracopt.maximize_ratio":
        counts["fracopt.lower_bound_results"] += int(result.lower_bound_only)
    elif name == "unsupervised.run_unsupervised":
        counts["unsupervised.iterations"] += len(result.history)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[tuple[str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            self.calls[name] += 1

    def _wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            _count_result(self.counts, name, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Per layer: span time minus the time its direct child spans cover."""
        own = [e - s for _, s, e, _ in self.spans]
        for _, s, e, parent in self.spans:
            if parent >= 0:
                own[parent] -= e - s
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, _, _, _), t in zip(self.spans, own):
            out[name.split(".")[0]] += t
        return out

    def layer_metrics(self) -> dict[str, float]:
        c, calls = self.counts, self.calls
        solves = calls["fracopt.maximize_ratio"]
        evals = calls["metrics.summarize"]
        m = {
            "fracopt.solve_s": self.total("fracopt.maximize_ratio"),
            "fracopt.solves": solves,
            "fracopt.probe_s": self.total("fracopt.feasible"),
            "fracopt.probes": calls["fracopt.feasible"],
            "fracopt.probes_per_solve": calls["fracopt.feasible"] / solves if solves else 0.0,
            "fracopt.lower_bound_results": c["fracopt.lower_bound_results"],
            "linker.link_s": self.total("linker.link"),
            "linker.links": calls["linker.link"],
            "linker.build_model_s": self.total("linker.build_link_model"),
            "linker.vars": c["linker.vars"],
            "linker.rows": c["linker.rows"],
            "linker.nonzeros": c["linker.nonzeros"],
            "miner.mine_s": self.total("miner.mine"),
            "miner.mines": calls["miner.mine"],
            "miner.build_model_s": self.total("miner.build_mine_model"),
            "miner.vars": c["miner.vars"],
            "miner.rows": c["miner.rows"],
            "miner.candidates": c["miner.candidates"],
            "scoring.trajectory_score_s": self.total("scoring.trajectory_score"),
            "scoring.trajectory_scores": calls["scoring.trajectory_score"],
            "unsupervised.iterations": c["unsupervised.iterations"],
            "unsupervised.split_half_s": self.total("unsupervised.split_half_score"),
            "unsupervised.split_halves": calls["unsupervised.split_half_score"],
            "graphgen.build_graph_s": self.total("graphgen.build_graph"),
            "graphgen.detections": c["graphgen.detections"],
            "graphgen.edges": c["graphgen.edges"],
            "tracksio.read_s": sum(
                self.total(f"tracksio.{f}") for f in ("read_tracks", "read_patterns", "read_homography")
            ),
            "tracksio.write_s": sum(
                self.total(f"tracksio.{f}")
                for f in ("write_tracks", "write_patterns", "write_history", "write_metrics")
            ),
            "tracksio.rows_read": c["tracksio.rows_read"],
            "metrics.idf1_s": self.total("metrics.idf1"),
            "metrics.clear_scores_s": self.total("metrics.clear_scores"),
            "metrics.clear_scores_per_eval": calls["metrics.clear_scores"] / evals if evals else 0.0,
        }
        for cmd in ("track", "learn_patterns", "unsupervised", "eval"):
            m[f"cli.{cmd}_s"] = self.total(f"cli.{cmd}")
        for layer, t in self.self_times().items():
            m[f"self.{layer}_s"] = t
        return m

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans], fh
            )
