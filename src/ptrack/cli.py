"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (missing or
malformed files, degenerate instances).  The PTRACK_TIME_BUDGET_S environment
variable, when set, caps the time of each ratio search (one per `link` or
`mine` call), summed over its Dinkelbach steps; results computed under a hit
budget are reported as lower bounds, and a budget spent before any solution
exits 2.

`track`, `learn-patterns` and `unsupervised` share their inputs: the track
file and its parsing, the batch window and the `Config` fields, each given
by a flag or a `--config` file of `key=value` lines.  One table names each
field's flag and value parser; flags override the file, and
`--relative-widths` overrides the file's `candidate_widths`.  This module also
writes the command-level tables: the unsupervised history and eval's metrics.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import Iterable

from .core import EMPTY_PATTERN, Config, relative_widths, tracking_extent, tracks_from_trajectories
from .graphgen import build_graph, input_trajectories
from .linker import link, reported_trajectories
from .metrics import METRIC_COLUMNS, MatchConfig, summarize
from .miner import generate_candidates, mine
from .svgplot import write_plot
from .synth import crossing_scene, fragmented_corridor_scene, two_flow_scene
from .tracksio import (
    PathLike,
    read_homography,
    read_patterns,
    read_track_table,
    read_tracks,
    write_patterns,
    write_tracks,
)
from .unsupervised import HistoryEntry, default_schedule, doubling_schedule, run_unsupervised


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_FORMATS = ("auto", "plain", "mot")

# Each Config field's flag and the parser of its value in a `--config` file,
# which is also the flag's type; `remove_empty` is switched off by its flag.
_CONFIG_TABLE = {
    "link_radius": ("--link-radius", float),
    "join_radius": ("--join-radius", float),
    "join_gap": ("--join-gap", float),
    "fps": ("--fps", float),
    "remove_empty": (
        "--keep-empty",
        lambda v: {"true": True, "1": True, "false": False, "0": False}[v.lower()],
    ),
    "max_patterns": ("--max-patterns", int),
    "pattern_cost_budget": ("--cost-budget", float),
    "reverse_penalty": ("--reverse-penalty", float),
    "empty_rate": ("--empty-rate", float),
    "candidate_widths": ("--widths", lambda v: tuple(float(w) for w in v.split(",") if w.strip())),
}


def config_overrides_from_text(text: str) -> dict:
    """Parse `key=value` lines into Config field overrides."""
    overrides: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_TABLE:
            raise ValueError(f"line {line_no}: unknown config key {key!r}")
        try:
            overrides[key] = _CONFIG_TABLE[key][1](value.strip())
        except (ValueError, KeyError):
            raise ValueError(f"line {line_no}: bad value for {key}: {value.strip()!r}") from None
    return overrides


def _input_parser() -> argparse.ArgumentParser:
    """The inputs of every command that reads tracks into a graph under a Config."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--tracks", required=True)
    p.add_argument("--format", default="auto", choices=_FORMATS)
    p.add_argument("--homography")
    p.add_argument("--batch-start", type=int)
    p.add_argument("--batch-end", type=int)
    p.add_argument("--config", help="key=value file with Config fields")
    widths = p.add_mutually_exclusive_group()
    for name, (flag, parse) in _CONFIG_TABLE.items():
        if name == "remove_empty":
            p.add_argument(
                flag,
                action="store_const",
                const=False,
                dest=name,
                help="keep trajectories assigned to the empty pattern in the output",
            )
        elif name == "candidate_widths":
            widths.add_argument(
                flag, type=parse, dest=name, help="comma-separated candidate corridor widths"
            )
        else:
            p.add_argument(flag, type=parse, dest=name)
    widths.add_argument(
        "--relative-widths",
        action="store_true",
        help="derive candidate widths from the data extent instead of meters",
    )
    return p


def _resolve_config(args, tracks) -> Config:
    overrides = config_overrides_from_text(Path(args.config).read_text()) if args.config else {}
    for name in _CONFIG_TABLE:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.relative_widths:
        if not tracks:
            raise ValueError("--relative-widths needs input tracks to measure")
        extent = tracking_extent(d.pos for t in tracks for d in t)
        overrides["candidate_widths"] = relative_widths(extent)
    make = Config.unsupervised if args.command == "unsupervised" else Config
    return make(**overrides)


def _time_budget() -> float | None:
    raw = os.environ.get("PTRACK_TIME_BUDGET_S")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"PTRACK_TIME_BUDGET_S must be a number, got {raw!r}") from None
    if not 0 < value < float("inf"):
        raise ValueError(f"PTRACK_TIME_BUDGET_S must be positive and finite, got {raw!r}")
    return value


def _batch_range(args) -> tuple[int, int] | None:
    start, end = args.batch_start, args.batch_end
    if (start is None) != (end is None):
        raise ValueError("--batch-start and --batch-end must be given together")
    if start is None:
        return None
    return (start, end)


def _read_inputs(args):
    """The shared inputs: the graph of the input tracks, its Config and the time budget."""
    homography = read_homography(args.homography) if args.homography else None
    tracks = read_tracks(args.tracks, args.format, homography)
    cfg = _resolve_config(args, tracks)
    return build_graph(tracks, cfg, _batch_range(args)), cfg, _time_budget()


def _print_summary(line: str, lower_bound_only: bool) -> None:
    print(line + (" (lower bound: probe budget hit)" if lower_bound_only else ""))


def _cmd_track(args) -> None:
    graph, cfg, budget = _read_inputs(args)
    patterns = [EMPTY_PATTERN] + read_patterns(args.patterns)
    result = link(graph, patterns, cfg, time_budget=budget)
    write_tracks(args.out, tracks_from_trajectories(graph, result.trajectories))
    _print_summary(
        f"{len(result.trajectories)} trajectories, objective {result.alpha_star:.6f}",
        result.lower_bound_only,
    )


def _cmd_learn_patterns(args) -> None:
    graph, cfg, budget = _read_inputs(args)
    trajectories = input_trajectories(graph)
    candidates = generate_candidates(graph, trajectories, cfg)
    result = mine(graph, trajectories, candidates, cfg, time_budget=budget)
    write_patterns(args.out, result.patterns)
    _print_summary(
        f"{len(result.patterns) - 1} patterns, objective {result.alpha_star:.6f}",
        result.lower_bound_only,
    )


def _cmd_unsupervised(args) -> None:
    graph, cfg, budget = _read_inputs(args)
    initial = input_trajectories(graph)
    if args.budget_start is None:
        schedule = default_schedule(graph, initial, cfg, args.levels)
    else:
        schedule = doubling_schedule(args.budget_start, args.levels)
    result = run_unsupervised(
        graph,
        initial,
        cfg,
        schedule=schedule,
        iterations_per_level=args.iterations,
        stop_patterns=args.stop_patterns,
        time_budget=budget,
    )
    kept, _ = reported_trajectories(result.trajectories, result.assignment, result.patterns, cfg)
    write_tracks(args.out, tracks_from_trajectories(graph, kept))
    write_patterns(args.patterns_out, result.patterns)
    if args.history:
        write_history(args.history, result.history)
    best = max(h.proxy_score for h in result.history)
    _print_summary(
        f"{len(kept)} trajectories, {len(result.patterns) - 1} patterns, proxy score {best:.6f}",
        result.lower_bound_only,
    )


def _metric_text(col: str, value: float) -> str:
    return str(int(value)) if col in ("MT", "PT", "ML") else f"{value:.6f}"


def history_to_csv(history: Iterable[HistoryEntry]) -> str:
    lines = ["iteration,cost_budget,n_patterns,proxy_score"]
    for entry in history:
        lines.append(
            f"{entry.iteration},{entry.cost_budget:.6f},{entry.n_patterns},{entry.proxy_score:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def write_history(path: PathLike, history: Iterable[HistoryEntry]) -> None:
    Path(path).write_text(history_to_csv(history))


def metrics_to_csv(summary: dict[str, float]) -> str:
    cells = (_metric_text(col, summary[col]) for col in METRIC_COLUMNS)
    return ",".join(METRIC_COLUMNS) + "\n" + ",".join(cells) + "\n"


def write_metrics(path: PathLike, summary: dict[str, float]) -> None:
    Path(path).write_text(metrics_to_csv(summary))


def _cmd_eval(args) -> None:
    homography = read_homography(args.homography) if args.homography else None
    gt = read_track_table(args.gt, args.format, homography)
    pred = read_track_table(args.pred, args.format, homography)
    summary = summarize(gt, pred, MatchConfig(max_dist=args.match_dist))
    for col in METRIC_COLUMNS:
        print(f"{col} {_metric_text(col, summary[col])}")
    if args.out:
        write_metrics(args.out, summary)


_PRESETS = {
    "crossing": crossing_scene,
    "corridor": fragmented_corridor_scene,
    "two-flows": two_flow_scene,
}


def _cmd_synth(args) -> None:
    scene, corrupted = _PRESETS[args.preset](seed=args.seed)
    write_tracks(args.out_gt, scene.track_lists())
    write_tracks(args.out_tracks, corrupted)
    if args.out_patterns:
        write_patterns(args.out_patterns, scene.patterns)
    first, last = scene.meta.batch
    print(
        f"{len(scene.tracks)} ground-truth tracks, {len(corrupted)} corrupted tracks, "
        f"batch {first}..{last}"
    )


def _cmd_plot(args) -> None:
    tracks = read_tracks(args.tracks, args.format) if args.tracks else []
    patterns = read_patterns(args.patterns) if args.patterns else []
    write_plot(args.out, patterns, tracks)
    print(f"wrote {args.out}")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built once per process and shared by every `cli` call."""
    parser = _Parser(prog="ptrack", description="Pattern-guided track refinement")
    sub = parser.add_subparsers(dest="command")
    inputs = [_input_parser()]

    p = sub.add_parser("track", parents=inputs, help="re-link tracks guided by a pattern file")
    p.add_argument("--patterns", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("learn-patterns", parents=inputs, help="mine patterns from tracks")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_learn_patterns)

    p = sub.add_parser(
        "unsupervised", parents=inputs, help="alternate mining and linking, no ground truth"
    )
    p.add_argument("--out", required=True)
    p.add_argument("--patterns-out", required=True)
    p.add_argument("--history")
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--stop-patterns", type=int)
    p.add_argument("--budget-start", type=float)
    p.set_defaults(func=_cmd_unsupervised)

    p = sub.add_parser("eval", help="score predicted tracks against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--match-dist", type=float, default=3.0)
    p.add_argument("--format", default="auto", choices=_FORMATS)
    p.add_argument("--homography")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scene and its corruption")
    p.add_argument("--preset", required=True, choices=sorted(_PRESETS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-gt", required=True)
    p.add_argument("--out-tracks", required=True)
    p.add_argument("--out-patterns")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("plot", help="render patterns and tracks to SVG")
    p.add_argument("--tracks")
    p.add_argument("--patterns")
    p.add_argument("--format", default="auto", choices=_FORMATS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has all it wants (`ptrack eval ... | head -1`); the
        # flush at exit goes to devnull, where it cannot fail again.
        sys.stdout = open(os.devnull, "w")
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
