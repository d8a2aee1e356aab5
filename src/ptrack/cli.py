"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors (missing or
malformed files, degenerate instances).  The PTRACK_TIME_BUDGET_S environment
variable, when set, caps the time of each ratio search (one per `link` or
`mine` call), summed over its probes; results computed under a hit budget
are reported as lower bounds, and a budget spent before any solution exits 2.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .core import (
    Config,
    EMPTY_PATTERN,
    relative_widths,
    tracking_extent,
    tracks_from_trajectories,
)
from .graphgen import build_graph, input_trajectories
from .linker import link
from .metrics import METRIC_COLUMNS, MatchConfig, summarize
from .miner import generate_candidates, mine
from .svgplot import write_plot
from .synth import crossing_scene, fragmented_corridor_scene, two_flow_scene
from .tracksio import (
    config_overrides_from_text,
    read_homography,
    read_patterns,
    read_track_table,
    read_tracks,
    write_history,
    write_metrics,
    write_patterns,
    write_tracks,
)
from .unsupervised import default_schedule, run_unsupervised


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_CONFIG_FIELDS = tuple(f.name for f in fields(Config))


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file with Config fields")
    p.add_argument("--link-radius", type=float, dest="link_radius")
    p.add_argument("--join-radius", type=float, dest="join_radius")
    p.add_argument("--join-gap", type=float, dest="join_gap")
    p.add_argument("--fps", type=float, dest="fps")
    p.add_argument("--max-patterns", type=int, dest="max_patterns")
    p.add_argument("--cost-budget", type=float, dest="pattern_cost_budget")
    p.add_argument("--reverse-penalty", type=float, dest="reverse_penalty")
    p.add_argument("--empty-rate", type=float, dest="empty_rate")
    p.add_argument(
        "--widths",
        dest="candidate_widths",
        type=lambda v: tuple(float(w) for w in v.split(",") if w.strip()),
        help="comma-separated candidate corridor widths",
    )
    p.add_argument(
        "--relative-widths",
        action="store_true",
        help="derive candidate widths from the data extent instead of meters",
    )
    p.add_argument(
        "--keep-empty",
        action="store_const",
        const=False,
        dest="remove_empty",
        help="keep trajectories assigned to the empty pattern in the output",
    )


def _resolve_config(args, tracks=None) -> Config:
    overrides: dict = {}
    if getattr(args, "config", None):
        from pathlib import Path

        overrides.update(config_overrides_from_text(Path(args.config).read_text()))
    for name in _CONFIG_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    if getattr(args, "relative_widths", False) and "candidate_widths" not in overrides:
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


def _read_input_tracks(args):
    homography = read_homography(args.homography) if getattr(args, "homography", None) else None
    return read_tracks(args.tracks, args.format, homography)


def _cmd_track(args) -> None:
    tracks = _read_input_tracks(args)
    cfg = _resolve_config(args, tracks)
    graph = build_graph(tracks, cfg, _batch_range(args))
    patterns = [EMPTY_PATTERN] + read_patterns(args.patterns)
    result = link(graph, patterns, cfg, time_budget=_time_budget())
    write_tracks(args.out, tracks_from_trajectories(graph, result.trajectories))
    note = " (lower bound: probe budget hit)" if result.lower_bound_only else ""
    print(f"{len(result.trajectories)} trajectories, objective {result.alpha_star:.6f}{note}")


def _cmd_learn_patterns(args) -> None:
    tracks = _read_input_tracks(args)
    cfg = _resolve_config(args, tracks)
    graph = build_graph(tracks, cfg, _batch_range(args))
    trajectories = input_trajectories(graph)
    candidates = generate_candidates(graph, trajectories, cfg)
    result = mine(graph, trajectories, candidates, cfg, time_budget=_time_budget())
    write_patterns(args.out, result.patterns)
    note = " (lower bound: probe budget hit)" if result.lower_bound_only else ""
    print(f"{len(result.patterns) - 1} patterns, objective {result.alpha_star:.6f}{note}")


def _cmd_unsupervised(args) -> None:
    tracks = _read_input_tracks(args)
    cfg = _resolve_config(args, tracks)
    graph = build_graph(tracks, cfg, _batch_range(args))
    initial = input_trajectories(graph)
    if args.budget_start is not None:
        schedule = tuple(args.budget_start * (2.0**k) for k in range(args.levels))
    else:
        schedule = default_schedule(graph, initial, cfg, args.levels)
    result = run_unsupervised(
        graph,
        initial,
        cfg,
        schedule=schedule,
        iterations_per_level=args.iterations,
        stop_patterns=args.stop_patterns,
        time_budget=_time_budget(),
    )
    kept = [
        traj
        for traj, p in zip(result.trajectories, result.assignment)
        if not (cfg.remove_empty and result.patterns[p].is_empty)
    ]
    write_tracks(args.out, tracks_from_trajectories(graph, kept))
    write_patterns(args.patterns_out, result.patterns)
    if args.history:
        write_history(args.history, result.history)
    best = max(h.proxy_score for h in result.history)
    note = " (lower bound: probe budget hit)" if result.lower_bound_only else ""
    print(
        f"{len(kept)} trajectories, {len(result.patterns) - 1} patterns, "
        f"proxy score {best:.6f}{note}"
    )


def _cmd_eval(args) -> None:
    homography = read_homography(args.homography) if args.homography else None
    gt = read_track_table(args.gt, args.format, homography)
    pred = read_track_table(args.pred, args.format, homography)
    match_cfg = MatchConfig(max_dist=args.match_dist)
    summary = summarize(gt, pred, match_cfg)
    for col in METRIC_COLUMNS:
        value = summary[col]
        text = str(int(value)) if col in ("MT", "PT", "ML") else f"{value:.6f}"
        print(f"{col} {text}")
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


def build_parser() -> _Parser:
    parser = _Parser(prog="ptrack", description="Pattern-guided track refinement")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("track", help="re-link tracks guided by a pattern file")
    p.add_argument("--tracks", required=True)
    p.add_argument("--patterns", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="auto", choices=("auto", "plain", "mot"))
    p.add_argument("--homography")
    p.add_argument("--batch-start", type=int)
    p.add_argument("--batch-end", type=int)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("learn-patterns", help="mine patterns from tracks")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="auto", choices=("auto", "plain", "mot"))
    p.add_argument("--homography")
    p.add_argument("--batch-start", type=int)
    p.add_argument("--batch-end", type=int)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_learn_patterns)

    p = sub.add_parser("unsupervised", help="alternate mining and linking, no ground truth")
    p.add_argument("--tracks", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patterns-out", required=True)
    p.add_argument("--history")
    p.add_argument("--format", default="auto", choices=("auto", "plain", "mot"))
    p.add_argument("--homography")
    p.add_argument("--batch-start", type=int)
    p.add_argument("--batch-end", type=int)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--stop-patterns", type=int)
    p.add_argument("--budget-start", type=float)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_unsupervised)

    p = sub.add_parser("eval", help="score predicted tracks against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--match-dist", type=float, default=3.0)
    p.add_argument("--format", default="auto", choices=("auto", "plain", "mot"))
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
    p.add_argument("--format", default="auto", choices=("auto", "plain", "mot"))
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli(sys.argv[1:]))
