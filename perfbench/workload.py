"""One round of one workload, in a fresh process.

    python3 perfbench/workload.py --workload NAME --seed N --dir WORKDIR [--trace]

Set-up (imports, scene generation, input files) is timed first; then the
workload's CLI commands run in sequence through `ptrack.cli.cli(argv)` and
are timed as one span; then their outputs are checked.  The round's figures
are printed as one JSON line.  With `--trace`, calls into the program's
modules are wrapped and the spans are written to WORKDIR/spans.json.

Set-up and the commands run under a `speed.SpeedProbe`; their times are
reported as measured (`raw`) and scaled to the reference machine speed.
"""
from __future__ import annotations

from speed import SpeedProbe

PROBE = SpeedProbe()
PROBE.start()
SETUP_MARK = PROBE.mark()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from ptrack.cli import cli  # noqa: E402

import checkers  # noqa: E402
import scenes  # noqa: E402
from tracing import Tracer  # noqa: E402


def _batch(s) -> list[str]:
    return ["--batch-start", str(s.batch[0]), "--batch-end", str(s.batch[1])]


def commands(name: str, built, work: Path) -> list[list[str]]:
    """The CLI invocations of one round, in order."""
    cmds = []
    for s in built:
        gt, broken = str(s.files["gt"]), str(s.files.get("broken", ""))
        out = str(work / f"{s.name}_repaired.csv")
        if name == "track-noisy":
            cmds.append(["track", "--tracks", broken, "--patterns", str(s.files["patterns"]),
                         "--out", out, *_batch(s)])
            cmds.append(["eval", "--gt", gt, "--pred", out])
        elif name == "supervised-dense":
            learned = str(work / "learned.txt")
            cmds.append(["learn-patterns", "--tracks", gt, "--out", learned, *_batch(s)])
            cmds.append(["track", "--tracks", broken, "--patterns", learned, "--out", out, *_batch(s)])
            cmds.append(["eval", "--gt", gt, "--pred", out])
        elif name == "unsupervised-two-flows":
            cmds.append(["unsupervised", "--tracks", broken, "--out", out,
                         "--patterns-out", str(work / "learned.txt"),
                         "--history", str(work / "history.csv"),
                         "--widths", "1.0", "--stop-patterns", "2", *_batch(s)])
            cmds.append(["eval", "--gt", gt, "--pred", out])
        elif name == "eval-crowd":
            cmds.append(["eval", "--gt", gt, "--pred", str(s.files["pred"]),
                         "--homography", str(s.files["homography"]), "--match-dist", "0.01"])
    return cmds


def _read(path: Path):
    return checkers.read_plain(path.read_text())


def check(name: str, built, work: Path, printed: list[str]):
    """Problems found, notes on failed operations, and the IDF1 of each final output."""
    problems: list[str] = []
    failures: list[str] = []
    idf1s = []
    lines = iter(printed)
    for s in built:
        repaired_path = work / f"{s.name}_repaired.csv"
        if name == "track-noisy":
            summary, ev = next(lines), next(lines)
            output = _read(repaired_path)
            centerlines = checkers.read_centerlines(s.files["patterns"].read_text())
            problems += checkers.check_decomposition(output, s.broken)
            problems += checkers.check_summary(summary, checkers.input_ratio(s.broken, centerlines))
            after = checkers.reference_idf1(s.gt, output)
            problems += checkers.check_value(ev, "IDF1", after)
            before = checkers.reference_idf1(s.gt, s.broken)
            if after < before - 1e-12:
                failures.append(
                    f"track on {s.name} lowers IDF1 {before:.3f} -> {after:.3f}: singletons on "
                    "the empty pattern score 0/0, so the optimum drops tracks (ROADMAP item 1)"
                )
            idf1s.append(after)
        elif name == "supervised-dense":
            learned, summary, ev = next(lines), next(lines), next(lines)
            if "lower bound" in learned or "lower bound" in summary:
                problems.append("a solve was not certified")
            centerlines = checkers.read_centerlines((work / "learned.txt").read_text())
            problems += checkers.check_covered(s.gt, centerlines)
            problems += checkers.check_same_tracks(_read(repaired_path), s.gt)
            problems += checkers.check_value(ev, "IDF1", 1.0)
            idf1s.append(checkers.eval_values(ev).get("IDF1", 0.0))
        elif name == "unsupervised-two-flows":
            summary, ev = next(lines), next(lines)
            problems += checkers.check_same_tracks(_read(repaired_path), s.gt)
            problems += checkers.check_proxy(summary, (work / "history.csv").read_text())
            problems += checkers.check_value(ev, "IDF1", 1.0)
            idf1s.append(checkers.eval_values(ev).get("IDF1", 0.0))
        elif name == "eval-crowd":
            ev = next(lines)
            problems += checkers.check_value(ev, "IDF1", s.facts["idf1"])
            problems += checkers.check_value(ev, "MOTA", s.facts["mota"])
            idf1s.append(checkers.eval_values(ev).get("IDF1", 0.0))
    return problems, failures, idf1s


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(scenes.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    work = args.dir
    work.mkdir(parents=True, exist_ok=True)

    built = scenes.BUILDERS[args.workload](args.seed, work)
    cmds = commands(args.workload, built, work)
    setup = PROBE.since(SETUP_MARK)

    tracer = Tracer(PROBE.wall) if args.trace else None
    if tracer:
        tracer.install()
    printed, codes = [], []
    run_mark = PROBE.mark()
    for argv in cmds:
        buf = io.StringIO()
        span = tracer.span("cli." + argv[0].replace("-", "_")) if tracer else nullcontext()
        with redirect_stdout(buf), span:
            codes.append(cli(argv))
        printed.append(buf.getvalue())
    run = PROBE.since(run_mark)
    PROBE.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    bad = [f"`{a[0]}` exited with {c}" for a, c in zip(cmds, codes) if c != 0]
    if bad:
        problems, failures, idf1s = bad, bad, [0.0]
    else:
        problems, failures, idf1s = check(args.workload, built, work, printed)
    result = {
        "setup_s": setup["wall"],
        "run_s": run["wall"],
        "cpu_s": run["cpu"],
        "raw": {"setup_s": setup["raw_wall"], "run_s": run["raw_wall"], "cpu_s": run["raw_cpu"]},
        "kernel_s": statistics.median(w for w, _ in PROBE.samples),
        "peak_rss_mb": peak_rss_mb,
        "idf1_after": statistics.fmean(idf1s),
        "attempted": len(cmds),
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
    }
    if tracer:
        import numpy
        import scipy

        tracer.dump(work / "spans.json")
        # Span times are put in the same unit as run_s: reference seconds.
        factor = run["wall"] / run["raw_wall"]
        result["layers"] = {
            k: v * factor if k.endswith("_s") else v for k, v in tracer.layer_metrics().items()
        }
        result["versions"] = {
            "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
