"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs rounds of one workload, each in a fresh process (perfbench/workload.py),
until S seconds have passed, then prints the medians over rounds.  Every
round makes the same operations, so the failed share is the same in every
run.  The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones.  With `--trace 1`,
rounds alternate between untraced and traced; the metrics are the per-layer
ones from the traced rounds, plus the tracing overhead (traced minus
untraced `run_s`) and reference figures.  Workload and metric names, and
units, are read from BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; leave room for start-up and clean-up.
DEADLINE_S = 165.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_round(args, work: Path, traced: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--dir", str(work),
    ]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    # No probe budget: every solve runs to a certified optimum.
    env.pop("PTRACK_TIME_BUDGET_S", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired:
        fail(f"a round of {args.workload} did not finish within the run's time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"a round of {args.workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for needed in (ROOT / "src" / "ptrack" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            fail(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    start = time.monotonic()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    rounds: list[tuple[bool, dict]] = []
    try:
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            remaining = DEADLINE_S - (time.monotonic() - start)
            rounds.append((traced, run_round(args, work / f"round{len(rounds)}", traced, remaining)))
            done = time.monotonic() - start >= args.seconds
            if done and (not args.trace or len(rounds) >= 2):
                break
        if args.trace:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            last = max(k for k, (t, _) in enumerate(rounds) if t)
            spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
            shutil.copyfile(work / f"round{last}" / "spans.json", spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            work.parent.rmdir()

    problems = [p for _, r in rounds for p in r["problems"]]
    values: dict[str, float] = {}
    if not args.trace:
        for name in ("setup_s", "run_s", "cpu_s", "peak_rss_mb", "idf1_after"):
            values[name] = statistics.median(r[name] for _, r in rounds)
        print("as measured, not scaled: " + ", ".join(
            f"{name} {statistics.median(r['raw'][name] for _, r in rounds):.6g} s"
            for name in ("setup_s", "run_s", "cpu_s")))
    else:
        traced = [r for t, r in rounds if t]
        plain = [r for t, r in rounds if not t]
        for name in traced[0]["layers"]:
            series = [r["layers"][name] for r in traced]
            if not name.endswith("_s") and len(set(series)) > 1:
                problems.append(f"count {name} differs between rounds: {series}")
            values[name] = statistics.median(series)
        values["trace.run_s"] = statistics.median(r["run_s"] for r in traced)
        values["trace.overhead_s"] = values["trace.run_s"] - statistics.median(r["run_s"] for r in plain)
        values["ref.src_lines"] = src_lines()
        values["machine.kernel_s"] = statistics.median(r["kernel_s"] for _, r in rounds)
        versions = traced[0]["versions"]
        print("reference: nproc {} python {} numpy {} scipy {} src lines {}".format(
            os.cpu_count(), versions["python"], versions["numpy"], versions["scipy"],
            values["ref.src_lines"]))
        selfs = {k: v for k, v in values.items() if k.startswith("self.")}
        whole = sum(selfs.values()) or 1.0
        print("self time share: " + ", ".join(
            f"{k[5:-2]} {100.0 * v / whole:.1f}%" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])))
        print(f"spans of the last traced round: {spans.relative_to(ROOT)}")

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]:.6g} {m['unit']}")
    for note in sorted({f for _, r in rounds for f in r["failures"]}):
        print(f"failed operation, every round: {note}")
    for p in problems:
        print(f"check failed: {p}")
    print("rounds {}: run_s {} (as measured {}); kernel {}".format(
        len(rounds),
        " ".join(f"{r['run_s']:.3f}" for _, r in rounds),
        " ".join(f"{r['raw']['run_s']:.3f}" for _, r in rounds),
        " ".join(f"{r['kernel_s']:.4f}" for _, r in rounds)))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for _, r in rounds),
        "failed": sum(r["failed"] for _, r in rounds),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
