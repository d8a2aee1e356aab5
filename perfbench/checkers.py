"""Output checkers for the benchmark workloads.

They read the program's output files and printed summaries and compare them
with facts computed outside the program: the generated ground truth, the
corruption the benchmark applied, and the reference scoring in
`tests/oracles.py`.  Nothing here imports `ptrack`.  Each check returns a
list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import math
import re
from collections import Counter, namedtuple
from types import SimpleNamespace

from oracles import (
    _best_labeling_ratio,
    idf1_by_enumeration,
    straight_boundary_score,
    straight_edge_score,
)

Det = namedtuple("Det", "frame pos")

# Scoring settings the CLI runs with by default.
DEFAULT_SCORING = SimpleNamespace(empty_rate=0.3, reverse_penalty=1.0)

_SUMMARY = re.compile(r"^(\d+) trajectories, objective (-?[0-9.]+)(.*)$")


def read_plain(text: str) -> list[list[tuple[int, float, float]]]:
    """Tracks of a plain frame,id,x,y CSV, in id order, each sorted by frame."""
    by_id: dict[int, list[tuple[int, float, float]]] = {}
    for line in text.splitlines():
        if line.strip():
            f, tid, x, y = line.split(",")
            by_id.setdefault(int(tid), []).append((int(f), float(x), float(y)))
    return [sorted(by_id[k]) for k in sorted(by_id)]


def read_centerlines(text: str) -> list[tuple[float, list[tuple[float, float]]]]:
    out = []
    for line in text.splitlines():
        if line.strip():
            v = [float(t) for t in line.split()]
            out.append((v[0], list(zip(v[1::2], v[2::2]))))
    return out


def eval_values(stdout: str) -> dict[str, float]:
    """The `KEY value` lines that `eval` prints."""
    values = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2:
            values[parts[0]] = float(parts[1])
    return values


def as_dets(tracks) -> list[list[Det]]:
    return [[Det(f, (x, y)) for f, x, y in t] for t in tracks]


def check_decomposition(output, inputs) -> list[str]:
    """Output detections are input detections, each used once, frames increasing."""
    available = Counter(d for t in inputs for d in t)
    used: Counter = Counter()
    problems = []
    for k, track in enumerate(output):
        for d in track:
            used[d] += 1
            if used[d] > available[d]:
                problems.append(f"output detection {d} is not an unused input detection")
        frames = [d[0] for d in track]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            problems.append(f"output track {k} does not move forward in time")
    return problems


def track_ratio_options(track, centerlines, cfg=DEFAULT_SCORING):
    """(aligned, total) of one track on the empty pattern and on each corridor.

    The batch is wider than the observed frames, so no entry or exit is free.
    """
    pos = [(x, y) for _, x, y in track]
    options = []
    for centerline, width, empty in [(None, 0.0, True)] + [(c, w, False) for w, c in centerlines]:
        total = aligned = 0.0
        for end, entry in ((pos[0], True), (pos[-1], False)):
            t, a = straight_boundary_score(end, centerline, width, empty, entry, False)
            total, aligned = total + t, aligned + a
        for p, q in zip(pos, pos[1:]):
            t, a = straight_edge_score(p, q, centerline, width, empty, cfg)
            total, aligned = total + t, aligned + a
        options.append((aligned, total))
    return options


def input_ratio(inputs, centerlines) -> float:
    """Best objective of the input tracks as they are, each on its best pattern."""
    ratio = _best_labeling_ratio([track_ratio_options(t, centerlines) for t in inputs])
    if ratio is None:
        raise ValueError("input tracks have no positive total score")
    return ratio


def check_summary(line: str, floor: float) -> list[str]:
    """A `track` summary: certified, objective at most 1 and at least `floor`."""
    m = _SUMMARY.match(line.strip())
    if not m:
        return [f"unreadable track summary {line!r}"]
    problems = []
    if m.group(3):
        problems.append(f"summary is not a certified optimum: {line!r}")
    objective = float(m.group(2))
    if objective > 1.0 + 1e-6:
        problems.append(f"objective {objective} exceeds 1")
    if objective < floor - 1e-6:
        problems.append(f"objective {objective} is below the input tracks' ratio {floor:.6f}")
    return problems


def check_value(stdout: str, key: str, expected: float) -> list[str]:
    """A printed six-decimal metric matches the reference value."""
    got = eval_values(stdout).get(key)
    if got is None:
        return [f"eval printed no {key}"]
    if abs(got - expected) > 6e-7:
        return [f"{key} printed {got:.6f}, reference {expected:.6f}"]
    return []


def reference_idf1(gt, pred, max_dist: float = 3.0) -> float:
    return idf1_by_enumeration(as_dets(gt), as_dets(pred), max_dist)


def check_same_tracks(output, gt) -> list[str]:
    """The output partitions the detections exactly as the ground truth does."""
    want = Counter(frozenset(t) for t in gt)
    got = Counter(frozenset(t) for t in output)
    if want == got:
        return []
    return [f"{sum((got - want).values())} output tracks differ from the ground truth"]


def _dist_to_polyline(p, line) -> float:
    best = math.inf
    for (ax, ay), (bx, by) in zip(line, line[1:]):
        dx, dy = bx - ax, by - ay
        t = ((p[0] - ax) * dx + (p[1] - ay) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.hypot(p[0] - ax - t * dx, p[1] - ay - t * dy))
    return best


def check_covered(gt, centerlines) -> list[str]:
    """Every ground-truth detection lies within the width of some centerline."""
    if not centerlines:
        return ["no patterns learned"]
    outside = sum(
        1
        for t in gt
        for _, x, y in t
        if all(_dist_to_polyline((x, y), c) > w + 1e-6 for w, c in centerlines)
    )
    return [f"{outside} ground-truth detections lie outside every learned corridor"] if outside else []


def check_proxy(line: str, history_csv: str) -> list[str]:
    """The printed proxy score is the best score of the history file."""
    m = re.search(r"proxy score (-?[0-9.]+)$", line.strip())
    rows = [r.split(",") for r in history_csv.splitlines()[1:] if r.strip()]
    if not m or not rows:
        return [f"unreadable unsupervised summary {line!r} or empty history"]
    best = max(float(r[3]) for r in rows)
    if float(m.group(1)) != best:
        return [f"proxy score {m.group(1)} is not the history maximum {best:.6f}"]
    return []
