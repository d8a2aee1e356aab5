"""The output checkers accept real outputs and reject mutated ones.

Run with `python3 -m pytest perfbench/test_checkers.py`.
"""
from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import checkers  # noqa: E402
import scenes  # noqa: E402
from ptrack.cli import cli  # noqa: E402


def run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def noisy(tmp_path_factory):
    """The three-agent track-noisy scene, repaired and scored by the CLI."""
    work = tmp_path_factory.mktemp("noisy")
    s = scenes.track_noisy(0, work)[0]
    out = work / "repaired.csv"
    batch = ["--batch-start", str(s.batch[0]), "--batch-end", str(s.batch[1])]
    summary = run(["track", "--tracks", str(s.files["broken"]),
                   "--patterns", str(s.files["patterns"]), "--out", str(out), *batch])
    ev = run(["eval", "--gt", str(s.files["gt"]), "--pred", str(out)])
    output = checkers.read_plain(out.read_text())
    centerlines = checkers.read_centerlines(s.files["patterns"].read_text())
    return s, summary, ev, output, checkers.input_ratio(s.broken, centerlines)


def test_decomposition_rejects_duplicated_and_foreign_detections(noisy):
    s, _, _, output, _ = noisy
    assert checkers.check_decomposition(output, s.broken) == []
    duplicated = [list(t) for t in output] + [[output[0][0]]]
    assert checkers.check_decomposition(duplicated, s.broken)
    f, x, y = output[0][0]
    foreign = [[(f, x + 0.5, y)] + list(output[0][1:])] + output[1:]
    assert checkers.check_decomposition(foreign, s.broken)
    backwards = [list(reversed(output[0]))] + output[1:]
    assert checkers.check_decomposition(backwards, s.broken)


def test_summary_rejects_objective_below_input_ratio(noisy):
    _, summary, _, _, ratio = noisy
    assert checkers.check_summary(summary, ratio) == []
    n = summary.split()[0]
    assert checkers.check_summary(f"{n} trajectories, objective {ratio - 0.001:.6f}", ratio)
    assert checkers.check_summary(f"{n} trajectories, objective 1.000100", ratio)
    note = summary.strip() + " (lower bound: probe budget hit)"
    assert checkers.check_summary(note, ratio)


def test_idf1_line_off_by_a_thousandth_is_rejected(noisy):
    s, _, ev, output, _ = noisy
    reference = checkers.reference_idf1(s.gt, output)
    assert checkers.check_value(ev, "IDF1", reference) == []
    value = checkers.eval_values(ev)["IDF1"]
    shifted = ev.replace(f"IDF1 {value:.6f}", f"IDF1 {value + 0.001:.6f}")
    assert shifted != ev
    assert checkers.check_value(shifted, "IDF1", reference)


def test_same_tracks_rejects_dropped_and_duplicated_detection(noisy):
    s = noisy[0]
    assert checkers.check_same_tracks(s.gt, s.gt) == []
    dropped = [s.gt[0][1:]] + s.gt[1:]
    assert checkers.check_same_tracks(dropped, s.gt)
    duplicated = [s.gt[0] + [s.gt[1][0]]] + s.gt[1:]
    assert checkers.check_same_tracks(duplicated, s.gt)


def test_covered_rejects_detection_outside_every_corridor(noisy):
    s = noisy[0]
    centerlines = checkers.read_centerlines(s.files["patterns"].read_text())
    gt = [[(f, x, y) for f, x, y in t] for t in s.gt]
    assert checkers.check_covered(gt, centerlines) == []
    f, x, y = gt[0][3]
    gt[0][3] = (f, x + 3.0, y - 3.0)
    assert checkers.check_covered(gt, centerlines)


def test_proxy_must_be_the_history_maximum():
    history = "iteration,cost_budget,n_patterns,proxy_score\n1,2.0,1,0.900000\n2,4.0,2,0.950000\n"
    assert checkers.check_proxy("6 trajectories, 2 patterns, proxy score 0.950000", history) == []
    assert checkers.check_proxy("6 trajectories, 2 patterns, proxy score 0.900000", history)


def test_crowd_reference_matches_eval(tmp_path):
    s = scenes.eval_crowd(0, tmp_path)[0]
    ev = run(["eval", "--gt", str(s.files["gt"]), "--pred", str(s.files["pred"]),
              "--homography", str(s.files["homography"]), "--match-dist", "0.01"])
    assert checkers.check_value(ev, "IDF1", s.facts["idf1"]) == []
    assert checkers.check_value(ev, "MOTA", s.facts["mota"]) == []
    assert checkers.check_value(ev, "IDF1", s.facts["idf1"] + 0.001)
