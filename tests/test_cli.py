"""End-to-end tests of the command-line interface.

Everything goes through cli(argv) so exit codes and printed output are
checked exactly as a shell user would see them.
"""
from __future__ import annotations

import dataclasses
import io
import os
import re
import sys

import numpy as np
import pytest

import ptrack.fracopt as fracopt
import ptrack.metrics as metrics
import ptrack.unsupervised as unsupervised
from helpers import bench_scenes, mark_lower_bound, mark_proxy_lower_bound, run_python
from ptrack import (
    Config,
    Pattern,
    generate_scene,
    read_patterns,
    relative_widths,
    tracking_extent,
    tracks_from_csv,
    write_tracks,
)
from ptrack.cli import cli
from ptrack.tracksio import read_homography, track_table_from_csv
from reference_io import exact, reference_tracks_from_csv


@pytest.fixture(autouse=True)
def no_time_budget(monkeypatch):
    monkeypatch.delenv("PTRACK_TIME_BUDGET_S", raising=False)


def lane_files(tmp_path):
    """A three-detection track on a lane plus one far-off singleton."""
    tracks = tmp_path / "tracks.csv"
    tracks.write_text("1,1,-2,0\n2,1,0,0\n3,1,2,0\n2,2,0,50\n")
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("1.000000 -3.000000 0.000000 3.000000 0.000000\n")
    return tracks, patterns


def two_flow_csv(starts: tuple[int, int] = (1, 2)) -> str:
    rows = []
    tid = 1
    for y in (0.0, 20.0):
        for start in starts:
            for k in range(4):
                rows.append(f"{start + k},{tid},{2.0 * k:.6f},{y:.6f}")
            tid += 1
    return "".join(row + "\n" for row in rows)


class Resolved(Exception):
    pass


def resolved_config(tmp_path, monkeypatch, *extra) -> Config:
    """The Config that `learn-patterns` on `two_flow_csv()` resolves from `extra`."""

    def capture(tracks, cfg, batch):
        raise Resolved(cfg)

    monkeypatch.setattr("ptrack.cli.build_graph", capture)
    tracks = tmp_path / "flows.csv"
    tracks.write_text(two_flow_csv())
    with pytest.raises(Resolved) as resolved:
        cli(["learn-patterns", "--tracks", str(tracks), "--out", str(tmp_path / "p.txt"), *extra])
    return resolved.value.args[0]


class TestExitCodes:
    def test_no_subcommand_prints_usage(self, capsys):
        assert cli([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert cli(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_unknown_flag(self, capsys):
        assert cli(["eval", "--gt", "a", "--pred", "b", "--bogus"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_missing_required_flag(self, capsys):
        assert cli(["track"]) == 1
        assert "required" in capsys.readouterr().err

    def test_bad_format_choice(self, capsys):
        assert cli(["eval", "--gt", "a", "--pred", "b", "--format", "xml"]) == 1
        assert capsys.readouterr().err.startswith("usage error:")

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        assert cli(["eval", "--gt", str(absent), "--pred", str(absent)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "absent.csv" in err

    def test_unpaired_batch_flags(self, tmp_path, capsys):
        tracks, patterns = lane_files(tmp_path)
        out = tmp_path / "out.csv"
        argv = [
            "track", "--tracks", str(tracks), "--patterns", str(patterns),
            "--out", str(out), "--batch-start", "0",
        ]
        assert cli(argv) == 2
        assert "must be given together" in capsys.readouterr().err

    @pytest.mark.parametrize("frame", ["inf", "nan", "9223372036854775808"])
    def test_unstorable_frame_is_a_data_error(self, tmp_path, capsys, frame):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(f"1,1,0,0\n{frame},1,0,0\n")
        assert cli(["eval", "--gt", str(tracks), "--pred", str(tracks)]) == 2
        err = capsys.readouterr().err
        assert err == "error: malformed row at line 2: frame and id must be integers\n"

    def test_relative_widths_need_detections(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        out = tmp_path / "mined.txt"
        argv = ["learn-patterns", "--tracks", str(empty), "--out", str(out), "--relative-widths"]
        assert cli(argv) == 2
        assert "needs input tracks" in capsys.readouterr().err

    def test_collinear_tracks_need_an_explicit_cost_budget(self, tmp_path, capsys):
        # Three noise-free agents on one straight lane span no area, so the
        # default budget, a fraction of that area, would afford no pattern.
        tracks = tmp_path / "tracks.csv"
        rows = (f"{start + x},{start},{x},0\n" for start in (1, 2, 3) for x in range(15))
        tracks.write_text("".join(rows))
        out = tmp_path / "mined.txt"
        argv = ["learn-patterns", "--tracks", str(tracks), "--out", str(out)]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "pattern_cost_budget" in err and "--cost-budget" in err
        assert not out.exists()
        assert cli(argv + ["--cost-budget", "14"]) == 0
        assert capsys.readouterr().out.startswith("1 patterns, objective 1.000000")

    def test_a_default_budget_below_every_candidate_is_a_data_error(self, tmp_path, capsys):
        # A nearly straight lane spans a sliver of area: the default budget
        # (0.81) affords none of the candidates (the cheapest costs 7).
        scene = generate_scene(
            [Pattern(((0.0, 0.0), (14.0, 0.0)), 1.0)], [(0, 1), (0, 3), (0, 5)], lateral_sigma=0.01
        )
        tracks = tmp_path / "tracks.csv"
        write_tracks(tracks, scene.track_lists())
        out = tmp_path / "mined.txt"
        argv = ["learn-patterns", "--tracks", str(tracks), "--out", str(out)]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "pattern_cost_budget" in err and "--cost-budget" in err
        assert not out.exists()
        assert cli(argv + ["--cost-budget", "8"]) == 0
        assert capsys.readouterr().out.startswith("1 patterns, objective ")

    def test_a_join_gap_beyond_any_frame_count_is_a_usage_error(self, tmp_path, capsys):
        tracks, patterns = lane_files(tmp_path)
        argv = ["track", "--tracks", str(tracks), "--patterns", str(patterns),
                "--out", str(tmp_path / "out.csv"), "--join-gap", "1e200", "--fps", "1e200"]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "join_gap * fps must be finite" in err

    def test_unsupervised_without_iterations_is_a_data_error(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(two_flow_csv())
        argv = ["unsupervised", "--tracks", str(tracks), "--out", str(tmp_path / "out.csv"),
                "--patterns-out", str(tmp_path / "mined.txt"), "--batch-start", "0", "--batch-end", "7",
                "--iterations", "0"]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: iterations_per_level must be at least 1, got 0\n"

    @pytest.mark.parametrize("start", [(), ("--budget-start", "10"), ("--budget-start", "inf")])
    def test_a_budget_schedule_beyond_any_float_is_a_data_error(self, tmp_path, capsys, monkeypatch, start):
        # 1100 doublings of any positive budget overflow; the schedule is
        # refused before the first solve, as one error line.
        tracks = tmp_path / "tracks.csv"
        assert cli(["synth", "--preset", "two-flows", "--out-gt", str(tmp_path / "gt.csv"),
                    "--out-tracks", str(tracks)]) == 0
        capsys.readouterr()
        monkeypatch.setattr("ptrack.cli.run_unsupervised", lambda *a, **kw: pytest.fail("a solve ran"))
        argv = ["unsupervised", "--tracks", str(tracks), "--out", str(tmp_path / "out.csv"),
                "--patterns-out", str(tmp_path / "mined.txt"), "--levels", "1100", *start]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cost budget of level ") and err.count("\n") == 1
        assert "is not finite" in err and "Traceback" not in err


class TestModuleEntryPoint:
    """`python -m ptrack.cli` is the `ptrack` command."""

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_prints_and_exits_as_cli(self, tmp_path, capsys, code):
        one = tmp_path / "one.csv"
        one.write_text("1,1,0,0\n")
        argv = {
            0: ["eval", "--gt", str(one), "--pred", str(one)],
            1: ["eval", "--gt", str(one), "--pred", str(one), "--bogus"],
            2: ["eval", "--gt", str(tmp_path / "absent.csv"), "--pred", str(one)],
        }[code]
        assert cli(argv) == code
        expected = capsys.readouterr()
        assert expected.out or expected.err
        proc = run_python("-m", "ptrack.cli", *argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, expected.out, expected.err)


class TestTimeBudgetVariable:
    def track_argv(self, tmp_path):
        tracks, patterns = lane_files(tmp_path)
        out = tmp_path / "out.csv"
        return ["track", "--tracks", str(tracks), "--patterns", str(patterns), "--out", str(out)]

    def test_not_a_number(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PTRACK_TIME_BUDGET_S", "abc")
        assert cli(self.track_argv(tmp_path)) == 2
        assert "PTRACK_TIME_BUDGET_S must be a number" in capsys.readouterr().err

    def test_not_positive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PTRACK_TIME_BUDGET_S", "0")
        assert cli(self.track_argv(tmp_path)) == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_not_finite(self, tmp_path, capsys, monkeypatch, raw):
        # A nan deadline would never pass, silently switching the budget off.
        monkeypatch.setenv("PTRACK_TIME_BUDGET_S", raw)
        assert cli(self.track_argv(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "PTRACK_TIME_BUDGET_S must be positive and finite" in err
        assert repr(raw) in err

    def test_generous_budget_changes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("PTRACK_TIME_BUDGET_S", "30")
        assert cli(self.track_argv(tmp_path)) == 0
        assert "lower bound" not in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["track", "learn-patterns"])
    def test_spent_budget_is_not_a_degenerate_instance(self, tmp_path, capsys, monkeypatch, command):
        # A clock that advances between any two reads, as a real one does,
        # however coarse the machine's clock is.
        class TickingClock:
            now = 0.0

            def monotonic(self):
                self.now += 1e-6
                return self.now

        monkeypatch.setattr(fracopt, "time", TickingClock())
        monkeypatch.setenv("PTRACK_TIME_BUDGET_S", "1e-9")
        if command == "track":
            argv = self.track_argv(tmp_path)
        else:
            tracks = tmp_path / "flows.csv"
            tracks.write_text(two_flow_csv())
            argv = ["learn-patterns", "--tracks", str(tracks), "--out", str(tmp_path / "p.txt")]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert "probe timed out" in err
        assert "degenerate" not in err

    @pytest.mark.parametrize("hit", [False, True, "proxy"])
    def test_unsupervised_notes_a_budget_hit(self, tmp_path, capsys, monkeypatch, hit):
        # "proxy": only the split-half proxy's own mines hit the budget.
        if hit == "proxy":
            mark_proxy_lower_bound(monkeypatch)
        elif hit:
            mark_lower_bound(monkeypatch, unsupervised, "link")
        tracks = tmp_path / "flows.csv"
        tracks.write_text(two_flow_csv(starts=(1, 7)))
        argv = [
            "unsupervised", "--tracks", str(tracks), "--out", str(tmp_path / "out.csv"),
            "--patterns-out", str(tmp_path / "p.txt"), "--widths", "0.5,3.0",
            "--levels", "1", "--iterations", "2", "--batch-start", "0", "--batch-end", "11",
        ]
        assert cli(argv) == 0
        line = capsys.readouterr().out.strip()
        assert line.endswith(" (lower bound: probe budget hit)") == bool(hit)
        assert line.startswith("4 trajectories, ")


class TestTrack:
    def test_far_singleton_dropped_by_default(self, tmp_path, capsys):
        tracks, patterns = lane_files(tmp_path)
        out = tmp_path / "out.csv"
        argv = ["track", "--tracks", str(tracks), "--patterns", str(patterns), "--out", str(out)]
        assert cli(argv) == 0
        assert capsys.readouterr().out.startswith("1 trajectories, objective ")
        written = tracks_from_csv(out.read_text())
        assert [[d.frame for d in t] for t in written] == [[1, 2, 3]]

    def test_keep_empty_retains_the_singleton(self, tmp_path, capsys):
        tracks, patterns = lane_files(tmp_path)
        out = tmp_path / "out.csv"
        argv = [
            "track", "--tracks", str(tracks), "--patterns", str(patterns),
            "--out", str(out), "--keep-empty",
        ]
        assert cli(argv) == 0
        assert capsys.readouterr().out.startswith("2 trajectories, objective ")
        assert len(tracks_from_csv(out.read_text())) == 2


class TestConfigPrecedence:
    def mine_argv(self, tmp_path, *extra):
        tracks = tmp_path / "flows.csv"
        tracks.write_text(two_flow_csv())
        out = tmp_path / "mined.txt"
        return [
            "learn-patterns", "--tracks", str(tracks), "--out", str(out),
            "--widths", "0.5,3.0", "--batch-start", "0", "--batch-end", "7",
            *extra,
        ], out

    def test_config_file_applies(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_patterns=1\n")
        argv, out = self.mine_argv(tmp_path, "--config", str(cfg))
        assert cli(argv) == 0
        assert capsys.readouterr().out.startswith("1 patterns,")
        assert len(read_patterns(out)) == 1

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("max_patterns=1\n")
        argv, out = self.mine_argv(tmp_path, "--config", str(cfg), "--max-patterns", "2")
        assert cli(argv) == 0
        assert capsys.readouterr().out.startswith("2 patterns,")
        assert len(read_patterns(out)) == 2

    @pytest.mark.parametrize("flag, empty_rate", [((), -3.0), (("--empty-rate", "0.5"), 0.5)])
    def test_unsupervised_empty_rate(self, tmp_path, monkeypatch, flag, empty_rate):
        def capture(graph, initial, cfg, **kwargs):
            raise Resolved(cfg)

        monkeypatch.setattr("ptrack.cli.run_unsupervised", capture)
        tracks = tmp_path / "flows.csv"
        tracks.write_text(two_flow_csv())
        argv = [
            "unsupervised", "--tracks", str(tracks), "--out", str(tmp_path / "out.csv"),
            "--patterns-out", str(tmp_path / "p.txt"), "--budget-start", "10", *flag,
        ]
        with pytest.raises(Resolved) as resolved:
            cli(argv)
        assert resolved.value.args[0].empty_rate == empty_rate

    def test_relative_widths_override_the_config_file(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("candidate_widths=0.5\n")
        got = resolved_config(tmp_path, monkeypatch, "--config", str(cfg), "--relative-widths")
        extent = tracking_extent(d.pos for t in tracks_from_csv(two_flow_csv()) for d in t)
        assert got.candidate_widths == relative_widths(extent)
        assert got.candidate_widths != (0.5,)

    def test_widths_and_relative_widths_exclude_each_other(self, tmp_path, capsys):
        argv, _ = self.mine_argv(tmp_path, "--relative-widths")
        assert cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--relative-widths: not allowed with argument --widths" in err


# A value other than the default for each Config field, as flags and as a
# `--config` line.
FIELD_INPUTS = {
    "link_radius": (["--link-radius", "2.5"], "link_radius=2.5"),
    "join_radius": (["--join-radius", "5.5"], "join_radius=5.5"),
    "join_gap": (["--join-gap", "3.5"], "join_gap=3.5"),
    "fps": (["--fps", "2"], "fps=2"),
    "remove_empty": (["--keep-empty"], "remove_empty=false"),
    "max_patterns": (["--max-patterns", "3"], "max_patterns=3"),
    "pattern_cost_budget": (["--cost-budget", "12.5"], "pattern_cost_budget=12.5"),
    "reverse_penalty": (["--reverse-penalty", "0.5"], "reverse_penalty=0.5"),
    "empty_rate": (["--empty-rate", "-1.5"], "empty_rate=-1.5"),
    "candidate_widths": (["--widths", "0.5,2"], "candidate_widths=0.5,2"),
}


class TestConfigTable:
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Config)])
    def test_flag_and_config_key_set_the_same_field(self, tmp_path, monkeypatch, field):
        flags, line = FIELD_INPUTS[field]
        cfg_file = tmp_path / "cfg.txt"
        cfg_file.write_text(line + "\n")
        by_flag = resolved_config(tmp_path, monkeypatch, *flags)
        by_file = resolved_config(tmp_path, monkeypatch, "--config", str(cfg_file))
        assert by_flag == by_file
        value = getattr(by_flag, field)
        assert value != getattr(Config(), field)
        assert by_flag == dataclasses.replace(Config(), **{field: value})


CROWD_HOMOGRAPHY = ((0.05, 0.002, -3.0), (0.001, 0.06, -2.0), (0.00001, 0.00002, 1.0))


def crowd_files(tmp_path):
    """A crowd on lanes, with each track cut into pieces, and its closed-form scores.

    Sixteen lanes 6 m apart each carry three agents one step apart in time,
    61 detections each; agent k is cut into k % 4 + 1 pieces.  The truth is
    written as ground positions; the pieces in MOT form, as boxes whose
    bottom centres the homography maps onto the truth.  At a 0.01 m gate
    each true row has exactly its own piece's row as partner, so every
    piece is matched and each cut is one identity switch.
    """
    h = np.array(CROWD_HOMOGRAPHY)
    gt_rows, mot_rows = [], []
    longest = cuts = total = tid = 0
    for lane in range(16):
        for agent in range(3):
            k = 3 * lane + agent
            track = [(agent + 1 + s, 2.0 * s, 6.0 * lane) for s in range(61)]
            gt_rows += [f"{f},{k + 1},{x:.6f},{y:.6f}" for f, x, y in track]
            bounds = [len(track) * j // (k % 4 + 1) for j in range(k % 4 + 2)]
            pieces = [track[a:b] for a, b in zip(bounds, bounds[1:])]
            for piece in pieces:
                tid += 1
                for f, x, y in piece:
                    u, v, w = np.linalg.solve(h, [x, y, 1.0])
                    mot_rows.append(f"{f},{tid},{u / w - 10.0:.6f},{v / w - 50.0:.6f},20,50,1,-1,-1,-1")
            longest += max(map(len, pieces))
            cuts += len(pieces) - 1
            total += len(track)
    gt, pred, hom = tmp_path / "gt.csv", tmp_path / "pred.csv", tmp_path / "h.txt"
    gt.write_text("\n".join(gt_rows) + "\n")
    pred.write_text("\n".join(mot_rows) + "\n")
    hom.write_text("\n".join(" ".join(repr(v) for v in row) for row in CROWD_HOMOGRAPHY) + "\n")
    return gt, pred, hom, longest / total, 1.0 - cuts / total


class TestEval:
    def test_crowd_scores_in_closed_form(self, tmp_path, capsys, monkeypatch):
        gt, pred, hom, idf1, mota = crowd_files(tmp_path)
        frames_one_by_one = []
        match_frame = metrics._match_frame
        monkeypatch.setattr(
            metrics, "_match_frame", lambda *a: frames_one_by_one.append(a) or match_frame(*a)
        )
        argv = ["eval", "--gt", str(gt), "--pred", str(pred), "--homography", str(hom),
                "--match-dist", "0.01"]
        assert cli(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"IDF1 {idf1:.6f}"
        assert f"MOTA {mota:.6f}" in lines
        assert "MT 48" in lines
        assert 0.4 < idf1 < 0.7 and 0.95 < mota < 0.99
        # Every frame of the crowd is settled: none is matched one by one.
        assert frames_one_by_one == []

    def test_a_huge_match_dist_scores(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,0,0\n2,1,1,0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("1,1,5e199,0\n2,1,1,0\n")
        assert cli(["eval", "--gt", str(gt), "--pred", str(pred), "--match-dist", "1e200"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "IDF1 1.000000"

    def test_detections_far_apart_score(self, tmp_path, capsys):
        # Rows 1e200 apart: a KD-tree query squaring their differences overflowed.
        both = tmp_path / "o.csv"
        both.write_text("1,1,0,0\n2,1,1e200,0\n")
        assert cli(["eval", "--gt", str(both), "--pred", str(both)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "IDF1 1.000000"
        assert "MOTA 1.000000" in lines

    def test_perfect_agreement(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,0,0\n2,1,1,0\n3,1,2,0\n")
        assert cli(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "IDF1 1.000000"
        assert "MOTA 1.000000" in lines
        assert "MT 1" in lines

    def test_match_dist_gates_the_pairing(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,0,0\n2,1,1,0\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("1,1,0,0.5\n2,1,1,0.5\n")
        assert cli(["eval", "--gt", str(gt), "--pred", str(pred)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "IDF1 1.000000"
        argv = ["eval", "--gt", str(gt), "--pred", str(pred), "--match-dist", "0.4"]
        assert cli(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "IDF1 0.000000"

    def test_an_infinite_match_dist_is_refused_as_not_finite(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,0,0\n2,1,1,0\n")
        assert cli(["eval", "--gt", str(gt), "--pred", str(gt), "--match-dist", "inf"]) == 2
        assert "max_dist must be positive and finite, got inf" in capsys.readouterr().err
        # The library checks behind other options word it the same way.
        with pytest.raises(ValueError, match="extent must be positive and finite, got inf"):
            relative_widths(float("inf"))
        with pytest.raises(ValueError, match="speed must be positive and finite, got inf"):
            generate_scene((Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0),), ((0, 1),), speed=float("inf"))

    def test_metrics_file(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,0,0\n2,1,1,0\n")
        out = tmp_path / "metrics.csv"
        assert cli(["eval", "--gt", str(gt), "--pred", str(gt), "--out", str(out)]) == 0
        capsys.readouterr()
        header, row = out.read_text().splitlines()
        assert header == "IDF1,IDPR,IDRC,MOTA,PR,RC,MT,PT,ML"
        assert row.startswith("1.000000,")

    def test_homography_applies_to_both_files(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,3,2,2,4,1,-1,-1,-1\n2,1,4,2,2,4,1,-1,-1,-1\n")
        h = tmp_path / "h.txt"
        h.write_text("1 0 0 0 1 0 0 0 1\n")
        argv = ["eval", "--gt", str(gt), "--pred", str(gt), "--homography", str(h)]
        assert cli(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "IDF1 1.000000"

    @pytest.mark.parametrize("token", ["nan", "inf", "x"])
    def test_a_bad_homography_entry_is_blamed_on_the_homography(self, tmp_path, capsys, token):
        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,3,2,2,4,1,-1,-1,-1\n")
        h = tmp_path / "h.txt"
        h.write_text(f"1 0 0 0 1 0 0 0 {token}\n")
        argv = ["eval", "--gt", str(gt), "--pred", str(gt), "--homography", str(h)]
        assert cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: homography file {h}: {token!r} is not a finite number\n"


    def test_a_closed_stdout_ends_quietly(self, tmp_path, capsys, monkeypatch):
        # What `ptrack eval ... | head -1` meets once `head` has its line.
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        gt = tmp_path / "gt.csv"
        gt.write_text("1,1,0,0\n2,1,1,0\n")
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli(["eval", "--gt", str(gt), "--pred", str(gt)]) == 0
        assert sys.stdout.name == os.devnull
        sys.stdout.close()
        assert capsys.readouterr().err == ""


@pytest.fixture(scope="module", params=[0, 1], ids=lambda seed: f"seed{seed}")
def bench_crowd(request, tmp_path_factory):
    """The eval-crowd benchmark scene at one seed, written as `perfbench/scenes.py` writes it."""
    (scene,) = bench_scenes().BUILDERS["eval-crowd"](request.param, tmp_path_factory.mktemp("crowd"))
    return scene


class TestBenchCrowd:
    """The eval-crowd benchmark workload: its files read exactly, and its scores."""

    def test_both_files_read_as_the_row_parser_reads_them(self, bench_crowd):
        homography = read_homography(bench_crowd.files["homography"])
        for side in ("gt", "pred"):
            text = bench_crowd.files[side].read_text()
            table = track_table_from_csv(text, "auto", homography)
            assert len(table.frames) == 24_400
            assert exact(table.tracks()) == exact(reference_tracks_from_csv(text, "auto", homography))

    def test_eval_prints_the_scores_of_the_scene_facts(self, bench_crowd, capsys):
        files = bench_crowd.files
        argv = ["eval", "--gt", str(files["gt"]), "--pred", str(files["pred"]),
                "--homography", str(files["homography"]), "--match-dist", "0.01"]
        assert cli(argv) == 0
        printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert printed["IDF1"] == f"{bench_crowd.facts['idf1']:.6f}"
        assert printed["MOTA"] == f"{bench_crowd.facts['mota']:.6f}"

    def test_the_scene_module_is_loaded_once(self):
        assert bench_scenes() is bench_scenes() is sys.modules["perfbench_scenes"]


def test_the_bench_unsupervised_scene_links_once(tmp_path, capsys, monkeypatch):
    """The unsupervised-two-flows workload's command: its two links mine one pattern set."""
    (scene,) = bench_scenes().unsupervised_two_flows(0, tmp_path)
    calls = []
    link = unsupervised.link
    monkeypatch.setattr(unsupervised, "link", lambda *a, **kw: calls.append(a) or link(*a, **kw))
    argv = ["unsupervised", "--tracks", str(scene.files["broken"]), "--out", str(tmp_path / "out.csv"),
            "--patterns-out", str(tmp_path / "learned.txt"), "--history", str(tmp_path / "history.csv"),
            "--widths", "1.0", "--stop-patterns", "2",
            "--batch-start", str(scene.batch[0]), "--batch-end", str(scene.batch[1])]
    assert cli(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == "6 trajectories, 2 patterns, proxy score 0.998874\n"


class TestSynth:
    def test_crossing_outputs(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        corr = tmp_path / "corr.csv"
        pat = tmp_path / "patterns.txt"
        argv = [
            "synth", "--preset", "crossing",
            "--out-gt", str(gt), "--out-tracks", str(corr), "--out-patterns", str(pat),
        ]
        assert cli(argv) == 0
        out = capsys.readouterr().out
        assert re.search(r"^2 ground-truth tracks, 2 corrupted tracks, batch -?\d+\.\.\d+$", out.strip())
        assert len(tracks_from_csv(gt.read_text())) == 2
        assert len(tracks_from_csv(corr.read_text())) == 2
        assert len(read_patterns(pat)) == 2

    def test_corridor_fragmentation_adds_a_track(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        corr = tmp_path / "corr.csv"
        argv = ["synth", "--preset", "corridor", "--out-gt", str(gt), "--out-tracks", str(corr)]
        assert cli(argv) == 0
        capsys.readouterr()
        assert len(tracks_from_csv(gt.read_text())) == 2
        assert len(tracks_from_csv(corr.read_text())) == 3

    def test_same_seed_reproduces_files(self, tmp_path, capsys):
        paths = [(tmp_path / f"gt{k}.csv", tmp_path / f"c{k}.csv") for k in (0, 1)]
        for gt, corr in paths:
            argv = [
                "synth", "--preset", "two-flows", "--seed", "3",
                "--out-gt", str(gt), "--out-tracks", str(corr),
            ]
            assert cli(argv) == 0
        capsys.readouterr()
        assert paths[0][0].read_text() == paths[1][0].read_text()
        assert paths[0][1].read_text() == paths[1][1].read_text()


class TestPlot:
    def test_frame_only(self, tmp_path, capsys):
        out = tmp_path / "empty.svg"
        assert cli(["plot", "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        svg = out.read_text()
        assert svg.startswith("<svg ")
        assert "<polyline" not in svg

    def test_patterns_and_tracks(self, tmp_path, capsys):
        tracks, patterns = lane_files(tmp_path)
        out = tmp_path / "scene.svg"
        argv = ["plot", "--tracks", str(tracks), "--patterns", str(patterns), "--out", str(out)]
        assert cli(argv) == 0
        capsys.readouterr()
        svg = out.read_text()
        assert svg.count("<polygon") == 1
        # centerline plus the two input tracks
        assert svg.count("<polyline") == 3


class TestPipelines:
    def test_learn_then_track_repairs_the_crossing(self, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        corr = tmp_path / "corr.csv"
        mined = tmp_path / "mined.txt"
        fixed = tmp_path / "fixed.csv"
        argv = ["synth", "--preset", "crossing", "--out-gt", str(gt), "--out-tracks", str(corr)]
        assert cli(argv) == 0
        span = re.search(r"batch (-?\d+)\.\.(-?\d+)", capsys.readouterr().out)
        batch = ["--batch-start", span[1], "--batch-end", span[2]]

        argv = [
            "learn-patterns", "--tracks", str(gt), "--out", str(mined),
            "--widths", "0.5,1.0,3.0", *batch,
        ]
        assert cli(argv) == 0
        assert capsys.readouterr().out.startswith("2 patterns, objective 1.000000")

        argv = ["track", "--tracks", str(corr), "--patterns", str(mined), "--out", str(fixed), *batch]
        assert cli(argv) == 0
        assert capsys.readouterr().out == "2 trajectories, objective 1.000000\n"

        assert cli(["eval", "--gt", str(gt), "--pred", str(fixed)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "IDF1 1.000000"

    def test_unsupervised_smoke(self, tmp_path, capsys):
        tracks = tmp_path / "flows.csv"
        # stagger the starts so each half of the batch keeps whole tracks
        tracks.write_text(two_flow_csv(starts=(1, 7)))
        out = tmp_path / "out.csv"
        pats = tmp_path / "patterns.txt"
        hist = tmp_path / "history.csv"
        argv = [
            "unsupervised", "--tracks", str(tracks), "--out", str(out),
            "--patterns-out", str(pats), "--history", str(hist),
            "--widths", "0.5,3.0", "--levels", "2", "--iterations", "2",
            "--batch-start", "0", "--batch-end", "11",
        ]
        assert cli(argv) == 0
        line = capsys.readouterr().out.strip()
        assert re.fullmatch(r"\d+ trajectories, \d+ patterns, proxy score -?\d+\.\d{6}", line)
        assert hist.read_text().splitlines()[0] == "iteration,cost_budget,n_patterns,proxy_score"
        assert read_patterns(pats)
        assert tracks_from_csv(out.read_text())

    def test_unsupervised_survives_a_degenerate_split(self, tmp_path, capsys):
        # Both tracks end in the batch's first half, so the proxy's split
        # leaves the second half empty: the iterate's proxy is -inf.
        tracks = tmp_path / "early.csv"
        rows = [f"{f},1,{f},0" for f in range(1, 6)] + [f"{f},2,{f},5" for f in range(2, 7)]
        tracks.write_text("".join(row + "\n" for row in rows))
        hist = tmp_path / "history.csv"
        argv = [
            "unsupervised", "--tracks", str(tracks), "--out", str(tmp_path / "out.csv"),
            "--patterns-out", str(tmp_path / "p.txt"), "--history", str(hist),
            "--batch-start", "0", "--batch-end", "40", "--budget-start", "100",
            "--levels", "1", "--iterations", "1",
        ]
        assert cli(argv) == 0
        assert capsys.readouterr().out == "2 trajectories, 2 patterns, proxy score -inf\n"
        assert hist.read_text().splitlines() == [
            "iteration,cost_budget,n_patterns,proxy_score", "1,100.000000,2,-inf"
        ]
        assert len(tracks_from_csv((tmp_path / "out.csv").read_text())) == 2
