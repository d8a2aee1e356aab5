"""End-to-end tests of the command-line interface.

Everything goes through cli(argv) so exit codes and printed output are
checked exactly as a shell user would see them.
"""
from __future__ import annotations

import re

import pytest

import ptrack.fracopt as fracopt
from ptrack import read_patterns, tracks_from_csv
from ptrack.cli import cli


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

    def test_unsupervised_without_iterations_is_a_data_error(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.csv"
        tracks.write_text(two_flow_csv())
        argv = ["unsupervised", "--tracks", str(tracks), "--out", str(tmp_path / "out.csv"),
                "--patterns-out", str(tmp_path / "mined.txt"), "--batch-start", "0", "--batch-end", "7",
                "--iterations", "0"]
        assert cli(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: iterations_per_level must be at least 1, got 0\n"


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
        class Resolved(Exception):
            pass

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


class TestEval:
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
