"""Round-trip and error-path tests for the file formats and the SVG plot."""
from __future__ import annotations

import dataclasses
import random
import re

import numpy as np
import pytest

from ptrack import (
    EMPTY_PATTERN,
    Config,
    Detection,
    Pattern,
    patterns_from_text,
    patterns_to_text,
    read_config,
    read_homography,
    read_patterns,
    read_tracks,
    render_svg,
    tracks_from_csv,
    tracks_to_csv,
    write_patterns,
    write_plot,
    write_tracks,
)
from ptrack.tracksio import (
    config_overrides_from_text,
    config_to_text,
    history_to_csv,
    metrics_to_csv,
)
from ptrack.unsupervised import HistoryEntry

# A warning from numpy while parsing means a value slipped past a check.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestTracksFromCsv:
    def test_plain_row(self):
        (track,) = tracks_from_csv("3,7,1.5,2.0\n")
        (det,) = track
        assert det.id == 1
        assert det.frame == 3
        assert det.pos == (1.5, 2.0)
        assert det.source_track == 0
        assert det.is_track_start and det.is_track_end

    def test_tracks_ordered_by_id_and_detections_renumbered(self):
        text = "2,12,1,0\n1,4,0,0\n1,12,0.5,0\n2,4,1,1\n"
        tracks = tracks_from_csv(text)
        # input ids 4 and 12 become positions 0 and 1
        assert [det.source_track for t in tracks for det in t] == [0, 0, 1, 1]
        assert [det.id for t in tracks for det in t] == [1, 2, 3, 4]
        assert [det.frame for det in tracks[0]] == [1, 2]
        assert tracks[0][0].pos == (0.0, 0.0)
        assert tracks[1][1].pos == (1.0, 0.0)
        starts = [det.is_track_start for t in tracks for det in t]
        ends = [det.is_track_end for t in tracks for det in t]
        assert starts == [True, False, True, False]
        assert ends == [False, True, False, True]

    def test_mot_row_with_ground_position(self):
        row = "5,2,10,20,4,8,1,3.25,-1.5,-1\n"
        (track,) = tracks_from_csv(row)
        assert track[0].frame == 5
        assert track[0].pos == (3.25, -1.5)

    def test_mot_row_projects_foot_point_through_homography(self):
        row = "5,2,3,2,2,4,1,-1,-1,-1\n"
        (track,) = tracks_from_csv(row, homography=np.eye(3))
        # bottom center of the box: (left + width / 2, top + height)
        assert track[0].pos == (4.0, 6.0)

    def test_mot_row_without_position_needs_homography(self):
        row = "5,2,3,2,2,4,1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="line 1 has no ground position"):
            tracks_from_csv(row)

    def test_box_only_rows_map_as_each_row_alone(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(3, 3))
        boxes = rng.uniform(-500.0, 500.0, size=(200, 4)).tolist()
        text = "".join(f"{k},1,{l!r},{t!r},{w!r},{b!r},1,-1,-1,-1\n" for k, (l, t, w, b) in enumerate(boxes))
        (track,) = tracks_from_csv(text, homography=h)
        for det, (left, top, width, height) in zip(track, boxes):
            mapped = h @ np.array([left + width / 2.0, top + height, 1.0])
            assert det.pos == (float(mapped[0] / mapped[2]), float(mapped[1] / mapped[2]))

    def test_mot_row_without_box_keeps_minus_one_ground_position(self):
        (track,) = tracks_from_csv(tracks_to_csv([[Detection(1, 5, (-1.0, -1.0))]], fmt="mot"))
        assert track[0].pos == (-1.0, -1.0)

    def test_box_only_rows_report_the_first_offending_line(self):
        h = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, -8.0]])
        rows = "1,1,3,2,2,4,1,-1,-1,-1\n2,1,0,0,-1,-1,1,-1,-1,-1\n3,1,3,4,2,4,1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="homography degenerates at line 3"):
            tracks_from_csv(rows, homography=h)
        with pytest.raises(ValueError, match="line 1 has no ground position"):
            tracks_from_csv(rows)

    def test_degenerate_homography(self):
        h = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
        row = "5,2,3,2,2,4,1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="homography degenerates at line 1"):
            tracks_from_csv(row, homography=h)

    def test_malformed_number(self):
        with pytest.raises(ValueError, match=re.escape("malformed row at line 1: '1,2,x,4'")):
            tracks_from_csv("1,2,x,4\n")

    def test_fractional_frame_rejected(self):
        with pytest.raises(ValueError, match="frame and id must be integers"):
            tracks_from_csv("1.5,2,0,0\n")

    def test_fractional_track_id_rejected(self):
        with pytest.raises(ValueError, match="malformed row at line 2"):
            tracks_from_csv("1,2,0,0\n2,2.25,0,0\n")

    def test_duplicate_frame_in_track(self):
        with pytest.raises(ValueError, match="track 7 has two detections at frame 3"):
            tracks_from_csv("3,7,0,0\n3,7,1,1\n")

    def test_unrecognized_column_count(self):
        with pytest.raises(ValueError, match="line 1 has 5 columns, expected 4 or 10"):
            tracks_from_csv("1,2,3,4,5\n")

    def test_column_count_fixed_by_first_row(self):
        text = "1,2,0,0\n5,2,10,20,4,8,1,3,4,-1\n"
        with pytest.raises(ValueError, match="line 2 has 10 columns, expected 4"):
            tracks_from_csv(text)

    def test_explicit_format_overrides_detection(self):
        with pytest.raises(ValueError, match="line 1 has 4 columns, expected 10"):
            tracks_from_csv("1,2,0,0\n", fmt="mot")

    def test_blank_lines_skipped_but_counted(self):
        with pytest.raises(ValueError, match="line 3 has 5 columns"):
            tracks_from_csv("1,2,0,0\n\n1,2,3,4,5\n")

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown track format 'json'"):
            tracks_from_csv("1,2,0,0\n", fmt="json")

    def test_python_float_syntax_and_whitespace_lines(self):
        text = " \t\n1_0, 3 ,1e1,-0\r\n\n+11.0,3,2.5,0\n"
        (track,) = tracks_from_csv(text)
        assert [(d.frame, d.pos) for d in track] == [(10, (10.0, -0.0)), (11, (2.5, 0.0))]

    @pytest.mark.parametrize(
        "cell", ["inf", "-inf", "nan", "9223372036854775808", "-1e19", "1e300"]
    )
    @pytest.mark.parametrize("column", [0, 1])
    def test_unstorable_frame_or_id_rejected(self, cell, column):
        row = ["4", "2", "0", "0"]
        row[column] = cell
        with pytest.raises(ValueError, match="malformed row at line 2: frame and id must be integers"):
            tracks_from_csv("1,2,0,0\n" + ",".join(row) + "\n")

    def test_int64_extremes_accepted(self):
        text = "-9223372036854775808,9223372036854774784,0,0\n"
        (track,) = tracks_from_csv(text)
        assert track[0].frame == -(2**63)

    @pytest.mark.parametrize("x, y", [("nan", "0"), ("0", "inf"), ("-inf", "-inf")])
    def test_non_finite_ground_position_rejected(self, x, y):
        with pytest.raises(ValueError, match="malformed row at line 2: ground position must be finite"):
            tracks_from_csv(f"1,2,0,0\n2,2,{x},{y}\n")
        mot = f"1,2,-1,-1,-1,-1,1,0,0,-1\n2,2,-1,-1,-1,-1,1,{x},{y},-1\n"
        with pytest.raises(ValueError, match="malformed row at line 2: ground position must be finite"):
            tracks_from_csv(mot)

    @pytest.mark.parametrize(
        "box",
        ["1e308,0,1e308,0", "1e200,1e200,2,2", "nan,0,1,1", "inf,0,-inf,1"],
    )
    def test_projection_to_a_non_finite_ground_position_rejected(self, box):
        h = np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1.0]])
        text = f"1,2,3,2,2,4,1,-1,-1,-1\n2,2,{box},1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="malformed row at line 2: ground position must be finite"):
            tracks_from_csv(text, homography=h)

    def test_integer_check_comes_before_missing_homography(self):
        with pytest.raises(ValueError, match="line 2: frame and id must be integers"):
            tracks_from_csv("1,1,0,0,1,1,1,3,4,-1\n2.5,1,0,0,1,1,1,-1,-1,-1\n")

    def test_row_checks_report_the_earliest_line_across_blocks(self):
        from ptrack.tracksio import _BLOCK_ROWS

        rows = [f"{k},1,0,0" for k in range(3 * _BLOCK_ROWS)]
        late = rows.copy()
        late[2 * _BLOCK_ROWS + 5] = "1,2,3"
        late[_BLOCK_ROWS + 7] = "x,1,0,0"
        with pytest.raises(ValueError, match=f"malformed row at line {_BLOCK_ROWS + 8}: 'x,1,0,0'"):
            tracks_from_csv("\n".join(late))
        late[_BLOCK_ROWS - 1] = "0.5,1,0,0"
        with pytest.raises(ValueError, match=f"line {_BLOCK_ROWS}: frame and id must be integers"):
            tracks_from_csv("\n".join(late))
        rows[_BLOCK_ROWS] = "1,2,3"
        with pytest.raises(ValueError, match=f"line {_BLOCK_ROWS + 1} has 3 columns, expected 4"):
            tracks_from_csv("\n".join(rows))


class TestTracksToCsv:
    def two_tracks(self):
        return tracks_from_csv("1,1,0,0\n2,1,1.5,0.25\n1,2,10,10\n")

    def test_rows_sorted_by_frame_then_track(self):
        tracks = self.two_tracks()
        text = tracks_to_csv(tracks)
        assert text.splitlines() == [
            "1,1,0.000000,0.000000",
            "1,2,10.000000,10.000000",
            "2,1,1.500000,0.250000",
        ]

    def test_plain_round_trip_is_canonical(self):
        text = tracks_to_csv(self.two_tracks())
        again = tracks_to_csv(tracks_from_csv(text))
        assert again == text

    def test_mot_round_trip(self):
        tracks = self.two_tracks()
        text = tracks_to_csv(tracks, fmt="mot")
        assert text.splitlines()[0] == "1,1,-1,-1,-1,-1,1,0.000000,0.000000,-1"
        back = tracks_from_csv(text)
        assert [[d.pos for d in t] for t in back] == [[d.pos for d in t] for t in tracks]
        assert [[d.frame for d in t] for t in back] == [[d.frame for d in t] for t in tracks]

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown track format 'json'"):
            tracks_to_csv([], fmt="json")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "tracks.csv"
        tracks = self.two_tracks()
        write_tracks(path, tracks)
        back = read_tracks(path)
        assert [[d.pos for d in t] for t in back] == [[d.pos for d in t] for t in tracks]


class TestHomographyFile:
    def test_read(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1 0 0\n0 2 0\n0 0 1\n")
        h = read_homography(path)
        assert h.shape == (3, 3)
        assert h[1, 1] == 2.0

    def test_wrong_count(self, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1 0 0 0 1 0 0 0\n")
        with pytest.raises(ValueError, match="must hold 9 numbers, found 8"):
            read_homography(path)


class TestPatternsText:
    LANE = Pattern(((0.0, 0.0), (6.5, 0.25), (13.0, 0.0)), 1.5)

    def test_round_trip(self):
        (back,) = patterns_from_text(patterns_to_text((self.LANE,)))
        assert back.centerline == self.LANE.centerline
        assert back.width == self.LANE.width

    def test_empty_pattern_never_written(self):
        text = patterns_to_text((EMPTY_PATTERN, self.LANE))
        assert len(text.splitlines()) == 1
        (back,) = patterns_from_text(text)
        assert back.centerline == self.LANE.centerline

    def test_line_format(self):
        line = patterns_to_text((Pattern(((0.0, 0.0), (2.0, 1.0)), 0.5),)).strip()
        assert line == "0.500000 0.000000 0.000000 2.000000 1.000000"

    def test_too_few_values(self):
        with pytest.raises(ValueError, match="line 1: expected a width and at least two points"):
            patterns_from_text("1.0 0 0\n")

    def test_even_value_count(self):
        with pytest.raises(ValueError, match="line 2: expected a width and at least two points"):
            patterns_from_text("1.0 0 0 2 2\n0.5 0 0 1 1 2\n")

    def test_malformed_number(self):
        with pytest.raises(ValueError, match="malformed row at line 1"):
            patterns_from_text("1.0 a b 2 2\n")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("nan 0 0 1 1", "width must be positive and finite, got nan"),
            ("0 0 0 1 1", "width must be positive and finite, got 0.0"),
            ("1 0 0 inf 1", "centerline point (inf, 1.0) is not finite"),
            ("1 0 0 0 0", "centerline has coincident consecutive points"),
        ],
    )
    def test_invalid_pattern_names_its_line(self, line, message):
        with pytest.raises(ValueError, match=re.escape(f"line 2: {message}")):
            patterns_from_text(f"1.0 0 0 2 2\n{line}\n")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "patterns.txt"
        write_patterns(path, (self.LANE,))
        (back,) = read_patterns(path)
        assert back.centerline == self.LANE.centerline


class TestConfigText:
    def test_round_trip(self):
        cfg = Config(
            link_radius=2.5,
            join_radius=5.0,
            join_gap=3.0,
            fps=2.0,
            remove_empty=False,
            max_patterns=7,
            pattern_cost_budget=123.456,
            reverse_penalty=0.5,
            empty_rate=-3.0,
            candidate_widths=(0.5, 1.25, 3.0),
        )
        back = Config(**config_overrides_from_text(config_to_text(cfg)))
        assert back == cfg

    def test_unset_budget_not_written(self):
        cfg = Config()
        text = config_to_text(cfg)
        assert "pattern_cost_budget" not in text
        assert Config(**config_overrides_from_text(text)) == cfg

    def test_bools_and_widths_formatting(self):
        text = config_to_text(Config(remove_empty=True, candidate_widths=(0.5, 1.0, 3.0)))
        assert "remove_empty=true" in text
        assert "candidate_widths=0.5,1,3" in text

    def test_comments_and_blank_lines(self):
        text = "# tuned for the garage camera\n\nlink_radius=3.5\n"
        assert config_overrides_from_text(text) == {"link_radius": 3.5}

    def test_bool_spellings(self):
        assert config_overrides_from_text("remove_empty=TRUE\n") == {"remove_empty": True}
        assert config_overrides_from_text("remove_empty=0\n") == {"remove_empty": False}

    def test_widths_tolerate_spaces_and_trailing_comma(self):
        got = config_overrides_from_text("candidate_widths=0.5, 1.0 ,3.0,\n")
        assert got == {"candidate_widths": (0.5, 1.0, 3.0)}

    def test_missing_equals(self):
        with pytest.raises(ValueError, match=re.escape("line 1: expected key=value, got 'link_radius 3'")):
            config_overrides_from_text("link_radius 3\n")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="line 1: unknown config key 'radius'"):
            config_overrides_from_text("radius=3\n")

    def test_bad_int(self):
        with pytest.raises(ValueError, match="line 1: bad value for max_patterns: 'two'"):
            config_overrides_from_text("max_patterns=two\n")

    def test_bad_bool(self):
        with pytest.raises(ValueError, match="bad value for remove_empty: 'maybe'"):
            config_overrides_from_text("remove_empty=maybe\n")

    def test_parser_covers_every_field(self):
        from ptrack.tracksio import _CONFIG_PARSERS

        assert set(_CONFIG_PARSERS) == {f.name for f in dataclasses.fields(Config)}

    def test_read_config_applies_overrides(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("link_radius=3.0\nfps=2.0\n")
        cfg = read_config(path, link_radius=4.0, join_gap=None)
        assert cfg.link_radius == 4.0
        assert cfg.fps == 2.0
        assert cfg.join_gap == Config().join_gap


class TestHistoryCsv:
    def test_header_and_rows(self):
        history = [
            HistoryEntry(iteration=1, cost_budget=2.5, n_patterns=3, proxy_score=0.75),
            HistoryEntry(iteration=2, cost_budget=5.0, n_patterns=1, proxy_score=0.3),
        ]
        lines = history_to_csv(history).splitlines()
        assert lines[0] == "iteration,cost_budget,n_patterns,proxy_score"
        assert lines[1] == "1,2.500000,3,0.750000"
        assert lines[2] == "2,5.000000,1,0.300000"


class TestMetricsCsv:
    def test_column_order_and_cell_formats(self):
        summary = {
            "IDF1": 0.5,
            "IDPR": 0.25,
            "IDRC": 1.0,
            "MOTA": -0.1,
            "PR": 0.6,
            "RC": 0.6,
            "MT": 1.0,
            "PT": 2.0,
            "ML": 0.0,
        }
        header, row = metrics_to_csv(summary).splitlines()
        assert header == "IDF1,IDPR,IDRC,MOTA,PR,RC,MT,PT,ML"
        assert row == "0.500000,0.250000,1.000000,-0.100000,0.600000,0.600000,1,2,0"


def det(frame: int, x: float, y: float) -> Detection:
    return Detection(id=frame, frame=frame, pos=(x, y))


class TestRenderSvg:
    def test_empty_inputs_still_draw_the_frame(self):
        svg = render_svg((), ())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<rect") == 1
        assert svg.count("<line") == 2
        assert svg.count("<polyline") == 0
        assert svg.count("<polygon") == 0

    def test_one_shape_per_pattern_and_track(self):
        patterns = (
            EMPTY_PATTERN,
            Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0),
            Pattern(((0.0, 5.0), (10.0, 5.0)), 1.0),
        )
        tracks = [
            [det(1, 0, 0), det(2, 2, 0)],
            [det(1, 0, 5), det(2, 2, 5)],
            [det(1, 4, 2), det(2, 6, 2)],
        ]
        svg = render_svg(patterns, tracks)
        # one corridor polygon and one centerline per drawn pattern, one line per track
        assert svg.count("<polygon") == 2
        assert svg.count("<polyline") == 5

    def test_write_plot(self, tmp_path):
        path = tmp_path / "scene.svg"
        patterns = (Pattern(((0.0, 0.0), (10.0, 0.0)), 1.0),)
        tracks = [[det(1, 0, 0), det(2, 2, 0)]]
        write_plot(path, patterns, tracks)
        assert path.read_text() == render_svg(patterns, tracks)


def reference_tracks_from_csv(text, fmt="auto", homography=None):
    """The former row-by-row parser, kept as the reference for valid files and errors."""
    rows = {}
    boxed, feet = [], []
    resolved = None if fmt == "auto" else fmt
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if resolved is None:
            resolved = {4: "plain", 10: "mot"}.get(len(parts))
            if resolved is None:
                raise ValueError(f"line {line_no} has {len(parts)} columns, expected 4 or 10")
        expected = 4 if resolved == "plain" else 10
        if len(parts) != expected:
            raise ValueError(f"line {line_no} has {len(parts)} columns, expected {expected}")
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"malformed row at line {line_no}: {','.join(parts)!r}") from None
        frame, track_id = values[0], values[1]
        if frame != int(frame) or track_id != int(track_id):
            raise ValueError(f"malformed row at line {line_no}: frame and id must be integers")
        x, y = values[2:4] if resolved == "plain" else values[7:9]
        track_rows = rows.setdefault(int(track_id), [])
        if resolved == "mot" and x == y == -1.0 and values[4:6] != [-1.0, -1.0]:
            if homography is None:
                raise ValueError(
                    f"row at line {line_no} has no ground position and no homography was given"
                )
            left, top, width, height = values[2:6]
            feet += (left + width / 2.0, top + height, 1.0)
            boxed += (int(track_id), len(track_rows), line_no)
        track_rows.append((int(frame), x, y))
    if feet:
        mapped = (homography @ np.array(feet).reshape(-1, 3, 1))[:, :, 0]
        degenerate = np.flatnonzero(mapped[:, 2] == 0.0)
        if degenerate.size:
            raise ValueError(f"homography degenerates at line {boxed[3 * degenerate[0] + 2]}")
        ground = (mapped[:, :2] / mapped[:, 2:]).tolist()
        for track_id, k, (x, y) in zip(boxed[0::3], boxed[1::3], ground):
            rows[track_id][k] = (rows[track_id][k][0], x, y)
    tracks = []
    det_id = 1
    for t_pos, track_id in enumerate(sorted(rows)):
        entries = sorted(rows[track_id])
        track = []
        for k, (frame, x, y) in enumerate(entries):
            if k > 0 and frame == entries[k - 1][0]:
                raise ValueError(f"track {track_id} has two detections at frame {frame}")
            track.append(
                Detection(
                    id=det_id,
                    frame=frame,
                    pos=(x, y),
                    source_track=t_pos,
                    is_track_start=k == 0,
                    is_track_end=k == len(entries) - 1,
                )
            )
            det_id += 1
        tracks.append(track)
    return tracks


def exact(tracks):
    """Everything a detection holds, positions as bit patterns."""
    return [
        [
            (d.id, d.frame, d.pos[0].hex(), d.pos[1].hex(), d.source_track, d.is_track_start, d.is_track_end)
            for d in track
        ]
        for track in tracks
    ]


def spell_int(rng: random.Random, k: int) -> str:
    """An integer in one of the spellings Python's float() accepts."""
    options = [str(k), f"{k}.0", f"{k}e0", f" {k} ", f"{float(k)!r}"]
    if k >= 0:
        options.append(f"+{k}")
    if abs(k) >= 1000:
        options.append(f"{k:_}")
    return rng.choice(options)


def spell_float(rng: random.Random, v: float) -> str:
    return rng.choice([repr(v), f"{v:.6f}", f" {v!r}", f"{v:.3e}", repr(-0.0) if v == 0 else repr(v)])


def random_rows(rng: random.Random, fmt: str, n: int) -> list[list[str]]:
    """Valid rows with distinct (frame, id) pairs, in random order."""
    pairs = rng.sample([(f, i) for f in range(-3, 40) for i in (-7, 0, 1, 2, 5, 1234, 10**12)], n)
    rows = []
    for frame, track_id in pairs:
        x, y = (rng.choice([-1.0, 0.0, rng.uniform(-500, 500)]) for _ in range(2))
        cells = [spell_int(rng, frame), spell_int(rng, track_id)]
        if fmt == "plain":
            cells += [spell_float(rng, x), spell_float(rng, y)]
        else:
            kind = rng.choice(["ground", "box-only", "no-box"])
            box = [rng.uniform(-500, 500) for _ in range(4)]
            if kind == "box-only":
                x = y = -1.0
                # One of width and height may be -1; only both mark a row without a box.
                box[rng.randrange(2, 4)] = rng.choice([-1.0, box[2]])
            elif kind == "no-box":
                box[2] = box[3] = -1.0
            conf, z = rng.choice(["1", "nan", "-1", "0.5"]), rng.choice(["-1", "inf", "0"])
            cells += [*(spell_float(rng, v) for v in box), conf, spell_float(rng, x), spell_float(rng, y), z]
        rows.append(cells)
    return rows


def render(rng: random.Random, rows: list[list[str]]) -> tuple[str, list[int]]:
    """CSV text with blank and whitespace-only lines; also each row's line number."""
    lines, line_nos = [], []
    for cells in rows:
        while rng.random() < 0.2:
            lines.append(rng.choice(["", "  ", "\t", " \t "]))
        lines.append(rng.choice(["", " ", "\t"]) + ",".join(cells) + rng.choice(["", " "]))
        line_nos.append(len(lines))
    ending = rng.choice(["\n", "\r\n"])
    return ending.join(lines) + rng.choice(["", ending]), line_nos


def outcome(parse, text, fmt, homography):
    try:
        return exact(parse(text, fmt, homography))
    except ValueError as exc:
        return str(exc)


class TestAgainstRowParser:
    """The columnar parser against the former row-by-row one on random files."""

    HOMOGRAPHY = np.array([[0.9, 0.1, 3.0], [-0.2, 1.1, -7.0], [1e-4, 2e-4, 1.0]])

    @pytest.mark.parametrize("seed", range(150))
    def test_valid_files_agree_bit_for_bit(self, seed):
        rng = random.Random(seed)
        fmt = rng.choice(["plain", "mot"])
        rows = random_rows(rng, fmt, rng.randrange(0, 40))
        text, _ = render(rng, rows)
        homography = self.HOMOGRAPHY if fmt == "mot" else None
        given = rng.choice(["auto", fmt])
        expected = reference_tracks_from_csv(text, given, homography)
        assert exact(tracks_from_csv(text, given, homography)) == exact(expected)

    @pytest.mark.parametrize("seed", range(300))
    def test_faulty_files_report_the_same_first_error(self, seed):
        rng = random.Random(1000 + seed)
        fmt = rng.choice(["plain", "mot"])
        rows = random_rows(rng, fmt, rng.randrange(2, 30))
        homography = self.HOMOGRAPHY if fmt == "mot" else None
        for _ in range(rng.choice([1, 2])):
            k = rng.randrange(len(rows))
            faults = ["columns", "number", "fraction", "duplicate"] + ["homography"] * (fmt == "mot")
            fault = rng.choice(faults)
            if fault == "columns":
                rows[k] = rows[k][:-1] if rng.random() < 0.5 else [*rows[k], "0"]
            elif fault == "number":
                rows[k][rng.randrange(len(rows[k]))] = rng.choice(["x", "", "1.2.3", "0x10", "5_"])
            elif fault == "fraction":
                rows[k][rng.randrange(2)] = rng.choice(["2.5", "-0.25", "1e-3"])
            elif fault == "duplicate":
                rows.insert(rng.randrange(len(rows) + 1), [*rows[k][:2], *rows[rng.randrange(len(rows))][2:]])
            else:
                # Drop the homography, or pick one that sends this row's foot point to infinity.
                rows[k][7:9] = ["-1", "-1"]
                rows[k][2:6] = ["3", "2", "2", "4"]
                homography = rng.choice([None, np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, -6.0]])])
        text, _ = render(rng, rows)
        given = rng.choice(["auto", fmt])
        expected = outcome(reference_tracks_from_csv, text, given, homography)
        assert isinstance(expected, str)
        assert outcome(tracks_from_csv, text, given, homography) == expected

    def test_a_bad_number_before_a_wrong_column_count(self):
        text = "1,1,0,0\n2,1,0,0\n3,1,x,0\n4,1,0,0\n\n\n5,1,0\n"
        message = "malformed row at line 3: '3,1,x,0'"
        assert outcome(reference_tracks_from_csv, text, "auto", None) == message
        assert outcome(tracks_from_csv, text, "auto", None) == message
