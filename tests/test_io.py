"""Round-trip and error-path tests for the file formats and the SVG plot."""
from __future__ import annotations

import random
import re

import numpy as np
import pytest

from ptrack import (
    EMPTY_PATTERN,
    Config,
    Detection,
    Pattern,
    TrackTable,
    patterns_from_text,
    patterns_to_text,
    read_homography,
    read_patterns,
    read_track_table,
    read_tracks,
    render_svg,
    track_table_from_csv,
    tracks_from_csv,
    tracks_to_csv,
    write_patterns,
    write_plot,
    write_tracks,
)
from ptrack import tracksio
from ptrack.cli import config_overrides_from_text, history_to_csv, metrics_to_csv
from ptrack.tracksio import _BLOCK_ROWS
from ptrack.unsupervised import HistoryEntry

from helpers import config_to_text
from reference_io import exact, outcome, reference_tracks_from_csv

# A warning from numpy while parsing means a value slipped past a check.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestTracksFromCsv:
    def test_plain_row(self):
        # one row: one track holding one detection; the track id is not kept
        assert tracks_from_csv("3,7,1.5,2.0\n") == [[Detection(3, (1.5, 2.0))]]

    def test_tracks_ordered_by_id_and_detections_by_frame(self):
        text = "2,12,1,0\n1,4,0,0\n1,12,0.5,0\n2,4,1,1\n"
        tracks = tracks_from_csv(text)
        # input ids 4 and 12 become list positions 0 and 1, each in frame order
        assert tracks == [
            [Detection(1, (0.0, 0.0)), Detection(2, (1.0, 1.0))],
            [Detection(1, (0.5, 0.0)), Detection(2, (1.0, 0.0))],
        ]

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
        (track,) = tracks_from_csv(tracks_to_csv([[Detection(5, (-1.0, -1.0))]], fmt="mot"))
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

    @pytest.mark.parametrize("row", ["{},1,0,0", "1,{x},0,0", "1,1,}{,0"])
    def test_a_malformed_row_is_quoted_with_its_braces(self, row):
        with pytest.raises(ValueError) as info:
            track_table_from_csv(f"1,1,0,0\n{row}\n")
        assert str(info.value) == f"malformed row at line 2: {row!r}"

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

    def test_a_degenerate_row_is_reported_before_an_earlier_non_finite_one(self):
        # Row 1 projects to infinity; row 2's foot point maps to w == 0.
        h = np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 1.0, -6.0]])
        text = "1,2,1e200,1e200,2,2,1,-1,-1,-1\n2,2,3,2,2,4,1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="^homography degenerates at line 2$"):
            track_table_from_csv(text, homography=h)

    def test_integer_check_comes_before_missing_homography(self):
        with pytest.raises(ValueError, match="line 2: frame and id must be integers"):
            tracks_from_csv("1,1,0,0,1,1,1,3,4,-1\n2.5,1,0,0,1,1,1,-1,-1,-1\n")

    def test_row_checks_report_the_earliest_line_across_blocks(self):
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


READER_ERRORS = [
    ("5,2,3,2,2,4,1,-1,-1,-1\n", "auto", None),
    ("5,2,3,2,2,4,1,-1,-1,-1\n", "auto", np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 0]])),
    ("1,2,x,4\n", "auto", None),
    ("1.5,2,0,0\n", "auto", None),
    ("1,2,0,0\n2,2.25,0,0\n", "auto", None),
    ("1,2,0,0\ninf,2,0,0\n", "auto", None),
    ("3,7,0,0\n3,7,1,1\n", "auto", None),
    ("1,2,3,4,5\n", "auto", None),
    ("1,2,0,0\n5,2,10,20,4,8,1,3,4,-1\n", "auto", None),
    ("1,2,0,0\n", "mot", None),
    ("1,2,0,0\n\n1,2,3,4,5\n", "auto", None),
    ("1,2,0,0\n", "json", None),
    ("1,2,0,0\n2,2,nan,0\n", "auto", None),
    (
        "1,2,3,2,2,4,1,-1,-1,-1\n2,2,1e308,0,1e308,0,1,-1,-1,-1\n",
        "auto",
        np.array([[1e200, 0.0, 0.0], [0.0, 1e200, 0.0], [0.0, 0.0, 1.0]]),
    ),
]


@pytest.mark.parametrize("text, fmt, homography", READER_ERRORS)
def test_both_readers_raise_the_same_message(text, fmt, homography):
    with pytest.raises(ValueError) as as_lists:
        tracks_from_csv(text, fmt, homography)
    with pytest.raises(ValueError) as as_table:
        track_table_from_csv(text, fmt, homography)
    assert str(as_table.value) == str(as_lists.value)


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

    def test_file_round_trip_through_a_table(self, tmp_path):
        path = tmp_path / "tracks.csv"
        tracks = self.two_tracks()
        write_tracks(path, tracks)
        assert read_track_table(path).tracks() == tracks


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

    @pytest.mark.parametrize("token", ["x", "nan", "-inf", "1e999", "1,0"])
    def test_a_bad_or_non_finite_entry_names_the_file_and_the_token(self, tmp_path, token):
        path = tmp_path / "h.txt"
        path.write_text(f"1 0 0\n0 1 0\n0 0 {token}\n")
        with pytest.raises(ValueError) as info:
            read_homography(path)
        assert str(info.value) == f"homography file {path}: {token!r} is not a finite number"


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
    return Detection(frame, (x, y))


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


def spell_int(rng: random.Random, k: int, python_only: bool = True) -> str:
    """An integer in one of the spellings Python's float() accepts; without
    `python_only`, only in those numpy's reader accepts too."""
    options = [str(k), f"{k}.0", f"{k}e0", f" {k} ", f"{float(k)!r}"]
    if k >= 0:
        options.append(f"+{k}")
    if abs(k) >= 1000 and python_only:
        options.append(f"{k:_}")
    return rng.choice(options)


INDIC_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spell_float(rng: random.Random, v: float, python_only: bool = True) -> str:
    """`v` in a spelling Python's float() accepts; with `python_only`, also in
    those numpy's reader refuses (digit underscores, non-ASCII digits)."""
    options = [repr(v), f"{v:.6f}", f" {v!r}", f"{v:.3e}", repr(-0.0) if v == 0 else repr(v), f"\xa0{v!r}"]
    if python_only:
        options += [re.sub(r"(\d)(\d)", r"\1_\2", f"{v:.6f}", count=1), repr(v).translate(INDIC_DIGITS)]
    return rng.choice(options)


def random_rows(
    rng: random.Random, fmt: str, n: int, frames: range = range(-3, 40), python_only: bool = True
) -> list[list[str]]:
    """Valid rows with distinct (frame, id) pairs, in random order; without
    `python_only`, every cell is in a spelling numpy's reader accepts too."""
    pairs = rng.sample([(f, i) for f in frames for i in (-7, 0, 1, 2, 5, 1234, 10**12)], n)
    spell = lambda v: spell_float(rng, v, python_only)
    rows = []
    for frame, track_id in pairs:
        x, y = (rng.choice([-1.0, 0.0, rng.uniform(-500, 500)]) for _ in range(2))
        cells = [spell_int(rng, frame, python_only), spell_int(rng, track_id, python_only)]
        if fmt == "plain":
            cells += [spell(x), spell(y)]
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
            cells += [*map(spell, box), conf, spell(x), spell(y), z]
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


BAD_NUMBERS = ["x", "", "1.2.3", "0x10", "5_", "\x1f2"]


def spoil(rng: random.Random, rows: list[list[str]], k: int, fault: str) -> None:
    """Give row k a wrong column count, a malformed number or a fractional frame or id."""
    if fault == "columns":
        rows[k] = rows[k][:-1] if rng.random() < 0.5 else [*rows[k], "0"]
    elif fault == "number":
        cell = rng.choice(BAD_NUMBERS)
        # A row's leading U+001F is stripped with its whitespace: not a fault there.
        rows[k][rng.randrange(cell.startswith("\x1f"), len(rows[k]))] = cell
    else:
        rows[k][rng.randrange(2)] = rng.choice(["2.5", "-0.25", "1e-3"])


class TestAgainstRowParser:
    """The columnar parser against the former row-by-row one on random files."""

    HOMOGRAPHY = np.array([[0.9, 0.1, 3.0], [-0.2, 1.1, -7.0], [1e-4, 2e-4, 1.0]])
    # More than three blocks, so that each block can be read by a different path.
    MANY_ROWS = 3 * _BLOCK_ROWS + 300

    def assert_same_tables(self, text, fmt, homography):
        expected = reference_tracks_from_csv(text, fmt, homography)
        assert exact(tracks_from_csv(text, fmt, homography)) == exact(expected)
        # The table reader holds the same columns as a table built from the
        # reference lists, and both give the lists back.
        table, rebuilt = track_table_from_csv(text, fmt, homography), TrackTable.from_tracks(expected)
        for column in ("frames", "pos", "starts"):
            got, want = getattr(table, column), getattr(rebuilt, column)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert exact(table.tracks()) == exact(rebuilt.tracks()) == exact(expected)

    def assert_same_outcome(self, text, fmt, homography):
        expected = outcome(reference_tracks_from_csv, text, fmt, homography)
        assert outcome(tracks_from_csv, text, fmt, homography) == expected
        read_table = lambda *args: track_table_from_csv(*args).tracks()
        assert outcome(read_table, text, fmt, homography) == expected
        return expected

    def many_rows(self, rng):
        """A file of `MANY_ROWS` rows, every cell in a spelling numpy's reader accepts."""
        fmt = rng.choice(["plain", "mot"])
        rows = random_rows(rng, fmt, self.MANY_ROWS, frames=range(-3, 1200), python_only=False)
        return fmt, rows, self.HOMOGRAPHY if fmt == "mot" else None

    @pytest.mark.parametrize("seed", range(150))
    def test_valid_files_agree_bit_for_bit(self, seed):
        rng = random.Random(seed)
        fmt = rng.choice(["plain", "mot"])
        rows = random_rows(rng, fmt, rng.randrange(0, 40), python_only=rng.random() < 0.5)
        text, _ = render(rng, rows)
        homography = self.HOMOGRAPHY if fmt == "mot" else None
        self.assert_same_tables(text, rng.choice(["auto", fmt]), homography)

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
            if fault == "duplicate":
                rows.insert(rng.randrange(len(rows) + 1), [*rows[k][:2], *rows[rng.randrange(len(rows))][2:]])
            elif fault == "homography":
                # Drop the homography, or pick one that sends this row's foot point to infinity.
                rows[k][7:9] = ["-1", "-1"]
                rows[k][2:6] = ["3", "2", "2", "4"]
                homography = rng.choice([None, np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 1.0, -6.0]])])
            else:
                spoil(rng, rows, k, fault)
        text, _ = render(rng, rows)
        assert isinstance(self.assert_same_outcome(text, rng.choice(["auto", fmt]), homography), str)

    @pytest.mark.parametrize("seed", range(4))
    def test_a_python_only_spelling_in_the_second_block(self, seed):
        rng = random.Random(2000 + seed)
        fmt, rows, homography = self.many_rows(rng)
        k = rng.randrange(_BLOCK_ROWS, 2 * _BLOCK_ROWS)
        # A ground position: x of a box-only row turns it into a ground row.
        rows[k][2 if fmt == "plain" else 7] = rng.choice(["1_000", "٢", "-٣.٥", "1_0.2_5"])
        text, _ = render(rng, rows)
        self.assert_same_tables(text, rng.choice(["auto", fmt]), homography)

    @pytest.mark.parametrize("seed", range(6))
    def test_the_first_fault_in_the_third_block(self, seed):
        rng = random.Random(3000 + seed)
        fmt, rows, homography = self.many_rows(rng)
        first = rng.randrange(2 * _BLOCK_ROWS, 3 * _BLOCK_ROWS)
        for k in (first, rng.randrange(first + 1, len(rows))):
            spoil(rng, rows, k, rng.choice(["columns", "number", "fraction"]))
        text, line_nos = render(rng, rows)
        message = self.assert_same_outcome(text, rng.choice(["auto", fmt]), homography)
        assert f"line {line_nos[first]}" in message

    @pytest.mark.parametrize("seed", range(4))
    def test_a_unit_separator_inside_a_row(self, seed):
        # numpy's reader strips U+001F around a cell, but float() rejects it.
        rng = random.Random(4000 + seed)
        fmt, rows, homography = self.many_rows(rng)
        k = rng.randrange(len(rows))
        rows[k][rng.randrange(1, len(rows[k]) - 1)] = rng.choice(["\x1f2", "2\x1f", "\x1f2\x1f"])
        text, line_nos = render(rng, rows)
        message = self.assert_same_outcome(text, rng.choice(["auto", fmt]), homography)
        assert message.startswith(f"malformed row at line {line_nos[k]}: ")
        # Without blank lines, numpy's reader would take every other line.
        message = self.assert_same_outcome("\n".join(map(",".join, rows)), fmt, homography)
        assert message.startswith(f"malformed row at line {k + 1}: ")

    def many_lines(self, rng):
        """A file of `MANY_ROWS` rows as a list of lines, and its format and homography."""
        fmt, rows, homography = self.many_rows(rng)
        return [",".join(cells) for cells in rows], fmt, homography

    @pytest.mark.parametrize("seed", range(3))
    def test_a_file_that_starts_with_blank_lines(self, seed):
        rng = random.Random(5000 + seed)
        lines, fmt, homography = self.many_lines(rng)
        blank = [rng.choice(["", " ", "\t", "\xa0"]) for _ in range(rng.randrange(1, 4))]
        self.assert_same_tables("\n".join(blank + lines), rng.choice(["auto", fmt]), homography)
        spoil_at = rng.randrange(len(lines))
        lines[spoil_at] = "1,2,3"
        message = self.assert_same_outcome("\n".join(blank + lines), fmt, homography)
        assert message == f"line {len(blank) + spoil_at + 1} has 3 columns, expected {len(lines[0].split(','))}"

    @pytest.mark.parametrize("blank", ["", " ", "\t \t"])
    @pytest.mark.parametrize("seed", range(2))
    def test_a_whole_block_of_blank_lines(self, seed, blank):
        # numpy's reader skips an empty line, warns on a block of nothing
        # else, and refuses a whitespace-only one.
        rng = random.Random(6000 + seed)
        lines, fmt, homography = self.many_lines(rng)
        lines[_BLOCK_ROWS:_BLOCK_ROWS] = [blank] * (_BLOCK_ROWS + rng.randrange(3))
        self.assert_same_tables("\n".join(lines), rng.choice(["auto", fmt]), homography)
        k = rng.randrange(2 * _BLOCK_ROWS + 2, len(lines))
        lines[k] = lines[k].replace(",", ",x", 1)
        assert self.assert_same_outcome("\n".join(lines), fmt, homography).startswith(f"malformed row at line {k + 1}: ")

    @pytest.mark.parametrize("seed", range(2))
    def test_crlf_line_endings(self, seed):
        rng = random.Random(7000 + seed)
        lines, fmt, homography = self.many_lines(rng)
        self.assert_same_tables("\r\n".join(lines) + "\r\n", rng.choice(["auto", fmt]), homography)
        k = rng.randrange(len(lines))
        lines[k] = "0.5" + lines[k][lines[k].index(","):]
        message = self.assert_same_outcome("\r\n".join(lines) + "\r\n", fmt, homography)
        assert message == f"malformed row at line {k + 1}: frame and id must be integers"

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_a_lone_line_separator_other_than_a_newline(self, separator):
        # `str.splitlines` ends a line at each of these; both readers count it.
        rng = random.Random(8000 + ord(separator))
        lines, fmt, homography = self.many_lines(rng)
        k = rng.randrange(1, len(lines) - 1)
        text = "\n".join(lines[:k]) + separator + "\n".join(lines[k:])
        self.assert_same_tables(text, rng.choice(["auto", fmt]), homography)
        lines[k + 1] = lines[k + 1] + ",0"
        text = "\n".join(lines[:k]) + separator + "\n".join(lines[k:])
        assert self.assert_same_outcome(text, fmt, homography).startswith(f"line {k + 2} has ")

    def test_a_bad_number_before_a_wrong_column_count(self):
        text = "1,1,0,0\n2,1,0,0\n3,1,x,0\n4,1,0,0\n\n\n5,1,0\n"
        message = "malformed row at line 3: '3,1,x,0'"
        assert outcome(reference_tracks_from_csv, text, "auto", None) == message
        assert outcome(tracks_from_csv, text, "auto", None) == message


class TestParsePaths:
    """Which blocks the Python parse reads: only those numpy's reader refuses."""

    def crowd_csv(self):
        # 5000 rows: two full blocks and a partial third.
        tracks = [[Detection(f, (t + f / 7, f * 0.5 - t)) for f in range(100)] for t in range(50)]
        return tracks_to_csv(tracks).splitlines()

    def python_blocks(self, monkeypatch):
        seen = []
        python_block = tracksio._python_block

        def spy(block, columns):
            seen.append(block[0])
            return python_block(block, columns)

        monkeypatch.setattr(tracksio, "_python_block", spy)
        return seen

    def test_a_written_file_never_reaches_the_python_parse(self, monkeypatch):
        rows = self.crowd_csv()
        seen = self.python_blocks(monkeypatch)
        assert len(track_table_from_csv("\n".join(rows)).frames) == len(rows) == 5000
        assert seen == []

    def test_one_python_only_cell_sends_exactly_its_block(self, monkeypatch):
        rows = self.crowd_csv()
        frame, track_id, _, y = rows[3000].split(",")
        rows[3000] = f"{frame},{track_id},1_000,{y}"
        seen = self.python_blocks(monkeypatch)
        table = track_table_from_csv("\n".join(rows))
        assert seen == [rows[_BLOCK_ROWS]]
        assert exact(table.tracks()) == exact(reference_tracks_from_csv("\n".join(rows)))

    def test_a_clean_file_skips_the_row_by_row_path(self, monkeypatch):
        rows = self.crowd_csv()
        calls = []
        numpy_block = tracksio._numpy_block
        monkeypatch.setattr(tracksio, "_numpy_block", lambda *args: calls.append(args[0][0]) or numpy_block(*args))
        # numpy reads each of the three blocks once, as its lines are.
        for text in ("\n".join(rows), "\r\n".join(rows) + "\r\n"):
            assert len(track_table_from_csv(text).frames) == 5000
            assert calls == rows[::_BLOCK_ROWS]
            calls.clear()
        # An empty line, here in the last block, sends that block alone down
        # the row-by-row path: stripped and read again.
        assert len(track_table_from_csv("\n".join(rows) + "\n\n").frames) == 5000
        assert calls == [*rows[::_BLOCK_ROWS], rows[2 * _BLOCK_ROWS]]
