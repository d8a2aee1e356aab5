"""Reading and writing tracks and patterns, and reading homographies.

Two track formats are supported: a plain four-column CSV (frame, id, x, y)
and the ten-column challenge CSV (frame, id, four bbox fields, confidence,
x, y, z).  `track_table_from_csv` reads each track id as one track of a
`TrackTable`, and `tracks_from_csv` turns that table into detection lists,
where the list is the only record of which track a detection belongs to;
both run the same parse and the same checks.  Challenge rows with
x == y == -1 and a box carry image-plane boxes only and need a homography
to project the box's bottom center onto the ground plane; a row whose box
width and height are both -1 has no box, so its x, y is a ground position
even when it is (-1, -1).
Numbers use Python float syntax (`1e3`, ` 2 `, `1_000`).  numpy's C reader
parses the lines a block at a time as they are; a block it refuses is
stripped, cleared of blank lines and given to it again, then to `float`, as
only `float` takes every such spelling and names the bad line.  Frame
and id must be finite int64 integers, and ground positions, read or
projected, must be finite.  An invalid track file is reported at its first
offending line, whichever path reads it, with the same message.  A degenerate
homography, a projection to a non-finite position and a repeated frame in one
track are reported, in that order, only once every line has passed.
All writers are deterministic: fixed six-decimal formatting, newline line
endings, rows sorted by frame then track.
"""
from __future__ import annotations

import os
from contextlib import suppress
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import Detection, Pattern, TrackTable, Tracks, as_track_table

PathLike = str | os.PathLike


def _parse_floats(parts: list[str], line_no: int) -> list[float]:
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"malformed row at line {line_no}: {','.join(parts)!r}") from None


# Rows are parsed this many at a time: only a block numpy refuses goes to
# `float`, so at most one block's cell strings are alive beside the array.
_BLOCK_ROWS = 2048
_TRACK_COLUMNS = {"plain": 4, "mot": 10}
# Frames and ids are stored in int64 columns: finite integers below 2**63.
_INT64_LIMIT = 2.0**63
# Per-row checks on parsed numbers, in the order they apply within a row.
_ROW_ERRORS = (
    "malformed row at line {}: frame and id must be integers",
    "row at line {} has no ground position and no homography was given",
    "malformed row at line {}: ground position must be finite",
)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _numpy_block(block: list[str], columns: int, unit_sep: bool) -> np.ndarray | None:
    """The block's rows by numpy's C reader, or None unless it reads each line as one row of `columns`."""
    # numpy skips a blank line, and warns on a block of nothing else.  It strips \x1c-\x1f around a
    # cell, which `float` rejects; only \x1f survives `str.splitlines`, and `unit_sep` says the file has it.
    if not block or not block[0].strip() or unit_sep and "\x1f" in "".join(block):
        return None
    with suppress(ValueError):
        values = np.loadtxt(block, delimiter=",", comments=None, ndmin=2)
        if values.shape == (len(block), columns):
            return values
    return None


def _python_block(block: list[str], columns: int) -> tuple[np.ndarray, str | None]:
    """`_parse_rows` on stripped rows by `float`: it alone takes `1_000` or `٢` and names bad rows."""
    counts = np.fromiter(map(str.count, block, repeat(",")), int, len(block))
    wrong = np.flatnonzero(counts != columns - 1)
    ok = int(wrong[0]) if wrong.size else len(block)
    message = None if ok == len(block) else f"line {{}} has {counts[ok] + 1} columns, expected {columns}"
    cells = ",".join(block[:ok]).split(",") if ok else []
    try:
        numbers = list(map(float, cells))
    except ValueError:
        ok = next(k for k, cell in enumerate(cells) if not _is_float(cell)) // columns
        numbers = list(map(float, cells[: ok * columns]))
        message = "malformed row at line {}: " + repr(block[ok])
    return np.reshape(numbers, (ok, columns)), message


def _parse_rows(lines: list[str], columns: int, unit_sep: bool) -> tuple[np.ndarray, str | None]:
    """Parse CSV lines into a (rows, columns) float array, one row per non-blank line.

    Only a block that numpy refuses as it is goes on stripped, without blank
    lines, to numpy and then `float`.  Parsing stops at the first row with
    the wrong column count or a malformed number.  Returns the rows parsed
    before it and that row's error message, with `{}` for its line number.
    """
    values, filled = np.empty((len(lines), columns)), 0
    for start in range(0, len(lines), _BLOCK_ROWS):
        block = lines[start : start + _BLOCK_ROWS]
        parsed, message = _numpy_block(block, columns, unit_sep), None
        if parsed is None:
            block = [row for row in map(str.strip, block) if row]
            parsed = _numpy_block(block, columns, unit_sep)
            parsed, message = _python_block(block, columns) if parsed is None else (parsed, None)
        values[filled : filled + len(parsed)] = parsed
        filled += len(parsed)
        if message is not None:
            break
    return values[:filled], message


def track_table_from_csv(
    text: str, fmt: str = "auto", homography: np.ndarray | None = None
) -> TrackTable:
    """Parse tracks from CSV text into a table with one track per track id.

    Tracks are ordered by id and their rows by frame.
    """
    if fmt not in ("auto", *_TRACK_COLUMNS):
        raise ValueError(f"unknown track format {fmt!r}")
    lines = text.splitlines()

    def line_of(row: int) -> int:
        return [n for n, line in enumerate(lines, start=1) if line.strip()][row]

    first = next(filter(str.strip, lines), None)
    if first is None:
        return TrackTable.from_tracks([])
    if fmt == "auto":
        found = first.count(",") + 1
        fmt = {4: "plain", 10: "mot"}.get(found, "")
        if not fmt:
            raise ValueError(f"line {line_of(0)} has {found} columns, expected 4 or 10")
    values, parse_error = _parse_rows(lines, _TRACK_COLUMNS[fmt], "\x1f" in text)

    # A float no int64 equals converts to one it differs from, or from 2**63 up may saturate to 2**63 - 1.
    with np.errstate(invalid="ignore"):
        frame_id = values[:, :2].astype(np.int64)
    integral = (frame_id == values[:, :2]) & (values[:, :2] < _INT64_LIMIT)
    integral = integral[:, 0] & integral[:, 1]
    pos = values[:, [2, 3] if fmt == "plain" else [7, 8]]
    finite = np.isfinite(pos[:, 0]) & np.isfinite(pos[:, 1])
    boxed = np.zeros(len(values), dtype=bool)
    if fmt == "mot":
        # A box-only row has x == y == -1 and a box; width == height == -1 marks no box.
        boxed = (pos[:, 0] == -1.0) & (pos[:, 1] == -1.0) & ((values[:, 4] != -1.0) | (values[:, 5] != -1.0))
    # A boxed row's (-1, -1) is finite: a row that is not finite is never boxed.
    failed = ~(integral & finite) | boxed & (homography is None)
    if failed.any():
        k = int(failed.argmax())
        raise ValueError(_ROW_ERRORS[0 if not integral[k] else 2 if not finite[k] else 1].format(line_of(k)))
    if parse_error is not None:
        raise ValueError(parse_error.replace("{}", str(line_of(len(values))), 1))

    if boxed.any():
        rows = slice(None) if boxed.all() else np.flatnonzero(boxed)
        left, top, width, height = values[rows, 2:6].T
        with np.errstate(all="ignore"):
            feet = np.column_stack((left + width / 2.0, top + height, np.ones(len(left))))
            # Stacked matrix-vector products: each foot point maps exactly as
            # `homography @ foot` maps it alone.
            mapped = (homography @ feet.reshape(-1, 3, 1))[:, :, 0]
            ground = mapped[:, :2] / mapped[:, 2:]
        # A degenerate row's ground is not finite either; it is reported first.
        if not np.isfinite(ground).all():
            degenerate = mapped[:, 2] == 0.0
            bad = degenerate if degenerate.any() else ~np.isfinite(ground).all(axis=1)
            message = "homography degenerates at line {}" if degenerate.any() else _ROW_ERRORS[2]
            raise ValueError(message.format(line_of(np.flatnonzero(boxed)[bad.argmax()])))
        pos[rows] = ground

    frames, ids = frame_id[:, 0], frame_id[:, 1]
    order = np.lexsort((frames, ids))
    frames, ids, pos = frames[order], ids[order], pos[order]
    same_track = ids[1:] == ids[:-1]
    twice = np.flatnonzero(same_track & (frames[1:] == frames[:-1]))
    if twice.size:
        k = twice[0]
        raise ValueError(f"track {int(ids[k])} has two detections at frame {int(frames[k])}")
    starts = np.append(np.flatnonzero(np.concatenate(([True], ~same_track))), len(frames))
    return TrackTable(frames, pos, starts)


def tracks_from_csv(
    text: str, fmt: str = "auto", homography: np.ndarray | None = None
) -> list[list[Detection]]:
    """Parse tracks from CSV text; returns one detection list per track id.

    Tracks are ordered by id and their detections by frame; a detection is
    its frame and position only, so the file's track ids are not kept.
    """
    return track_table_from_csv(text, fmt, homography).tracks()


_TRACK_LINES = {"plain": "{},{},{:.6f},{:.6f}\n", "mot": "{},{},-1,-1,-1,-1,1,{:.6f},{:.6f},-1\n"}


def tracks_to_csv(tracks: Tracks, fmt: str = "plain") -> str:
    """Serialize a `TrackTable` or detection lists; track ids count from 1 in track order."""
    if fmt not in _TRACK_LINES:
        raise ValueError(f"unknown track format {fmt!r}")
    table = as_track_table(tracks)
    ids = table.owner + 1
    order = np.lexsort((ids, table.frames))
    x, y = table.pos[order].T.tolist()
    return "".join(map(_TRACK_LINES[fmt].format, table.frames[order].tolist(), ids[order].tolist(), x, y))


def read_tracks(
    path: PathLike, fmt: str = "auto", homography: np.ndarray | None = None
) -> list[list[Detection]]:
    return tracks_from_csv(Path(path).read_text(), fmt, homography)


def read_track_table(
    path: PathLike, fmt: str = "auto", homography: np.ndarray | None = None
) -> TrackTable:
    return track_table_from_csv(Path(path).read_text(), fmt, homography)


def write_tracks(path: PathLike, tracks: Tracks, fmt: str = "plain") -> None:
    Path(path).write_text(tracks_to_csv(tracks, fmt))


def read_homography(path: PathLike) -> np.ndarray:
    tokens = Path(path).read_text().split()
    bad = next((t for t in tokens if not (_is_float(t) and np.isfinite(float(t)))), None)
    if bad is not None:
        raise ValueError(f"homography file {path}: {bad!r} is not a finite number")
    if len(tokens) != 9:
        raise ValueError(f"homography file {path} must hold 9 numbers, found {len(tokens)}")
    return np.array([float(t) for t in tokens]).reshape(3, 3)


def patterns_to_text(patterns: Sequence[Pattern]) -> str:
    """One line per pattern: width then the centerline coordinates.

    The empty pattern is never written; consumers re-add it when linking.
    """
    lines = []
    for pattern in patterns:
        if pattern.is_empty:
            continue
        coords = " ".join(f"{x:.6f} {y:.6f}" for x, y in pattern.centerline)
        lines.append(f"{pattern.width:.6f} {coords}")
    return "".join(line + "\n" for line in lines)


def patterns_from_text(text: str) -> list[Pattern]:
    patterns = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        values = _parse_floats(line.split(), line_no)
        if len(values) < 5 or len(values) % 2 == 0:
            raise ValueError(f"line {line_no}: expected a width and at least two points")
        width = values[0]
        pts = list(zip(values[1::2], values[2::2]))
        try:
            patterns.append(Pattern(tuple(pts), width))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    return patterns


def read_patterns(path: PathLike) -> list[Pattern]:
    return patterns_from_text(Path(path).read_text())


def write_patterns(path: PathLike, patterns: Sequence[Pattern]) -> None:
    Path(path).write_text(patterns_to_text(patterns))
