"""The former row-by-row track parser, kept as the reference for `track_table_from_csv`.

`reference_tracks_from_csv` parses one line at a time with `float` and raises
at the first bad line; the reader must return the same tracks, bit for bit,
and raise the same message on every file.
"""
from __future__ import annotations

import math

import numpy as np

from ptrack import Detection


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
        if not all(-(2.0**63) <= v < 2.0**63 and v == int(v) for v in (frame, track_id)):
            raise ValueError(f"malformed row at line {line_no}: frame and id must be integers")
        x, y = values[2:4] if resolved == "plain" else values[7:9]
        track_rows = rows.setdefault(int(track_id), [])
        box_only = resolved == "mot" and x == y == -1.0 and values[4:6] != [-1.0, -1.0]
        if not (box_only or math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"malformed row at line {line_no}: ground position must be finite")
        if box_only:
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
    for track_id in sorted(rows):
        entries = sorted(rows[track_id])
        track = []
        for k, (frame, x, y) in enumerate(entries):
            if k > 0 and frame == entries[k - 1][0]:
                raise ValueError(f"track {track_id} has two detections at frame {frame}")
            track.append(Detection(id=det_id, frame=frame, pos=(x, y)))
            det_id += 1
        tracks.append(track)
    return tracks


def exact(tracks):
    """Everything a detection holds, positions as bit patterns, nested by track."""
    return [[(d.id, d.frame, d.pos[0].hex(), d.pos[1].hex()) for d in track] for track in tracks]


def outcome(parse, text, fmt, homography):
    try:
        return exact(parse(text, fmt, homography))
    except ValueError as exc:
        return str(exc)
