"""Reading and writing tracks, patterns, configs, and result tables.

Two track formats are supported: a plain four-column CSV (frame, id, x, y)
and the ten-column challenge CSV (frame, id, four bbox fields, confidence,
x, y, z).  Challenge rows with x == y == -1 and a box carry image-plane boxes
only and need a homography to project the box's bottom center onto the
ground plane; a row whose box width and height are both -1 has no box, so
its x, y is a ground position even when it is (-1, -1).
All writers are deterministic: fixed six-decimal formatting, newline line
endings, rows sorted by frame then track.
"""
from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import Config, Detection, Pattern
from .metrics import METRIC_COLUMNS
from .unsupervised import HistoryEntry

PathLike = str | os.PathLike


def _parse_floats(parts: list[str], line_no: int) -> list[float]:
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise ValueError(f"malformed row at line {line_no}: {','.join(parts)!r}") from None


def tracks_from_csv(
    text: str, fmt: str = "auto", homography: np.ndarray | None = None
) -> list[list[Detection]]:
    """Parse tracks from CSV text; returns one detection list per track id."""
    rows: dict[int, list[tuple[int, float, float]]] = {}
    # Box-only rows are projected in one pass after parsing.  Both lists are
    # flat lists of numbers, which the garbage collector does not track.
    boxed: list[int] = []  # track id, position in its track, line number
    feet: list[float] = []  # foot point in homogeneous coordinates
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
        values = _parse_floats(parts, line_no)
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
        # Stacked matrix-vector products: each foot point maps exactly as
        # `homography @ foot` maps it alone.
        mapped = (homography @ np.array(feet).reshape(-1, 3, 1))[:, :, 0]
        degenerate = np.flatnonzero(mapped[:, 2] == 0.0)
        if degenerate.size:
            raise ValueError(f"homography degenerates at line {boxed[3 * degenerate[0] + 2]}")
        ground = (mapped[:, :2] / mapped[:, 2:]).tolist()
        for track_id, k, (x, y) in zip(boxed[0::3], boxed[1::3], ground):
            rows[track_id][k] = (rows[track_id][k][0], x, y)

    tracks: list[list[Detection]] = []
    det_id = 1
    for t_pos, track_id in enumerate(sorted(rows)):
        entries = sorted(rows[track_id])
        track: list[Detection] = []
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


def tracks_to_csv(tracks: Sequence[Sequence[Detection]], fmt: str = "plain") -> str:
    """Serialize tracks; ids are assigned from list positions, starting at 1."""
    if fmt not in ("plain", "mot"):
        raise ValueError(f"unknown track format {fmt!r}")
    rows = []
    for t_idx, track in enumerate(tracks, start=1):
        for det in track:
            rows.append((det.frame, t_idx, det.pos[0], det.pos[1]))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = []
    for frame, track_id, x, y in rows:
        if fmt == "plain":
            lines.append(f"{frame},{track_id},{x:.6f},{y:.6f}")
        else:
            lines.append(
                f"{frame},{track_id},-1,-1,-1,-1,1,{x:.6f},{y:.6f},-1"
            )
    return "".join(line + "\n" for line in lines)


def read_tracks(
    path: PathLike, fmt: str = "auto", homography: np.ndarray | None = None
) -> list[list[Detection]]:
    return tracks_from_csv(Path(path).read_text(), fmt, homography)


def write_tracks(path: PathLike, tracks: Sequence[Sequence[Detection]], fmt: str = "plain") -> None:
    Path(path).write_text(tracks_to_csv(tracks, fmt))


def read_homography(path: PathLike) -> np.ndarray:
    values = [float(v) for v in Path(path).read_text().split()]
    if len(values) != 9:
        raise ValueError(f"homography file must hold 9 numbers, found {len(values)}")
    return np.array(values).reshape(3, 3)


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
        patterns.append(Pattern(tuple(pts), width))
    return patterns


def read_patterns(path: PathLike) -> list[Pattern]:
    return patterns_from_text(Path(path).read_text())


def write_patterns(path: PathLike, patterns: Sequence[Pattern]) -> None:
    Path(path).write_text(patterns_to_text(patterns))


_CONFIG_PARSERS = {
    "link_radius": float,
    "join_radius": float,
    "join_gap": float,
    "fps": float,
    "remove_empty": lambda v: {"true": True, "1": True, "false": False, "0": False}[v.lower()],
    "max_patterns": int,
    "pattern_cost_budget": float,
    "reverse_penalty": float,
    "empty_rate": float,
    "candidate_widths": lambda v: tuple(float(w) for w in v.split(",") if w.strip()),
}


def config_overrides_from_text(text: str) -> dict:
    """Parse `key=value` lines into Config field overrides."""
    overrides: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        parser = _CONFIG_PARSERS.get(key)
        if parser is None:
            raise ValueError(f"line {line_no}: unknown config key {key!r}")
        try:
            overrides[key] = parser(value.strip())
        except (ValueError, KeyError):
            raise ValueError(f"line {line_no}: bad value for {key}: {value.strip()!r}") from None
    return overrides


def read_config(path: PathLike, **extra_overrides) -> Config:
    overrides = config_overrides_from_text(Path(path).read_text())
    overrides.update({k: v for k, v in extra_overrides.items() if v is not None})
    return Config(**overrides)


def config_to_text(cfg: Config) -> str:
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if value is None:
            continue
        if field.name == "candidate_widths":
            value = ",".join(f"{w:g}" for w in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{field.name}={value}")
    return "".join(line + "\n" for line in lines)


def history_to_csv(history: Iterable[HistoryEntry]) -> str:
    lines = ["iteration,cost_budget,n_patterns,proxy_score"]
    for entry in history:
        lines.append(
            f"{entry.iteration},{entry.cost_budget:.6f},{entry.n_patterns},{entry.proxy_score:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def write_history(path: PathLike, history: Iterable[HistoryEntry]) -> None:
    Path(path).write_text(history_to_csv(history))


def metrics_to_csv(summary: dict[str, float]) -> str:
    header = ",".join(METRIC_COLUMNS)
    cells = []
    for col in METRIC_COLUMNS:
        value = summary[col]
        cells.append(str(int(value)) if col in ("MT", "PT", "ML") else f"{value:.6f}")
    return header + "\n" + ",".join(cells) + "\n"


def write_metrics(path: PathLike, summary: dict[str, float]) -> None:
    Path(path).write_text(metrics_to_csv(summary))
