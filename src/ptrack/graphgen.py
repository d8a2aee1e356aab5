"""Builds the detection graph that linking operates on.

Input tracks contribute their detections and their own consecutive
transitions; extra edges let the linker move between tracks (to undo identity
switches) and bridge gaps between track fragments.  Entry and exit edges make
every detection reachable, so a feasible decomposition always exists.
The graph holds the input as one `TrackTable`, the one record of which
track each detection came from; `input_trajectories` reads its non-empty
tracks as a `TrajectorySet`.
The link and join edges come from the join that `eval` finds its gate pairs
with (`core._gate_pairs`), over that table: `eval`'s exact `math.dist` gate.
"""
from __future__ import annotations

import numpy as np

from .core import (
    SINK_NODE, SOURCE_NODE, Config, DetectionGraph, TrackTable, Tracks, TrajectorySet, _gate_pairs,
    as_track_table,
)


def build_graph(
    tracks: Tracks,
    cfg: Config,
    batch: tuple[int, int] | None = None,
) -> DetectionGraph:
    """Assemble the detection graph from input tracks, a `TrackTable` or detection lists.

    Edges added, deduplicated:
      - consecutive detections of the same input track, whatever their gap;
      - every cross pair in adjacent frames within `link_radius`;
      - track-end to track-start pairs within `join_radius` whose frame gap
        is between 1 and `join_gap` seconds;
      - entry and exit edges for every detection.

    The graph holds the tracks as one table (lists are converted once), its
    rows as ids 1..n; `batch` overrides the frame range when the tracks are a
    window of a longer recording.  Frames must fit in int64, as in every
    `TrackTable`.
    """
    table = as_track_table(tracks)
    frames, pos, starts = table.frames, table.pos, table.starts
    full = starts[1:] > starts[:-1]
    firsts, lasts = starts[:-1][full], starts[1:][full] - 1
    # Own-track steps: every row but a track's last goes on to the next row.
    tails = np.delete(np.arange(len(frames)), lasts)
    back = tails[frames[tails + 1] <= frames[tails]]
    if len(back):
        track = int(np.searchsorted(starts, back[0], side="right")) - 1
        raise ValueError(f"track {track} frames are not strictly increasing at frame {frames[back[0] + 1]}")
    if not len(frames):
        raise ValueError("no detections in input tracks")
    # Link edges: each row, moved on one frame, against the rows of that
    # frame; a row at the last int64 frame has no next frame.
    linkable = np.flatnonzero(frames < np.iinfo(np.int64).max)
    moved_on = TrackTable(frames[linkable] + 1, pos[linkable], [0, len(linkable)])
    i, j = _gate_pairs(moved_on, table, cfg.link_radius)
    # Join edges: track ends against track starts, all in one frame, kept
    # where the start is 1..join_gap_frames() frames later; the gap is exact
    # in uint64 where the start is the later.
    one_track = [0, len(lasts)]
    ends = TrackTable(np.zeros(len(lasts), dtype=np.int64), pos[lasts], one_track)
    a, b = _gate_pairs(ends, TrackTable(ends.frames, pos[firsts], one_track), cfg.join_radius)
    end, start = lasts[a], firsts[b]
    gap = frames[start].view(np.uint64) - frames[end].view(np.uint64)
    join = (frames[start] > frames[end]) & (gap <= min(cfg.join_gap_frames(), 2**64 - 1))
    # The steps, links and joins as (tail, head) rows, ids = rows + 1, then the entries and exits.
    ids = np.arange(1, len(frames) + 1)
    rows = np.hstack(([tails, tails + 1], [linkable[i], j], [end[join], start[join]]))
    entry, exit_ = np.full_like(ids, SOURCE_NODE), np.full_like(ids, SINK_NODE)
    edges = np.hstack((rows + 1, [entry, ids], [ids, exit_])).T.astype(np.int64)
    return DetectionGraph(table, edges, batch)


def input_trajectories(graph: DetectionGraph) -> TrajectorySet:
    """The table's non-empty tracks as a trajectory set: the usual start for mining or scoring the input."""
    return TrajectorySet(np.arange(len(graph.frames)), np.unique(graph.table.starts))
