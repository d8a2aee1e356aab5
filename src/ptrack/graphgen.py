"""Builds the detection graph that linking operates on.

Input tracks contribute their detections and their own consecutive
transitions; extra edges let the linker move between tracks (to undo identity
switches) and bridge gaps between track fragments.  Entry and exit edges make
every detection reachable, so a feasible decomposition always exists.
The graph keeps the input tracks as `source_tracks`, the one record of which
track each detection came from.  The link and join edges come from the
join that `eval` finds its gate pairs with (`core._gate_pairs`), over one
`TrackTable` of the tracks: `eval`'s exact `math.dist` gate.
"""
from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .core import SINK_NODE, SOURCE_NODE, Config, Detection, DetectionGraph, TrackTable, Trajectory, _gate_pairs


def build_graph(
    tracks: Sequence[Sequence[Detection]],
    cfg: Config,
    batch: tuple[int, int] | None = None,
) -> DetectionGraph:
    """Assemble the detection graph from input tracks.

    Edges added, deduplicated:
      - consecutive detections of the same input track, whatever their gap;
      - every cross pair in adjacent frames within `link_radius`;
      - track-end to track-start pairs within `join_radius` whose frame gap
        is between 1 and `join_gap` seconds;
      - entry and exit edges for every detection.

    The graph holds the caller's detections, track after track, as ids 1..n,
    and the non-empty input tracks, in order, as its `source_tracks`; `batch`
    overrides the frame range when the tracks are a window of a longer recording.
    Frames must fit in int64, as in every `TrackTable`.
    """
    table = TrackTable.from_tracks(tracks)
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
    source_tracks = tuple(tuple(range(f + 1, l + 2)) for f, l in zip(firsts.tolist(), lasts.tolist()))
    return DetectionGraph(tuple(chain.from_iterable(tracks)), edges, batch, source_tracks)


def input_trajectories(graph: DetectionGraph) -> tuple[Trajectory, ...]:
    """Adopt the graph's source tracks as a trajectory set.

    Useful as the starting point for pattern mining or for scoring the input
    as-is.  Requires the graph to have been built from tracks.
    """
    if not graph.source_tracks:
        raise ValueError("graph has no source tracks: it was not built from tracks")
    return tuple(Trajectory(nodes) for nodes in graph.source_tracks)
