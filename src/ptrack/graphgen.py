"""Builds the detection graph that linking operates on.

Input tracks contribute their detections and their own consecutive
transitions; extra edges let the linker move between tracks (to undo identity
switches) and bridge gaps between track fragments.  Entry and exit edges make
every detection reachable, so a feasible decomposition always exists.
The graph keeps the input tracks as `source_tracks`, the one record of which
track each detection came from.
"""
from __future__ import annotations

import math
from typing import Sequence

from .core import SINK_NODE, SOURCE_NODE, Config, Detection, DetectionGraph, Trajectory


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
    """
    detections: list[Detection] = []
    track_nodes: list[tuple[int, ...]] = []
    for t_idx, track in enumerate(tracks):
        for prev, det in zip(track, track[1:]):
            if det.frame <= prev.frame:
                raise ValueError(
                    f"track {t_idx} frames are not strictly increasing at frame {det.frame}"
                )
        first = len(detections) + 1
        detections += track
        if track:
            track_nodes.append(tuple(range(first, len(detections) + 1)))
    if not track_nodes:
        raise ValueError("no detections in input tracks")

    edges: set[tuple[int, int]] = set()
    for nodes in track_nodes:
        edges.update(zip(nodes, nodes[1:]))

    by_frame: dict[int, list[tuple[int, Detection]]] = {}
    for node, det in enumerate(detections, start=1):
        by_frame.setdefault(det.frame, []).append((node, det))
    for frame, here in by_frame.items():
        there = by_frame.get(frame + 1)
        if not there:
            continue
        for i, a in here:
            for j, b in there:
                if math.dist(a.pos, b.pos) <= cfg.link_radius:
                    edges.add((i, j))

    max_gap = cfg.join_gap_frames()
    ends = [(nodes[-1], detections[nodes[-1] - 1]) for nodes in track_nodes]
    starts = [(nodes[0], detections[nodes[0] - 1]) for nodes in track_nodes]
    for i, end in ends:
        for j, start in starts:
            gap = start.frame - end.frame
            if 1 <= gap <= max_gap and math.dist(end.pos, start.pos) <= cfg.join_radius:
                edges.add((i, j))

    for node in range(1, len(detections) + 1):
        edges.add((SOURCE_NODE, node))
        edges.add((node, SINK_NODE))

    return DetectionGraph(tuple(detections), frozenset(edges), batch, tuple(track_nodes))


def input_trajectories(graph: DetectionGraph) -> tuple[Trajectory, ...]:
    """Adopt the graph's source tracks as a trajectory set.

    Useful as the starting point for pattern mining or for scoring the input
    as-is.  Requires the graph to have been built from tracks.
    """
    if not graph.source_tracks:
        raise ValueError("graph has no source tracks: it was not built from tracks")
    return tuple(Trajectory(nodes) for nodes in graph.source_tracks)
