"""Builds the detection graph that linking operates on.

Input tracks contribute their detections and their own consecutive
transitions; extra edges let the linker move between tracks (to undo identity
switches) and bridge gaps between track fragments.  Entry and exit edges make
every detection reachable, so a feasible decomposition always exists.
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

    Detections are re-identified serially; `batch` overrides the frame range
    when the tracks are a window of a longer recording.
    """
    if not tracks or all(len(t) == 0 for t in tracks):
        raise ValueError("no detections in input tracks")
    detections: list[Detection] = []
    track_nodes: list[list[int]] = []
    next_id = 1
    for t_idx, track in enumerate(tracks):
        nodes: list[int] = []
        for k, det in enumerate(track):
            if k > 0 and det.frame <= track[k - 1].frame:
                raise ValueError(
                    f"track {t_idx} frames are not strictly increasing at frame {det.frame}"
                )
            detections.append(
                Detection(
                    id=next_id,
                    frame=det.frame,
                    pos=det.pos,
                    source_track=t_idx,
                    is_track_start=(k == 0),
                    is_track_end=(k == len(track) - 1),
                )
            )
            nodes.append(next_id)
            next_id += 1
        track_nodes.append(nodes)

    edges: set[tuple[int, int]] = set()
    for nodes in track_nodes:
        edges.update(zip(nodes, nodes[1:]))

    by_frame: dict[int, list[Detection]] = {}
    for det in detections:
        by_frame.setdefault(det.frame, []).append(det)
    for frame, here in by_frame.items():
        there = by_frame.get(frame + 1)
        if not there:
            continue
        for a in here:
            for b in there:
                if math.dist(a.pos, b.pos) <= cfg.link_radius:
                    edges.add((a.id, b.id))

    max_gap = cfg.join_gap_frames()
    ends = [d for d in detections if d.is_track_end]
    starts = [d for d in detections if d.is_track_start]
    for end in ends:
        for start in starts:
            gap = start.frame - end.frame
            if 1 <= gap <= max_gap and math.dist(end.pos, start.pos) <= cfg.join_radius:
                edges.add((end.id, start.id))

    for det in detections:
        edges.add((SOURCE_NODE, det.id))
        edges.add((det.id, SINK_NODE))

    return DetectionGraph(tuple(detections), frozenset(edges), batch)


def input_trajectories(graph: DetectionGraph) -> tuple[Trajectory, ...]:
    """Adopt the graph's source tracks as a trajectory set.

    Useful as the starting point for pattern mining or for scoring the input
    as-is.  Requires the graph to have been built from tracks.
    """
    groups: dict[int, list[Detection]] = {}
    for det in graph.detections:
        if det.source_track is None:
            raise ValueError(f"detection {det.id} has no source track")
        groups.setdefault(det.source_track, []).append(det)
    return tuple(
        Trajectory(tuple(d.id for d in sorted(groups[t_idx], key=lambda d: d.frame)))
        for t_idx in sorted(groups)
    )
