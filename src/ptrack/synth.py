"""Synthetic scenes with known ground truth, plus controlled corruptions.

Agents walk along pattern centerlines at a configurable speed with optional
speed jitter and lateral offsets bounded by the corridor width.  Corruption
operators inject the failure modes the library is meant to repair: identity
swaps, fragmentation, and wrong merges.  A track is its detection list, so
corrupting tracks only moves detections between lists.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import numpy.random  # noqa: F401  numpy imports it on first use; load it with the rest.

from .core import Detection, Pattern, _is_real

Ops = Sequence["Swap | Fragment | Merge"]


@dataclass(frozen=True)
class SceneMeta:
    """Batch frame range and the pattern each agent followed."""

    batch: tuple[int, int]
    fps: float
    pattern_of_agent: tuple[int, ...]


@dataclass(frozen=True)
class Scene:
    tracks: tuple[tuple[Detection, ...], ...]
    patterns: tuple[Pattern, ...]
    meta: SceneMeta

    def track_lists(self) -> list[list[Detection]]:
        return [list(t) for t in self.tracks]


@dataclass(frozen=True)
class Swap:
    """Exchange the tails of tracks `a` and `b` from `frame` onward."""

    a: int
    b: int
    frame: int | None = None


@dataclass(frozen=True)
class Fragment:
    """Split a track in two before `frame`."""

    track: int
    frame: int | None = None


@dataclass(frozen=True)
class Merge:
    """Concatenate track `b` after track `a`; they must not overlap in time."""

    a: int
    b: int


def generate_scene(
    patterns: Sequence[Pattern],
    agents: Sequence[tuple[int, int]],
    speed: float = 1.0,
    fps: float = 1.0,
    speed_jitter: float = 0.0,
    lateral_sigma: float = 0.0,
    seed: int = 0,
) -> Scene:
    """Walk agents along patterns; returns ground-truth tracks.

    Each agent is a (pattern index, start frame) pair and yields one track,
    its `Detection(frame, pos)`s in frame order.
    Lateral offsets are Gaussian, redrawn until they stay strictly inside
    the corridor width.
    The batch range extends one frame beyond the observed span on both sides
    so that no ground-truth trajectory touches the batch boundary.
    """
    if not agents:
        raise ValueError("no agents")
    for name, value in (("speed", speed), ("fps", fps)):
        if not (_is_real(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    rng = np.random.default_rng(seed)
    tracks: list[tuple[Detection, ...]] = []
    base_step = speed / fps
    for p_idx, start_frame in agents:
        pattern = patterns[p_idx]
        if pattern.is_empty:
            raise ValueError("agents cannot walk the empty pattern")
        dets: list[Detection] = []
        arc = 0.0
        frame = start_frame
        while arc <= pattern.length + 1e-9:
            x, y = pattern.point_at(arc)
            if lateral_sigma > 0.0:
                tx, ty = pattern.tangent_at(arc)
                offset = rng.normal(0.0, lateral_sigma)
                while abs(offset) >= pattern.width:
                    offset = rng.normal(0.0, lateral_sigma)
                x += -ty * offset
                y += tx * offset
            dets.append(Detection(frame, (x, y)))
            frame += 1
            step = base_step
            if speed_jitter > 0.0:
                step = max(0.1 * base_step, base_step * (1.0 + speed_jitter * rng.normal()))
            arc += step
        tracks.append(tuple(dets))
    first = min(t[0].frame for t in tracks) - 1
    last = max(t[-1].frame for t in tracks) + 1
    meta = SceneMeta(batch=(first, last), fps=fps, pattern_of_agent=tuple(a[0] for a in agents))
    return Scene(tuple(tracks), tuple(patterns), meta)


def _frames_of(track: Sequence[Detection]) -> list[int]:
    return [d.frame for d in track]


def corrupt(
    tracks: Sequence[Sequence[Detection]],
    ops: Ops,
    seed: int = 0,
) -> list[list[Detection]]:
    """Apply corruption operators in order; detections are moved, never edited.

    Track indices refer to the current list: fragments are appended at the
    end, merged-away tracks leave an empty slot that is dropped at the very
    end, so earlier indices stay stable.  An op with `frame=None` picks a
    valid frame at random.  Two ops touching the same track at the same frame
    are rejected as conflicting.
    """
    rng = np.random.default_rng(seed)
    work: list[list[Detection]] = [list(t) for t in tracks]
    touched: set[tuple[int, int]] = set()

    def claim(track_idx: int, frame: int) -> None:
        key = (track_idx, frame)
        if key in touched:
            raise ValueError(f"conflicting ops at frame {frame} on track {track_idx}")
        touched.add(key)

    def pick_frame(valid: list[int], what: str) -> int:
        if not valid:
            raise ValueError(f"no valid frame for {what}")
        return int(valid[rng.integers(len(valid))])

    for op in ops:
        if isinstance(op, Swap):
            ta, tb = work[op.a], work[op.b]
            frame = op.frame
            if frame is None:
                lo = max(min(_frames_of(ta)), min(_frames_of(tb))) + 1
                hi = min(max(_frames_of(ta)), max(_frames_of(tb)))
                frame = pick_frame([f for f in range(lo, hi + 1)], f"swap of {op.a} and {op.b}")
            claim(op.a, frame)
            claim(op.b, frame)
            head_a = [d for d in ta if d.frame < frame]
            tail_a = [d for d in ta if d.frame >= frame]
            head_b = [d for d in tb if d.frame < frame]
            tail_b = [d for d in tb if d.frame >= frame]
            if not (head_a and tail_a and head_b and tail_b):
                raise ValueError(f"swap at frame {frame} leaves a track empty")
            work[op.a] = head_a + tail_b
            work[op.b] = head_b + tail_a
        elif isinstance(op, Fragment):
            track = work[op.track]
            frame = op.frame
            if frame is None:
                frames = _frames_of(track)
                frame = pick_frame(frames[1:], f"fragmenting track {op.track}")
            claim(op.track, frame)
            head = [d for d in track if d.frame < frame]
            tail = [d for d in track if d.frame >= frame]
            if not head or not tail:
                raise ValueError(f"fragmenting at frame {frame} leaves an empty piece")
            work[op.track] = head
            work.append(tail)
        elif isinstance(op, Merge):
            ta, tb = work[op.a], work[op.b]
            if not ta or not tb:
                raise ValueError("merging an empty track")
            if ta[-1].frame >= tb[0].frame:
                raise ValueError(f"merge of tracks {op.a} and {op.b} overlaps in time")
            work[op.a] = ta + tb
            work[op.b] = []
        else:
            raise ValueError(f"unknown corruption op {op!r}")
    return [t for t in work if t]


def crossing_scene(seed: int = 0, lateral_sigma: float = 0.0) -> tuple[Scene, list[list[Detection]]]:
    """Two agents on crossing diagonal corridors, identities swapped mid-way.

    The swap happens right at the crossing point, where the agents pass
    within linking distance of each other, so the corrupted tracks are
    locally plausible.
    """
    patterns = (
        Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
        Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
    )
    scene = generate_scene(
        patterns,
        agents=((0, 1), (1, 2)),
        speed=float(np.sqrt(2.0)),
        lateral_sigma=lateral_sigma,
        seed=seed,
    )
    corrupted = corrupt(scene.track_lists(), [Swap(0, 1, frame=8)], seed=seed)
    return scene, corrupted


def fragmented_corridor_scene(seed: int = 0) -> tuple[Scene, list[list[Detection]]]:
    """One agent on each of two parallel corridors; the first track is cut in half."""
    patterns = (
        Pattern(((0.0, 0.0), (14.0, 0.0)), 1.0),
        Pattern(((0.0, 6.0), (14.0, 6.0)), 1.0),
    )
    scene = generate_scene(patterns, agents=((0, 1), (1, 4)), speed=1.0, seed=seed)
    corrupted = corrupt(scene.track_lists(), [Fragment(0, frame=8)], seed=seed)
    return scene, corrupted


def two_flow_scene(seed: int = 0) -> tuple[Scene, list[list[Detection]]]:
    """Six agents on two crossing corridors with one swap at the crossing.

    Each corridor carries three agents, so even after the swap both flows
    keep intact exemplars for the pattern miner to generalize from.  Start
    frames are staggered so the trajectory set splits cleanly at the batch
    midpoint, which the unsupervised model selection relies on.
    """
    patterns = (
        Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
        Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
    )
    scene = generate_scene(
        patterns,
        agents=((0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)),
        speed=float(np.sqrt(2.0)),
        seed=seed,
    )
    corrupted = corrupt(scene.track_lists(), [Swap(0, 1, frame=8)], seed=seed)
    return scene, corrupted
