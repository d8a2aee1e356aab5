"""Input generation for the benchmark workloads.

Every scene is built with `ptrack.synth` (generation counts toward set-up
time) and written to plain files by the writers below, so the program under
test only ever sees input files.  Each builder returns the files it wrote
plus the facts the checkers need, computed here and never read back from the
program.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ptrack.core import Pattern
from ptrack.synth import Fragment, Swap, corrupt, generate_scene

SQRT2 = math.sqrt(2.0)

# The two crossing diagonal corridors of the two-flow layout.
CROSS = (
    Pattern(((0.0, 0.0), (12.0, 12.0)), 1.0),
    Pattern(((0.0, 12.0), (12.0, 0.0)), 1.0),
)

# track-noisy: the noisy family at these agent counts, generation seed 1.
NOISY_AGENTS = (3, 4)
NOISY_SEED = 1
# supervised-dense: agent count of the noise-free family.
DENSE_AGENTS = 12
# unsupervised-two-flows: lateral noise of the six-agent layout and the
# generation seed of its noise draws.
TWO_FLOW_SIGMA = 0.05
TWO_FLOW_NOISE_SEED = 1
# eval-crowd: a grid of CROWD_ROWS x CROWD_COLS straight corridors, each
# walked by CROWD_PER_LANE agents.
CROWD_ROWS = 20
CROWD_COLS = 4
CROWD_PER_LANE = 5
CROWD_LANE_STEPS = 60
# eval-crowd: image-plane to ground-plane homography used by the MOT rows.
CROWD_HOMOGRAPHY = np.array(
    [[0.05, 0.002, -3.0], [0.001, 0.06, -2.0], [0.00001, 0.00002, 1.0]]
)


@dataclass
class SceneFiles:
    """One scene on disk, plus reference facts for its checker."""

    name: str
    gt: list  # ground-truth tracks: lists of (frame, x, y)
    broken: list  # the program's input tracks: lists of (frame, x, y)
    batch: tuple[int, int]
    files: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _rows(tracks) -> list[list[tuple[int, float, float]]]:
    return [[(d.frame, d.pos[0], d.pos[1]) for d in t] for t in tracks]


def _canon(tracks) -> list[list[tuple[int, float, float]]]:
    """Round positions the way the files store them (six decimals)."""
    return [[(f, float(f"{x:.6f}"), float(f"{y:.6f}")) for f, x, y in t] for t in tracks]


def write_plain(path: Path, tracks) -> None:
    lines = []
    for tid, track in enumerate(tracks, start=1):
        for f, x, y in track:
            lines.append((f, tid, f"{f},{tid},{x:.6f},{y:.6f}\n"))
    lines.sort(key=lambda r: (r[0], r[1]))
    path.write_text("".join(r[2] for r in lines))


def write_patterns(path: Path, patterns) -> None:
    path.write_text(
        "".join(
            f"{p.width:.6f} " + " ".join(f"{x:.6f} {y:.6f}" for x, y in p.centerline) + "\n"
            for p in patterns
        )
    )


def noisy_family(n: int, sigma: float, jitter: float, seed: int, ops):
    """n agents alternating between the crossing corridors, starting at frames 1..n."""
    agents = tuple((k % 2, k + 1) for k in range(n))
    scene = generate_scene(
        CROSS, agents, speed=SQRT2, lateral_sigma=sigma, speed_jitter=jitter, seed=seed
    )
    return scene, corrupt(scene.track_lists(), ops)


def offset(seed: int) -> tuple[int, int]:
    """A seeded whole-metre shift of the plane.

    Whole-metre shifts of coordinates stored to six decimals leave every
    difference between them, and so every score, (nearly) unchanged: the
    seed moves the scene without changing how much work repairing it takes.
    """
    tx, ty = np.random.default_rng(seed).integers(-1000, 1001, 2)
    return int(tx), int(ty)


def _scene(name, scene, broken, out: Path, shift=(0, 0)) -> SceneFiles:
    def moved(tracks):
        stored = _canon(_rows(tracks))
        return _canon([[(f, x + shift[0], y + shift[1]) for f, x, y in t] for t in stored])

    s = SceneFiles(name, moved(scene.tracks), moved(broken), scene.meta.batch)
    s.files["gt"] = out / f"{name}_gt.csv"
    s.files["broken"] = out / f"{name}_broken.csv"
    write_plain(s.files["gt"], s.gt)
    write_plain(s.files["broken"], s.broken)
    return s


def track_noisy(seed: int, out: Path) -> list[SceneFiles]:
    """Fixed scenes: the repair of each lowers IDF1 today, so they must not vary.

    `seed` is accepted for a uniform interface and deliberately unused.
    """
    del seed
    scenes = []
    corridors = out / "corridors.txt"
    write_patterns(corridors, CROSS)
    for n in NOISY_AGENTS:
        scene, broken = noisy_family(
            n, 0.3, 0.2, NOISY_SEED, [Swap(0, 1, frame=8), Fragment(2, frame=9)]
        )
        s = _scene(f"noisy{n}", scene, broken, out)
        s.files["patterns"] = corridors
        scenes.append(s)
    return scenes


def supervised_dense(seed: int, out: Path) -> list[SceneFiles]:
    """The noise-free family with the noisy family's swap and fragment, shifted by the seed.

    The seed does not pick the corruption: on a noise-free scene every true
    track ties at ratio 1 with its own pieces left as singletons on the empty
    pattern, so some corruptions come back with tracks dropped.
    """
    scene, broken = noisy_family(
        DENSE_AGENTS, 0.0, 0.0, 0, [Swap(0, 1, frame=8), Fragment(2, frame=9)]
    )
    return [_scene("dense", scene, broken, out, offset(seed))]


def unsupervised_two_flows(seed: int, out: Path) -> list[SceneFiles]:
    """The six-agent two-flow layout with fixed noise draws, shifted by the seed.

    The alternation's path, and with it its run time, changes by a factor of
    two from one noise draw to the next, which would drown any change worth
    measuring; so the seed only moves the scene.
    """
    agents = ((0, 1), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6))
    scene = generate_scene(
        CROSS, agents, speed=SQRT2, lateral_sigma=TWO_FLOW_SIGMA, seed=TWO_FLOW_NOISE_SEED
    )
    broken = corrupt(scene.track_lists(), [Swap(0, 1, frame=8)])
    return [_scene("twoflow", scene, broken, out, offset(seed))]


def _crowd_gt(rng) -> list[list[tuple[int, float, float]]]:
    """Agents on a grid of parallel, non-overlapping straight lanes.

    Lanes sit 8 m apart vertically and 20 m apart end to end; agents on one
    lane start at distinct frames and walk at one speed, so no two agents
    ever come within 1 m of each other in the same frame.
    """
    tracks = []
    for row in range(CROWD_ROWS):
        for col in range(CROWD_COLS):
            x0 = col * (CROWD_LANE_STEPS + 20.0)
            y = row * 8.0 + float(rng.uniform(-0.5, 0.5))
            direction = 1.0 if (row + col) % 2 == 0 else -1.0
            starts = np.sort(rng.choice(np.arange(1, 40), size=CROWD_PER_LANE, replace=False))
            for start in starts:
                tracks.append([
                    (int(start) + k, x0 + (k if direction > 0 else CROWD_LANE_STEPS - k), y)
                    for k in range(CROWD_LANE_STEPS + 1)
                ])
    return tracks


def _ground_to_box(x: float, y: float) -> tuple[float, float, float, float]:
    """A box whose bottom centre maps to ground point (x, y) under the homography."""
    u, v, w = np.linalg.solve(CROWD_HOMOGRAPHY, np.array([x, y, 1.0]))
    u, v = u / w, v / w
    width, height = 20.0, 50.0
    return u - width / 2.0, v - height, width, height


def eval_crowd(seed: int, out: Path) -> list[SceneFiles]:
    """A crowd scored as-is: ground truth in plain CSV, fragments-only prediction in MOT form."""
    rng = np.random.default_rng(seed)
    gt = _canon(_crowd_gt(rng))
    pred = []
    cuts = 0
    longest = 0
    for k, track in enumerate(gt):
        n_cuts = k % 4
        # Near-even cuts, jittered by the seed: the IDF1 of the crowd then
        # hardly depends on the seed.
        points = [
            len(track) * j // (n_cuts + 1) + int(rng.integers(-3, 4)) for j in range(1, n_cuts + 1)
        ]
        pieces = [track[a:b] for a, b in zip([0, *points], [*points, len(track)])]
        pred.extend(pieces)
        cuts += n_cuts
        longest += max(len(p) for p in pieces)
    total = sum(len(t) for t in gt)
    s = SceneFiles("crowd", gt, pred, (0, 0))
    s.files["gt"] = out / "crowd_gt.csv"
    s.files["pred"] = out / "crowd_pred.csv"
    s.files["homography"] = out / "crowd_homography.txt"
    write_plain(s.files["gt"], gt)
    rows = []
    for tid, track in enumerate(pred, start=1):
        for f, x, y in track:
            left, top, width, height = _ground_to_box(x, y)
            rows.append((f, tid, f"{f},{tid},{left:.6f},{top:.6f},{width:.6f},{height:.6f},1,-1,-1,-1\n"))
    rows.sort(key=lambda r: (r[0], r[1]))
    s.files["pred"].write_text("".join(r[2] for r in rows))
    s.files["homography"].write_text(
        "\n".join(" ".join(f"{v:.12g}" for v in row) for row in CROWD_HOMOGRAPHY) + "\n"
    )
    s.facts = {"idf1": longest / total, "mota": 1.0 - cuts / total}
    return [s]


BUILDERS = {
    "track-noisy": track_noisy,
    "supervised-dense": supervised_dense,
    "unsupervised-two-flows": unsupervised_two_flows,
    "eval-crowd": eval_crowd,
}
