"""Identity and per-frame tracking metrics."""
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import ptrack.core
import ptrack.metrics
from ptrack import Detection, TrackTable
from ptrack.core import _gate_pairs
from ptrack.metrics import (
    METRIC_COLUMNS,
    ClearReport,
    IdfReport,
    MatchConfig,
    _unit,
    clear_scores,
    idf1,
    summarize,
    track_coverage,
)

from oracles import idf1_by_enumeration
from reference_metrics import reference_gate_pairs


def det(frame, x, y=0.0):
    return Detection(frame, (float(x), float(y)))


def straight_track(frames, y=0.0, x0=None):
    return [det(f, f if x0 is None else x0 + k, y) for k, f in enumerate(frames)]


def shattered_fixture():
    """One true track; prediction keeps a 3-frame prefix then alternates
    between matching singletons and far-off clutter."""
    gt = [straight_track(range(1, 11))]
    pred = [straight_track(range(1, 4))]
    for f in range(4, 11):
        on_track = f in (4, 7, 10)
        pred.append([det(f, f, 0.0 if on_track else 9.0)])
    return gt, pred


class TestIdf1:
    def test_shattered_prediction_scores_030(self):
        gt, pred = shattered_fixture()
        rep = idf1(gt, pred)
        assert (rep.idtp, rep.idfp, rep.idfn) == (3, 7, 7)
        assert rep.idf1 == pytest.approx(0.30, abs=1e-9)
        assert rep.idpr == pytest.approx(0.30, abs=1e-9)
        assert rep.idrc == pytest.approx(0.30, abs=1e-9)

    def test_perfect_prediction(self):
        gt = [straight_track(range(1, 6)), straight_track(range(2, 7), y=10.0)]
        rep = idf1(gt, [list(t) for t in gt])
        assert rep == IdfReport(1.0, 1.0, 1.0, 10, 0, 0)

    def test_empty_prediction(self):
        gt = [straight_track(range(1, 6))]
        rep = idf1(gt, [])
        assert rep == IdfReport(0.0, 0.0, 0.0, 0, 0, 5)

    def test_both_empty(self):
        assert idf1([], []) == IdfReport(1.0, 1.0, 1.0, 0, 0, 0)

    def test_empty_truth_nonempty_prediction(self):
        rep = idf1([], [straight_track([1, 2])])
        assert rep.idf1 == 0.0 and rep.idfp == 2 and rep.idrc == 1.0

    def test_harmonic_mean_identity(self):
        gt, pred = shattered_fixture()
        rep = idf1(gt, pred)
        assert rep.idf1 == pytest.approx(2.0 / (1.0 / rep.idpr + 1.0 / rep.idrc), rel=1e-12)

    def test_matches_exhaustive_track_matching(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            def random_tracks():
                tracks = []
                for _ in range(int(rng.integers(0, 4))):
                    frames = sorted(
                        int(f) for f in rng.choice(5, size=int(rng.integers(1, 5)), replace=False)
                    )
                    tracks.append(
                        [det(f, float(rng.integers(0, 6)), float(rng.integers(0, 6))) for f in frames]
                    )
                return tracks

            gt, pred = random_tracks(), random_tracks()
            got = idf1(gt, pred, MatchConfig(3.0)).idf1
            want = idf1_by_enumeration(gt, pred, 3.0)
            assert got == pytest.approx(want, abs=1e-12)

    def test_shrinking_gate_never_helps(self):
        gt = [straight_track(range(1, 8))]
        pred = [[det(f, f, 0.5) for f in range(1, 8)]]
        scores = [idf1(gt, pred, MatchConfig(g)).idf1 for g in (3.0, 1.0, 0.4)]
        assert scores[0] >= scores[1] >= scores[2]
        assert scores == [1.0, 1.0, 0.0]


def overlap_by_frame_loop(gt, pred, max_dist):
    """Co-occurring in-gate frames of each track pair: every same-frame pair, one by one."""
    counts = np.zeros((len(gt), len(pred)), dtype=int)
    pred_at: dict = {}
    for p, track in enumerate(pred):
        for d in track:
            pred_at.setdefault(d.frame, []).append((p, d.pos))
    for g, track in enumerate(gt):
        for d in track:
            for p, pos in pred_at.get(d.frame, []):
                if math.dist(d.pos, pos) <= max_dist:
                    counts[g, p] += 1
    return counts


def idtp_by_padded_matrix(gt, pred, max_dist):
    """The former IDTP: minimal disagreement over a (n_g + n_p)^2 padded cost."""
    overlap = overlap_by_frame_loop(gt, pred, max_dist)
    n_g, n_p = len(gt), len(pred)
    len_g = np.array([len(t) for t in gt], dtype=float)
    len_p = np.array([len(t) for t in pred], dtype=float)
    big = float(len_g.sum() + len_p.sum() + 1)
    cost = np.zeros((n_g + n_p, n_g + n_p))
    if n_g and n_p:
        cost[:n_g, :n_p] = len_g[:, None] + len_p[None, :] - 2.0 * overlap
    cost[:n_g, n_p:] = big
    cost[n_g:, :n_p] = big
    np.fill_diagonal(cost[:n_g, n_p:], len_g)
    np.fill_diagonal(cost[n_g:, :n_p], len_p)
    rows, cols = linear_sum_assignment(cost)
    return int(sum(overlap[r, c] for r, c in zip(rows, cols) if r < n_g and c < n_p))


def random_tracks(rng, n_tracks, n_frames, grid, frame0=0, offset=0.0):
    """Tracks with frame gaps (and some empty) on an integer position grid."""
    tracks = []
    for _ in range(n_tracks):
        size = int(rng.integers(0, n_frames + 1))
        frames = sorted(int(f) for f in rng.choice(n_frames, size=size, replace=False))
        tracks.append(
            [det(frame0 + f, offset + int(rng.integers(0, grid)), offset + int(rng.integers(0, grid)))
             for f in frames]
        )
    return tracks


def overlap_counts(gt: TrackTable, pred: TrackTable, max_dist):
    """Co-occurring in-gate frames of each (gt, pred) track pair, counted off the gate pairs.

    Each pair must be one of a single frame, listed once; the costs that
    `clear_scores` builds from the pairs must be their exact distances.
    """
    i, j = _gate_pairs(gt, pred, max_dist)
    assert len({(a, b) for a, b in zip(i.tolist(), j.tolist())}) == len(i)
    assert np.array_equal(gt.frames[i], pred.frames[j])
    if len(gt.frames):
        assert_exact_leftover_costs(gt, pred, max_dist)
    counts = np.zeros((len(gt), len(pred)), dtype=int)
    np.add.at(counts, (gt.owner[i], pred.owner[j]), 1)
    return counts


def assert_exact_leftover_costs(gt: TrackTable, pred: TrackTable, max_dist):
    """Each frame that `clear_scores` matches one by one gets the exact `math.dist` costs.

    The cost of the frame's rows (truth by predicted, in table order) is
    their distance in `_unit`s inside the gate and a million gates outside.
    """
    with mock.patch.object(ptrack.metrics, "_match_frame", wraps=ptrack.metrics._match_frame) as spy:
        clear_scores(gt, pred, MatchConfig(max_dist))
    unit = _unit(max_dist)
    want = []
    for frame in sorted(unsettled_frames(gt.tracks(), pred.tracks(), max_dist)):
        g_pos, p_pos = gt.pos[gt.frames == frame], pred.pos[pred.frames == frame]
        if len(g_pos) and len(p_pos):
            dist = [[math.dist(g, p) for p in p_pos] for g in g_pos]
            want.append([[d / unit if d <= max_dist else max_dist / unit * 1e6 for d in row] for row in dist])
    assert [call.args[2].tolist() for call in spy.call_args_list] == want


class TestOverlapCounts:
    def assert_same(self, gt, pred, max_dist):
        got = overlap_counts(TrackTable.from_tracks(gt), TrackTable.from_tracks(pred), max_dist)
        want = overlap_by_frame_loop(gt, pred, max_dist)
        assert got.shape == want.shape
        assert np.array_equal(got, want)
        return got

    def test_random_integer_scenes_with_pairs_on_the_gate(self):
        # On a 0..9 grid at gate 5 many pairs sit exactly on it (3-4-5, 0-5).
        rng = np.random.default_rng(7)
        on_gate = 0
        for _ in range(150):
            gt = random_tracks(rng, int(rng.integers(0, 8)), 6, 10)
            pred = random_tracks(rng, int(rng.integers(0, 8)), 6, 10)
            got = self.assert_same(gt, pred, 5.0)
            tables = TrackTable.from_tracks(gt), TrackTable.from_tracks(pred)
            on_gate += int(got.sum() - overlap_counts(*tables, math.nextafter(5.0, 0.0)).sum())
        assert on_gate > 100

    def test_pythagorean_triangle_sits_on_the_gate(self):
        gt = [[det(1, 0, 0)]]
        pred = [[det(1, 3, 4)], [det(1, -4, 3)], [det(1, 5, 0)], [det(1, 6, 0)]]
        assert self.assert_same(gt, pred, 5.0).tolist() == [[1, 1, 1, 0]]

    def test_partners_one_ulp_inside_and_outside(self):
        for base in (0.0, 1000.0, -1000.0):
            for gate in (5.0, 0.01, 3.0):
                inside = math.nextafter(base + gate, -math.inf)
                outside = math.nextafter(base + gate, math.inf)
                gt = [[det(f, base, base) for f in (1, 2, 3)]]
                pred = [
                    [det(1, inside, base), det(2, base, inside)],
                    [det(1, outside, base), det(3, base, outside)],
                    [det(3, base + gate, base)],
                ]
                counts = self.assert_same(gt, pred, gate)
                assert counts[0, 0] == 2 and counts[0, 1] == 0

    def test_partners_at_the_gate_distance_in_all_directions(self):
        # Partners placed at the gate's distance in random directions land
        # within a few ulps of it, on either side; the sum of squares a
        # KD-tree compares with the squared radius rounds differently from
        # math.dist on many of them.  One predicted track per frame, so the
        # counts show every single decision.
        rng = np.random.default_rng(13)
        for offset, gate in ((0.0, 3.0), (1000.0, 5.0), (-1000.0, 0.01), (1000.0, 0.01)):
            gt, pred = [[]], []
            for f in range(300):
                g = (offset + rng.uniform(-1, 1), offset + rng.uniform(-1, 1))
                a = rng.uniform(0.0, 2.0 * math.pi)
                gt[0].append(det(f, *g))
                pred.append([det(f, g[0] + gate * math.cos(a), g[1] + gate * math.sin(a))])
            counts = self.assert_same(gt, pred, gate)
            assert 0 < counts.sum() < len(pred)

    def test_far_coordinates_and_late_frames(self):
        rng = np.random.default_rng(11)
        for offset in (1000.0, -1000.0):
            for frame0 in (0, 10**6 - 3):
                gt = random_tracks(rng, 12, 8, 4, frame0, offset)
                pred = random_tracks(rng, 20, 8, 4, frame0, offset)
                assert self.assert_same(gt, pred, 1.0).sum() > 0

    def test_small_gate_near_and_across_it(self):
        # Partners displaced by 0.009 to 0.011 in random directions, around
        # the 0.01 gate, at far coordinates and late frames.
        rng = np.random.default_rng(3)
        for offset, frame0 in ((0.0, 0), (1000.0, 10**6), (-1000.0, 17)):
            gt = random_tracks(rng, 10, 12, 50, frame0, offset)
            pred = []
            for track in gt:
                moved = []
                for d in track:
                    r, a = rng.uniform(0.009, 0.011), rng.uniform(0.0, 2.0 * math.pi)
                    moved.append(det(d.frame, d.pos[0] + r * math.cos(a), d.pos[1] + r * math.sin(a)))
                pred.extend([moved[::2], moved[1::2]])
            counts = self.assert_same(gt, pred, 0.01)
            assert 0 < counts.sum() < sum(len(t) for t in gt)

    def test_frames_beyond_float_precision_stay_apart(self):
        # Near 2**60 the tree's frame coordinate (frame * 12) rounds to a
        # multiple of 2048, so neighbouring frames share it; the exact frame
        # test keeps them apart.
        base = 2**60
        gt = [[det(base + k, 0.0) for k in range(4)]]
        pred = [[det(base + k, 0.0) for k in (1, 2)], [det(base + k, 0.0) for k in (0, 3)]]
        assert self.assert_same(gt, pred, 3.0).tolist() == [[2, 2]]

    def test_empty_tracks_and_empty_inputs(self):
        track = straight_track(range(1, 4))
        for gt, pred in (([], []), ([], [track]), ([track], []), ([[]], [[]]), ([[], track], [track, []])):
            self.assert_same(gt, pred, 3.0)
        tables = TrackTable.from_tracks([[], track]), TrackTable.from_tracks([track, []])
        assert overlap_counts(*tables, 3.0).tolist() == [[0, 0], [3, 0]]

    def test_idtp_equals_padded_minimum_disagreement(self):
        # Dense overlaps on a 3x3 grid make many assignments tie.
        rng = np.random.default_rng(5)
        sizes = [(int(rng.integers(0, 41)), int(rng.integers(0, 81))) for _ in range(30)]
        for n_g, n_p in sizes + [(40, 80), (80, 40), (0, 5), (5, 0)]:
            gt = random_tracks(rng, n_g, 15, 3)
            pred = random_tracks(rng, n_p, 15, 3)
            assert idf1(gt, pred, MatchConfig(1.0)).idtp == idtp_by_padded_matrix(gt, pred, 1.0)


def pair_set(pairs):
    return set(zip(pairs[0].tolist(), pairs[1].tolist()))


class TestJoinAgainstKDTree:
    """The sort-based join finds the pairs that the former KD-tree query found."""

    def assert_same(self, gt, pred, max_dist):
        tables = TrackTable.from_tracks(gt), TrackTable.from_tracks(pred)
        got = pair_set(_gate_pairs(*tables, max_dist))
        assert got == pair_set(reference_gate_pairs(*tables, max_dist))
        return got

    def test_random_integer_scenes_with_pairs_on_the_gate(self):
        # Gates at and one ulp below a power of two sit at the edges of the
        # cell-side rule.
        rng = np.random.default_rng(17)
        for _ in range(100):
            gt = random_tracks(rng, int(rng.integers(0, 8)), 6, 10)
            pred = random_tracks(rng, int(rng.integers(0, 8)), 6, 10)
            for gate in (5.0, 4.0, math.nextafter(4.0, 0.0), 2.0, 1.0):
                self.assert_same(gt, pred, gate)

    def test_partners_one_ulp_inside_and_outside(self):
        for base in (0.0, 1000.0, -1000.0, 2.0**40):
            for gate in (5.0, 4.0, 0.01, 3.0, 2.0**-20):
                gt = [[det(f, base, base) for f in (1, 2, 3, 4)]]
                pred = []
                for f, side in ((1, -math.inf), (2, math.inf)):
                    edge = math.nextafter(base + gate, side)
                    low = math.nextafter(base - gate, -side)
                    pred += [[det(f, edge, base)], [det(f, base, edge)], [det(f, low, base)], [det(f, base, low)]]
                pred += [[det(3, base + gate, base)], [det(4, base, base - gate)]]
                got = self.assert_same(gt, pred, gate)
                assert 0 < len(got) < len(pred)

    def test_frames_at_and_beyond_2_53(self):
        rng = np.random.default_rng(19)
        for base in (2**53 - 3, 2**53, 2**62, 2**63 - 8):
            # Dense frames take offsets from the first; sparse ones, down to
            # a frame below 7, take ranks.
            for spread in (1, 2**20, base // 7):
                frames = [base - 7 * spread, base, base + 1, base + 2, base + 3]
                gt = [[det(f, int(rng.integers(0, 4)), int(rng.integers(0, 4))) for f in frames] for _ in range(3)]
                pred = [[det(f, int(rng.integers(0, 4)), int(rng.integers(0, 4))) for f in frames] for _ in range(4)]
                assert self.assert_same(gt, pred, 1.5)

    def test_a_narrow_column_far_along_y(self):
        # A few columns leave room for a row span above 2**53, where a
        # float offset from the lowest cell would round two neighbouring
        # cells 64 apart.
        for far in (-(2.0**59), 2.0**59, -(2.0**62), 2.0**62, -1e300):
            gt = [[det(1, 0.0, 65.9)], [det(1, 0.0, far)]]
            pred = [[det(1, 0.0, 66.1)], [det(1, 3.0, far)]]
            # The KD-tree overflows squaring 1e300.
            got = pair_set(_gate_pairs(TrackTable.from_tracks(gt), TrackTable.from_tracks(pred), 1.0))
            assert got == {(0, 0)}
            if abs(far) < 1e150:
                assert self.assert_same(gt, pred, 1.0) == got

    @pytest.mark.parametrize("k", [-300, -100, -20, 0, 20, 100, 300])
    def test_coordinates_scaled_by_a_power_of_two(self, k):
        # Scaling is exact, so the scaled scenes pair the same rows.
        rng = np.random.default_rng(23)
        for _ in range(20):
            gt = random_tracks(rng, int(rng.integers(1, 8)), 6, 10, offset=-5.0)
            pred = random_tracks(rng, int(rng.integers(1, 8)), 6, 10, offset=-5.0)

            def scaled(tracks):
                return [[det(d.frame, math.ldexp(d.pos[0], k), math.ldexp(d.pos[1], k)) for d in t] for t in tracks]

            got = self.assert_same(scaled(gt), scaled(pred), math.ldexp(5.0, k))
            assert got == self.assert_same(gt, pred, 5.0)

    @pytest.mark.parametrize(
        "gate", [5e-324, 3 * 5e-324, 2.0**-1023, 2.0**-1022 - 5e-324, 2.0**-1022, 1e-300, 1.0, 1e300, 2.0**1023,
                 1.7976931348623157e308],
    )
    def test_gates_from_subnormal_to_the_largest_float(self, gate):
        rng = np.random.default_rng(29)
        for scale in (gate / 5.0, 1.0):
            if scale == 0.0:
                continue
            for _ in range(10):
                scenes = [random_tracks(rng, int(rng.integers(1, 6)), 5, 9, offset=-4.0) for _ in range(2)]
                gt, pred = ([[det(d.frame, d.pos[0] * scale, d.pos[1] * scale) for d in t] for t in side]
                            for side in scenes)
                self.assert_same(gt, pred, gate)


class TestJoinCandidates:
    @pytest.mark.parametrize("along", ["y", "x"])
    def test_a_queue_examines_linearly_many_candidates(self, monkeypatch, along):
        # One frame, 5 000 truth rows on a line 10 apart and a partner of
        # each 0.5 off it: a sweep along x alone examines n**2 candidates
        # on the queue along y.
        n = 5000
        examined = []
        candidates = ptrack.core._candidates
        monkeypatch.setattr(
            ptrack.core, "_candidates", lambda lo, hi: examined.append(int((hi - lo).sum())) or candidates(lo, hi)
        )

        def line(off):
            return TrackTable.from_tracks(
                [[det(0, off, 10.0 * k) if along == "y" else det(0, 10.0 * k, off)] for k in range(n)]
            )

        i, j = _gate_pairs(line(0.0), line(0.5), 3.0)
        assert sorted(zip(i.tolist(), j.tolist())) == [(k, k) for k in range(n)]
        assert len(examined) == 1 and examined[0] <= 4 * n


def clear_by_frame_loop(gt, pred, max_dist):
    """The former `clear_scores`: per-frame dicts, one pair at a time."""
    total_gt = sum(len(t) for t in gt)
    total_pred = sum(len(t) for t in pred)
    if total_gt == 0:
        if total_pred == 0:
            return ClearReport(1.0, 1.0, 1.0, 0, 0, 0, 0, ())
        raise ValueError("no ground-truth detections to evaluate against")

    def frame_table(tracks):
        table = {}
        for t_idx, track in enumerate(tracks):
            for d in track:
                table.setdefault(d.frame, []).append((t_idx, d.pos))
        return table

    gt_frames = frame_table(gt)
    pred_frames = frame_table(pred)
    frames = sorted(set(gt_frames) | set(pred_frames))
    last_match = {}
    matched_frames = [0] * len(gt)
    tp = fp = fn = switches = 0
    for frame in frames:
        gt_here = gt_frames.get(frame, [])
        pred_here = pred_frames.get(frame, [])
        pred_pos = {p: pos for p, pos in pred_here}
        pairs = []
        used_p = set()
        leftover_g = []
        for g, gpos in gt_here:
            p = last_match.get(g)
            if p is not None and p in pred_pos and p not in used_p and math.dist(gpos, pred_pos[p]) <= max_dist:
                pairs.append((g, p))
                used_p.add(p)
            else:
                leftover_g.append((g, gpos))
        leftover_p = [(p, pos) for p, pos in pred_here if p not in used_p]
        if leftover_g and leftover_p:
            dist = np.array(
                [[math.dist(gpos, ppos) for _, ppos in leftover_p] for _, gpos in leftover_g]
            )
            gated = np.where(dist <= max_dist, dist, max_dist * 1e6)
            rows, cols = linear_sum_assignment(gated)
            for r, c in zip(rows, cols):
                if dist[r, c] <= max_dist:
                    pairs.append((leftover_g[r][0], leftover_p[c][0]))
        for g, p in pairs:
            prev = last_match.get(g)
            if prev is not None and prev != p:
                switches += 1
            last_match[g] = p
            matched_frames[g] += 1
        tp += len(pairs)
        fp += len(pred_here) - len(pairs)
        fn += len(gt_here) - len(pairs)
    mota = 1.0 - (fp + fn + switches) / total_gt
    precision = tp / (tp + fp) if (tp + fp) else 1.0
    recall = tp / total_gt
    return ClearReport(mota, precision, recall, tp, fp, fn, switches, tuple(matched_frames))


def tracks_with_repeats(rng, n_tracks, n_frames, grid):
    """Tracks whose frames may repeat and come in any order, some empty."""
    tracks = []
    for _ in range(n_tracks):
        frames = rng.choice(n_frames, size=int(rng.integers(0, n_frames + 1)), replace=True)
        if rng.random() < 0.5:
            frames = np.sort(frames)
        tracks.append([det(int(f), int(rng.integers(0, grid)), int(rng.integers(0, grid))) for f in frames])
    return tracks


class TestClearAgainstFrameLoop:
    """`clear_scores` against the former per-frame loop, from lists and from tables."""

    def assert_same(self, gt, pred, max_dist):
        want = clear_by_frame_loop(gt, pred, max_dist)
        cfg = MatchConfig(max_dist)
        assert clear_scores(gt, pred, cfg) == want
        assert clear_scores(TrackTable.from_tracks(gt), TrackTable.from_tracks(pred), cfg) == want
        return want

    def test_random_scenes_with_switches_and_pairs_on_the_gate(self):
        # On a 0..5 grid at gate 1 or 5 many pairs sit exactly on the gate,
        # and crowded frames make partners change hands.
        rng = np.random.default_rng(17)
        switches = on_gate = 0
        for _ in range(200):
            gate = float(rng.choice([1.0, 5.0]))
            gt = random_tracks(rng, int(rng.integers(0, 8)), 8, 6)
            pred = random_tracks(rng, int(rng.integers(0, 10)), 8, 6)
            if not any(gt):
                continue
            rep = self.assert_same(gt, pred, gate)
            switches += rep.id_switches
            on_gate += rep.tp - clear_by_frame_loop(gt, pred, math.nextafter(gate, 0.0)).tp
        assert switches > 50 and on_gate > 50

    def test_random_tracks_with_two_detections_in_one_frame(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            gt = tracks_with_repeats(rng, int(rng.integers(1, 6)), 5, 4)
            pred = tracks_with_repeats(rng, int(rng.integers(0, 7)), 5, 4)
            if any(gt):
                self.assert_same(gt, pred, float(rng.choice([1.0, 2.0])))

    def test_tracks_listed_out_of_frame_order(self):
        # With every frame settled, the matches of a truth track whose list
        # is out of frame order are still taken in time order.
        rng = np.random.default_rng(31)
        settled = switches = 0
        for _ in range(100):
            gt = random_tracks(rng, int(rng.integers(1, 6)), 10, 50)
            pred = []
            for track in gt:
                cut = int(rng.integers(0, len(track) + 1))
                pred += [track[:cut], track[cut:]]
            for track in gt + pred:
                rng.shuffle(track)
            if any(gt):
                settled += not unsettled_frames(gt, pred, 1.0)
                switches += self.assert_same(gt, pred, 1.0).id_switches
        assert settled > 80 and switches > 50

    def test_far_coordinates_and_small_gates(self):
        rng = np.random.default_rng(29)
        for offset, gate in ((1000.0, 1.0), (-1000.0, 0.01), (0.0, 0.01)):
            gt = random_tracks(rng, 12, 10, 3, frame0=10**6, offset=offset)
            pred = []
            for track in gt:
                moved = [
                    det(d.frame, d.pos[0] + rng.uniform(-gate, gate), d.pos[1] + rng.uniform(-gate, gate))
                    for d in track
                ]
                pred.extend([moved[::3], moved[1::3], moved[2::3]])
            rep = self.assert_same(gt, pred, gate)
            assert rep.tp > 0 and rep.id_switches > 0

    def test_two_truth_tracks_carry_over_one_predicted_track(self):
        # Predicted track 0 matches truth 0 at frame 1 and truth 1 at frame 2;
        # at frame 3 both claim it, and the first in track order keeps it
        # unless it is outside that track's gate; truth 1 then switches to
        # predicted track 1, or truth 0 finds no partner.
        for x0, switches, matched in ((0.0, 1, (2, 2)), (2.0, 0, (1, 2))):
            gt = [[det(1, 0.0), det(3, x0)], [det(2, 0.0), det(3, 0.5)]]
            pred = [[det(1, 0.0), det(2, 0.0), det(3, 0.4)], [det(3, 0.0)]]
            rep = self.assert_same(gt, pred, 1.0)
            assert (rep.id_switches, rep.gt_matched_frames) == (switches, matched)

    def test_a_carried_track_twice_in_a_frame_takes_both_its_rows(self):
        # At frame 2 predicted track 0 has a row on each truth track, each
        # row that truth row's only partner.  Truth 1 carries track 0 over,
        # which takes both of its rows out of the leftover: truth 0 goes
        # unmatched, where the gate pairs alone would match it.
        gt = [[det(1, 0.0), det(2, 0.0)], [det(1, 10.0), det(2, 10.0)]]
        pred = [[det(1, 10.0), det(2, 0.0), det(2, 10.0)], [det(1, 0.0)]]
        rep = self.assert_same(gt, pred, 1.0)
        assert (rep.tp, rep.fp, rep.fn, rep.id_switches) == (3, 1, 1, 0)

    def test_a_truth_track_twice_in_a_frame_carries_before_its_leftover(self):
        # At frame 2 the truth track's second row carries predicted track 1
        # over and its first row takes track 0: one switch, 1 -> 0, where
        # row order (0, then 1) would count two.
        gt = [[det(1, 10.0), det(2, 0.0), det(2, 10.0)]]
        pred = [[det(2, 0.0)], [det(1, 10.0), det(2, 10.0)]]
        rep = self.assert_same(gt, pred, 1.0)
        assert (rep.tp, rep.id_switches) == (3, 1)

    def test_empty_tracks_and_a_truth_track_twice_in_a_frame(self):
        gt = [[], [det(1, 0.0), det(2, 0.0), det(2, 0.2)], []]
        pred = [[], [det(1, 0.0), det(2, 0.0)], [det(2, 0.3)], []]
        rep = self.assert_same(gt, pred, 1.0)
        assert rep.gt_matched_frames == (0, 3, 0) and rep.id_switches == 1
        self.assert_same([[det(1, 0.0)], []], [[], []], 1.0)


def unsettled_frames(gt, pred, max_dist):
    """Frames with a row in two gate pairs or a track with two rows, one by one."""
    rows = {}
    for side, tracks in enumerate((gt, pred)):
        for t, track in enumerate(tracks):
            for d in track:
                rows.setdefault(d.frame, ([], []))[side].append((t, d.pos))
    found = set()
    for frame, (g_rows, p_rows) in rows.items():
        near = [[math.dist(g, p) <= max_dist for _, p in p_rows] for _, g in g_rows]
        crowded = any(sum(r) > 1 for r in near) or any(sum(c) > 1 for c in zip(*near))
        twice = any(len({t for t, _ in side}) < len(side) for side in (g_rows, p_rows))
        if crowded or twice:
            found.add(frame)
    return found


def lane_scene(rng, n_frames=240):
    """Six lanes walked for `n_frames` frames, at gate 1, mostly one row per partner.

    Each lane's prediction is its truth moved by up to 0.3 and cut into four
    pieces.  Two walkers cross every lane, so near each crossing a row has
    two partners.  At frame 10 a predicted track has a second, far-off row,
    the only thing unsettling that frame; at frame 110 lane 1's predicted row
    steps out of the gate while a one-row track sits inside it, so the
    carried partner is lost for a frame and regained after.
    """
    def moved(track):
        return [det(d.frame, d.pos[0] + rng.uniform(-0.3, 0.3), d.pos[1] + rng.uniform(-0.3, 0.3))
                for d in track]

    gt, pred = [], []
    for lane in range(6):
        track = [det(f, 0.1 * f, 5.0 * lane) for f in range(n_frames)]
        gt.append(track)
        noisy = moved(track)
        if lane == 1:
            noisy[110] = det(110, noisy[110].pos[0], 5.0 + 1.5)
            pred.append([det(110, 11.0, 5.0 - 0.2)])
        inner = sorted(rng.choice(np.arange(20, n_frames - 20), 3, replace=False).tolist())
        cuts = [0, *inner, n_frames]
        pred.extend(noisy[a:b] for a, b in zip(cuts, cuts[1:]))
    for start in (30, 140):
        walker = [det(f, 0.1 * f + 0.5, 0.25 * (f - start) - 2.0) for f in range(start, start + 120)]
        gt.append(walker)
        pred.append(moved(walker))
    pred[0].append(det(10, 50.0, 0.0))
    return gt, pred


class TestSettledFrames:
    """Long scenes that mix settled frames with ones matched frame by frame."""

    def test_lanes_with_crossings_fragments_and_a_lost_partner(self):
        rng = np.random.default_rng(41)
        for _ in range(3):
            gt, pred = lane_scene(rng)
            unsettled = unsettled_frames(gt, pred, 1.0)
            assert 10 in unsettled and 110 not in unsettled
            assert 20 < len(unsettled) < 120
            rep = TestClearAgainstFrameLoop().assert_same(gt, pred, 1.0)
            # Eighteen cuts, and the lost partner costs two switches and one false positive.
            assert rep.id_switches >= 20 and rep.fp >= 2
            assert idf1(gt, pred, MatchConfig(1.0)).idtp == idtp_by_padded_matrix(gt, pred, 1.0)

    def test_random_lanes_at_several_gates(self):
        # Lanes 2 apart with noise up to 0.9 on each axis: at gate 1.5 a few
        # frames have a row with two partners, at gate 2 many do.
        rng = np.random.default_rng(43)
        for gate in (1.5, 2.0):
            gt = [[det(f, 0.2 * f, 2.0 * k) for f in range(int(rng.integers(0, 20)), 200)] for k in range(5)]
            pred = []
            for track in gt:
                noisy = [det(d.frame, d.pos[0] + rng.uniform(-0.9, 0.9), d.pos[1] + rng.uniform(-0.9, 0.9))
                         for d in track if rng.random() < 0.95]
                cut = int(rng.integers(0, len(noisy)))
                pred.extend([noisy[:cut], noisy[cut:]])
            assert 0 < len(unsettled_frames(gt, pred, gate)) < 200
            TestClearAgainstFrameLoop().assert_same(gt, pred, gate)
            assert idf1(gt, pred, MatchConfig(gate)).idtp == idtp_by_padded_matrix(gt, pred, gate)


def swapped_lanes(rng, n_tracks, n_frames):
    """Lanes 2 apart at gate 1, and a prediction with tails swapped between lanes and cut.

    A swap puts two truth tracks and two predicted tracks in one block of
    the overlap graph; a cut adds a predicted track.
    """
    gt = [[det(f, 0.5 * f, 2.0 * k) for f in range(int(rng.integers(0, 5)), n_frames)] for k in range(n_tracks)]
    pred = [list(t) for t in gt]
    for _ in range(int(rng.integers(1, 4))):
        a, b = rng.choice(len(pred), 2, replace=False)
        frame = int(rng.integers(0, n_frames))
        pred[a], pred[b] = ([d for d in pred[a] if d.frame < frame] + [d for d in pred[b] if d.frame >= frame],
                            [d for d in pred[b] if d.frame < frame] + [d for d in pred[a] if d.frame >= frame])
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(0, len(pred)))
        cut = int(rng.integers(0, len(pred[k]) + 1))
        pred[k:k + 1] = [pred[k][:cut], pred[k][cut:]]
    return gt, pred


class TestIdf1Blocks:
    # At the default cell limit every scene runs one dense assignment; at 0
    # the blocks other than stars share one over their own tracks.
    @pytest.mark.parametrize("cells", [None, 0])
    def test_swaps_and_cuts_match_the_padded_matrix(self, monkeypatch, cells):
        if cells is not None:
            monkeypatch.setattr(ptrack.metrics, "_ONE_ASSIGNMENT_CELLS", cells)
        matrices = []
        assign = ptrack.metrics.linear_sum_assignment
        monkeypatch.setattr(
            ptrack.metrics, "linear_sum_assignment", lambda m, **kw: matrices.append(m) or assign(m, **kw)
        )
        rng = np.random.default_rng(31)
        for _ in range(60):
            gt, pred = swapped_lanes(rng, int(rng.integers(2, 7)), 25)
            assert idf1(gt, pred, MatchConfig(1.0)).idtp == idtp_by_padded_matrix(gt, pred, 1.0)
        # Many scenes had a block with two or more tracks on both sides.
        assert sum(min(m.shape) >= 2 for m in matrices) > 30

    def test_stars_run_no_assignment(self, monkeypatch):
        # Each truth track overlaps only its own pieces, as in a crowd cut
        # into fragments; some tracks are whole.
        calls = []
        monkeypatch.setattr(ptrack.metrics, "linear_sum_assignment", lambda *a, **kw: calls.append(a))
        rng = np.random.default_rng(37)
        gt = [[det(f, 0.5 * f, 2.0 * k) for f in range(40)] for k in range(100)]
        pred, longest = [], 0
        for track in gt:
            cuts = sorted(rng.choice(np.arange(1, 40), int(rng.integers(0, 4)), replace=False).tolist())
            pieces = [track[a:b] for a, b in zip([0, *cuts], [*cuts, 40])]
            pred += pieces
            longest += max(map(len, pieces))
        assert len(gt) * len(pred) > ptrack.metrics._ONE_ASSIGNMENT_CELLS
        assert idf1(gt, pred, MatchConfig(1.0)).idtp == longest
        # A predicted track overlapping two truth tracks that meet is a star too.
        monkeypatch.setattr(ptrack.metrics, "_ONE_ASSIGNMENT_CELLS", 0)
        meeting = [[det(0, 0.0), det(1, 0.0)], [det(0, 3.0), det(1, 3.0)]]
        assert idf1(meeting, [[det(0, 1.5), det(1, 1.5)]], MatchConfig(1.5)).idtp == 2
        assert calls == []

    def test_many_blocks_share_one_assignment(self, monkeypatch):
        # 150 pairs of lanes, each pair's prediction swapped at its own frame:
        # 150 blocks of two truth and two predicted tracks, 300 x 300
        # together.  The second lane of a pair starts late, so taking each
        # truth track's largest overlap alone would count some frames twice,
        # and the two lanes of a block are 150 tracks apart in the table.
        shapes = []
        assign = ptrack.metrics.linear_sum_assignment
        monkeypatch.setattr(
            ptrack.metrics, "linear_sum_assignment", lambda m, **kw: shapes.append(m.shape) or assign(m, **kw)
        )
        first, second, pred, want = [], [], [], 0
        for b in range(150):
            start, swap = 2 * (b % 5), 10 + b % 7
            a = [det(f, 0.5 * f, 10.0 * b) for f in range(20)]
            c = [det(f, 0.5 * f, 10.0 * b + 2.0) for f in range(start, 20)]
            first.append(a)
            second.append(c)
            pred += [a[:swap] + c[swap - start:], c[:swap - start] + a[swap:]]
            want += max(2 * swap - start, 2 * (20 - swap))
        gt = first + second
        assert 300 * 300 > ptrack.metrics._ONE_ASSIGNMENT_CELLS
        assert idf1(gt, pred, MatchConfig(1.0)).idtp == want == idtp_by_padded_matrix(gt, pred, 1.0)
        assert shapes == [(300, 300)]


class TestLargeGates:
    @pytest.mark.parametrize("gate", [1e200, 1e303])
    def test_summarize_scales_with_positions_and_gate(self, gate):
        # Scaling by a power of two is exact, so every distance and every
        # gate decision scales with it; the scores must not move.
        e = math.frexp(gate)[1] - 1
        gt, pred = lane_scene(np.random.default_rng(47), n_frames=120)

        def scaled(k):
            tracks = [[det(d.frame, math.ldexp(d.pos[0], k), math.ldexp(d.pos[1], k)) for d in t]
                      for t in (*gt, *pred)]
            cfg = MatchConfig(math.ldexp(gate, k - e))
            return summarize(tracks[:len(gt)], tracks[len(gt):], cfg)

        want = summarize(gt, pred, MatchConfig(math.ldexp(gate, -e)))
        assert 0.0 < want["IDF1"] < 1.0 and 0.0 < want["MOTA"] < 1.0
        # At k = e the gate is `gate` itself.
        for k in (-300, -20, 0, 20, e):
            assert scaled(k) == want

    def test_largest_gates_score_without_overflow(self):
        gt = [[det(0, 0.0), det(1, 1.0)]]
        pred = [[det(0, 0.5), det(1, 1.0, 0.5)]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gate in (1e200, 1e308, 1.7976931348623157e308):
                assert idf1(gt, pred, MatchConfig(gate)).idtp == 2
                assert summarize(gt, pred, MatchConfig(gate))["MOTA"] == 1.0

    @pytest.mark.parametrize("gate", [1.0, 1e300, 1.7976931348623157e308])
    def test_detections_far_apart_score_without_overflow(self, gate):
        # Rows 1e300 apart, and at frame 1 rows whose difference overflows to
        # infinity; at the largest gate the rows 1e300 apart pair both ways.
        far = [[det(0, -1e300), det(1, -1.5e308)], [det(0, 1e300, -1e300), det(1, 1.5e308)]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = summarize(far, far, MatchConfig(gate))
        assert scores["IDF1"] == scores["MOTA"] == 1.0

    def test_leftover_cost_stays_finite_at_a_huge_gate(self):
        gt = [[det(0, 0.0)], [det(0, 3e303)]]
        pred = [[det(0, 5e302)], [det(0, 4.5e303)]]
        rep = clear_scores(gt, pred, MatchConfig(1e303))
        assert (rep.tp, rep.fp, rep.fn, rep.gt_matched_frames) == (1, 1, 1, (1, 0))
        # A predicted row inside the gate of both truth rows: the frame is
        # matched by the leftover assignment, which takes the nearer one.
        gt = [[det(0, 0.0)], [det(0, 1.5e303)]]
        pred = [[det(0, 0.8e303)], [det(0, -9e303)]]
        rep = clear_scores(gt, pred, MatchConfig(1e303))
        assert rep.gt_matched_frames == (0, 1)
        scale = math.ldexp(1.0, -1000)
        small = [[[det(0, d.pos[0] * scale) for d in t] for t in side] for side in (gt, pred)]
        assert clear_scores(*small, MatchConfig(1e303 * scale)) == rep


class TestClearScores:
    def test_shattered_prediction_goes_negative(self):
        gt, pred = shattered_fixture()
        rep = clear_scores(gt, pred)
        assert (rep.tp, rep.fp, rep.fn, rep.id_switches) == (6, 4, 4, 3)
        assert rep.mota == pytest.approx(-0.1, abs=1e-9)
        assert rep.precision == pytest.approx(0.6)
        assert rep.recall == pytest.approx(0.6)

    def test_perfect_prediction(self):
        gt = [straight_track(range(1, 6))]
        rep = clear_scores(gt, [list(t) for t in gt])
        assert rep.mota == 1.0 and rep.id_switches == 0

    def test_single_missed_frame(self):
        gt = [straight_track(range(1, 11))]
        pred = [[d for d in gt[0] if d.frame != 5]]
        rep = clear_scores(gt, pred)
        assert rep.mota == pytest.approx(0.9)
        assert (rep.fn, rep.fp, rep.id_switches) == (1, 0, 0)

    def test_handover_counts_one_switch(self):
        gt = [straight_track(range(1, 5))]
        pred = [gt[0][:2], gt[0][2:]]
        rep = clear_scores(gt, pred)
        assert rep.id_switches == 1
        assert rep.mota == pytest.approx(0.75)

    def test_matches_persist_within_gate(self):
        gt = [straight_track(range(1, 5))]
        steady = [[det(f, f, 0.5) for f in range(1, 5)]]
        closer_latecomer = [[det(f, f, 0.4) for f in (3, 4)]]
        rep = clear_scores(gt, steady + closer_latecomer)
        assert rep.id_switches == 0
        assert rep.fp == 2
        assert rep.mota == pytest.approx(0.5)

    def test_empty_prediction_scores_zero(self):
        gt = [straight_track(range(1, 5))]
        rep = clear_scores(gt, [])
        assert rep.mota == 0.0 and rep.fn == 4

    def test_both_empty_is_perfect(self):
        assert clear_scores([], []) == ClearReport(1.0, 1.0, 1.0, 0, 0, 0, 0, ())

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError, match="no ground-truth detections"):
            clear_scores([], [straight_track([1])])


class TestTrackCoverage:
    def test_brackets_are_inclusive_at_080_and_exclusive_at_020(self):
        gt = [
            straight_track(range(1, 6), y=0.0),
            straight_track(range(1, 6), y=100.0),
            straight_track(range(1, 6), y=200.0),
        ]
        pred = [
            [d for d in gt[0] if d.frame <= 4],  # 4/5 = 0.8 -> mostly tracked
            [gt[1][0]],                          # 1/5 = 0.2 -> partially tracked
        ]
        assert track_coverage(gt, pred) == (1, 1, 1)

    def test_shattered_prediction_is_partially_tracked(self):
        gt, pred = shattered_fixture()
        assert track_coverage(gt, pred) == (0, 1, 0)

    def test_perfect_and_empty_predictions(self):
        gt = [straight_track(range(1, 6)), [], straight_track(range(1, 6), y=50.0)]
        assert track_coverage(gt, [list(t) for t in gt]) == (2, 0, 0)
        assert track_coverage(gt, []) == (0, 0, 2)


class TestSummarize:
    def test_column_names_and_types(self):
        gt, pred = shattered_fixture()
        table = summarize(gt, pred)
        assert tuple(table) == METRIC_COLUMNS
        assert all(isinstance(v, float) for v in table.values())
        assert table["IDF1"] == pytest.approx(0.30, abs=1e-9)
        assert table["MOTA"] == pytest.approx(-0.1, abs=1e-9)
        # 6 of 10 true frames matched: partially tracked
        assert (table["MT"], table["PT"], table["ML"]) == (0.0, 1.0, 0.0)

    def test_runs_clear_scores_once(self, monkeypatch):
        gt, pred = shattered_fixture()
        want = summarize(gt, pred)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return clear_scores(*args, **kwargs)

        monkeypatch.setattr(ptrack.metrics, "clear_scores", counted)
        assert summarize(gt, pred) == want
        assert len(calls) == 1

    def test_runs_the_gate_pair_pass_once(self, monkeypatch):
        gt, pred = shattered_fixture()
        want = summarize(gt, pred)
        calls = []

        def counted(*args):
            calls.append(args)
            return _gate_pairs(*args)

        monkeypatch.setattr(ptrack.metrics, "_gate_pairs", counted)
        assert summarize(gt, pred) == want
        assert len(calls) == 1
        # Called alone, a score finds its own pairs; handed them, it finds none.
        assert idf1(gt, pred) == idf1(gt, pred, _pairs=_gate_pairs(*calls[0]))
        assert len(calls) == 2

    def test_tables_score_as_their_detection_lists(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            gt = random_tracks(rng, int(rng.integers(1, 8)), 8, 5)
            pred = random_tracks(rng, int(rng.integers(0, 10)), 8, 5)
            if not any(gt):
                continue
            tables = TrackTable.from_tracks(gt), TrackTable.from_tracks(pred)
            cfg = MatchConfig(1.5)
            assert summarize(*tables, cfg) == summarize(gt, pred, cfg)
            assert idf1(*tables, cfg) == idf1(gt, pred, cfg)
            assert track_coverage(*tables, cfg) == track_coverage(gt, pred, cfg)
            assert clear_scores(tables[0], pred, cfg) == clear_by_frame_loop(gt, pred, 1.5)


class TestMatchConfig:
    def test_gate_must_be_positive_finite(self):
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="max_dist"):
                MatchConfig(bad)

    @pytest.mark.parametrize("bad", ["3", True, None, 3 + 0j], ids=["str", "bool", "none", "complex"])
    def test_gate_must_be_a_real_number(self, bad):
        with pytest.raises(ValueError, match="max_dist"):
            MatchConfig(bad)

    def test_numpy_and_int_gates_are_taken(self):
        assert MatchConfig(np.float64(1.5)).max_dist == 1.5
        assert MatchConfig(2).max_dist == 2
