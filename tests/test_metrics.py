"""Identity and per-frame tracking metrics."""
import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import ptrack.metrics
from ptrack import Detection, TrackTable
from ptrack.metrics import (
    METRIC_COLUMNS,
    ClearReport,
    IdfReport,
    MatchConfig,
    _overlap_counts,
    clear_scores,
    idf1,
    summarize,
    track_coverage,
)

from oracles import idf1_by_enumeration


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
    """The former `_overlap_counts`: every same-frame pair, one by one."""
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


class TestOverlapCounts:
    def assert_same(self, gt, pred, max_dist):
        got = _overlap_counts(TrackTable.from_tracks(gt), TrackTable.from_tracks(pred), max_dist)
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
            on_gate += int(got.sum() - _overlap_counts(*tables, math.nextafter(5.0, 0.0)).sum())
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
        assert _overlap_counts(*tables, 3.0).tolist() == [[0, 0], [3, 0]]

    def test_idtp_equals_padded_minimum_disagreement(self):
        # Dense overlaps on a 3x3 grid make many assignments tie.
        rng = np.random.default_rng(5)
        sizes = [(int(rng.integers(0, 41)), int(rng.integers(0, 81))) for _ in range(30)]
        for n_g, n_p in sizes + [(40, 80), (80, 40), (0, 5), (5, 0)]:
            gt = random_tracks(rng, n_g, 15, 3)
            pred = random_tracks(rng, n_p, 15, 3)
            assert idf1(gt, pred, MatchConfig(1.0)).idtp == idtp_by_padded_matrix(gt, pred, 1.0)


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

    def test_empty_tracks_and_a_truth_track_twice_in_a_frame(self):
        gt = [[], [det(1, 0.0), det(2, 0.0), det(2, 0.2)], []]
        pred = [[], [det(1, 0.0), det(2, 0.0)], [det(2, 0.3)], []]
        rep = self.assert_same(gt, pred, 1.0)
        assert rep.gt_matched_frames == (0, 3, 0) and rep.id_switches == 1
        self.assert_same([[det(1, 0.0)], []], [[], []], 1.0)


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
