import numpy as np
import pytest

from crowdloss import evalkit
from crowdloss.errors import InvalidInputError
from crowdloss.evalkit import (
    Detection,
    EvalCurve,
    SubsetFilter,
    fppi_at_miss_rate,
    fppi_curve,
    greedy_nms,
    load_curve,
    load_detections,
    log_average_miss_rate,
    match,
    save_curve,
    save_detections,
)
from crowdloss.geometry import BBox, iou
from oracles import lamr_nine_point, scalar_fppi_curve, scalar_match
from util import counted, jittered_box, random_box


def det(x1, y1, x2, y2, score, sid="0"):
    return Detection(BBox(x1, y1, x2, y2), score, sid)


class TestGreedyNms:
    def test_single_detection_kept(self):
        d = det(0, 0, 2, 2, 0.7)
        assert greedy_nms([d], 0.5) == [d]

    def test_identical_boxes_suppressed(self):
        hi = det(0, 0, 2, 2, 0.9)
        lo = det(0, 0, 2, 2, 0.8)
        assert greedy_nms([lo, hi], 0.5) == [hi]

    def test_three_box_chain(self):
        # A-B overlap 0.6, B-C overlap 0.6, A-C overlap 1/3: keep {A, C} at 0.5
        a = det(0, 0, 10, 10, 0.9)
        b = det(2.5, 0, 12.5, 10, 0.8)
        c = det(5, 0, 15, 10, 0.7)
        assert iou(a.box, b.box) == pytest.approx(0.6)
        assert iou(b.box, c.box) == pytest.approx(0.6)
        assert iou(a.box, c.box) == pytest.approx(1 / 3)
        kept = greedy_nms([a, b, c], 0.5)
        assert kept == [a, c]

    def test_tie_break_is_insertion_order(self):
        a = det(0, 0, 2, 2, 0.5)
        b = det(0.1, 0, 2.1, 2, 0.5)
        assert greedy_nms([a, b], 0.5) == [a]
        assert greedy_nms([b, a], 0.5) == [b]

    def test_bad_threshold(self):
        with pytest.raises(InvalidInputError):
            greedy_nms([], 0.0)
        with pytest.raises(InvalidInputError):
            greedy_nms([], 1.0)

    def _random_detections(self, rng, n):
        return [
            Detection(random_box(rng, hi=40.0, max_size=15.0), float(rng.uniform(0, 1)), "0")
            for _ in range(n)
        ]

    def test_antichain_and_idempotent(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            dets = self._random_detections(rng, int(rng.integers(0, 12)))
            thr = float(rng.uniform(0.2, 0.8))
            kept = greedy_nms(dets, thr)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert iou(kept[i].box, kept[j].box) <= thr
            assert greedy_nms(kept, thr) == kept

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            dets = self._random_detections(rng, 10)
            sizes = [len(greedy_nms(dets, t)) for t in (0.3, 0.5, 0.7, 0.9)]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))


class TestMatch:
    def test_perfect(self):
        gts = [BBox(0, 0, 4, 8), BBox(10, 0, 14, 8)]
        dets = [Detection(g, 1.0, "0") for g in gts]
        res = match(dets, gts)
        assert (res.true_positives, res.false_positives, res.misses) == (2, 0, 0)

    def test_empty_detections(self):
        gts = [BBox(0, 0, 4, 8), BBox(10, 0, 14, 8)]
        res = match([], gts)
        assert (res.true_positives, res.false_positives, res.misses) == (0, 0, 2)

    def test_one_det_two_gts_takes_higher_iou(self):
        # detection overlaps the two ground truths at IoU 0.7 and 0.6
        d = det(10 * 0.3 / 1.7, 0, 10 * 0.3 / 1.7 + 10, 10, 0.9)
        g_hi = BBox(0, 0, 10, 10)
        g_lo = BBox(d.box.x1 + 2.5, 0, d.box.x2 + 2.5, 10)
        assert iou(d.box, g_hi) == pytest.approx(0.7)
        assert iou(d.box, g_lo) == pytest.approx(0.6)
        res = match([d], [g_lo, g_hi])
        assert (res.true_positives, res.misses) == (1, 1)

    def test_gt_matched_once(self):
        g = BBox(0, 0, 10, 10)
        d1 = det(0, 0, 10, 10, 0.9)
        d2 = det(0.5, 0, 10.5, 10, 0.8)
        res = match([d1, d2], [g])
        assert (res.true_positives, res.false_positives, res.misses) == (1, 1, 0)

    def test_ignored_gts_absorb_detections(self):
        g = BBox(0, 0, 10, 10)
        ignored = BBox(30, 0, 40, 10)
        d_ign = det(30, 0, 40, 10, 0.9)
        d_tp = det(0, 0, 10, 10, 0.8)
        res = match([d_ign, d_tp], [g], ignored_gts=[ignored])
        assert (res.true_positives, res.false_positives, res.misses) == (1, 0, 0)


def three_scene_fixture():
    a = BBox(0, 0, 10, 20)
    b = BBox(20, 0, 30, 20)
    f = BBox(50, 0, 60, 20)
    gts = {"s0": [a, b], "s1": [a, b], "s2": [a, b]}
    dets = [
        Detection(a, 0.9, "s0"),
        Detection(b, 0.8, "s0"),
        Detection(f, 0.7, "s0"),
        Detection(a, 0.85, "s1"),
        Detection(f, 0.6, "s1"),
        Detection(a, 0.5, "s2"),
    ]
    return dets, gts


class TestFppiCurve:
    def test_perfect_contains_origin(self):
        gts = {"s": [BBox(0, 0, 4, 8)]}
        dets = [Detection(BBox(0, 0, 4, 8), 1.0, "s")]
        curve = fppi_curve(dets, gts)
        assert (0.0, 0.0) in curve.points

    def test_all_false_positives_miss_everything(self):
        gts = {"s": [BBox(0, 0, 4, 8)]}
        dets = [Detection(BBox(50, 50, 54, 58), 0.9, "s")]
        curve = fppi_curve(dets, gts)
        assert all(miss == 1.0 for _, miss in curve.points)

    def test_exact_three_scene_curve(self):
        dets, gts = three_scene_fixture()
        curve = fppi_curve(dets, gts)
        assert curve.thresholds == (0.9, 0.85, 0.8, 0.7, 0.6, 0.5)
        expected = (
            (0.0, 5 / 6),
            (0.0, 4 / 6),
            (0.0, 3 / 6),
            (1 / 3, 3 / 6),
            (2 / 3, 3 / 6),
            (2 / 3, 2 / 6),
        )
        for got, want in zip(curve.points, expected):
            assert got == pytest.approx(want, abs=1e-12)

    def test_fppi_monotone(self):
        dets, gts = three_scene_fixture()
        curve = fppi_curve(dets, gts)
        fppis = [p[0] for p in curve.points]
        assert all(a <= b for a, b in zip(fppis, fppis[1:]))

    def test_zero_gts_error(self):
        with pytest.raises(InvalidInputError):
            fppi_curve([], {})
        with pytest.raises(InvalidInputError):
            fppi_curve([], {"s": []})


TIED_SCORES = (0.0, 1.0, 0.25, 0.5, 0.75)


def eval_box(rng):
    return random_box(rng, hi=60.0, min_size=4.0, max_size=20.0)


def random_eval_case(rng):
    """Scenes with ground truths and ignore regions, and detections that tie,
    duplicate boxes, sit on ignore regions or name an unknown scene."""
    n_scenes = int(rng.integers(1, 6))
    gts_by_scene, ignored_by_scene, dets = {}, {}, []
    for k in range(n_scenes):
        sid = f"s{k}"
        gts_by_scene[sid] = [eval_box(rng) for _ in range(int(rng.integers(0, 5)))]
        ignored_by_scene[sid] = [eval_box(rng) for _ in range(int(rng.integers(0, 4)))]
    if not any(gts_by_scene.values()):
        gts_by_scene["s0"].append(eval_box(rng))
    scene_ids = list(gts_by_scene) + ["unknown"]
    for _ in range(int(rng.integers(0, 25))):
        sid = scene_ids[int(rng.integers(0, len(scene_ids)))]
        targets = gts_by_scene.get(sid, []) + ignored_by_scene.get(sid, [])
        kind = rng.random()
        if dets and kind < 0.15:
            box = dets[int(rng.integers(0, len(dets)))].box  # duplicate box
        elif targets and kind < 0.75:
            box = jittered_box(rng, targets[int(rng.integers(0, len(targets)))], 0.1)
        else:
            box = eval_box(rng)
        if rng.random() < 0.5:
            score = TIED_SCORES[int(rng.integers(0, len(TIED_SCORES)))]
        else:
            score = float(rng.uniform(0.0, 1.0))
        dets.append(Detection(box, score, sid))
    return dets, gts_by_scene, ignored_by_scene


class TestSinglePassMatchesRematching:
    """``fppi_curve`` and ``match`` equal (``==``) the per-threshold scalar oracle."""

    @pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.7])
    def test_random_curves(self, iou_threshold):
        rng = np.random.default_rng(int(iou_threshold * 10))
        for case in range(300):
            dets, gts, ignored = random_eval_case(rng)
            if case % 5 == 0:
                ignored = None
            got = fppi_curve(dets, gts, iou_threshold, ignored)
            want = scalar_fppi_curve(dets, gts, iou_threshold, ignored)
            assert (got.thresholds, got.points) == want

    @pytest.mark.parametrize("iou_threshold", [0.3, 0.5, 0.7])
    def test_random_matches(self, iou_threshold):
        rng = np.random.default_rng(int(iou_threshold * 10) + 100)
        for _ in range(200):
            dets, gts, ignored = random_eval_case(rng)
            for sid in gts:
                scene_dets = [d for d in dets if d.scene_id == sid]
                res = match(scene_dets, gts[sid], iou_threshold, ignored[sid])
                want = scalar_match(scene_dets, gts[sid], iou_threshold, ignored[sid])
                assert (res.true_positives, res.false_positives, res.misses) == want

    def test_empty_scenes_and_unknown_ids(self):
        g = BBox(0, 0, 10, 20)
        gts = {"a": [g], "b": [], "c": [g]}
        dets = [Detection(g, 0.9, "a"), Detection(g, 0.95, "ghost"), Detection(BBox(40, 0, 50, 20), 0.9, "b")]
        curve = fppi_curve(dets, gts)
        # the unknown scene sets a threshold and counts as nothing; FPPI divides by all 3 scenes
        assert curve.thresholds == (0.95, 0.9)
        assert curve.points == ((0.0, 1.0), (1 / 3, 0.5))
        assert (curve.thresholds, curve.points) == scalar_fppi_curve(dets, gts)

    def test_ignore_region_absorbs_one_detection(self):
        g = BBox(0, 0, 10, 20)
        region = BBox(40, 0, 50, 20)
        dets = [det(40, 0, 50, 20, 0.9, "s"), det(40, 0, 50, 20, 0.8, "s")]
        curve = fppi_curve(dets, {"s": [g]}, 0.5, {"s": [region]})
        assert curve.points == ((0.0, 1.0), (1.0, 1.0))

    def test_iou_calls_bounded_by_one_pass(self, monkeypatch):
        # many distinct thresholds: re-matching at each would call iou ~|dets| times more
        rng = np.random.default_rng(61)
        gts, ignored, dets = {}, {}, []
        for k in range(4):
            sid = f"s{k}"
            gts[sid] = [eval_box(rng) for _ in range(3)]
            ignored[sid] = [eval_box(rng) for _ in range(2)]
            for _ in range(30):
                target = (gts[sid] + ignored[sid])[int(rng.integers(0, 5))]
                dets.append(Detection(jittered_box(rng, target, 0.15), float(rng.uniform(0, 1)), sid))
        want = scalar_fppi_curve(dets, gts, 0.5, ignored)
        assert len(want[0]) == len(dets)
        calls = {"iou": 0}
        monkeypatch.setattr(evalkit.geometry, "iou", counted(evalkit.geometry.iou, calls, "iou"))
        curve = fppi_curve(dets, gts, 0.5, ignored)
        bound = sum(
            sum(d.scene_id == sid for d in dets) * (len(gts[sid]) + len(ignored[sid])) for sid in gts
        )
        assert 0 < calls["iou"] <= bound
        assert (curve.thresholds, curve.points) == want


class TestLogAverageMissRate:
    def test_constant_curve(self):
        curve = EvalCurve(
            thresholds=(0.9, 0.5), points=((0.005, 0.4), (2.0, 0.4))
        )
        assert log_average_miss_rate(curve) == pytest.approx(0.4, rel=1e-12)

    def test_zero_miss_floors(self):
        curve = EvalCurve(thresholds=(0.9,), points=((0.005, 0.0),))
        assert log_average_miss_rate(curve) == pytest.approx(1e-4, rel=1e-12)

    def test_hand_built_stepwise_curve(self):
        dets, gts = three_scene_fixture()
        curve = fppi_curve(dets, gts)
        assert log_average_miss_rate(curve) == pytest.approx(0.47797403921148757, abs=1e-9)
        assert log_average_miss_rate(curve) == pytest.approx(
            lamr_nine_point(list(curve.points)), abs=1e-12
        )

    def test_monotone_under_domination(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            fppis = np.sort(rng.uniform(0.001, 2.0, 6))
            lo = np.sort(rng.uniform(0.0, 1.0, 6))[::-1]
            hi = np.clip(lo + rng.uniform(0.0, 0.3, 6), 0.0, 1.0)
            c_lo = EvalCurve(tuple(range(6)), tuple(zip(fppis, lo)))
            c_hi = EvalCurve(tuple(range(6)), tuple(zip(fppis, hi)))
            assert log_average_miss_rate(c_hi) >= log_average_miss_rate(c_lo) - 1e-12

    def test_fppi_at_miss_rate_nearest(self):
        curve = EvalCurve(
            thresholds=(0.9, 0.6, 0.3),
            points=((0.01, 0.5), (0.2, 0.12), (1.5, 0.02)),
        )
        assert fppi_at_miss_rate(curve, 0.1) == 0.2
        assert fppi_at_miss_rate(curve, 0.5) == 0.01


class TestSubsetFilter:
    def test_height_and_visibility_predicates(self):
        full = BBox(0, 0, 4, 10)
        vis_half = BBox(0, 0, 4, 5)
        assert SubsetFilter(min_height=8).selects(full, full)
        assert not SubsetFilter(min_height=12).selects(full, full)
        assert SubsetFilter(max_visibility=0.6).selects(full, vis_half)
        assert not SubsetFilter(min_visibility=0.6).selects(full, vis_half)


class TestCsvIO:
    def test_detection_roundtrip(self, tmp_path):
        rng = np.random.default_rng(54)
        dets = [
            Detection(random_box(rng), float(rng.uniform(0, 1)), f"scene{i % 3}")
            for i in range(20)
        ]
        path = tmp_path / "dets.csv"
        save_detections(dets, path)
        loaded = load_detections(path)
        assert loaded == dets
        assert path.read_text().splitlines()[0] == "scene_id,x1,y1,x2,y2,score"

    def test_curve_roundtrip(self, tmp_path):
        dets, gts = three_scene_fixture()
        curve = fppi_curve(dets, gts)
        path = tmp_path / "curve.csv"
        save_curve(curve, path)
        assert load_curve(path) == curve

    def test_detection_bytes(self, tmp_path):
        dets = [det(0.0, 1.5, 10.0, 20.25, 0.1, 's,"1'), det(1 / 3, 3.0, 4.5, 7.0, 1.0, "b")]
        path = tmp_path / "dets.csv"
        save_detections(dets, path)
        assert path.read_bytes() == (
            b'scene_id,x1,y1,x2,y2,score\r\n"s,""1",0.0,1.5,10.0,20.25,0.1\r\n'
            b"b,0.3333333333333333,3.0,4.5,7.0,1.0\r\n"
        )

    def test_curve_bytes(self, tmp_path):
        path = tmp_path / "curve.csv"
        save_curve(EvalCurve((0.9, 0.5), ((0.0, 0.75), (1 / 3, 0.25))), path)
        assert path.read_bytes() == b"threshold,fppi,miss_rate\r\n0.9,0.0,0.75\r\n0.5,0.3333333333333333,0.25\r\n"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n")
        with pytest.raises(InvalidInputError):
            load_detections(path)

    def test_score_validation(self):
        with pytest.raises(InvalidInputError):
            Detection(BBox(0, 0, 1, 1), 1.5, "0")
