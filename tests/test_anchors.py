import math
import re
from collections import Counter
from dataclasses import astuple

import numpy as np
import pytest

from crowdloss.anchors import (
    IGNORED,
    AnchorSet,
    NEGATIVE,
    POSITIVE,
    ProbabilityMap,
    TargetMap,
    _uniform_anchors,
    build_target_map,
    bump_probability_map,
    dynamic_threshold,
    indicator_probability_map,
    load_probability_map,
    load_target_map,
    location_branch_loss,
    negative_informativeness,
    save_probability_map,
    save_target_map,
    scene_grid,
    select_anchors,
)
from crowdloss.baselines import CompositeConfig
from crowdloss.errors import InvalidAnnotationError, InvalidInputError
from crowdloss.geometry import BBox
from crowdloss.simulator import Pedestrian, Scene
from oracles import scalar_anchor_boxes, scalar_focal, scalar_negative_informativeness
from util import counted


def pmap(values, stride=1.0):
    return ProbabilityMap(stride=stride, values=np.array(values, dtype=float))


class TestDynamicThreshold:
    def test_constant_map(self):
        assert dynamic_threshold(pmap([[0.3, 0.3], [0.3, 0.3]])) == pytest.approx(0.3, abs=1e-15)

    def test_hand_rms(self):
        assert dynamic_threshold(pmap([[0, 0], [0, 1]])) == pytest.approx(0.5, abs=1e-15)

    def test_all_zero(self):
        assert dynamic_threshold(pmap([[0.0, 0.0]])) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            values = rng.uniform(0, 1, (rng.integers(1, 12), rng.integers(1, 12)))
            expected = math.sqrt(sum(v * v for v in values.flatten()) / values.size)
            assert dynamic_threshold(pmap(values)) == pytest.approx(expected, abs=1e-12)

    def test_within_value_range(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            values = rng.uniform(0, 1, (5, 7))
            t = dynamic_threshold(pmap(values))
            assert values.min() <= t <= values.max()


class TestSelectAnchors:
    def test_constant_map_falls_back(self):
        sel = select_anchors(pmap([[0.4, 0.4], [0.4, 0.4]]), scales=(2.0,), ratios=(1.0,))
        assert sel.fallback
        assert len(sel.cells) == 4

    def test_single_hot_cell(self):
        sel = select_anchors(pmap([[0, 0], [0, 1]]), scales=(2.0, 4.0), ratios=(0.5, 1.0))
        assert not sel.fallback
        assert sel.cells == ((1, 1),)
        assert len(sel.anchors) == 4  # 2 scales x 2 ratios
        assert sel.threshold == pytest.approx(0.5, abs=1e-15)

    def test_anchor_geometry(self):
        sel = select_anchors(pmap([[0, 1]], stride=4.0), scales=(8.0,), ratios=(0.25,))
        assert sel.anchors.shape == (1, 4)
        x1, y1, x2, y2 = sel.anchors[0]
        assert (x1 + x2) / 2 == pytest.approx(6.0)  # cell (0, 1) center
        assert (y1 + y2) / 2 == pytest.approx(2.0)
        assert (x2 - x1) / (y2 - y1) == pytest.approx(0.25)
        assert (x2 - x1) * (y2 - y1) == pytest.approx(64.0)

    def test_no_box_object_per_anchor(self, monkeypatch):
        scene = Scene(
            extent=(100.0, 100.0),
            pedestrians=[Pedestrian(full=BBox(10, 10, 30, 60), visible=BBox(10, 10, 30, 40))],
            distractors=[BBox(60, 20, 80, 70)],
        )
        pm = bump_probability_map(scene, 1.0)
        calls = Counter()
        monkeypatch.setattr(BBox, "__post_init__", counted(BBox.__post_init__, calls, "BBox"))
        sel = select_anchors(pm, (8.0, 16.0), (0.41, 1.0))
        negative_informativeness(sel, scene)
        assert len(sel.anchors) > 1000
        assert calls["BBox"] == 0

    def test_non_finite_anchor_rejected_as_box(self):
        # finite scale and ratio whose anchor width overflows to inf
        with pytest.raises(InvalidInputError, match=r"^non-finite box coordinates \(-inf, -2.5e\+307, inf, 2.5e\+307\)$"):
            select_anchors(pmap([[0.0, 1.0]]), scales=(1e308,), ratios=(4.0,))

    @pytest.mark.parametrize(
        "sizes, key",
        [
            ({"ratios": (-1.0,)}, "ratios"),
            ({"scales": (0.0,)}, "scales"),
            ({"scales": (math.nan,)}, "scales"),
            ({"ratios": (math.inf,)}, "ratios"),
            ({"scales": ()}, "scales"),
        ],
    )
    def test_bad_scale_or_ratio_rejected_by_name(self, sizes, key):
        got = re.escape(repr(sizes[key]))
        with pytest.raises(InvalidInputError, match=rf"^{key} must be non-empty, each finite and > 0, got {got}$"):
            select_anchors(pmap([[0.0, 1.0]]), **sizes)

    def test_selected_cells_above_threshold(self):
        rng = np.random.default_rng(43)
        values = rng.choice([0.05, 0.9], size=(20, 20), p=[0.8, 0.2])
        sel = select_anchors(pmap(values), scales=(3.0,), ratios=(1.0,))
        assert not sel.fallback
        for row, col in sel.cells:
            assert values[row, col] > sel.threshold

    def test_positive_scaling_keeps_selection(self):
        rng = np.random.default_rng(44)
        values = rng.choice([0.1, 0.8], size=(15, 15))
        for k in (0.5, 0.25, 1.0):
            base = select_anchors(pmap(values), scales=(3.0,), ratios=(1.0,))
            scaled = select_anchors(pmap(values * k), scales=(3.0,), ratios=(1.0,))
            assert scaled.cells == base.cells
            assert scaled.threshold == pytest.approx(k * base.threshold, rel=1e-12)

    def test_keep_mask_overrides_threshold(self):
        values = np.array([[0.0, 0.0], [0.0, 1.0]])
        keep = np.array([[True, False], [False, False]])
        sel = select_anchors(pmap(values), scales=(2.0,), ratios=(1.0,), keep_mask=keep)
        assert not sel.fallback
        assert sel.cells == ((0, 0), (1, 1))
        with pytest.raises(InvalidInputError):
            select_anchors(pmap(values), keep_mask=np.ones((3, 3), dtype=bool))

    def test_bad_map(self):
        with pytest.raises(InvalidInputError):
            ProbabilityMap(stride=1.0, values=np.array([[0.5, 1.5]]))
        with pytest.raises(InvalidInputError):
            ProbabilityMap(stride=0.0, values=np.array([[0.5]]))

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: ProbabilityMap(stride=1.0, values=[[0.5, math.nan]]), "probability values must be finite"),
            (lambda: ProbabilityMap(stride=1.0, values=[[]]), "probability map must be a non-empty 2-D grid"),
            (lambda: ProbabilityMap(stride=1.0, values=[0.5, 0.5]), "probability map must be a non-empty 2-D grid"),
            (lambda: TargetMap(stride=1.0, labels=[POSITIVE, NEGATIVE]), "target map must be a non-empty 2-D grid"),
            # the grid is checked before the stride
            (lambda: TargetMap(stride=0.0, labels=[POSITIVE]), "target map must be a non-empty 2-D grid"),
        ],
        ids=["non-finite-cell", "empty", "one-d", "target-one-d", "target-one-d-zero-stride"],
    )
    def test_bad_grid_rejected(self, make, message):
        with pytest.raises(InvalidInputError, match=rf"^{message}$"):
            make()


def two_ped_scene():
    return Scene(
        extent=(20.0, 20.0),
        pedestrians=[
            Pedestrian(full=BBox(2, 2, 6, 10), visible=BBox(2, 2, 6, 6)),
            Pedestrian(full=BBox(10, 4, 14, 12), visible=BBox(10, 4, 14, 12)),
        ],
        distractors=[BBox(16, 2, 18, 8)],
    )


# every in-memory entry point that takes a stride, on a scene with pedestrians and a distractor
STRIDE_ENTRY_POINTS = {
    "ProbabilityMap": lambda stride: ProbabilityMap(stride=stride, values=[[0.5]]),
    "TargetMap": lambda stride: TargetMap(stride=stride, labels=[[NEGATIVE]]),
    "build_target_map": lambda stride: build_target_map(two_ped_scene(), (2, 2), stride),
    "bump_probability_map": lambda stride: bump_probability_map(two_ped_scene(), stride),
    "indicator_probability_map": lambda stride: indicator_probability_map(two_ped_scene(), stride),
}


@pytest.mark.parametrize("stride", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", STRIDE_ENTRY_POINTS)
def test_bad_stride_rejected_by_one_rule(entry, stride):
    with pytest.raises(InvalidInputError, match=rf"^stride must be finite and > 0, got {re.escape(repr(stride))}$"):
        STRIDE_ENTRY_POINTS[entry](stride)


class TestTargetMap:
    def test_empty_scene_all_negative(self):
        scene = Scene(extent=(10.0, 10.0), pedestrians=[], distractors=[])
        tmap = build_target_map(scene, (5, 5), 2.0)
        assert np.all(tmap.labels == NEGATIVE)

    def test_fully_visible_no_ignored(self):
        scene = Scene(
            extent=(10.0, 10.0),
            pedestrians=[Pedestrian(full=BBox(2, 2, 6, 8), visible=BBox(2, 2, 6, 8))],
        )
        tmap = build_target_map(scene, (10, 10), 1.0)
        assert not np.any(tmap.labels == IGNORED)
        assert np.any(tmap.labels == POSITIVE)

    def test_half_visible_counts(self):
        # full spans y in [0, 8], visible the y in [0, 4] half, unit grid
        scene = Scene(
            extent=(4.0, 8.0),
            pedestrians=[Pedestrian(full=BBox(0, 0, 4, 8), visible=BBox(0, 0, 4, 4))],
        )
        tmap = build_target_map(scene, (8, 4), 1.0)
        assert np.all(tmap.labels[:4, :] == POSITIVE)
        assert np.all(tmap.labels[4:, :] == IGNORED)
        assert int(np.sum(tmap.labels == POSITIVE)) == 16
        assert int(np.sum(tmap.labels == IGNORED)) == 16

    def test_positive_precedence_across_pedestrians(self):
        # ped B's visible region overlaps ped A's ignored region
        scene = Scene(
            extent=(10.0, 10.0),
            pedestrians=[
                Pedestrian(full=BBox(0, 0, 6, 6), visible=BBox(0, 0, 2, 6)),
                Pedestrian(full=BBox(3, 0, 9, 6), visible=BBox(3, 0, 9, 6)),
            ],
        )
        tmap = build_target_map(scene, (10, 10), 1.0)
        # cell (1, 4): center (4.5, 1.5) inside A's full (ignored zone) and B's visible
        assert tmap.labels[1, 4] == POSITIVE

    def test_labels_partition_and_positives_inside_visible(self):
        from crowdloss.simulator import SimConfig, generate_scene

        for seed in range(5):
            scene = generate_scene(SimConfig(pedestrian_count=3), seed)
            tmap = build_target_map(scene, (50, 50), 2.0)
            assert set(np.unique(tmap.labels)) <= {POSITIVE, IGNORED, NEGATIVE}
            rows, cols = np.nonzero(tmap.labels == POSITIVE)
            for r, c in zip(rows.tolist(), cols.tolist()):
                cx, cy = (c + 0.5) * 2.0, (r + 0.5) * 2.0
                assert any(
                    p.visible.x1 <= cx <= p.visible.x2 and p.visible.y1 <= cy <= p.visible.y2
                    for p in scene.pedestrians
                )

    def test_center_on_box_edge_is_inside(self):
        # stride 2: cell centers at 1, 3, ..., 15, and every box edge lies on one
        scene = Scene(
            extent=(16.0, 16.0),
            pedestrians=[Pedestrian(full=BBox(3, 1, 7, 13), visible=BBox(3, 1, 7, 5))],
            distractors=[BBox(11, 11, 15, 15)],
        )
        expected = np.full((8, 8), NEGATIVE)
        expected[0:7, 1:4] = IGNORED
        expected[0:3, 1:4] = POSITIVE
        assert np.array_equal(build_target_map(scene, (8, 8), 2.0).labels, expected)
        indicator = np.zeros((8, 8))
        indicator[0:7, 1:4] = 1.0
        indicator[5:8, 5:8] = 1.0
        assert np.array_equal(indicator_probability_map(scene, 2.0).values, indicator)

    def test_invalid_annotation(self):
        with pytest.raises(InvalidAnnotationError):
            Scene(
                extent=(10.0, 10.0),
                pedestrians=[Pedestrian(full=BBox(2, 2, 4, 4), visible=BBox(1, 2, 4, 4))],
            )

    def test_multi_character_label_rejected_not_truncated(self):
        with pytest.raises(InvalidInputError, match="unknown target label 'PX'"):
            TargetMap(stride=1.0, labels=[["PX", "N"]])
        assert TargetMap(stride=1.0, labels=[["P", "N"]]).labels.dtype == np.dtype("<U1")

    def test_smallest_bad_label_is_named(self):
        # only the cells that are not P, I or N are checked, in sort order
        with pytest.raises(InvalidInputError, match="unknown target label 'PX'"):
            TargetMap(stride=1.0, labels=[["Q", "PX", "N"]])


class TestLocationLoss:
    def test_perfect_map_near_zero(self):
        scene = two_ped_scene()
        tmap = build_target_map(scene, (20, 20), 1.0)
        values = np.where(tmap.labels == POSITIVE, 1.0 - 1e-9, 1e-9)
        loss = location_branch_loss(pmap(values), tmap)
        assert loss < 1e-12

    def test_all_ignored_zero(self):
        tmap = TargetMap(stride=1.0, labels=np.full((3, 3), IGNORED))
        assert location_branch_loss(pmap(np.full((3, 3), 0.5)), tmap) == 0.0

    def test_hand_case(self):
        labels = np.array([[POSITIVE, IGNORED], [NEGATIVE, NEGATIVE]])
        probs = pmap([[0.7, 0.2], [0.3, 0.1]])
        expected = 0.010963649607306543  # mean focal over the P and two N cells
        assert location_branch_loss(probs, TargetMap(stride=1.0, labels=labels)) == (
            pytest.approx(expected, abs=1e-12)
        )

    def test_matches_scalar_focal(self):
        rng = np.random.default_rng(45)
        cfg = CompositeConfig(focal_gamma=1.7, focal_alpha=0.4)
        values = rng.uniform(0.01, 0.99, (6, 6))
        labels = rng.choice([POSITIVE, IGNORED, NEGATIVE], size=(6, 6))
        expected_cells = [
            scalar_focal(values[r, c], 1 if labels[r, c] == POSITIVE else 0, 1.7, 0.4)
            for r in range(6)
            for c in range(6)
            if labels[r, c] != IGNORED
        ]
        got = location_branch_loss(pmap(values), TargetMap(stride=1.0, labels=labels), cfg)
        assert got == pytest.approx(sum(expected_cells) / len(expected_cells), abs=1e-12)

    def test_clamps_only_out_of_range_cells(self):
        # a cell at 1e-9 is in range and keeps its value beside a cell clamped from 1.0
        tmap = TargetMap(stride=1.0, labels=[[POSITIVE, NEGATIVE]])
        with pytest.warns(UserWarning, match=r"^1 probability cell\(s\) clamped"):
            got = location_branch_loss(pmap([[1e-9, 1.0]]), tmap)
        cells = [scalar_focal(1e-9, 1), scalar_focal(1.0, 0)]
        assert got == pytest.approx(sum(cells) / 2, rel=1e-12)
        assert got == pytest.approx(7.771, abs=1e-3)

    def test_ignored_values_irrelevant(self):
        labels = np.array([[POSITIVE, IGNORED], [NEGATIVE, IGNORED]])
        a = pmap([[0.7, 0.1], [0.3, 0.9]])
        b = pmap([[0.7, 0.6], [0.3, 0.2]])
        tmap = TargetMap(stride=1.0, labels=labels)
        assert location_branch_loss(a, tmap) == location_branch_loss(b, tmap)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            location_branch_loss(
                pmap([[0.5, 0.5]]), TargetMap(stride=1.0, labels=np.full((2, 2), NEGATIVE))
            )


class TestInformativeness:
    def test_indicator_map_hits_distractors_only(self):
        # grid-aligned construction: every selected cell inside the ground
        # truth yields a non-negative anchor, so all selected negatives sit
        # on the distractor
        scene = Scene(
            extent=(20.0, 8.0),
            pedestrians=[Pedestrian(full=BBox(0, 0, 4, 8), visible=BBox(0, 0, 4, 8))],
            distractors=[BBox(16, 0, 20, 8)],
        )
        indicator = indicator_probability_map(scene, stride=4.0)
        sel = select_anchors(indicator, scales=(math.sqrt(32.0),), ratios=(0.5,))
        assert not sel.fallback
        stats = negative_informativeness(sel, scene)
        assert stats.selected_negatives > 0
        assert stats.selected_fraction == 1.0
        assert stats.uniform_fraction < 1.0

    def test_flat_map_equals_uniform(self):
        scene = two_ped_scene()
        flat = ProbabilityMap(stride=1.0, values=np.full((20, 20), 0.5))
        sel = select_anchors(flat, scales=(4.0,), ratios=(0.5,))
        assert sel.fallback
        stats = negative_informativeness(sel, scene)
        assert stats.selected_fraction == stats.uniform_fraction
        assert stats.selected_negatives == stats.uniform_negatives

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 1.5, math.nan])
    def test_threshold_outside_unit_interval_rejected(self, threshold):
        # 0 and -1 counted no negatives; 1.5 and nan counted every anchor as a negative
        scene = two_ped_scene()
        sel = select_anchors(bump_probability_map(scene, 1.0), (4.0,), (0.5,))
        negative_informativeness(sel, scene, 1.0)  # the upper end is allowed
        with pytest.raises(InvalidInputError, match=r"^negative_iou_threshold must be in \(0, 1\], got "):
            negative_informativeness(sel, scene, threshold)


def random_anchor_scene(rng, peds, distractors):
    """Half the scenes sit on a 0.5 grid, so anchor IoUs meet thresholds and
    anchor centers meet distractor edges exactly."""
    on_grid = rng.random() < 0.5

    def coord(lo, hi):
        v = float(rng.uniform(lo, hi))
        return math.floor(v * 2.0) / 2.0 if on_grid else v

    w, h = coord(8.0, 40.0), coord(8.0, 40.0)

    def box(max_w, max_h):
        bw = max(coord(1.0, max_w), 1.0)
        bh = max(coord(1.0, max_h), 1.0)
        x1 = coord(0.0, w - bw)
        y1 = coord(0.0, h - bh)
        return BBox(x1, y1, x1 + bw, y1 + bh)

    pedestrians = []
    for _ in range(peds):
        full = box(min(12.0, w), min(24.0, h))
        cut = float(rng.uniform(0.3, 1.0))
        visible = BBox(full.x1, full.y1, full.x2, full.y1 + cut * full.height)
        pedestrians.append(Pedestrian(full=full, visible=visible))
    return Scene((w, h), pedestrians, [box(min(10.0, w), min(20.0, h)) for _ in range(distractors)])


class TestInformativenessMatchesScalar:
    """``negative_informativeness`` equals (``==``) the per-anchor scalar oracle."""

    @pytest.mark.parametrize("stride", [1.0, 3.0, 7.5])
    def test_random_scenes(self, stride):
        rng = np.random.default_rng(int(stride * 10))
        scales_pool, ratios_pool = (2.0, 4.5, 8.0, 16.0), (0.25, 0.41, 1.0, 4.0)
        for case in range(60):
            scene = random_anchor_scene(rng, int(rng.integers(0, 4)), int(rng.integers(0, 3)))
            scales = tuple(rng.choice(scales_pool, int(rng.integers(1, 4)), replace=False))
            ratios = tuple(rng.choice(ratios_pool, int(rng.integers(1, 3)), replace=False))
            if case % 4 == 0:  # constant map: the fallback keeps every cell
                height, width = scene_grid(scene, stride)
                pm = ProbabilityMap(stride=stride, values=np.full((height, width), 0.5))
            else:
                pm = bump_probability_map(scene, stride, seed=case)
            sel = select_anchors(pm, scales, ratios)
            assert sel.fallback == (case % 4 == 0)
            assert list(map(tuple, sel.anchors.tolist())) == scalar_anchor_boxes(sel.cells, stride, scales, ratios)
            thr = (0.1, 0.3, 0.5)[case % 3]
            got = negative_informativeness(sel, scene, thr)
            assert astuple(got) == scalar_negative_informativeness(sel, scene, thr)

    def test_no_pedestrians_and_no_distractors(self):
        rng = np.random.default_rng(7)
        for peds, distractors in ((0, 2), (2, 0), (0, 0)):
            scene = random_anchor_scene(rng, peds, distractors)
            sel = select_anchors(bump_probability_map(scene, 1.0), (4.0, 8.0), (0.41, 1.0))
            got = negative_informativeness(sel, scene)
            assert astuple(got) == scalar_negative_informativeness(sel, scene)
            if peds == 0:
                assert got.uniform_negatives == len(sel.scales) * len(sel.ratios) * sel.grid_height * sel.grid_width
            if distractors == 0:
                assert got.selected_hits == got.uniform_hits == 0

    def test_hand_built_anchor_set_scored_as_given(self):
        scene = two_ped_scene()
        sel = AnchorSet(
            anchors=np.array([(2, 2, 6, 10), (15, 3, 19, 7), (16.5, 4, 17.5, 6), (0, 14, 3, 19)], dtype=float),
            threshold=0.5,
            fallback=False,
            grid_height=4,
            grid_width=5,
            stride=5.0,
            scales=(3.0, 6.0),
            ratios=(0.5,),
        )
        got = negative_informativeness(sel, scene)
        assert (got.selected_negatives, got.selected_hits) == (3, 2)
        assert astuple(got) == scalar_negative_informativeness(sel, scene)


def hand_built_set(scales, ratios, grid=(4, 5), stride=5.0):
    anchors = np.array([(2, 2, 6, 10), (15, 3, 19, 7), (16.5, 4, 17.5, 6), (0, 14, 3, 19)], dtype=float)
    return AnchorSet(anchors, 0.5, False, *grid, stride, scales, ratios)


class TestUniformBaseline:
    """The uniform anchors of a grid are built once and shared by every scene on it."""

    def test_cached_grid_scores_like_a_fresh_one(self):
        other = Scene(
            extent=(20.0, 20.0),
            pedestrians=[Pedestrian(full=BBox(4, 6, 9, 18), visible=BBox(4, 6, 9, 12))],
            distractors=[BBox(12, 1, 15, 9), BBox(1, 1, 3, 5)],
        )
        scenes = [two_ped_scene(), other]
        sets = [select_anchors(bump_probability_map(s, 1.0, seed=i), (4.0, 8.0), (0.41,)) for i, s in enumerate(scenes)]
        _uniform_anchors.cache_clear()
        cached = [negative_informativeness(sel, s) for sel, s in zip(sets, scenes)]
        assert _uniform_anchors.cache_info()[:2] == (1, 1)  # (hits, misses): one grid, built once
        assert cached[0].uniform_hits != cached[1].uniform_hits
        fresh = []
        for sel, s in zip(sets, scenes):
            _uniform_anchors.cache_clear()
            fresh.append(negative_informativeness(sel, s))
        assert cached == fresh
        assert [astuple(c) for c in cached] == [scalar_negative_informativeness(sel, s) for sel, s in zip(sets, scenes)]

    def test_cached_arrays_are_read_only(self):
        anchors, anchor_centers = _uniform_anchors(3, 4, 2.0, (4.0,), (0.5, 1.0))
        assert anchors.shape == (24, 4) and anchor_centers.shape == (2, 24)
        for array in (anchors, anchor_centers):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 1.0

    def test_list_scales_and_ratios_score(self):
        scene, as_tuples = two_ped_scene(), hand_built_set((3.0, 6.0), (0.5,))
        got = negative_informativeness(hand_built_set([3.0, 6.0], [0.5]), scene)
        assert got == negative_informativeness(as_tuples, scene)
        assert astuple(got) == scalar_negative_informativeness(as_tuples, scene)

    def test_bad_grid_raises_on_every_call(self):
        # the selected anchors are valid boxes; the grid's overflow to inf is not
        sel = hand_built_set((1e308,), (4.0,))
        for _ in range(2):
            with pytest.raises(InvalidInputError, match=r"^non-finite box coordinates"):
                negative_informativeness(sel, two_ped_scene())


class TestSerialization:
    def test_probability_roundtrip(self, tmp_path):
        rng = np.random.default_rng(46)
        original = ProbabilityMap(stride=2.5, values=rng.uniform(0, 1, (7, 5)))
        path = tmp_path / "map.txt"
        save_probability_map(original, path)
        loaded = load_probability_map(path)
        assert loaded.stride == original.stride
        assert np.array_equal(loaded.values, original.values)
        header = path.read_text().splitlines()[0].split()
        assert header[0] == "5" and header[1] == "7"

    def test_target_roundtrip(self, tmp_path):
        rng = np.random.default_rng(47)
        labels = rng.choice([POSITIVE, IGNORED, NEGATIVE], size=(4, 6))
        original = TargetMap(stride=1.5, labels=labels)
        path = tmp_path / "targets.txt"
        save_target_map(original, path)
        loaded = load_target_map(path)
        assert loaded.stride == original.stride
        assert np.array_equal(loaded.labels, original.labels)

    def test_probability_bytes(self, tmp_path):
        path = tmp_path / "map.txt"
        save_probability_map(pmap([[0.1, 0.5, 1 / 3], [0.0, 1.0, 0.25]], stride=2.5), path)
        assert path.read_bytes() == b"3 2 2.5\n0.1 0.5 0.3333333333333333\n0.0 1.0 0.25\n"

    def test_target_bytes(self, tmp_path):
        path = tmp_path / "targets.txt"
        save_target_map(TargetMap(stride=1.5, labels=[["P", "I"], ["N", "N"], ["I", "P"]]), path)
        assert path.read_bytes() == b"2 3 1.5\nP I\nN N\nI P\n"

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 x 1.0\n")
        with pytest.raises(InvalidInputError):
            load_probability_map(path)

    def test_two_field_header_named_at_line_one(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5 7\n")
        message = f"{path}:1: expected header 'width height stride'"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            load_probability_map(path)

    def test_bad_row_width(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 1 1.0\n0.5\n")
        with pytest.raises(InvalidInputError):
            load_probability_map(path)


class TestBumpMap:
    def test_deterministic(self):
        scene = two_ped_scene()
        a = bump_probability_map(scene, 1.0, seed=3)
        b = bump_probability_map(scene, 1.0, seed=3)
        assert np.array_equal(a.values, b.values)

    def test_peaks_at_box_centers(self):
        scene = two_ped_scene()
        m = bump_probability_map(scene, 1.0, peak=0.9, background=0.05, seed=0)
        ped = scene.pedestrians[0].full
        row = int((ped.y1 + ped.y2) / 2)
        col = int((ped.x1 + ped.x2) / 2)
        assert m.values[row, col] > 0.7
        assert m.values[row, col] > 4 * m.values.mean()
