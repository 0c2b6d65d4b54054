import math
from dataclasses import astuple

import numpy as np
import pytest

from crowdloss.anchors import (
    IGNORED,
    Anchor,
    AnchorSet,
    NEGATIVE,
    POSITIVE,
    ProbabilityMap,
    TargetMap,
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
from crowdloss.baselines import CompositeConfig, focal_loss
from crowdloss.errors import InvalidAnnotationError, InvalidInputError
from crowdloss.geometry import BBox
from crowdloss.simulator import Pedestrian, Scene
from oracles import scalar_anchor_boxes, scalar_negative_informativeness


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
        assert sel.cells == [(1, 1)]
        assert len(sel.anchors) == 4  # 2 scales x 2 ratios
        assert sel.threshold == pytest.approx(0.5, abs=1e-15)

    def test_anchor_geometry(self):
        sel = select_anchors(pmap([[0, 1]], stride=4.0), scales=(8.0,), ratios=(0.25,))
        (anchor,) = sel.anchors
        box = anchor.box
        assert (box.x1 + box.x2) / 2 == pytest.approx(6.0)  # cell (0, 1) center
        assert (box.y1 + box.y2) / 2 == pytest.approx(2.0)
        assert box.width / box.height == pytest.approx(0.25)
        assert box.width * box.height == pytest.approx(64.0)

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
        assert sel.cells == [(0, 0), (1, 1)]
        with pytest.raises(InvalidInputError):
            select_anchors(pmap(values), keep_mask=np.ones((3, 3), dtype=bool))

    def test_bad_map(self):
        with pytest.raises(InvalidInputError):
            ProbabilityMap(stride=1.0, values=np.array([[0.5, 1.5]]))
        with pytest.raises(InvalidInputError):
            ProbabilityMap(stride=0.0, values=np.array([[0.5]]))


def two_ped_scene():
    return Scene(
        extent=(20.0, 20.0),
        pedestrians=[
            Pedestrian(full=BBox(2, 2, 6, 10), visible=BBox(2, 2, 6, 6)),
            Pedestrian(full=BBox(10, 4, 14, 12), visible=BBox(10, 4, 14, 12)),
        ],
        distractors=[BBox(16, 2, 18, 8)],
    )


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

    def test_invalid_annotation(self):
        with pytest.raises(InvalidAnnotationError):
            Scene(
                extent=(10.0, 10.0),
                pedestrians=[Pedestrian(full=BBox(2, 2, 4, 4), visible=BBox(1, 2, 4, 4))],
            )
        scene = two_ped_scene()
        bad = Pedestrian.__new__(Pedestrian)
        object.__setattr__(bad, "full", BBox(2, 2, 4, 4))
        object.__setattr__(bad, "visible", BBox(1, 2, 4, 4))
        scene.pedestrians.append(bad)
        with pytest.raises(InvalidAnnotationError):
            build_target_map(scene, (10, 10), 2.0)

    def test_multi_character_label_rejected_not_truncated(self):
        with pytest.raises(InvalidInputError, match="unknown target label 'PX'"):
            TargetMap(stride=1.0, labels=[["PX", "N"]])
        assert TargetMap(stride=1.0, labels=[["P", "N"]]).labels.dtype == np.dtype("<U1")


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
            focal_loss(values[r, c], 1 if labels[r, c] == POSITIVE else 0, 1.7, 0.4)
            for r in range(6)
            for c in range(6)
            if labels[r, c] != IGNORED
        ]
        got = location_branch_loss(pmap(values), TargetMap(stride=1.0, labels=labels), cfg)
        assert got == pytest.approx(sum(expected_cells) / len(expected_cells), abs=1e-12)

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
            assert [a.box.as_tuple() for a in sel.anchors] == scalar_anchor_boxes(sel.cells, stride, scales, ratios)
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
        boxes = [BBox(2, 2, 6, 10), BBox(15, 3, 19, 7), BBox(16.5, 4, 17.5, 6), BBox(0, 14, 3, 19)]
        sel = AnchorSet(
            anchors=[Anchor(0, k, b) for k, b in enumerate(boxes)],
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
