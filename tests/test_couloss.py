import math
from dataclasses import astuple

import numpy as np
import pytest

from crowdloss.baselines import composite_gradient, regression_targets
from crowdloss.couloss import (
    CouLossConfig,
    KinkWarning,
    TripletStructure,
    assemble_triplets,
    attractive_force,
    couloss,
    couloss_gradient,
    detect_kinks,
    effective_cos,
    repulsive_force,
)
from crowdloss.errors import InvalidInputError, NoOverlapError
from crowdloss.geometry import BBox, border_distance, iou
from crowdloss.simulator import SimConfig, generate_scene, run_descent, spawn_proposals
from oracles import brute_force_couloss, central_difference_gradient
from util import jittered_box, overlapping_pair

# Hand fixture from the force/work derivation, frozen via the brute-force
# oracle: G_i/G_j overlap, P_p assigned to G_i, P_n to G_j.
G_I = BBox(0, 0, 4, 8)
G_J = BBox(3, 0, 7, 8)
P_P = BBox(0.5, 1, 4.5, 9)
P_N = BBox(2, 0, 6, 8)  # center on G_i's horizontal center line -> s = 0
P_N2 = BBox(2, 0.5, 6, 8.5)  # shifted: both work terms strictly positive

W_A_FROZEN = 0.11940688858909873
W_R2_FROZEN = 0.1253516681616051
TOTAL_FROZEN = 0.10362284349652436  # two-proposal scene, both modes
TOTAL2_FROZEN = 0.2428209423306117  # P_N2 scene, both modes
# three-proposal scene (extra negative) separates the aggregation modes
P_N3 = BBox(2.5, 0.5, 6.5, 8.5)
TOTAL3_LITERAL = 0.27536826688392385
TOTAL3_DEDUP = 0.1717454233873995


def nested_box_with_iou(target_iou: float) -> tuple[BBox, BBox]:
    """A box pair whose IoU is exactly ``target_iou`` (nested construction)."""
    outer = BBox(0, 0, 1, 1)
    inner = BBox(0, 0, target_iou, 1)
    return outer, inner


class TestForces:
    def test_attractive_zero_at_full_overlap(self):
        b = BBox(1, 2, 5, 9)
        assert attractive_force(b, b) == 0.0

    def test_attractive_at_inverse_e(self):
        g, p = nested_box_with_iou(1 / math.e)
        assert attractive_force(g, p) == pytest.approx(1.0, abs=1e-12)

    def test_attractive_clamped_at_floor(self):
        g, p = nested_box_with_iou(1e-6)
        assert attractive_force(g, p) == pytest.approx(-math.log(1e-6), abs=1e-9)
        tiny = nested_box_with_iou(1e-9)
        assert attractive_force(*tiny) == pytest.approx(-math.log(1e-6), abs=1e-9)

    def test_attractive_monotone_decreasing(self):
        values = [attractive_force(*nested_box_with_iou(v)) for v in np.linspace(0.05, 0.999, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_repulsive_vanishes_at_zero_overlap_limit(self):
        g = BBox(0, 0, 1, 1)
        p = BBox(1 - 1e-12, 0, 2, 1)
        assert abs(repulsive_force(g, p)) < 1e-12

    def test_repulsive_known_values(self):
        g, p = nested_box_with_iou(1 - 1 / math.e)
        assert repulsive_force(g, p) == pytest.approx(1.0, abs=1e-12)
        g, p = nested_box_with_iou(0.5)
        assert repulsive_force(g, p) == pytest.approx(math.log(2), abs=1e-12)

    def test_repulsive_monotone_increasing(self):
        values = [repulsive_force(*nested_box_with_iou(v)) for v in np.linspace(0.01, 0.95, 40)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_no_overlap_errors(self):
        a, b = BBox(0, 0, 1, 1), BBox(5, 5, 6, 6)
        with pytest.raises(NoOverlapError):
            attractive_force(a, b)
        with pytest.raises(NoOverlapError):
            repulsive_force(a, b)


class TestEffectiveCos:
    def test_attractive_always_one(self):
        cos_a, _ = effective_cos(G_I, P_N, G_J)
        assert cos_a == 1.0

    def test_collinear_same_side(self):
        # centers: G_i (0,0)-ish, P_n at (3,0), G_j at (5,0)
        g_i = BBox(-1, -1, 1, 1)
        p_n = BBox(2, -1, 4, 1)
        g_j = BBox(4, -1, 6, 1)
        assert effective_cos(g_i, p_n, g_j)[1] == 1.0

    def test_collinear_opposite_sides(self):
        g_i = BBox(-1, -1, 1, 1)
        p_n = BBox(-2, -1, 0, 1)  # center (-1, 0)
        g_j = BBox(4, -1, 6, 1)
        assert effective_cos(g_i, p_n, g_j)[1] == -1.0

    def test_right_angle(self):
        g_i = BBox(-1, -1, 1, 1)
        p_n = BBox(-1, 0, 1, 2)  # center (0, 1)
        g_j = BBox(4, -1, 6, 1)
        assert effective_cos(g_i, p_n, g_j)[1] == pytest.approx(0.0, abs=1e-12)


def triplet_work(gts, proposals, triplet=(0, 0, 1)):
    """Attractive and repulsive work of the (gt, positive, negative) triplet of a scene."""
    report = couloss(gts, proposals)
    (work,) = [t for t in report.per_triplet if astuple(t.triplet) == triplet]
    return work.attractive, work.repulsive


class TestWorkTerms:
    def test_perfect_positive_gives_zero_attraction(self):
        w_a, _ = triplet_work([G_I, G_J], [G_I, P_N])
        assert w_a == 0.0

    def test_negative_cos_clamped(self):
        # P_n on the far side of G_i from G_j: cos < 0, work clamped to 0
        g_i = BBox(10, 10, 14, 18)
        g_j = BBox(6.5, 7, 19, 21)
        p_p = BBox(10.2, 10.4, 14.2, 18.4)
        p_n = BBox(2.5, 8, 16.5, 20.5)  # center left of G_i's center, G_j's right of it
        assert effective_cos(g_i, p_n, g_j)[1] < -0.99 and border_distance(g_i, p_n) > 0.2
        _, w_r = triplet_work([g_i, g_j], [p_p, p_n])
        assert w_r == 0.0

    def test_frozen_fixture(self):
        w_a, w_r = triplet_work([G_I, G_J], [P_P, P_N])
        assert w_a == pytest.approx(W_A_FROZEN, abs=1e-12)
        assert w_r == 0.0  # s factor vanishes on the center line

    def test_frozen_fixture_positive_pair(self):
        w_a, w_r = triplet_work([G_I, G_J], [P_P, P_N2])
        assert w_a == pytest.approx(W_A_FROZEN, abs=1e-12)
        assert w_r == pytest.approx(W_R2_FROZEN, abs=1e-12)


class TestAssembleTriplets:
    def test_single_gt_no_triplets(self):
        triplets, assignments = assemble_triplets([G_I], [P_P, BBox(0.4, 0.9, 4.4, 8.9)])
        assert triplets == []
        assert len(assignments) == 2

    def test_disjoint_gts_no_cross_overlap(self):
        g0 = BBox(0, 0, 4, 8)
        g1 = BBox(50, 50, 54, 58)
        p0 = BBox(0.2, 0.3, 4.2, 8.3)
        p1 = BBox(50.2, 50.3, 54.2, 58.3)
        triplets, assignments = assemble_triplets([g0, g1], [p0, p1])
        assert len(assignments) == 2
        assert triplets == []

    def test_two_gt_fixture_has_two_triplets(self):
        triplets, assignments = assemble_triplets([G_I, G_J], [P_P, P_N])
        assert {(a.proposal_index, a.target_gt_index) for a in assignments} == {(0, 0), (1, 1)}
        assert {(t.gt_index, t.positive_index, t.negative_index) for t in triplets} == {
            (0, 0, 1),
            (1, 1, 0),
        }

    def test_center_filter_blocks_assignment(self):
        # high IoU but proposal center outside the ground truth
        g = BBox(0, 0, 10, 10)
        p = BBox(4.5, 4.5, 15.5, 15.5)  # center (10, 10) on corner -> inside (closed)
        p_out = BBox(5.2, 5.2, 16.2, 16.2)  # center (10.7, 10.7) outside
        assert iou(g, p_out) > 0.5 * iou(g, p) > 0
        _, assignments = assemble_triplets([g], [p_out])
        assert assignments == []

    def test_threshold_blocks_assignment(self):
        g = BBox(0, 0, 10, 10)
        p = BBox(0, 0, 10, 5.1)  # iou just over 0.5 -> assigned
        q = BBox(0, 0, 10, 4.9)  # iou just under 0.5 -> not assigned
        _, a1 = assemble_triplets([g], [p])
        _, a2 = assemble_triplets([g], [q])
        assert len(a1) == 1 and a2 == []

    def test_empty_proposals(self):
        triplets, assignments = assemble_triplets([G_I], [])
        assert triplets == [] and assignments == []


def detect_kinks_with_structure(gts, proposals):
    """``detect_kinks`` with a given structure, which skips the assignment."""
    return detect_kinks(gts, proposals, structure=TripletStructure.from_boxes([G_I, G_J], [P_P, P_N2]))


@pytest.mark.parametrize(
    "fn",
    [detect_kinks, detect_kinks_with_structure, assemble_triplets, TripletStructure.from_boxes, regression_targets,
     couloss_gradient, composite_gradient],
    ids=lambda fn: fn.__name__,
)
def test_no_ground_truths_rejected(fn):
    with pytest.raises(InvalidInputError):
        fn([], [BBox(0, 0, 1, 1)])


class TestCouLoss:
    def test_zero_gts_error(self):
        with pytest.raises(InvalidInputError):
            couloss([], [P_P])

    def test_perfect_disjoint_scene_zero(self):
        g0 = BBox(0, 0, 4, 8)
        g1 = BBox(50, 0, 54, 8)
        report = couloss([g0, g1], [g0, g1])
        assert report.total == 0.0

    def test_single_gt_zero(self):
        report = couloss([G_I], [P_P, BBox(0.6, 1.1, 4.6, 9.1)])
        assert report.total == 0.0
        assert report.per_triplet == ()

    def test_frozen_two_proposal_scene_both_modes(self):
        for mode in ("deduplicated", "triplet-literal"):
            report = couloss([G_I, G_J], [P_P, P_N], CouLossConfig(aggregation_mode=mode))
            assert report.total == pytest.approx(TOTAL_FROZEN, abs=1e-12)
            assert report.total == pytest.approx(
                (report.attractive_work + report.repulsive_work) / report.num_gts, rel=1e-12
            )

    def test_frozen_positive_pair_scene(self):
        report = couloss([G_I, G_J], [P_P, P_N2])
        assert report.total == pytest.approx(TOTAL2_FROZEN, abs=1e-12)

    def test_modes_differ_with_shared_attraction(self):
        gts = [G_I, G_J]
        props = [P_P, P_N, P_N3]
        lit = couloss(gts, props, CouLossConfig(aggregation_mode="triplet-literal"))
        ded = couloss(gts, props, CouLossConfig(aggregation_mode="deduplicated"))
        assert lit.total == pytest.approx(TOTAL3_LITERAL, abs=1e-12)
        assert ded.total == pytest.approx(TOTAL3_DEDUP, abs=1e-12)
        assert lit.total > ded.total

    def test_literal_always_at_least_dedup(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g0, g1 = overlapping_pair(rng)
            props = [jittered_box(rng, g, 0.12) for g in (g0, g1) for _ in range(3)]
            lit = couloss([g0, g1], props, CouLossConfig(aggregation_mode="triplet-literal"))
            ded = couloss([g0, g1], props, CouLossConfig(aggregation_mode="deduplicated"))
            assert lit.total >= ded.total - 1e-12

    def test_non_negativity_and_breakdown(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            g0, g1 = overlapping_pair(rng)
            props = [jittered_box(rng, g, 0.15) for g in (g0, g1) for _ in range(3)]
            report = couloss([g0, g1], props)
            assert report.total >= 0.0
            assert report.attractive_work >= 0.0
            assert report.repulsive_work >= 0.0
            for tw in report.per_triplet:
                assert tw.attractive >= 0.0 and tw.repulsive >= 0.0

    def test_translation_and_scale_equivariance(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            g0, g1 = overlapping_pair(rng)
            props = [jittered_box(rng, g, 0.1) for g in (g0, g1) for _ in range(2)]
            base = couloss([g0, g1], props).total
            dx, dy = rng.uniform(-40, 40, 2)
            k = rng.uniform(0.25, 4.0)

            def move(b, f):
                return BBox(*f(b))

            shifted = couloss(
                [move(g, lambda b: (b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)) for g in (g0, g1)],
                [move(p, lambda b: (b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)) for p in props],
            ).total
            scaled = couloss(
                [move(g, lambda b: (b.x1 * k, b.y1 * k, b.x2 * k, b.y2 * k)) for g in (g0, g1)],
                [move(p, lambda b: (b.x1 * k, b.y1 * k, b.x2 * k, b.y2 * k)) for p in props],
            ).total
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert scaled == pytest.approx(base, rel=1e-9, abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(24)
        cfgs = {
            "deduplicated": CouLossConfig(aggregation_mode="deduplicated"),
            "triplet-literal": CouLossConfig(aggregation_mode="triplet-literal"),
        }
        for _ in range(40):
            g0, g1 = overlapping_pair(rng)
            props = [jittered_box(rng, g, 0.15) for g in (g0, g1) for _ in range(3)]
            gts_t = [g.as_tuple() for g in (g0, g1)]
            props_t = [p.as_tuple() for p in props]
            for mode, cfg in cfgs.items():
                expected, att, rep, _ = brute_force_couloss(gts_t, props_t, mode=mode)
                report = couloss([g0, g1], props, cfg)
                assert report.total == pytest.approx(expected, abs=1e-9)
                assert report.attractive_work == pytest.approx(att, abs=1e-9)
                assert report.repulsive_work == pytest.approx(rep, abs=1e-9)

    def test_repulsion_limit_as_negative_reaches_its_target(self):
        # with P_n == G_j exactly, its W_r equals F_r * cos * s at G_j's center
        report = couloss([G_I, G_J], [P_P, G_J])
        from crowdloss.geometry import border_distance, center, cos_angle_at

        f_r = -math.log(1 - iou(G_I, G_J))
        cos_r = cos_angle_at(center(G_I), center(G_J), center(G_J))
        expected = max(0.0, f_r * cos_r * border_distance(G_I, G_J))
        terms = [t for t in report.per_triplet if t.triplet.gt_index == 0]
        assert len(terms) == 1
        assert terms[0].repulsive == pytest.approx(expected, abs=1e-12)

    def test_repulsion_zero_when_center_half_extent_outside(self):
        # negative proposal center more than half an extent beyond two of G_i's
        # borders: both factors are negative, so only their clamp keeps s at 0
        g_i = BBox(0, 0, 4, 8)
        g_j = BBox(3, 6.5, 11, 17.5)
        p_p = BBox(0.3, 0.5, 4.3, 8.5)
        p_n = BBox(3, 7, 11, 18)  # center (7, 12.5): 7 > 4 + 2 and 12.5 > 8 + 4, assigned to G_j
        _, w_r = triplet_work([g_i, g_j], [p_p, p_n])
        assert w_r == 0.0


class TestGradient:
    def test_zero_loss_zero_gradient(self):
        g0 = BBox(0, 0, 4, 8)
        g1 = BBox(50, 0, 54, 8)
        grad = couloss_gradient([g0, g1], [g0, g1])
        assert np.all(grad == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(25)
        checked = 0
        for _ in range(120):
            g0, g1 = overlapping_pair(rng)
            gts = [g0, g1]
            props = [jittered_box(rng, g, 0.1) for g in gts for _ in range(2)]
            for mode in ("deduplicated", "triplet-literal"):
                cfg = CouLossConfig(aggregation_mode=mode)
                if detect_kinks(gts, props, cfg, tolerance=1e-3):
                    continue
                analytic = couloss_gradient(gts, props, cfg)
                scale = sum(max(g.width, g.height) for g in gts) / len(gts)

                def f(tuples):
                    return couloss(gts, [BBox(*t) for t in tuples], cfg).total

                fd = np.array(
                    central_difference_gradient(f, [p.as_tuple() for p in props], 1e-5 * scale)
                )
                denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
                assert np.abs(analytic - fd).max() / denom < 1e-4
                checked += 1
        assert checked > 100

    def test_clamped_repulsion_contributes_nothing(self):
        # all repulsive terms clamped (cos < 0): full gradient == attraction-only
        g_i = BBox(10, 10, 14, 18)
        g_j = BBox(13, 10.5, 17, 18.5)
        p_p = BBox(10.3, 10.2, 14.3, 18.2)
        p_n = BBox(7.6, 10.8, 11.6, 18.8)
        gts = [g_i, g_j]
        props = [p_p, p_n]
        report = couloss(gts, props)
        assert report.repulsive_work == 0.0
        full = couloss_gradient(gts, props)
        att_only = couloss_gradient(gts, props, include_repulsion=False)
        assert np.array_equal(full, att_only)

    def test_descent_step_increases_iou_for_isolated_pair(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            g0, g1 = overlapping_pair(rng)
            props = [jittered_box(rng, g0, 0.1)]
            report = couloss([g0, g1], props)
            if not report.per_triplet or report.attractive_work == 0.0:
                continue
            grad = couloss_gradient([g0, g1], props, include_repulsion=False)
            before = iou(g0, props[0])
            step = 1e-3
            moved = BBox(*(np.array(props[0].as_tuple()) - step * grad[0]))
            assert iou(g0, moved) > before

    def test_frozen_structure_reuse(self):
        gts = [G_I, G_J]
        props = [P_P, P_N2]
        triplets, assignments = assemble_triplets(gts, props)
        structure = TripletStructure.build(triplets, assignments)
        moved = [jittered_box(np.random.default_rng(5), p, 0.05) for p in props]
        report = couloss(gts, moved, structure=structure)
        grad = couloss_gradient(gts, moved, structure=structure)
        assert math.isfinite(report.total)
        assert np.all(np.isfinite(grad))


class TestKinks:
    def test_fixture_near_threshold_detected(self):
        g = BBox(0, 0, 10, 10)
        p = BBox(0, 0, 10, 5.0000001)  # IoU within 1e-7 of the 0.5 threshold
        lines = detect_kinks([g], [p], tolerance=1e-6)
        assert any("positive threshold" in line for line in lines)

    @pytest.mark.parametrize("tolerance", [math.nan, -1.0])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(InvalidInputError, match=rf"^tolerance must be finite and >= 0, got {tolerance!r}$"):
            detect_kinks([BBox(0, 0, 10, 10)], [BBox(0, 0, 10, 5.0000001)], tolerance=tolerance)

    def test_center_line_configuration_detected(self):
        lines = detect_kinks([G_I, G_J], [P_P, P_N])
        assert any("min(l,r) or min(t,b) tie" in line or "zero clamp" in line for line in lines)

    def test_warning_emitted_on_request(self):
        with pytest.warns(KinkWarning):
            couloss_gradient([G_I, G_J], [P_P, P_N], warn_kinks=True)

    @pytest.mark.parametrize("api", ["couloss_gradient", "composite_gradient", "run_descent"])
    def test_warning_attributed_to_caller(self, api):
        # to the first frame outside the package, however deep the call
        cfg = SimConfig(proposal_jitter=0.0, descent_steps=2, proposals_per_gt=1, warn_kinks=True)
        scene = generate_scene(cfg, 3)
        with pytest.warns(KinkWarning) as caught:
            if api == "couloss_gradient":
                couloss_gradient([G_I, G_J], [P_P, P_N], warn_kinks=True)
            elif api == "composite_gradient":
                composite_gradient([G_I, G_J], [P_P, P_N], warn_kinks=True)
            else:
                run_descent(scene, spawn_proposals(scene, cfg, 4), sim_cfg=cfg)
        assert caught.list and {w.filename for w in caught} == {__file__}

    def test_clean_scene_no_kinks(self):
        rng = np.random.default_rng(27)
        g0, g1 = overlapping_pair(rng)
        props = [jittered_box(rng, g, 0.1) for g in (g0, g1) for _ in range(2)]
        lines = detect_kinks([g0, g1], props, tolerance=1e-9)
        assert lines == []


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            CouLossConfig(positive_iou_threshold=1.5)
        with pytest.raises(InvalidInputError):
            CouLossConfig(iou_floor=0.0)
        with pytest.raises(InvalidInputError):
            CouLossConfig(aggregation_mode="bogus")
