import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdloss._pairs import best_gt, box_array
from crowdloss.anchors import NEGATIVE, POSITIVE, ProbabilityMap, TargetMap, location_branch_loss
from crowdloss.baselines import (
    CompositeConfig,
    _targets,
    composite_gradient,
    composite_regression_loss,
    regression_targets,
    scene_scale,
)
from crowdloss.couloss import AGGREGATION_MODES, CouLossConfig, couloss
from crowdloss.errors import InfeasibleConfigError, InvalidInputError
from crowdloss.geometry import BBox
from crowdloss.simulator import SimConfig, generate_scene, spawn_proposals, standard_variants
from oracles import central_difference_gradient, scalar_regression_targets
from util import jittered_box, overlapping_pair


# a unit-scale ground truth (max extent 1) and one proposal: the composite's
# SmoothL1 mean is the proposal's SmoothL1 against it, in the box's own units
UNIT = BBox(0, 0, 1, 0.5)


def unit_smooth_l1(pred, beta=1.0):
    return composite_regression_loss([UNIT], [pred], CompositeConfig(alpha=0.0, smoothl1_beta=beta)).smooth_l1


class TestSmoothL1:
    def test_zero_at_target(self):
        assert unit_smooth_l1(UNIT) == 0.0

    def test_boundary_diff(self):
        # single coordinate off by exactly beta: both branches give 0.5
        assert unit_smooth_l1(BBox(-1, 0, 1, 0.5), beta=1.0) == pytest.approx(0.5)

    def test_linear_at_exactly_beta(self):
        # |d| == beta takes the linear branch: 0.1 - 0.05 is 0.05, while the
        # quadratic 0.5 * 0.1**2 / 0.1 rounds to 0.05000000000000001
        cfg = CompositeConfig(alpha=0.0, smoothl1_beta=0.1)
        assert composite_regression_loss([BBox(0, 0, 1, 1)], [BBox(0.1, 0, 1, 1)], cfg).smooth_l1 == 0.05

    def test_linear_branch(self):
        assert unit_smooth_l1(BBox(-2, 0, 1, 0.5), beta=1.0) == pytest.approx(1.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pred = jittered_box(rng, UNIT, 0.2)
            beta = rng.uniform(0.015, 0.15)
            cfg = CompositeConfig(alpha=0.0, smoothl1_beta=beta, smoothl1_weight=1.0)
            analytic = composite_gradient([UNIT], [pred], cfg)[0]

            def f(tuples):
                return unit_smooth_l1(BBox(*tuples[0]), beta=beta)

            fd = central_difference_gradient(f, [pred.as_tuple()], 5e-8)[0]
            assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)


def focal_cell(p, label, focal_gamma=2.0, focal_alpha=0.25):
    """``location_branch_loss`` of a one-cell map: the focal loss of one prediction."""
    cfg = CompositeConfig(focal_gamma=focal_gamma, focal_alpha=focal_alpha)
    tmap = TargetMap(stride=1.0, labels=[[POSITIVE if label else NEGATIVE]])
    return location_branch_loss(ProbabilityMap(stride=1.0, values=[[p]]), tmap, cfg)


class TestFocalLoss:
    def test_reduces_to_cross_entropy(self):
        for p, label in [(0.3, 1), (0.8, 0), (0.5, 1)]:
            ce = -math.log(p if label == 1 else 1 - p)
            assert focal_cell(p, label, focal_gamma=0.0, focal_alpha=1.0 if label else 0.0) == (
                pytest.approx(ce, abs=1e-12)
            )

    def test_vanishes_as_pt_reaches_one(self):
        assert focal_cell(1 - 1e-9, 1) < 1e-15
        assert focal_cell(1e-9, 0) < 1e-15

    def test_hand_value(self):
        expected = 0.25 * 0.1**2 * -math.log(0.9)
        assert focal_cell(0.9, 1, 2.0, 0.25) == pytest.approx(expected, abs=1e-12)

    def test_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            v = focal_cell(1.0, 1)
        assert v >= 0.0
        with pytest.warns(UserWarning):
            focal_cell(0.0, 0)

    def test_dominated_by_cross_entropy(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            p = rng.uniform(1e-4, 1 - 1e-4)
            label = int(rng.integers(0, 2))
            ce = -math.log(p if label == 1 else 1 - p)
            fl = focal_cell(p, label, focal_gamma=2.0, focal_alpha=1.0 if label else 0.0)
            assert fl <= ce + 1e-12


class TestRegressionTargets:
    def test_argmax_assignment(self):
        g0 = BBox(0, 0, 4, 8)
        g1 = BBox(10, 0, 14, 8)
        p = BBox(0.5, 0.5, 4.5, 8.5)
        assert regression_targets([g0, g1], [p]) == [0]

    def test_nearest_center_fallback(self):
        g0 = BBox(0, 0, 4, 8)
        g1 = BBox(40, 0, 44, 8)
        p = BBox(30, 20, 32, 24)  # disjoint from both, nearer g1
        assert regression_targets([g0, g1], [p]) == [1]

    def test_batch_matches_scalar_oracle_with_disjoint_proposals(self):
        # ground-truth centers (10, 10), (16, 18) and (20, 10), each box 2 x 4; a
        # proposal centered at (13, 14) is 5 from the first two and one at
        # (15, 10) is 5 from the first and the last: ties toward the lowest index
        centers = [(10, 10), (16, 18), (20, 10)]
        gts = [(x - 1, y - 2, x + 1, y + 2) for x, y in centers]
        proposals = [
            (12.5, 13.5, 13.5, 14.5),
            (14.5, 9.5, 15.5, 10.5),
            (9.5, 8.5, 11.5, 12.5),  # overlaps (10, 10)
            (60.0, 70.0, 64.0, 71.0),
            (15.0, 17.0, 17.0, 21.0),  # overlaps (16, 18)
        ]
        far = [(x, y, x + 1.5, y + 2.5) for x, y in np.random.default_rng(5).uniform(30.0, 90.0, (5, 2)).tolist()]
        members = [
            ([gts[i] for i in (0, 1, 2)], proposals),
            ([gts[i] for i in (2, 1, 0)], proposals),
            ([gts[i] for i in (1, 2, 0)], proposals[::-1]),
            ([gts[i] for i in (0, 2, 1)], [proposals[k] for k in (2, 4, 2, 4, 2)]),  # none disjoint
            ([gts[i] for i in (1, 0, 2)], far),
        ]
        G = np.array([m[0] for m in members], dtype=float)
        P = np.array([m[1] for m in members], dtype=float)
        got = _targets(G, P, best_gt(G, P))
        expected = [scalar_regression_targets(g, p) for g, p in members]
        assert got.tolist() == expected
        assert expected[0][:2] == [0, 0] and expected[1][:2] == [1, 0] and expected[2][-2:] == [1, 0]


class TestComposite:
    def test_perfect_smoothl1_only(self):
        g0 = BBox(0, 0, 4, 8)
        g1 = BBox(40, 0, 44, 8)
        report = composite_regression_loss([g0, g1], [g0, g1], CompositeConfig(alpha=0.0))
        assert report.total == 0.0
        assert report.couloss is None

    def test_default_weights(self):
        cfg = CompositeConfig()
        assert (cfg.alpha, cfg.gamma) == (1.0, 1.0)
        assert not hasattr(cfg, "beta")
        assert (cfg.focal_gamma, cfg.focal_alpha) == (2.0, 0.25)

    def test_linearity(self):
        rng = np.random.default_rng(33)
        cou_cfg = CouLossConfig()
        for _ in range(30):
            g0, g1 = overlapping_pair(rng)
            gts = [g0, g1]
            props = [jittered_box(rng, g, 0.12) for g in gts for _ in range(2)]
            alpha = rng.uniform(0.0, 3.0)
            w = rng.uniform(0.0, 3.0)
            cfg = CompositeConfig(alpha=alpha, smoothl1_weight=w)
            report = composite_regression_loss(gts, props, cfg, cou_cfg)
            assert report.total == pytest.approx(
                w * report.smooth_l1 + alpha * report.couloss_total, rel=1e-12, abs=1e-15
            )
            if alpha > 0:
                standalone = couloss(gts, props, cou_cfg)
                assert report.couloss_total == standalone.total

    def test_toggles_change_only_their_term(self):
        rng = np.random.default_rng(34)
        g0, g1 = overlapping_pair(rng)
        gts = [g0, g1]
        props = [jittered_box(rng, g, 0.12) for g in gts for _ in range(3)]
        full = composite_regression_loss(gts, props, CompositeConfig())
        att = composite_regression_loss(gts, props, CompositeConfig(include_repulsion=False))
        rep = composite_regression_loss(gts, props, CompositeConfig(include_attraction=False))
        assert att.smooth_l1 == full.smooth_l1
        assert rep.smooth_l1 == full.smooth_l1
        assert att.couloss_total + rep.couloss_total == pytest.approx(
            full.couloss_total, rel=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(35)
        cou_cfg = CouLossConfig()
        from crowdloss.couloss import detect_kinks

        checked = 0
        for _ in range(60):
            g0, g1 = overlapping_pair(rng)
            gts = [g0, g1]
            props = [jittered_box(rng, g, 0.1) for g in gts for _ in range(2)]
            if detect_kinks(gts, props, cou_cfg, tolerance=1e-3):
                continue
            cfg = CompositeConfig(smoothl1_weight=rng.uniform(0.5, 30.0))
            analytic = composite_gradient(gts, props, cfg, cou_cfg)
            scale = scene_scale(box_array(gts))

            def f(tuples):
                return composite_regression_loss(
                    gts, [BBox(*t) for t in tuples], cfg, cou_cfg
                ).total

            fd = np.array(
                central_difference_gradient(f, [p.as_tuple() for p in props], 1e-5 * scale)
            )
            denom = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
            assert np.abs(analytic - fd).max() / denom < 1e-4
            checked += 1
        assert checked > 40

    def test_scale_invariant_value(self):
        # joint scaling by a power of two leaves the composite bitwise unchanged
        rng = np.random.default_rng(36)
        g0, g1 = overlapping_pair(rng)
        gts = [g0, g1]
        props = [jittered_box(rng, g, 0.1) for g in gts for _ in range(2)]
        base = composite_regression_loss(gts, props)

        def scale2(b):
            return BBox(b.x1 * 2, b.y1 * 2, b.x2 * 2, b.y2 * 2)

        scaled = composite_regression_loss([scale2(g) for g in gts], [scale2(p) for p in props])
        assert scaled.total == base.total

    def test_empty_gts_error(self):
        with pytest.raises(InvalidInputError):
            composite_regression_loss([], [BBox(0, 0, 1, 1)])

    @pytest.mark.parametrize("mode", AGGREGATION_MODES)
    @pytest.mark.parametrize("variant", [k for k, v in standard_variants().items() if v.alpha > 0.0])
    def test_couloss_report_is_the_standalone_couloss(self, variant, mode):
        # the composite's CouLoss breakdown, term switches included, bit for bit
        comp_cfg, cou_cfg, sim = standard_variants()[variant], CouLossConfig(aggregation_mode=mode), SimConfig()
        for seed in range(40):
            scene = generate_scene(sim, seed)
            gts, props = scene.gt_boxes, spawn_proposals(scene, sim, seed + 1)
            got = composite_regression_loss(gts, props, comp_cfg, cou_cfg).couloss
            want = couloss(gts, props, cou_cfg, include_attraction=comp_cfg.include_attraction,
                           include_repulsion=comp_cfg.include_repulsion)
            bits = [(r.total.hex(), r.attractive_work.hex(), r.repulsive_work.hex()) for r in (got, want)]
            assert bits[0] == bits[1] and got == want, seed
            assert np.array_equal(got.pair_work, want.pair_work), seed


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    pedestrians=st.integers(1, 4),
    proposals_per_gt=st.integers(1, 4),
    jitter=st.sampled_from([0.05, 0.2, 0.5, 1.5]),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_proposal_permutation_permutes_the_gradient(pedestrians, proposals_per_gt, jitter, seed, data):
    # the composite of a proposal set does not depend on its order: the value
    # stays (up to the order of the sums) and the gradient's rows move with it
    sim = SimConfig(pedestrian_count=pedestrians, proposals_per_gt=proposals_per_gt, proposal_jitter=jitter)
    try:
        scene = generate_scene(sim, seed)
    except InfeasibleConfigError:
        assume(False)
    gts, proposals = scene.gt_boxes, spawn_proposals(scene, sim, seed + 1)
    order = data.draw(st.permutations(range(len(proposals))))
    permuted = [proposals[k] for k in order]
    for mode in AGGREGATION_MODES:
        cou = CouLossConfig(aggregation_mode=mode)
        value = composite_regression_loss(gts, proposals, cou_cfg=cou).total
        assert composite_regression_loss(gts, permuted, cou_cfg=cou).total == pytest.approx(value, rel=1e-12, abs=0)
        grad = composite_gradient(gts, proposals, cou_cfg=cou)
        np.testing.assert_allclose(composite_gradient(gts, permuted, cou_cfg=cou), grad[order], rtol=1e-12, atol=0)
