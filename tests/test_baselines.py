import math

import numpy as np
import pytest

from crowdloss.baselines import (
    CompositeConfig,
    composite_gradient,
    composite_regression_loss,
    focal_loss,
    iou_loss,
    iou_loss_gradient,
    regression_targets,
    scene_scale,
    smooth_l1,
    smooth_l1_gradient,
)
from crowdloss.couloss import CouLossConfig, couloss
from crowdloss.errors import InvalidInputError, NoOverlapError
from crowdloss.geometry import BBox, iou
from oracles import central_difference_gradient
from util import jittered_box, overlapping_pair


class TestSmoothL1:
    def test_zero_at_target(self):
        b = BBox(1, 2, 5, 9)
        assert smooth_l1(b, b) == 0.0

    def test_boundary_diff(self):
        # single coordinate off by exactly beta: both branches give 0.5
        assert smooth_l1(BBox(1, 0, 4, 4), BBox(0, 0, 4, 4), beta=1.0) == pytest.approx(0.5)

    def test_linear_branch(self):
        assert smooth_l1(BBox(2, 0, 4, 4), BBox(0, 0, 4, 4), beta=1.0) == pytest.approx(1.5)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            target = BBox(0, 0, 10, 20)
            pred = jittered_box(rng, target, 0.2)
            beta = rng.uniform(0.3, 3.0)
            analytic = smooth_l1_gradient(pred, target, beta)

            def f(tuples):
                return smooth_l1(BBox(*tuples[0]), target, beta)

            fd = central_difference_gradient(f, [pred.as_tuple()], 1e-6)[0]
            assert np.allclose(analytic, fd, rtol=1e-4, atol=1e-6)


class TestIoULoss:
    def test_identical_boxes(self):
        b = BBox(0, 0, 3, 7)
        assert iou_loss(b, b) == 0.0

    def test_one_seventh(self):
        assert iou_loss(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(
            math.log(7), abs=1e-12
        )

    def test_inverse_e(self):
        assert iou_loss(BBox(0, 0, 1, 1), BBox(0, 0, 1 / math.e, 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_disjoint_raises(self):
        with pytest.raises(NoOverlapError):
            iou_loss(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6))
        with pytest.raises(NoOverlapError):
            iou_loss_gradient(BBox(0, 0, 1, 1), BBox(5, 5, 6, 6))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        checked = 0
        for _ in range(60):
            target = BBox(10, 10, 22, 34)
            pred = jittered_box(rng, target, 0.15)
            v = iou(target, pred)
            # stay away from the intersection-corner kinks
            corners = (
                abs(pred.x1 - target.x1) < 0.01
                or abs(pred.x2 - target.x2) < 0.01
                or abs(pred.y1 - target.y1) < 0.01
                or abs(pred.y2 - target.y2) < 0.01
            )
            if v <= 0.05 or corners:
                continue
            analytic = iou_loss_gradient(pred, target)

            def f(tuples):
                return iou_loss(BBox(*tuples[0]), target)

            fd = central_difference_gradient(f, [pred.as_tuple()], 1e-5 * 24)[0]
            denom = max(max(abs(x) for x in analytic), max(abs(x) for x in fd), 1e-8)
            assert max(abs(a - b) for a, b in zip(analytic, fd)) / denom < 1e-4
            checked += 1
        assert checked > 40


class TestFocalLoss:
    def test_reduces_to_cross_entropy(self):
        for p, label in [(0.3, 1), (0.8, 0), (0.5, 1)]:
            ce = -math.log(p if label == 1 else 1 - p)
            assert focal_loss(p, label, focal_gamma=0.0, focal_alpha=1.0 if label else 0.0) == (
                pytest.approx(ce, abs=1e-12)
            )

    def test_vanishes_as_pt_reaches_one(self):
        assert focal_loss(1 - 1e-9, 1) < 1e-15
        assert focal_loss(1e-9, 0) < 1e-15

    def test_hand_value(self):
        expected = 0.25 * 0.1**2 * -math.log(0.9)
        assert focal_loss(0.9, 1, 2.0, 0.25) == pytest.approx(expected, abs=1e-12)

    def test_clamps_with_warning(self):
        with pytest.warns(UserWarning):
            v = focal_loss(1.0, 1)
        assert v >= 0.0
        with pytest.warns(UserWarning):
            focal_loss(0.0, 0)

    def test_bad_label(self):
        with pytest.raises(InvalidInputError):
            focal_loss(0.5, 2)

    def test_dominated_by_cross_entropy(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            p = rng.uniform(1e-4, 1 - 1e-4)
            label = int(rng.integers(0, 2))
            ce = -math.log(p if label == 1 else 1 - p)
            fl = focal_loss(p, label, focal_gamma=2.0, focal_alpha=1.0 if label else 0.0)
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
            scale = scene_scale(gts)

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
