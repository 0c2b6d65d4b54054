"""Invariants of the CouLoss value and gradient over generated scenes, in both aggregation modes."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crowdloss.couloss import AGGREGATION_MODES, CouLossConfig, couloss, couloss_gradient, detect_kinks
from crowdloss.errors import InfeasibleConfigError
from crowdloss.geometry import BBox
from crowdloss.simulator import SimConfig, generate_scene, spawn_proposals

invariant = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def drawn_scenes(draw):
    """Ground truths and proposals of ``generate_scene`` and ``spawn_proposals``."""
    sim = SimConfig(
        pedestrian_count=draw(st.integers(1, 6)),
        proposals_per_gt=draw(st.integers(1, 8)),
        proposal_jitter=draw(st.sampled_from([0.05, 0.2, 0.5, 1.5])),
    )
    seed = draw(st.integers(0, 10**6))
    try:
        scene = generate_scene(sim, seed)
    except InfeasibleConfigError:
        assume(False)
    return scene.gt_boxes, spawn_proposals(scene, sim, seed + 1)


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
@invariant
@given(boxes=drawn_scenes(), data=st.data())
def test_ground_truth_permutation_leaves_value_and_gradient(mode, boxes, data):
    # the ground truths are a set: their order changes only the order of the sums,
    # unless an argmax tie lets it change an assignment
    gts, proposals = boxes
    cfg = CouLossConfig(aggregation_mode=mode)
    assume(not any("argmax IoU tie" in line for line in detect_kinks(gts, proposals, cfg)))
    order = data.draw(st.permutations(range(len(gts))))
    permuted = [gts[k] for k in order]
    value = couloss(gts, proposals, cfg).total
    assert couloss(permuted, proposals, cfg).total == pytest.approx(value, rel=1e-12, abs=0)
    grad = couloss_gradient(gts, proposals, cfg)
    np.testing.assert_allclose(couloss_gradient(permuted, proposals, cfg), grad, rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
@invariant
@given(boxes=drawn_scenes())
def test_attraction_plus_repulsion_is_the_loss_exactly(mode, boxes):
    gts, proposals = boxes
    cfg = CouLossConfig(aggregation_mode=mode)
    for loss in (lambda **on: couloss(gts, proposals, cfg, **on).total,
                 lambda **on: couloss_gradient(gts, proposals, cfg, **on)):
        parts = loss(include_repulsion=False) + loss(include_attraction=False)
        assert np.array_equal(parts, loss())


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
@invariant
@given(boxes=drawn_scenes())
def test_pair_work_is_non_negative(mode, boxes):
    gts, proposals = boxes
    assert (couloss(gts, proposals, CouLossConfig(aggregation_mode=mode)).pair_work >= 0.0).all()


def _mapped(boxes, f):
    """Each group of ``boxes`` with ``f`` applied to every x and every y coordinate pair."""
    return [[BBox(*f(b.x1, b.y1), *f(b.x2, b.y2)) for b in group] for group in boxes]


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
@invariant
@given(boxes=drawn_scenes())
def test_power_of_two_scaling_keeps_value_and_scales_gradient(mode, boxes):
    # scaling by 2**k is exact and the loss is scale-free: the value stays bit
    # for bit, and the gradient with respect to the coordinates shrinks by 2**k
    cfg = CouLossConfig(aggregation_mode=mode)
    value, grad = couloss(*boxes, cfg).total, couloss_gradient(*boxes, cfg)
    for k in (-3, 1, 5):
        scaled = _mapped(boxes, lambda x, y: (x * 2.0**k, y * 2.0**k))
        assert couloss(*scaled, cfg).total == value
        atol = 1e-12 * np.abs(grad).max(initial=0.0)
        np.testing.assert_allclose(couloss_gradient(*scaled, cfg) * 2.0**k, grad, rtol=0, atol=atol)


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
@invariant
@given(boxes=drawn_scenes(), shift=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)))
def test_translation_keeps_value_and_gradient(mode, boxes, shift):
    # a shift rounds the coordinates, which near a kink could change an assignment or a clamp
    cfg = CouLossConfig(aggregation_mode=mode)
    assume(not detect_kinks(*boxes, cfg))
    moved = _mapped(boxes, lambda x, y: (x + shift[0], y + shift[1]))
    value, grad = couloss(*boxes, cfg).total, couloss_gradient(*boxes, cfg)
    assert couloss(*moved, cfg).total == pytest.approx(value, rel=1e-12, abs=0)
    atol = 1e-8 * np.abs(grad).max(initial=0.0)
    np.testing.assert_allclose(couloss_gradient(*moved, cfg), grad, rtol=0, atol=atol)
