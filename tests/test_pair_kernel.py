"""The numpy pair kernel reproduces the scalar one-pair-at-a-time arithmetic bit for bit.

Every comparison here is ``==`` on floats: the oracle in ``oracles.py`` is a
tuple-based copy of the scalar value and gradient path, and fixed-step
descent amplifies any last-bit difference, so approximate agreement is not
enough.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from crowdloss import baselines, simulator
from crowdloss.baselines import CompositeConfig, regression_targets
from crowdloss.couloss import (
    CouLossConfig,
    TripletStructure,
    assemble_triplets,
    assign_proposals,
    couloss,
    couloss_gradient,
    detect_kinks,
)
from crowdloss.errors import InfeasibleConfigError
from crowdloss.geometry import BBox
from crowdloss.simulator import SimConfig, generate_scene, run_descent, spawn_proposals
from oracles import (
    scalar_couloss,
    scalar_couloss_gradient,
    scalar_kinks,
    scalar_regression_targets,
    scalar_structure,
    tuple_center,
    tuple_iou,
    tuple_s,
)

MODES = ("deduplicated", "triplet-literal")
ABLATIONS = ((True, True), (True, False), (False, True))


def snapped_box(cx, cy, w, h, grid):
    """A box around (cx, cy) with corners on a coarse grid, so ties are exact."""
    x1 = round((cx - w / 2.0) / grid) * grid
    y1 = round((cy - h / 2.0) / grid) * grid
    x2 = max(round((cx + w / 2.0) / grid) * grid, x1 + grid)
    y2 = max(round((cy + h / 2.0) / grid) * grid, y1 + grid)
    return (x1, y1, x2, y2)


def random_scene(rng):
    """1-8 crowded ground truths and jittered proposals, half of them grid-snapped."""
    grid = 0.5 if rng.random() < 0.5 else 1e-9
    gts = []
    for _ in range(int(rng.integers(1, 9))):
        w = rng.uniform(4.0, 10.0)
        gts.append(snapped_box(rng.uniform(5, 25), rng.uniform(8, 22), w, w / 0.41, grid))
    if len(gts) > 1 and rng.random() < 0.3:  # concentric pair: a zero-length reference ray
        g = gts[0]
        gts[1] = (g[0] + grid, g[1] + grid, g[2] - grid, g[3] - grid)
    props = []
    for g in gts:
        for _ in range(int(rng.integers(1, 5))):
            cx, cy = tuple_center(g)
            w, h = g[2] - g[0], g[3] - g[1]
            sigma = rng.uniform(0.02, 0.3)
            props.append(
                snapped_box(
                    cx + rng.normal(0, sigma * w),
                    cy + rng.normal(0, sigma * h),
                    w * math.exp(rng.normal(0, sigma)),
                    h * math.exp(rng.normal(0, sigma)),
                    grid,
                )
            )
    if len(gts) > 1 and rng.random() < 0.3:  # a proposal centred on another gt
        g = gts[int(rng.integers(len(gts)))]
        props.append(g)
    return gts, props


def moved(rng, props, sigma):
    """Shift every proposal; structures built before the move are frozen ones."""
    out = []
    for p in props:
        w, h = p[2] - p[0], p[3] - p[1]
        dx, dy = rng.normal(0, sigma * w), rng.normal(0, sigma * h)
        out.append((p[0] + dx, p[1] + dy, p[2] + dx, p[3] + dy))
    return out


def package_structure(structure):
    return (
        [(t.gt_index, t.positive_index, t.negative_index) for t in structure.triplets],
        dict(structure.target_of),
    )


def assert_matches_oracle(gts_t, props_t, cfg, frozen=None):
    """couloss / couloss_gradient at ``props_t`` equal the oracle bit for bit.

    ``frozen`` is the proposal set a frozen structure is built from; by
    default the structure is rebuilt from ``props_t``.
    """
    gts = [BBox(*g) for g in gts_t]
    props = [BBox(*p) for p in props_t]
    if frozen is None:
        structure = None
        oracle_struct = None
    else:
        structure = TripletStructure.from_boxes(gts, [BBox(*p) for p in frozen], cfg)
        oracle_struct = scalar_structure(gts_t, frozen, cfg.positive_iou_threshold)
        assert package_structure(structure) == oracle_struct
    for att, rep in ABLATIONS:
        kw = dict(include_attraction=att, include_repulsion=rep, structure=structure)
        okw = dict(
            iou_threshold=cfg.positive_iou_threshold,
            eps=cfg.iou_floor,
            mode=cfg.aggregation_mode,
            include_attraction=att,
            include_repulsion=rep,
            structure=oracle_struct,
        )
        report = couloss(gts, props, cfg, **kw)
        total, att_sum, rep_sum, per_triplet = scalar_couloss(gts_t, props_t, **okw)
        assert report.total == total
        assert report.attractive_work == att_sum
        assert report.repulsive_work == rep_sum
        got = [
            (w.triplet.gt_index, w.triplet.positive_index, w.triplet.negative_index,
             w.attractive, w.repulsive)
            for w in report.per_triplet
        ]
        assert got == per_triplet
        grad = couloss_gradient(gts, props, cfg, **kw)
        expected = np.array(scalar_couloss_gradient(gts_t, props_t, **okw)).reshape(-1, 4)
        assert grad.shape == expected.shape
        assert np.array_equal(grad, expected)
    return report


class TestBitExactOracle:
    def test_random_scenes(self):
        rng = np.random.default_rng(2024)
        repulsion_pairs = 0
        for _ in range(120):
            gts_t, props_t = random_scene(rng)
            for mode in MODES:
                cfg = CouLossConfig(aggregation_mode=mode)
                report = assert_matches_oracle(gts_t, props_t, cfg)
                assert_matches_oracle(gts_t, moved(rng, props_t, 0.15), cfg, frozen=props_t)
                repulsion_pairs += len(report.structure.pairs.gt) - report.structure.num_attraction
        assert repulsion_pairs > 500

    def test_structure_and_assignment_match_scalar(self):
        rng = np.random.default_rng(2025)
        for _ in range(150):
            gts_t, props_t = random_scene(rng)
            gts = [BBox(*g) for g in gts_t]
            props = [BBox(*p) for p in props_t]
            triplets, assignments = assemble_triplets(gts, props)
            expected_triplets, target_of = scalar_structure(gts_t, props_t)
            assert [(t.gt_index, t.positive_index, t.negative_index) for t in triplets] == (
                expected_triplets
            )
            assert {a.proposal_index: a.target_gt_index for a in assignments} == target_of
            assert [(a.proposal_index, a.target_gt_index) for a in assign_proposals(gts, props)] == [
                (a.proposal_index, a.target_gt_index) for a in assignments
            ]
            for a in assignments:
                expected_iou = tuple_iou(gts_t[a.target_gt_index], props_t[a.proposal_index])
                assert a.iou_with_target == expected_iou


class TestKinksMatchScalar:
    def test_same_lines_in_the_same_order(self):
        rng = np.random.default_rng(2027)
        lines = 0
        for _ in range(150):
            gts_t, props_t = random_scene(rng)
            gts = [BBox(*g) for g in gts_t]
            moved_t = moved(rng, props_t, 0.1)
            frozen = TripletStructure.from_boxes(gts, [BBox(*p) for p in props_t])
            for tol in (1e-9, 1e-3, 3e-2):
                got = detect_kinks(gts, [BBox(*p) for p in props_t], tolerance=tol)
                assert got == scalar_kinks(gts_t, props_t, tol=tol)
                got = detect_kinks(gts, [BBox(*p) for p in moved_t], tolerance=tol, structure=frozen)
                assert got == scalar_kinks(gts_t, moved_t, scalar_structure(gts_t, props_t), tol=tol)
                lines += len(got)
        assert lines > 1000


# G_I and G_J overlap; P_P is assigned to G_I and P_N to G_J.
G_I = (0.0, 0.0, 4.0, 8.0)
G_J = (3.0, 0.0, 7.0, 8.0)
P_P = (0.5, 1.0, 4.5, 9.0)
P_N = (2.0, 0.5, 6.0, 8.5)


class TestDegenerateCases:
    """Each fixture pins one non-generic branch, asserted before the comparison."""

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_length_angle_ray(self, mode):
        # negative moved onto G_I's center: the ray center(G_I) -> center(P_N) has length 0
        frozen = [P_P, P_N]
        now = [P_P, (1.0, 1.0, 3.0, 7.0)]
        assert tuple_center(now[1]) == tuple_center(G_I)
        assert_matches_oracle([G_I, G_J], now, CouLossConfig(aggregation_mode=mode), frozen=frozen)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_length_reference_ray(self, mode):
        # concentric ground truths: center(G_outer) -> center(target) has length 0
        outer = (0.0, 0.0, 8.0, 16.0)
        inner = (1.0, 1.0, 7.0, 15.0)
        props = [(0.5, 0.5, 8.5, 16.5), (1.0, 1.5, 7.0, 15.5)]
        triplets, target_of = scalar_structure([outer, inner], props)
        assert target_of == {0: 0, 1: 1} and triplets
        assert_matches_oracle([outer, inner], props, CouLossConfig(aggregation_mode=mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_iou_at_or_below_floor(self, mode):
        cfg = CouLossConfig(aggregation_mode=mode)
        frozen = [P_P, P_N]
        for positive in ((3.999999, 7.999999, 10.0, 20.0), (4.0, 8.0, 6.0, 12.0), (10.0, 20.0, 14.0, 28.0)):
            assert tuple_iou(G_I, positive) <= cfg.iou_floor
            assert_matches_oracle([G_I, G_J], [positive, P_N], cfg, frozen=frozen)
        # exactly at the floor: a sliver of a unit box, with a power-of-two floor
        cfg = CouLossConfig(aggregation_mode=mode, iou_floor=2.0**-20)
        unit = (0.0, 0.0, 1.0, 1.0)
        other = (0.5, 0.0, 1.5, 1.0)
        sliver = (0.0, 0.0, 1.0, 2.0**-20)
        negative = (0.6, 0.0, 1.6, 1.0)
        assert tuple_iou(unit, sliver) == cfg.iou_floor
        assert_matches_oracle(
            [unit, other], [sliver, negative], cfg, frozen=[(0.1, 0.0, 1.1, 1.0), negative]
        )

    @pytest.mark.parametrize("mode", MODES)
    def test_one_minus_iou_at_floor(self, mode):
        cfg = CouLossConfig(aggregation_mode=mode)
        frozen = [P_P, P_N]
        for negative in (G_I, (0.0, 0.0, 4.0, 8.0 * (1 - 1e-7)), (0.0, 1e-6, 4.0, 8.0)):
            assert 1.0 - tuple_iou(G_I, negative) <= cfg.iou_floor
            assert_matches_oracle([G_I, G_J], [P_P, negative], cfg, frozen=frozen)

    @pytest.mark.parametrize("mode", MODES)
    def test_border_distance_zero_clamp(self, mode):
        cfg = CouLossConfig(aggregation_mode=mode)
        # P_N centred on G_I's vertical center line, then one half extent beyond its border
        for negative in ((2.0, 0.0, 6.0, 8.0), (4.5, 0.5, 8.5, 8.5)):
            assert tuple_s(G_I, negative) == 0.0
            assert_matches_oracle([G_I, G_J], [P_P, negative], cfg, frozen=[P_P, P_N])
            assert_matches_oracle([G_I, G_J], [P_P, negative], cfg)

    @pytest.mark.parametrize("mode", MODES)
    def test_frozen_negative_no_longer_overlaps(self, mode):
        cfg = CouLossConfig(aggregation_mode=mode)
        gone = (30.0, 0.0, 34.0, 8.0)
        assert tuple_iou(G_I, gone) == 0.0
        report = assert_matches_oracle([G_I, G_J], [P_P, gone], cfg, frozen=[P_P, P_N])
        (term,) = [w for w in report.per_triplet if w.triplet.negative_index == 1]
        assert term.repulsive == 0.0


class TestRegressionTargets:
    def test_matches_scalar_with_disjoint_fallback(self):
        rng = np.random.default_rng(2026)
        disjoint = 0
        for _ in range(200):
            gts_t, props_t = random_scene(rng)
            props_t = props_t + [
                (x, y, x + 2.0, y + 2.0) for x, y in rng.uniform(-40.0, 80.0, (3, 2)).tolist()
            ]
            gts = [BBox(*g) for g in gts_t]
            props = [BBox(*p) for p in props_t]
            assert regression_targets(gts, props) == scalar_regression_targets(gts_t, props_t)
            disjoint += sum(max(tuple_iou(g, p) for g in gts_t) == 0.0 for p in props_t)
        assert disjoint > 100

    def test_nearest_center_tie_goes_to_lowest_index(self):
        gts = [BBox(0, 0, 2, 2), BBox(10, 0, 12, 2)]
        assert regression_targets(gts, [BBox(5, 0, 7, 2)]) == [0]
        assert scalar_regression_targets([g.as_tuple() for g in gts], [(5, 0, 7, 2)]) == [0]


def _scalar_patch(monkeypatch):
    """Route the composite loss through the scalar oracle.

    A structure passed in is replaced by the oracle's own, built from the
    proposals of the first call that carries it (the boxes it was built
    from, in both frozen and per-step descents).
    """
    seen = {}

    def oracle_args(gts, proposals, cfg, structure, att, rep):
        cfg = cfg or CouLossConfig()
        gts_t = [g.as_tuple() for g in gts]
        props_t = [p.as_tuple() for p in proposals]
        struct = None
        if structure is not None:
            if id(structure) not in seen:
                seen[id(structure)] = (
                    structure,
                    scalar_structure(gts_t, props_t, cfg.positive_iou_threshold),
                )
            struct = seen[id(structure)][1]
        return (gts_t, props_t), dict(
            iou_threshold=cfg.positive_iou_threshold,
            eps=cfg.iou_floor,
            mode=cfg.aggregation_mode,
            include_attraction=att,
            include_repulsion=rep,
            structure=struct,
        )

    def fake_couloss(gts, proposals, cfg=None, *, include_attraction=True,
                     include_repulsion=True, structure=None):
        args, kw = oracle_args(gts, proposals, cfg, structure, include_attraction, include_repulsion)
        return SimpleNamespace(total=scalar_couloss(*args, **kw)[0])

    def fake_gradient(gts, proposals, cfg=None, *, include_attraction=True,
                      include_repulsion=True, structure=None, warn_kinks=False):
        args, kw = oracle_args(gts, proposals, cfg, structure, include_attraction, include_repulsion)
        return np.array(scalar_couloss_gradient(*args, **kw)).reshape(-1, 4)

    def fake_targets(gts, proposals):
        return scalar_regression_targets([g.as_tuple() for g in gts], [p.as_tuple() for p in proposals])

    monkeypatch.setattr(baselines, "couloss", fake_couloss)
    monkeypatch.setattr(baselines, "couloss_gradient", fake_gradient)
    monkeypatch.setattr(baselines, "regression_targets", fake_targets)
    monkeypatch.setattr(simulator, "regression_targets", fake_targets)


def _feasible_scene(cfg, seed):
    while True:
        try:
            return generate_scene(cfg, seed), seed
        except InfeasibleConfigError:
            seed += 1


class TestDescentMatchesScalar:
    @pytest.mark.parametrize(
        "sim_cfg, comp_cfg",
        [
            (SimConfig(descent_steps=50), CompositeConfig()),
            (
                SimConfig(
                    pedestrian_count=6,
                    proposals_per_gt=8,
                    recompute_assignments=False,
                    gradient_noise=0.055,
                    descent_steps=50,
                ),
                CompositeConfig(smoothl1_weight=7.0),
            ),
        ],
        ids=["default", "crowd-dense"],
    )
    def test_fifty_steps_identical(self, monkeypatch, sim_cfg, comp_cfg):
        scene, seed = _feasible_scene(sim_cfg, 11)
        proposals = spawn_proposals(scene, sim_cfg, seed + 1)
        fast = run_descent(scene, proposals, comp_cfg, CouLossConfig(), sim_cfg, seed=5)
        _scalar_patch(monkeypatch)
        slow = run_descent(scene, proposals, comp_cfg, CouLossConfig(), sim_cfg, seed=5)
        assert len(fast.loss_curve) == sim_cfg.descent_steps + 1
        assert fast.loss_curve == slow.loss_curve
        assert [b.as_tuple() for b in fast.final_boxes] == [b.as_tuple() for b in slow.final_boxes]
