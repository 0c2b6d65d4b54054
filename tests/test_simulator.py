import importlib
import math
import pkgutil
from collections import Counter

import numpy as np
import pytest

import crowdloss
from crowdloss import _pairs
from crowdloss.baselines import CompositeConfig, regression_targets
from crowdloss.couloss import CouLossConfig
from crowdloss.errors import (
    CrowdLossError,
    DivergenceError,
    InfeasibleConfigError,
    InvalidAnnotationError,
    InvalidInputError,
)
from crowdloss.geometry import BBox, iou
from crowdloss.simulator import (
    Descent,
    Pedestrian,
    Scene,
    SimConfig,
    descend_variants,
    generate_scene,
    load_scene,
    nms_sensitivity_experiment,
    run_descent,
    run_descents,
    save_scene,
    spawn_proposals,
    standard_variants,
)
from util import counted


def scale_box(b: BBox, k: float) -> BBox:
    return BBox(b.x1 * k, b.y1 * k, b.x2 * k, b.y2 * k)


class TestSceneGeneration:
    def test_deterministic(self):
        cfg = SimConfig()
        a = generate_scene(cfg, 7)
        b = generate_scene(cfg, 7)
        assert [p.full.as_tuple() for p in a.pedestrians] == [
            p.full.as_tuple() for p in b.pedestrians
        ]
        assert [p.visible.as_tuple() for p in a.pedestrians] == [
            p.visible.as_tuple() for p in b.pedestrians
        ]
        assert [d.as_tuple() for d in a.distractors] == [d.as_tuple() for d in b.distractors]

    def test_different_seeds_differ(self):
        cfg = SimConfig()
        a = generate_scene(cfg, 1)
        b = generate_scene(cfg, 2)
        assert [p.full.as_tuple() for p in a.pedestrians] != [
            p.full.as_tuple() for p in b.pedestrians
        ]

    def test_single_pedestrian_fully_visible(self):
        cfg = SimConfig(pedestrian_count=1, distractor_count=0)
        scene = generate_scene(cfg, 3)
        (ped,) = scene.pedestrians
        assert ped.visible == ped.full

    def test_pair_iou_in_band(self):
        cfg = SimConfig()
        for seed in range(25):
            scene = generate_scene(cfg, seed)
            g0, g1 = scene.gt_boxes
            v = iou(g0, g1)
            assert cfg.crowd_iou_min <= v <= cfg.crowd_iou_max

    def test_chain_band_for_three(self):
        cfg = SimConfig(pedestrian_count=3)
        scene = generate_scene(cfg, 5)
        gts = scene.gt_boxes
        for a, b in zip(gts, gts[1:]):
            assert cfg.crowd_iou_min <= iou(a, b) <= cfg.crowd_iou_max
        for i in range(3):
            for j in range(i + 1, 3):
                assert iou(gts[i], gts[j]) <= cfg.crowd_iou_max

    def test_boxes_inside_extent_and_aspect(self):
        cfg = SimConfig(pedestrian_count=3, distractor_count=4)
        scene = generate_scene(cfg, 11)
        w, h = scene.extent
        for box in scene.gt_boxes + scene.distractors:
            assert 0 <= box.x1 and 0 <= box.y1 and box.x2 <= w and box.y2 <= h
        for ped in scene.pedestrians:
            assert ped.full.width / ped.full.height == pytest.approx(cfg.aspect_ratio)

    def test_distractors_are_negatives(self):
        cfg = SimConfig(distractor_count=5)
        scene = generate_scene(cfg, 13)
        assert len(scene.distractors) == 5
        for d in scene.distractors:
            for g in scene.gt_boxes:
                assert iou(d, g) < 0.3

    def test_occlusion_carving_nested_in_full(self):
        cfg = SimConfig(pedestrian_count=3)
        for seed in range(10):
            scene = generate_scene(cfg, seed)
            nearest = max(scene.pedestrians, key=lambda p: p.full.y2)
            assert nearest.visible == nearest.full
            for ped in scene.pedestrians:
                f, v = ped.full, ped.visible
                assert f.x1 <= v.x1 and v.x2 <= f.x2 and f.y1 <= v.y1 and v.y2 <= f.y2

    def test_infeasible_config_raises(self):
        # three almost-extent-height pedestrians cannot be pairwise disjoint-ish
        cfg = SimConfig(
            pedestrian_count=3,
            height_range=(0.95, 0.95),
            crowd_iou_min=0.0,
            crowd_iou_max=0.01,
            distractor_count=0,
        )
        with pytest.raises(InfeasibleConfigError):
            generate_scene(cfg, 0)

    def test_scene_validation(self):
        with pytest.raises(InvalidInputError):
            Scene(extent=(10.0, 10.0), pedestrians=[], distractors=[BBox(5, 5, 12, 9)])
        with pytest.raises(InvalidAnnotationError):
            Scene(
                extent=(10.0, 10.0),
                pedestrians=[Pedestrian(full=BBox(1, 1, 3, 5), visible=BBox(0.5, 1, 3, 5))],
            )


class TestSpawnProposals:
    def test_zero_jitter_copies_gts(self):
        cfg = SimConfig(proposal_jitter=0.0, proposals_per_gt=3)
        scene = generate_scene(cfg, 2)
        proposals = spawn_proposals(scene, cfg, 9)
        for gi, g in enumerate(scene.gt_boxes):
            for k in range(3):
                assert proposals[gi * 3 + k].as_tuple() == g.as_tuple()

    def test_deterministic(self):
        cfg = SimConfig()
        scene = generate_scene(cfg, 2)
        a = spawn_proposals(scene, cfg, 5)
        b = spawn_proposals(scene, cfg, 5)
        assert [p.as_tuple() for p in a] == [p.as_tuple() for p in b]

    def test_mean_center_offset_near_zero(self):
        # centered pedestrian so extent clipping cannot bias the offsets
        cfg = SimConfig(pedestrian_count=1, proposals_per_gt=1000, distractor_count=0,
                        proposal_jitter=0.1)
        g = BBox(41.8, 30.0, 58.2, 70.0)
        scene = Scene(extent=(100.0, 100.0), pedestrians=[Pedestrian(g, g)])
        proposals = spawn_proposals(scene, cfg, 6)
        gx = (g.x1 + g.x2) / 2
        gy = (g.y1 + g.y2) / 2
        off_x = np.mean([(p.x1 + p.x2) / 2 - gx for p in proposals])
        off_y = np.mean([(p.y1 + p.y2) / 2 - gy for p in proposals])
        # sigma * size / sqrt(1000); allow 4 standard errors
        assert abs(off_x) < 4 * cfg.proposal_jitter * g.width / math.sqrt(1000)
        assert abs(off_y) < 4 * cfg.proposal_jitter * g.height / math.sqrt(1000)

    def test_clipped_to_extent(self):
        cfg = SimConfig(proposal_jitter=0.8, proposals_per_gt=50)
        scene = generate_scene(cfg, 8)
        w, h = scene.extent
        for p in spawn_proposals(scene, cfg, 3):
            assert 0 <= p.x1 and 0 <= p.y1 and p.x2 <= w and p.y2 <= h


class TestRunDescent:
    def test_perfect_proposals_stay_put(self):
        cfg = SimConfig(pedestrian_count=1, proposal_jitter=0.0, descent_steps=20,
                        distractor_count=0)
        scene = generate_scene(cfg, 1)
        proposals = spawn_proposals(scene, cfg, 2)
        result = run_descent(scene, proposals, CompositeConfig(), CouLossConfig(), cfg)
        assert result.drift_rate == 0.0
        assert result.mean_final_iou == 1.0
        assert all(v == 0.0 for v in result.loss_curve)

    def test_single_pedestrian_couloss_inert(self):
        cfg = SimConfig(pedestrian_count=1, descent_steps=40, distractor_count=0)
        scene = generate_scene(cfg, 2)
        proposals = spawn_proposals(scene, cfg, 3)
        with_cou = run_descent(scene, proposals, CompositeConfig(), CouLossConfig(), cfg)
        without = run_descent(scene, proposals, CompositeConfig(alpha=0.0), CouLossConfig(), cfg)
        assert with_cou.loss_curve == without.loss_curve
        assert [b.as_tuple() for b in with_cou.final_boxes] == [
            b.as_tuple() for b in without.final_boxes
        ]

    def test_zero_weight_couloss_equals_baseline_bitwise(self):
        cfg = SimConfig(descent_steps=50)
        scene = generate_scene(cfg, 3)
        proposals = spawn_proposals(scene, cfg, 4)
        a = run_descent(scene, proposals, CompositeConfig(alpha=0.0), CouLossConfig(), cfg)
        b = run_descent(scene, proposals, CompositeConfig(alpha=0.0, include_repulsion=False),
                        CouLossConfig(), cfg)
        assert a.loss_curve == b.loss_curve
        assert [x.as_tuple() for x in a.final_boxes] == [x.as_tuple() for x in b.final_boxes]

    def test_deterministic_given_seed(self):
        cfg = SimConfig(descent_steps=60, gradient_noise=0.02)
        scene = generate_scene(cfg, 4)
        proposals = spawn_proposals(cfg=cfg, scene=scene, seed=5)
        a = run_descent(scene, proposals, sim_cfg=cfg, seed=9)
        b = run_descent(scene, proposals, sim_cfg=cfg, seed=9)
        assert a.loss_curve == b.loss_curve
        assert a.drift_rate == b.drift_rate
        assert [x.as_tuple() for x in a.final_boxes] == [x.as_tuple() for x in b.final_boxes]

    def test_scale_equivariance_power_of_two(self):
        cfg = SimConfig(descent_steps=80)
        scene = generate_scene(cfg, 6)
        proposals = spawn_proposals(scene, cfg, 7)
        base = run_descent(scene, proposals, sim_cfg=cfg, seed=1)

        scaled_scene = Scene(
            extent=(scene.extent[0] * 2, scene.extent[1] * 2),
            pedestrians=[
                Pedestrian(scale_box(p.full, 2), scale_box(p.visible, 2))
                for p in scene.pedestrians
            ],
            distractors=[scale_box(d, 2) for d in scene.distractors],
        )
        scaled = run_descent(
            scaled_scene, [scale_box(p, 2) for p in proposals], sim_cfg=cfg, seed=1
        )
        assert scaled.drift_rate == base.drift_rate
        assert scaled.overlap_occupancy == base.overlap_occupancy
        for o_s, o_b in zip(scaled.per_proposal, base.per_proposal):
            assert o_s.iou_with_target == pytest.approx(o_b.iou_with_target, abs=1e-12)
        for b_s, b_b in zip(scaled.final_boxes, base.final_boxes):
            assert np.allclose(np.array(b_s.as_tuple()), 2 * np.array(b_b.as_tuple()), atol=1e-9)

    def test_loss_decreases_with_small_steps(self):
        cfg = SimConfig(descent_steps=150, step_size=1e-4)
        ok = 0
        for seed in range(20):
            scene = generate_scene(cfg, seed)
            proposals = spawn_proposals(scene, cfg, seed + 1)
            result = run_descent(scene, proposals, sim_cfg=cfg, seed=seed)
            if result.loss_curve[-1] < result.loss_curve[0]:
                ok += 1
        assert ok >= 19  # >= 95% of seeded runs

    def test_divergence_aborts_with_partial(self):
        cfg = SimConfig(descent_steps=300, step_size=0.3)  # absurd step forces blowup
        scene = generate_scene(cfg, 5)
        proposals = spawn_proposals(scene, cfg, 6)
        with pytest.raises(DivergenceError) as excinfo:
            run_descent(scene, proposals, sim_cfg=cfg, seed=2)
        partial = excinfo.value.partial_result
        assert partial is not None and partial.aborted
        assert len(partial.loss_curve) >= 1

    def test_intended_targets_length_checked(self):
        cfg = SimConfig(descent_steps=5)
        scene = generate_scene(cfg, 5)
        proposals = spawn_proposals(scene, cfg, 6)
        with pytest.raises(InvalidInputError):
            run_descent(scene, proposals, sim_cfg=cfg, intended_targets=[0])

    @pytest.mark.parametrize("target", [5, -1])
    def test_intended_targets_range_checked_up_front(self, monkeypatch, target):
        cfg = SimConfig(descent_steps=5)
        scene = generate_scene(cfg, 0)
        proposals = spawn_proposals(scene, cfg, 1)
        assert len(scene.pedestrians) == 2
        calls = Counter()
        module = importlib.import_module("crowdloss.couloss")
        monkeypatch.setattr(module, "pair_work", counted(_pairs.pair_work, calls, "pair_work"))
        with pytest.raises(InvalidInputError, match="intended_targets"):
            run_descent(scene, proposals, sim_cfg=cfg, intended_targets=[target] * len(proposals))
        assert calls["pair_work"] == 0

    def test_seed_defaults_to_zero(self):
        cfg = SimConfig(descent_steps=5, gradient_noise=0.05)
        scene = generate_scene(cfg, 0)
        proposals = spawn_proposals(scene, cfg, 1)
        default = run_descent(scene, proposals, sim_cfg=cfg)
        assert default.loss_curve == run_descent(scene, proposals, sim_cfg=cfg, seed=0).loss_curve
        assert default.loss_curve != run_descent(scene, proposals, sim_cfg=cfg, seed=1).loss_curve

    def test_frozen_assignments_toggle(self):
        cfg = SimConfig(descent_steps=40, recompute_assignments=False)
        scene = generate_scene(cfg, 7)
        proposals = spawn_proposals(scene, cfg, 8)
        result = run_descent(scene, proposals, sim_cfg=cfg)
        assert result.steps == 40
        assert all(math.isfinite(v) for v in result.loss_curve)

    def test_kink_warnings_surface_when_enabled(self):
        from crowdloss.couloss import KinkWarning

        # zero jitter puts proposals exactly on their targets: kinks everywhere
        cfg = SimConfig(proposal_jitter=0.0, descent_steps=2, proposals_per_gt=1,
                        warn_kinks=True)
        scene = generate_scene(cfg, 3)
        proposals = spawn_proposals(scene, cfg, 4)
        with pytest.warns(KinkWarning):
            run_descent(scene, proposals, sim_cfg=cfg)

    @pytest.mark.parametrize("recompute", [True, False])
    def test_non_finite_step_rejected(self, monkeypatch, recompute):
        cfg = SimConfig(descent_steps=5, gradient_noise=1e308, recompute_assignments=recompute)
        scene = generate_scene(cfg, 3)
        proposals = spawn_proposals(scene, cfg, 4)
        calls = Counter()
        module = importlib.import_module("crowdloss.couloss")
        monkeypatch.setattr(module, "pair_work", counted(_pairs.pair_work, calls, "pair_work"))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInputError):
            run_descent(scene, proposals, sim_cfg=cfg, seed=1)
        # rejected right after the first step, before a loss is evaluated at the invalid boxes
        assert calls["pair_work"] == 1

    def test_one_assignment_and_one_kernel_call_per_step(self, monkeypatch):
        steps = 20
        cfg = SimConfig(descent_steps=steps)
        scene = generate_scene(cfg, 3)
        proposals = spawn_proposals(scene, cfg, 4)
        targets = regression_targets(scene.gt_boxes, proposals)
        calls = Counter()
        wrapped = {n: counted(getattr(_pairs, n), calls, n) for n in ("pair_work", "best_gt")}
        names = [m.name for m in pkgutil.iter_modules(crowdloss.__path__) if m.name != "__main__"]
        for mod_name in names:
            # by module path: the package attribute crowdloss.couloss is the function
            module = importlib.import_module(f"crowdloss.{mod_name}")
            for name, wrapper in wrapped.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        run_descent(scene, proposals, sim_cfg=cfg, seed=1, intended_targets=targets)
        assert steps <= calls["pair_work"] <= steps + 1
        assert steps <= calls["best_gt"] <= steps + 1


def outcome(result):
    """A descent's result or error, as a value that ``==`` compares bit for bit."""
    if isinstance(result, CrowdLossError):
        partial = getattr(result, "partial_result", None)
        return type(result), str(result), partial and outcome(partial)
    boxes = [b.as_tuple() for b in result.final_boxes]
    return boxes, result.per_proposal, result.loss_curve, result.steps, result.targets, result.aborted


def sequential(members, cou_cfg, sim_cfg):
    out = []
    for m in members:
        try:
            out.append(run_descent(m.scene, m.proposals, m.comp_cfg, cou_cfg, sim_cfg, seed=m.seed,
                                   intended_targets=m.intended_targets))
        except CrowdLossError as exc:
            out.append(exc)
    return out


MIXED_VARIANTS = [
    *standard_variants().values(),
    CompositeConfig(alpha=0.0, include_attraction=False),
    CompositeConfig(alpha=2.5, smoothl1_beta=0.5, smoothl1_weight=7.0),
    CompositeConfig(include_attraction=False, include_repulsion=False),
]


class TestBatchedDescent:
    """Every member of a batch equals its own ``run_descent`` bit for bit."""

    @pytest.mark.parametrize("mode", ["deduplicated", "triplet-literal"])
    @pytest.mark.parametrize("recompute, noise", [(True, 0.0), (True, 0.03), (False, 0.055), (False, 0.0)])
    def test_members_equal_sequential_runs(self, mode, recompute, noise):
        sim = SimConfig(descent_steps=40, recompute_assignments=recompute, gradient_noise=noise,
                        proposals_per_gt=4, proposal_jitter=0.3)
        cou = CouLossConfig(aggregation_mode=mode)
        members = []
        for seed in range(3):
            scene = generate_scene(sim, seed)
            proposals = spawn_proposals(scene, sim, seed + 1)
            targets = None if seed == 1 else [gi for gi in range(2) for _ in range(4)]
            members += [Descent(scene, proposals, c, seed + 2, targets) for c in MIXED_VARIANTS]
        batch = run_descents(members, cou, sim)
        assert [outcome(r) for r in batch] == [outcome(r) for r in sequential(members, cou, sim)]
        assert not any(isinstance(r, CrowdLossError) for r in batch)

    def test_failures_keep_sequential_order(self):
        # seed 1 / couloss diverges at step 22; every member with a vast SmoothL1
        # weight leaves invalid boxes at step 0, before that divergence
        sim = SimConfig(descent_steps=40, step_size=0.05, proposals_per_gt=3)
        members = []
        for seed in (1, 2, 3):
            scene = generate_scene(sim, seed)
            proposals = spawn_proposals(scene, sim, seed + 1)
            for comp in (CompositeConfig(), CompositeConfig(alpha=0.0), CompositeConfig(smoothl1_weight=1e300)):
                members.append(Descent(scene, proposals, comp, seed + 2))
        with np.errstate(over="ignore", invalid="ignore"):
            batch = run_descents(members, sim_cfg=sim)
            expected = sequential(members, CouLossConfig(), sim)
        assert [outcome(r) for r in batch] == [outcome(r) for r in expected]
        kinds = [type(r).__name__ for r in batch]
        assert kinds[:3] == ["DivergenceError", "SimResult", "InvalidInputError"]
        assert batch[0].partial_result.steps == 22 and batch[0].partial_result.aborted
        assert kinds.count("SimResult") >= 2

    def test_kink_warnings_match_detect_kinks(self):
        from crowdloss.couloss import KinkWarning, detect_kinks

        # one step: each weighing member warns once, in member order, about the
        # kinks of all its pairs, also those of a switched-off part
        sim = SimConfig(descent_steps=1, proposal_jitter=0.0, proposals_per_gt=2, warn_kinks=True)
        members = []
        for seed in (3, 4):
            scene = generate_scene(sim, seed)
            members += [Descent(scene, spawn_proposals(scene, sim, 9), c) for c in MIXED_VARIANTS]
        with pytest.warns(KinkWarning) as caught:
            run_descents(members, sim_cfg=sim)
        expected = []
        for m in members:
            kinks = detect_kinks(m.scene.gt_boxes, m.proposals) if m.comp_cfg.alpha > 0.0 else []
            if kinks:
                expected.append(f"gradient evaluated near {len(kinks)} non-differentiable point(s): {kinks[0]}")
        assert [str(w.message) for w in caught] == expected
        assert len(expected) >= 8

    def test_unequal_members_rejected(self):
        sim = SimConfig(descent_steps=2)
        scene = generate_scene(sim, 0)
        proposals = spawn_proposals(scene, sim, 1)
        with pytest.raises(InvalidInputError, match="equal pedestrian and proposal counts"):
            run_descents([Descent(scene, proposals), Descent(scene, proposals[:-1])], sim_cfg=sim)

    def test_one_assignment_and_one_kernel_call_per_step_for_the_batch(self, monkeypatch):
        steps = 20
        sim = SimConfig(descent_steps=steps)
        calls = Counter()
        wrapped = {n: counted(getattr(_pairs, n), calls, n) for n in ("pair_work", "best_gt")}
        for mod_name in ("couloss", "baselines", "simulator"):
            module = importlib.import_module(f"crowdloss.{mod_name}")
            for name, wrapper in wrapped.items():
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        outcomes = descend_variants(standard_variants(), range(5), sim)
        assert len(outcomes) == 5 and all(len(results) == 4 for _, _, results in outcomes)
        assert steps <= calls["pair_work"] <= steps + 1
        assert steps <= calls["best_gt"] <= steps + 1

    def test_infeasible_seed_ends_the_run(self):
        sim = SimConfig(descent_steps=5, pedestrian_count=3, height_range=(0.95, 0.95),
                        crowd_iou_min=0.0, crowd_iou_max=0.01, distractor_count=0)
        ((seed, scene, results),) = descend_variants(standard_variants(), [0, 1], sim)
        assert seed == 0 and scene is None
        assert all(isinstance(r, InfeasibleConfigError) for r in results.values())


class TestNmsSensitivity:
    def test_single_gt_identical_across_thresholds(self):
        cfg = SimConfig(pedestrian_count=1, proposals_per_gt=1, proposal_jitter=0.05,
                        descent_steps=30, distractor_count=0)
        res = nms_sensitivity_experiment(
            {"baseline": CompositeConfig(alpha=0.0)}, [1, 2], cfg, thresholds=(0.3, 0.5, 0.7)
        )
        misses = [r.misses for r in res.rows]
        fps = [r.false_positives for r in res.rows]
        assert len(set(misses)) == 1 and len(set(fps)) == 1
        assert res.miss_spread["baseline"][1] - res.miss_spread["baseline"][0] == 0

    def test_default_grid_has_eleven_thresholds(self):
        from crowdloss.simulator import DEFAULT_NMS_THRESHOLDS

        assert len(DEFAULT_NMS_THRESHOLDS) == 11
        assert DEFAULT_NMS_THRESHOLDS[0] == 0.3 and DEFAULT_NMS_THRESHOLDS[-1] == 0.8

    def test_deterministic_rerun(self):
        cfg = SimConfig(descent_steps=40)
        variants = {k: v for k, v in standard_variants().items() if k in ("baseline", "couloss")}
        a = nms_sensitivity_experiment(variants, [0, 1], cfg, thresholds=(0.4, 0.6))
        b = nms_sensitivity_experiment(variants, [0, 1], cfg, thresholds=(0.4, 0.6))
        assert a.rows == b.rows


class TestSceneIO:
    def test_roundtrip(self, tmp_path):
        cfg = SimConfig(pedestrian_count=3, distractor_count=2)
        scene = generate_scene(cfg, 9)
        path = tmp_path / "scene.txt"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert loaded.extent == scene.extent
        assert [p.full.as_tuple() for p in loaded.pedestrians] == [
            p.full.as_tuple() for p in scene.pedestrians
        ]
        assert [p.visible.as_tuple() for p in loaded.pedestrians] == [
            p.visible.as_tuple() for p in scene.pedestrians
        ]
        assert [d.as_tuple() for d in loaded.distractors] == [
            d.as_tuple() for d in scene.distractors
        ]

    def test_missing_extent_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("ped 0 0 1 1 0 0 1 1\n")
        with pytest.raises(InvalidInputError):
            load_scene(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("extent 10 10\nwalrus 1 2 3 4\n")
        with pytest.raises(InvalidInputError):
            load_scene(path)


class TestSimConfigValidation:
    def test_bad_values(self):
        with pytest.raises(InvalidInputError):
            SimConfig(pedestrian_count=0)
        with pytest.raises(InvalidInputError):
            SimConfig(crowd_iou_min=0.6, crowd_iou_max=0.5)
        with pytest.raises(InvalidInputError):
            SimConfig(step_size=0.0)
        with pytest.raises(InvalidInputError):
            SimConfig(height_range=(0.0, 0.5))
