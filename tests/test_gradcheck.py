"""The finite-difference gradcheck: one evaluation per point, same errors as five sweeps."""

import importlib
import math
import pkgutil
from collections import Counter

import numpy as np
import pytest

import crowdloss
from crowdloss import _pairs
from crowdloss.baselines import CompositeConfig
from crowdloss.couloss import CouLossConfig
from crowdloss.errors import InvalidInputError
from crowdloss.gradcheck import TERMS, check_scene, run_gradcheck
from crowdloss.simulator import SimConfig, generate_scene, spawn_proposals
from oracles import five_sweep_check_scene
from util import counted

CONFIGS = {
    "default": (CompositeConfig(), CouLossConfig()),
    "triplet-literal": (CompositeConfig(), CouLossConfig(aggregation_mode="triplet-literal")),
    "alpha-0": (CompositeConfig(alpha=0.0), CouLossConfig()),
    "repulsion-off": (
        CompositeConfig(include_repulsion=False, smoothl1_beta=0.5, smoothl1_weight=7.0),
        CouLossConfig(),
    ),
    "attraction-off": (CompositeConfig(include_attraction=False, alpha=2.5), CouLossConfig()),
}


def scene_and_proposals(pedestrians, seed, proposals_per_gt=2):
    sim = SimConfig(pedestrian_count=pedestrians, proposals_per_gt=proposals_per_gt)
    scene = generate_scene(sim, seed)
    return scene.gt_boxes, spawn_proposals(scene, sim, seed + 1)


@pytest.mark.parametrize("pedestrians", [1, 2, 4])
def test_errors_equal_five_sweep_oracle(pedestrians):
    # 14 seeds x 5 configs per pedestrian count: 210 cases in all, kinky scenes included
    for seed in range(14):
        gts, proposals = scene_and_proposals(pedestrians, seed)
        for name, (comp_cfg, cou_cfg) in CONFIGS.items():
            got = check_scene(gts, proposals, comp_cfg, cou_cfg)
            assert list(got) == list(TERMS)
            assert got == five_sweep_check_scene(gts, proposals, comp_cfg, cou_cfg), (seed, name)


def test_one_assignment_and_one_kernel_call_per_point(monkeypatch):
    gts, proposals = scene_and_proposals(2, 3, proposals_per_gt=6)
    n = len(proposals)
    calls = Counter()
    wrapped = {name: counted(getattr(_pairs, name), calls, name) for name in ("pair_work", "best_gt")}
    for info in pkgutil.iter_modules(crowdloss.__path__):
        if info.name == "__main__":
            continue
        # by module path: the package attribute crowdloss.couloss is the function
        module = importlib.import_module(f"crowdloss.{info.name}")
        for name, wrapper in wrapped.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    check_scene(gts, proposals, CompositeConfig(), CouLossConfig())
    # the analytic point and 2 perturbed points per coordinate
    assert 8 * n <= calls["pair_work"] <= 8 * n + 1
    assert 8 * n <= calls["best_gt"] <= 8 * n + 1


def test_degenerate_perturbed_box_rejected():
    gts, proposals = scene_and_proposals(2, 3)
    # a step of the whole scene scale pushes x1 past x2
    with pytest.raises(InvalidInputError, match="degenerate box"):
        check_scene(gts, proposals, CompositeConfig(), CouLossConfig(), fd_step_fraction=1.0)


def test_nan_errors_fail():
    # a zero step makes every central difference 0/0
    with np.errstate(invalid="ignore"):
        outcome = run_gradcheck(SimConfig(), CompositeConfig(), CouLossConfig(), num_scenes=2, fd_step_fraction=0.0)
    assert outcome.scenes_checked > 0
    assert all(math.isnan(e) for e in outcome.max_error.values())
    assert not outcome.passed(1e-4)
