"""The finite-difference gradcheck: one substituted sweep per block of scenes, whose
central differences equal a full evaluation of each point (a point whose moved
proposal changes its topology is evaluated in full), the same errors as five
sweeps, and blocks of scenes give the outcome of the one-scene-at-a-time loop;
the report bytes of three runs are pinned."""

import dataclasses
import hashlib
import math
import re
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdloss import _pairs, gradcheck
from crowdloss.baselines import CompositeConfig, regression_targets
from crowdloss.cli import main
from crowdloss.couloss import AGGREGATION_MODES, CouLossConfig, TripletStructure, detect_kinks
from crowdloss.errors import InvalidInputError
from crowdloss.geometry import BBox, iou
from crowdloss.gradcheck import TERMS, GradCheckConfig, check_scene, finite_difference, run_gradcheck
from crowdloss.simulator import SimConfig, generate_scene, spawn_proposals
from oracles import five_sweep_check_scene, per_point_finite_difference, sequential_run_gradcheck
from util import counted, patch_everywhere

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


def test_two_assignments_and_two_kernel_calls_per_scene(monkeypatch):
    gts, proposals = scene_and_proposals(2, 3, proposals_per_gt=6)
    n = len(proposals)
    calls = Counter()
    for name in ("pair_work", "best_gt"):
        patch_everywhere(monkeypatch, name, counted(getattr(_pairs, name), calls, name))
    check_scene(gts, proposals, CompositeConfig(), CouLossConfig())
    # the analytic point, and the substituted sweep of the 8N points: nothing trips its guard here
    assert n == 12
    assert calls["pair_work"] == 2
    assert calls["best_gt"] == 2


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    pedestrians=st.integers(1, 6),
    proposals_per_gt=st.integers(1, 3),
    seed=st.integers(0, 10**6),
    config=st.sampled_from(sorted(CONFIGS)),
    mode=st.sampled_from(AGGREGATION_MODES),
)
def test_batched_points_equal_per_point_evaluation(pedestrians, proposals_per_gt, seed, config, mode):
    gts, proposals = scene_and_proposals(pedestrians, seed, proposals_per_gt)
    comp_cfg, cou_cfg = CONFIGS[config]
    captured = []
    with pytest.MonkeyPatch.context() as mp:
        # the arguments check_scene hands to the batched sweep
        mp.setattr(gradcheck, "finite_difference", lambda *args: captured.append(args) or finite_difference(*args))
        check_scene(gts, proposals, comp_cfg, dataclasses.replace(cou_cfg, aggregation_mode=mode))
    (args,) = captured
    (gts, coords, weights, cou_cfg, h), batched = args, finite_difference(*args)
    assert batched.shape == (len(TERMS), 1, len(proposals), 4)
    assert np.array_equal(batched[:, 0], per_point_finite_difference(gts[0], coords[0], weights, cou_cfg, h[0]))


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
def test_no_proposals_gives_zero_errors(mode):
    gts, _ = scene_and_proposals(2, 3)
    for comp_cfg, _ in CONFIGS.values():
        got = check_scene(gts, [], comp_cfg, CouLossConfig(aggregation_mode=mode))
        assert got == dict.fromkeys(TERMS, 0.0)


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
def test_disjoint_proposal_uses_nearest_center_target(mode):
    gts = [BBox(0.0, 0.0, 10.0, 20.0), BBox(30.0, 0.0, 40.0, 20.0)]
    # overlaps no ground truth and is nearest the second one, beside one that is assigned
    proposals = [BBox(60.0, 60.0, 70.0, 80.0), BBox(1.0, 1.0, 11.0, 21.0)]
    assert regression_targets(gts, proposals) == [1, 0]
    for name, (comp_cfg, _) in CONFIGS.items():
        cou_cfg = CouLossConfig(aggregation_mode=mode)
        got = check_scene(gts, proposals, comp_cfg, cou_cfg)
        assert all(math.isfinite(e) and e < 1e-4 for e in got.values()), name
        assert got == five_sweep_check_scene(gts, proposals, comp_cfg, cou_cfg), name


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


# each was accepted: a negative or NaN kink tolerance switched the kink screen off (0 kink lines over 40
# scenes, 12 at the default), num_scenes = -3 reported -3 scenes skipped, and no retry checked no scene;
# a negative seed_base ended in numpy's ValueError
@pytest.mark.parametrize(
    "keyword, value, rule",
    [
        ("kink_tolerance", -1.0, "finite and >= 0"),
        ("kink_tolerance", math.nan, "finite and >= 0"),
        ("num_scenes", -3, ">= 1"),
        ("num_scenes", 0, ">= 1"),
        ("max_perturb_retries", 0, ">= 1"),
        ("seed_base", -5, "an integer >= 0"),
    ],
    ids=["kink-negative", "kink-nan", "scenes-negative", "scenes-zero", "no-retries", "seed-base-negative"],
)
def test_bad_keyword_rejected_by_name(keyword, value, rule):
    message = re.escape(f"{keyword} must be {rule}, got {value!r}")
    with pytest.raises(InvalidInputError, match=message):
        run_gradcheck(SimConfig(), CompositeConfig(), CouLossConfig(), **{"num_scenes": 2, keyword: value})
    if keyword != "seed_base":  # the [gradcheck] key of the same name has the same rule
        with pytest.raises(InvalidInputError, match=message):
            GradCheckConfig(**{keyword: value})


CROWD = SimConfig(pedestrian_count=6, proposals_per_gt=8)
# (sim, composite, couloss, run_gradcheck keywords); 40 scenes span a full block and a partial one
RUNS = {
    "default-from-7": (SimConfig(), CompositeConfig(), CouLossConfig(), {"seed_base": 7}),
    # scenes 394 and 399 are the only ones kink-free within 3 retries, both on the third
    "crowd-3-retries": (CROWD, CompositeConfig(smoothl1_beta=0.5), CouLossConfig(),
                        {"seed_base": 380, "max_perturb_retries": 3}),
    "triplet-literal": (SimConfig(), CompositeConfig(), CouLossConfig(aggregation_mode="triplet-literal"), {}),
    "alpha-0": (SimConfig(), CompositeConfig(alpha=0.0), CouLossConfig(), {}),
    "repulsion-off-beta-0.5": (SimConfig(), CompositeConfig(include_repulsion=False, smoothl1_beta=0.5),
                               CouLossConfig(), {}),
    "fd-step-0": (SimConfig(), CompositeConfig(), CouLossConfig(), {"fd_step_fraction": 0.0}),
}


def bits(outcome):
    """The outcome's fields, each error as its float's bytes, so that NaN equals NaN."""
    fields = dataclasses.asdict(outcome)
    for key in ("max_error", "mean_error"):
        fields[key] = {t: struct.pack("<d", e) for t, e in fields[key].items()}
    return fields


@pytest.mark.parametrize("name", sorted(RUNS))
def test_blocks_equal_sequential_loop(name):
    sim, comp_cfg, cou_cfg, options = RUNS[name]
    args = (sim, comp_cfg, cou_cfg, 40)
    with np.errstate(invalid="ignore"):  # a zero step makes every central difference 0/0
        got, want = run_gradcheck(*args, **options), sequential_run_gradcheck(*args, **options)
    assert want.scenes_checked > 0 and want.kink_lines
    assert bits(got) == bits(want)


def test_one_kernel_call_per_retry_round_and_per_block(monkeypatch):
    sim, cou_cfg, num_scenes = SimConfig(), CouLossConfig(), 70
    # each scene's retry rounds in the sequential loop; a block runs as many as its slowest scene
    rounds = Counter()
    for seed in range(num_scenes):
        scene = generate_scene(sim, seed)
        for retry in range(20):
            if not detect_kinks(scene.gt_boxes, spawn_proposals(scene, sim, seed * 1000 + retry + 1), cou_cfg, 1e-3):
                break
        block = seed // gradcheck._BLOCK
        rounds[block] = max(rounds[block], retry + 1)
    assert len(rounds) == 3 and max(rounds.values()) > 1
    calls = Counter()
    patch_everywhere(monkeypatch, "pair_work", counted(_pairs.pair_work, calls, "pair_work"))
    outcome = run_gradcheck(sim, CompositeConfig(), cou_cfg, num_scenes)
    # every block has a kink-free scene; its sweep is one kernel call, none of its points tripping the guard
    assert outcome.scenes_checked > 2 * gradcheck._BLOCK
    assert calls["pair_work"] == sum(rounds.values()) + len(rounds)


# scenes where a one-step move changes the moved proposal's topology, with the points that change it as
# (proposal, coordinate, +h / -h); h is 1e-5 of the scene scale 20
TOPOLOGY_SWITCHES = {
    # proposal 0's right edge touches gt 1, which has a positive: at +h it becomes gt 1's negative
    "edge-touches-non-target": (
        [BBox(0.0, 0.0, 10.0, 20.0), BBox(10.0, 0.0, 20.0, 20.0)],
        [BBox(1.0, 1.0, 10.0, 21.0), BBox(11.0, 1.0, 20.0, 21.0)],
        CouLossConfig(), {(0, 2, 0)},
    ),
    # proposal 0's center sits on gt 0's right border (IoU 1/3): moving it right leaves it unassigned
    "center-on-target-border": (
        [BBox(0.0, 0.0, 10.0, 20.0), BBox(12.0, 0.0, 22.0, 20.0)],
        [BBox(5.0, 0.0, 15.0, 20.0), BBox(12.5, 0.5, 21.5, 20.5)],
        CouLossConfig(positive_iou_threshold=0.3), {(0, 0, 0), (0, 2, 0)},
    ),
    # unassigned proposal 0 ties its IoU (0.2) with both gts and disjoint proposal 2 its distance to their
    # centers: moving either right moves its SmoothL1 target from gt 0 to gt 1
    "smoothl1-target-ties": (
        [BBox(0.0, 0.0, 10.0, 20.0), BBox(20.0, 0.0, 30.0, 20.0)],
        [BBox(5.0, 0.0, 25.0, 20.0), BBox(1.0, 1.0, 10.0, 21.0), BBox(13.0, 35.0, 17.0, 45.0)],
        CouLossConfig(), {(0, 0, 0), (0, 2, 0), (2, 0, 0), (2, 2, 0)},
    ),
    # proposal 0's best IoU is exactly the threshold 0.5: growing it down assigns it, a positive and a negative
    "best-iou-at-threshold": (
        [BBox(0.0, 0.0, 10.0, 20.0), BBox(8.0, 0.0, 18.0, 20.0)],
        [BBox(0.0, 0.0, 10.0, 10.0), BBox(8.5, 0.5, 17.5, 20.5)],
        CouLossConfig(), {(0, 3, 0)},
    ),
}


def topology(gts, proposals, cou_cfg, i):
    """Proposal ``i``'s SmoothL1 target, CouLoss target (None unassigned) and overlapped ground truths."""
    assignments = TripletStructure.from_boxes(gts, proposals, cou_cfg).assignments
    targets = {a.proposal_index: a.target_gt_index for a in assignments}
    return regression_targets(gts, proposals)[i], targets.get(i), [iou(g, proposals[i]) > 0.0 for g in gts]


@pytest.mark.parametrize("mode", AGGREGATION_MODES)
@pytest.mark.parametrize("name", sorted(TOPOLOGY_SWITCHES))
def test_topology_switch_points_are_evaluated_in_full(name, mode):
    gts, proposals, cou_cfg, switches = TOPOLOGY_SWITCHES[name]
    cou_cfg = dataclasses.replace(cou_cfg, aggregation_mode=mode)
    h = 1e-5 * 20.0
    points = {}  # (proposal, coordinate, sign) -> the point's proposals
    for i, c, sign in np.ndindex(len(proposals), 4, 2):
        coords = list(proposals[i].as_tuple())
        coords[c] += -h if sign else h
        points[i, c, sign] = [*proposals[:i], BBox(*coords), *proposals[i + 1:]]
    base = [topology(gts, proposals, cou_cfg, i) for i in range(len(proposals))]
    assert {k for k, ps in points.items() if topology(gts, ps, cou_cfg, k[0]) != base[k[0]]} == switches
    comp_cfg = CompositeConfig()
    sweeps, full = [], []
    terms = gradcheck._terms

    def spy(gts, points, weights, cou_cfg, gradient=False):
        if not gradient:  # a point the sweep evaluates in full
            full.append(points.copy())
        return terms(gts, points, weights, cou_cfg, gradient)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradcheck, "finite_difference", lambda *args: sweeps.append(args) or finite_difference(*args))
        mp.setattr(gradcheck, "_terms", spy)
        got = check_scene(gts, proposals, comp_cfg, cou_cfg)
    assert got == five_sweep_check_scene(gts, proposals, comp_cfg, cou_cfg)
    (evaluated,) = full
    want = np.array([[b.as_tuple() for b in points[k]] for k in sorted(switches)])
    assert np.array_equal(evaluated, want)
    ((G, P, weights, cou, steps),) = sweeps
    assert steps[0] == h
    assert np.array_equal(finite_difference(*sweeps[0])[:, 0], per_point_finite_difference(G[0], P[0], weights, cou, h))


# the SHA-256 of gradcheck_report.txt as the per-point evaluation wrote it: (config file, digest)
REPORT_SHA256 = {
    "defaults-1000": ("", "44fee4545e1121db2981c435db36932aea963df3689403e6ae59bdfe13b8f4a3"),
    "triplet-literal-300": ("[couloss]\naggregation_mode = triplet-literal\n\n[gradcheck]\nnum_scenes = 300\n",
                            "d329bc73db366f899150f8dffac38cf9b7406a6bb4411aaff7662f8d29e3d308"),
    "4x6-96": ("[sim]\npedestrian_count = 4\nproposals_per_gt = 6\n\n[gradcheck]\nnum_scenes = 96\n",
               "101b846da71e65704d874069a2b318e6baf3797f747bc805d0bcaa27afeb6088"),
}


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_report_bytes_pinned(tmp_path, name):
    text, digest = REPORT_SHA256[name]
    (tmp_path / "run.cfg").write_text(text)
    assert main(["gradcheck", "--config", str(tmp_path / "run.cfg"), "--seeds", "0", "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "gradcheck_report.txt").read_bytes()).hexdigest() == digest
