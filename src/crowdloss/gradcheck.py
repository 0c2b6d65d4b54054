"""Finite-difference validation of the analytic loss gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pairs import best_gt, box_array, check_boxes
from .baselines import CompositeConfig, _composite, _targets, _Weights, scene_scale
from .couloss import CouLossConfig, _couloss, _evaluate, detect_kinks
from .geometry import BBox
from .simulator import SimConfig, generate_scene, spawn_proposals

TERMS = ("couloss", "couloss_attraction", "couloss_repulsion", "smooth_l1", "composite")
# (attraction, repulsion) of the three CouLoss terms, and the config of the SmoothL1 term
_COULOSS_PARTS = np.array([[True, True, False], [True, False, True]])
_SMOOTH_L1 = CompositeConfig(alpha=0.0)


def _terms(gts, proposals, weights, cou_cfg, gradient=False):
    """Values of the five ``TERMS`` at the box arrays and, with ``gradient``,
    their ``(5, N, 4)`` gradients, from one IoU matrix and one kernel call.

    The CouLoss terms read the kernel's attraction/repulsion split; the
    SmoothL1 and composite terms are the composite under ``weights``, the
    ``_Weights`` of ``CompositeConfig(alpha=0.0)`` and of the checked config,
    both broadcast against the one scene.
    """
    G, P = gts[None], proposals[None]
    ranked = best_gt(G, P)
    evaluation = _evaluate(G, P, cou_cfg, None, ranked, gradient)
    (_, _, couloss), cou_grad = _couloss(_COULOSS_PARTS, evaluation, G.shape[1], gradient)
    args = (G, P, weights, _targets(G, P, ranked), evaluation, gradient)
    (_, _, composite), comp_grad = _composite(*args)
    grads = np.concatenate([cou_grad, comp_grad]) if gradient else None
    return np.concatenate([couloss, composite]), grads


def finite_difference(loss_fn, coords: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of the ``TERMS`` values ``loss_fn`` returns,
    over the ``(N, 4)`` proposal coordinates: shape ``(len(TERMS), N, 4)``.
    Every perturbed point must be valid boxes."""
    n = coords.size
    # the +h and -h copies of each coordinate in turn, all checked at once
    points = np.repeat(coords[None], 2 * n, axis=0)
    flat, k = points.reshape(2 * n, n), np.arange(n)
    flat[2 * k, k] += h
    flat[2 * k + 1, k] -= h
    check_boxes(points.reshape(-1, 4))
    grad = np.zeros((len(TERMS), *coords.shape))
    for k, (pi, ci) in enumerate(np.ndindex(coords.shape)):
        grad[:, pi, ci] = (loss_fn(points[2 * k]) - loss_fn(points[2 * k + 1])) / (2.0 * h)
    return grad


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    if denom == 0.0:
        return 0.0
    return float(np.abs(analytic - numeric).max()) / max(denom, 1e-8)


def check_scene(
    gts: list[BBox],
    proposals: list[BBox],
    comp_cfg: CompositeConfig,
    cou_cfg: CouLossConfig,
    fd_step_fraction: float = 1e-5,
) -> dict[str, float]:
    """Per-term relative errors between analytic gradients and central differences.

    Each point, the analytic one and every perturbed one, is evaluated once
    for all five terms.
    """
    G, P, scale = box_array(gts), box_array(proposals), scene_scale(gts)
    args = (_Weights.of([_SMOOTH_L1, comp_cfg], np.array([scale]), len(proposals)), cou_cfg)
    analytic = _terms(G, P, *args, gradient=True)[1]
    numeric = finite_difference(lambda coords: _terms(G, coords, *args)[0], P, fd_step_fraction * scale)
    return {t: relative_error(a, n) for t, a, n in zip(TERMS, analytic, numeric)}


@dataclass
class GradCheckOutcome:
    scenes_checked: int
    scenes_skipped: int
    max_error: dict
    mean_error: dict
    kink_lines: list

    def passed(self, tolerance: float) -> bool:
        # a NaN error fails: it is not < tolerance
        return self.scenes_checked > 0 and all(e < tolerance for e in self.max_error.values())


def run_gradcheck(
    sim_cfg: SimConfig,
    comp_cfg: CompositeConfig,
    cou_cfg: CouLossConfig,
    num_scenes: int = 1000,
    fd_step_fraction: float = 1e-5,
    kink_tolerance: float = 1e-3,
    max_perturb_retries: int = 20,
    seed_base: int = 0,
) -> GradCheckOutcome:
    """Gradient check over seeded random scenes.

    Scenes whose configuration sits near a non-differentiable switch are
    re-jittered (fresh proposal seed) up to the retry budget; an
    irreducibly kinky scene is skipped and recorded as a warning line.
    """
    errors = []
    kink_lines = []
    seeds = range(seed_base, seed_base + num_scenes)
    for seed in seeds:
        scene = generate_scene(sim_cfg, seed)
        gts = scene.gt_boxes
        for retry in range(max_perturb_retries):
            proposals = spawn_proposals(scene, sim_cfg, seed * 1000 + retry + 1)
            kinks = detect_kinks(gts, proposals, cou_cfg, tolerance=kink_tolerance)
            if not kinks:
                errors.append(check_scene(gts, proposals, comp_cfg, cou_cfg, fd_step_fraction))
                break
            if retry == 0:
                kink_lines.append(f"kink_warning seed={seed} {kinks[0]}")
    checked = len(errors)
    return GradCheckOutcome(
        scenes_checked=checked,
        scenes_skipped=len(seeds) - checked,
        # np.max keeps a NaN error, which Python's max would drop
        max_error={t: float(np.max([0.0] + [e[t] for e in errors])) for t in TERMS},
        mean_error={t: sum(e[t] for e in errors) / checked if checked else 0.0 for t in TERMS},
        kink_lines=kink_lines,
    )
