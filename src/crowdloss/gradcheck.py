"""Finite-difference validation of the analytic loss gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._pairs import best_gt, box_array, check_boxes
from .baselines import CompositeConfig, _composite, _targets, scene_scale
from .couloss import CouLossConfig, _couloss, _evaluate, detect_kinks
from .geometry import BBox
from .simulator import SimConfig, generate_scene, spawn_proposals

TERMS = ("couloss", "couloss_attraction", "couloss_repulsion", "smooth_l1", "composite")
# (attraction, repulsion) of the three CouLoss terms, and the config of the SmoothL1 term
_COULOSS_PARTS = ((True, True), (True, False), (False, True))
_SMOOTH_L1 = CompositeConfig(alpha=0.0)


def _terms(gts, proposals, scale, comp_cfg, cou_cfg, gradient=False):
    """Values of the five ``TERMS`` at the box arrays and, with ``gradient``,
    their ``(N, 4)`` gradients, from one IoU matrix and one kernel call.

    The CouLoss terms read the kernel's attraction/repulsion split; the
    SmoothL1 term is the composite under ``CompositeConfig(alpha=0.0)``.
    """
    ranked = best_gt(gts, proposals)
    targets = _targets(gts, proposals, ranked)
    evaluation = _evaluate(gts, proposals, cou_cfg, None, ranked, gradient)
    kw = dict(gradient=gradient, evaluation=evaluation)
    out = [_couloss(gts, proposals, cou_cfg, None, parts, **kw) for parts in _COULOSS_PARTS]
    for cfg in (_SMOOTH_L1, comp_cfg):
        out.append(_composite(gts, proposals, scale, cfg, cou_cfg, evaluation[0], targets, **kw))
    return np.array([report.total for report, _ in out]), [grad for _, grad in out]


def finite_difference(loss_fn, coords: np.ndarray, h: float) -> np.ndarray:
    """Central finite differences of the ``TERMS`` values ``loss_fn`` returns,
    over the ``(N, 4)`` proposal coordinates: shape ``(len(TERMS), N, 4)``.
    Every perturbed point must be valid boxes."""
    grad = np.zeros((len(TERMS), *coords.shape))
    for pi, ci in np.ndindex(coords.shape):
        plus = coords.copy()
        minus = coords.copy()
        plus[pi, ci] += h
        minus[pi, ci] -= h
        check_boxes(np.concatenate([plus, minus]))
        grad[:, pi, ci] = (loss_fn(plus) - loss_fn(minus)) / (2.0 * h)
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
    analytic = _terms(G, P, scale, comp_cfg, cou_cfg, gradient=True)[1]
    numeric = finite_difference(
        lambda coords: _terms(G, coords, scale, comp_cfg, cou_cfg)[0], P, fd_step_fraction * scale
    )
    return {t: relative_error(a, n) for t, a, n in zip(TERMS, analytic, numeric)}


@dataclass
class GradCheckOutcome:
    scenes_checked: int
    scenes_skipped: int
    max_error: dict
    mean_error: dict
    kink_lines: list

    def passed(self, tolerance: float) -> bool:
        return self.scenes_checked > 0 and max(self.max_error.values()) < tolerance


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
        max_error={t: max([0.0] + [e[t] for e in errors]) for t in TERMS},
        mean_error={t: sum(e[t] for e in errors) / checked if checked else 0.0 for t in TERMS},
        kink_lines=kink_lines,
    )
