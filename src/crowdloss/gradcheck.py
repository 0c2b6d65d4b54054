"""Finite-difference validation of the analytic loss gradients."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._pairs import box_array, center_distances, check_boxes
from .baselines import CompositeConfig, _composite, _Weights, scene_scale
from .couloss import CouLossConfig, detect_kinks
from .geometry import BBox
from .simulator import SimConfig, generate_scene, spawn_proposals

TERMS = ("couloss", "couloss_attraction", "couloss_repulsion", "smooth_l1", "composite")
# the first four terms' configs: CouLoss (0 * SmoothL1 + 1 * CouLoss is CouLoss bit for bit), its parts, SmoothL1
_COULOSS = CompositeConfig(smoothl1_weight=0.0)
_FIXED_TERMS = (_COULOSS, replace(_COULOSS, include_repulsion=False), replace(_COULOSS, include_attraction=False),
                CompositeConfig(alpha=0.0))


def _terms(gts, points, weights, cou_cfg, gradient=False):
    """Values ``(5, K)`` of the five ``TERMS`` at K points ``(K, N, 4)`` and, with
    ``gradient``, their ``(5, K, N, 4)`` gradients: one composite evaluation of the
    batch under ``weights``, the ``_Weights`` of the five terms' configs with a trailing
    axis, broadcast against the K points.
    """
    G = np.broadcast_to(gts, (len(points), *gts.shape))
    (_, _, values), grads, _, _ = _composite(G, points, weights, cou_cfg, center_distances(G), gradient)
    return values, grads


def finite_difference(gts, coords, weights, cou_cfg, h: float) -> np.ndarray:
    """Central finite differences of the ``TERMS`` values of ``_terms`` over the
    ``(N, 4)`` proposal coordinates: shape ``(len(TERMS), N, 4)``. The 8N
    perturbed points are evaluated as one batch, and must all be valid boxes."""
    n = coords.size
    # the +h and -h copies of each coordinate in turn, all checked at once
    points = np.repeat(coords[None], 2 * n, axis=0)
    flat, k = points.reshape(2 * n, n), np.arange(n)
    flat[2 * k, k] += h
    flat[2 * k + 1, k] -= h
    check_boxes(points.reshape(-1, 4))
    values = _terms(gts, points, weights, cou_cfg)[0]
    return ((values[:, 0::2] - values[:, 1::2]) / (2.0 * h)).reshape(len(TERMS), *coords.shape)


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max()) / max(denom, 1e-8) if denom else 0.0


def check_scene(
    gts: list[BBox],
    proposals: list[BBox],
    comp_cfg: CompositeConfig,
    cou_cfg: CouLossConfig,
    fd_step_fraction: float = 1e-5,
) -> dict[str, float]:
    """Per-term relative errors between analytic gradients and central differences.

    The analytic point is one evaluation of all five terms with their
    gradients; the 8N central-difference points are one batched evaluation.
    """
    G, P, scale = box_array(gts), box_array(proposals), scene_scale(gts)
    weights = _Weights.of([*_FIXED_TERMS, comp_cfg], np.array([scale]), len(proposals))
    args = (_Weights(*(w[..., None] for w in weights)), cou_cfg)  # the five configs against the points
    analytic = _terms(G, P[None], *args, gradient=True)[1][:, 0]
    numeric = finite_difference(G, P, *args, fd_step_fraction * scale)
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
    errors, kink_lines = [], []
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
