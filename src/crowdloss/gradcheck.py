"""Finite-difference validation of the analytic loss gradients."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._pairs import box_array, check_boxes, scene_boxes
from .baselines import CompositeConfig, _composite, _Weights, scene_scale
from .couloss import CouLossConfig, _kinks
from .geometry import BBox
from .simulator import SimConfig, generate_scene, spawn_proposals

TERMS = ("couloss", "couloss_attraction", "couloss_repulsion", "smooth_l1", "composite")
# the first four terms' configs: CouLoss (0 * SmoothL1 + 1 * CouLoss is CouLoss bit for bit), its parts, SmoothL1
_COULOSS = CompositeConfig(smoothl1_weight=0.0)
_FIXED_TERMS = (_COULOSS, replace(_COULOSS, include_repulsion=False), replace(_COULOSS, include_attraction=False),
                CompositeConfig(alpha=0.0))
# scene seeds per run_gradcheck block: bounds the memory of a retry round's evaluation
_BLOCK = 32


def _weights(comp_cfg: CompositeConfig, scales: np.ndarray, num_proposals: int):
    """The five ``TERMS``' ``_Weights`` against B scenes' ``scales``, shaped (5, B); a
    SmoothL1 beta all five share keeps a length-1 term axis, so SmoothL1 runs once."""
    weights = _Weights.of([*_FIXED_TERMS, comp_cfg], scales, num_proposals, variants=True)
    return weights._replace(beta=weights.beta[:1]) if (weights.beta == weights.beta[0]).all() else weights


def _terms(gts, points, weights, cou_cfg, gradient=False):
    """Values ``(5, K)`` of the five ``TERMS`` at K points ``(K, N, 4)`` of ``(K, M, 4)``
    (or shared ``(M, 4)``) ground truths, with ``gradient`` their ``(5, K, N, 4)``
    gradients (else None), and the points' ``_evaluate``: one composite evaluation
    of the batch under the ``_weights`` ``weights``."""
    G = np.broadcast_to(gts, (len(points), *gts.shape[-2:]))
    (_, _, values), grads, evaluation, _ = _composite(G, points, weights, cou_cfg, gradient)
    return values, grads, evaluation


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


def _errors(gts, coords, analytic, scale, comp_cfg, cou_cfg, fd_step_fraction):
    """``check_scene`` of one scene's ``(M, 4)`` and ``(N, 4)`` boxes, from their
    ``(5, N, 4)`` analytic gradients: the 8N central-difference points are one batch."""
    weights = _weights(comp_cfg, np.array([scale]), len(coords))
    numeric = finite_difference(gts, coords, weights, cou_cfg, fd_step_fraction * scale)
    return {t: relative_error(a, n) for t, a, n in zip(TERMS, analytic, numeric)}


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
    G, P = scene_boxes(gts, proposals)
    scale = scene_scale(G)
    analytic = _terms(G, P, _weights(comp_cfg, scale, P.shape[1]), cou_cfg, gradient=True)[1]
    return _errors(G[0], P[0], analytic[:, 0], scale[0], comp_cfg, cou_cfg, fd_step_fraction)


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


def _kink_free(scenes, sim_cfg, comp_cfg, cou_cfg, kink_tolerance, max_perturb_retries, kink_lines):
    """The first four ``_errors`` arguments of each scene of ``scenes`` ({seed: scene})
    that a retry makes kink-free, by seed. A retry round is one evaluation of the pending
    scenes: their kink reports and analytic gradients. Round 0's kink lines go to ``kink_lines``."""
    pending, found = list(scenes), {}
    for retry in range(max_perturb_retries):
        if not pending:
            break
        G = np.array([box_array(scenes[seed].gt_boxes) for seed in pending])
        P = np.array([box_array(spawn_proposals(scenes[seed], sim_cfg, seed * 1000 + retry + 1)) for seed in pending])
        scales = scene_scale(G)
        _, grads, evaluation = _terms(G, P, _weights(comp_cfg, scales, P.shape[1]), cou_cfg, gradient=True)
        for b, (seed, lines) in enumerate(zip(pending, _kinks(G, P, cou_cfg, kink_tolerance, evaluation))):
            if not lines:
                found[seed] = (G[b], P[b], grads[:, b].copy(), scales[b])
            elif retry == 0:
                kink_lines.append(f"kink_warning seed={seed} {lines[0]}")
        pending = [seed for seed in pending if seed not in found]
    return found


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
    Scenes are checked in blocks of ``_BLOCK`` seeds: the retry rounds of ``_kink_free``,
    then each kink-free scene's central differences as one batch, in seed order.
    """
    errors, kink_lines = [], []
    end = seed_base + num_scenes
    for start in range(seed_base, end, _BLOCK):
        scenes = {seed: generate_scene(sim_cfg, seed) for seed in range(start, min(start + _BLOCK, end))}
        found = _kink_free(scenes, sim_cfg, comp_cfg, cou_cfg, kink_tolerance, max_perturb_retries, kink_lines)
        errors += [_errors(*found[seed], comp_cfg, cou_cfg, fd_step_fraction) for seed in sorted(found)]
    checked = len(errors)
    return GradCheckOutcome(
        scenes_checked=checked,
        scenes_skipped=num_scenes - checked,
        # np.max keeps a NaN error, which Python's max would drop
        max_error={t: float(np.max([0.0] + [e[t] for e in errors])) for t in TERMS},
        mean_error={t: sum(e[t] for e in errors) / checked if checked else 0.0 for t in TERMS},
        kink_lines=kink_lines,
    )
