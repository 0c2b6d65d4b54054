"""Finite-difference validation of the analytic loss gradients."""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from ._pairs import PairFrame, best_gt, box_array, check_boxes, pair_work, scene_boxes
from .baselines import CompositeConfig, _composite, _smooth_l1, _targets, _values, _Weights, scene_scale
from .couloss import CouLossConfig, _kinks, _losses, _structure
from .errors import SEED, check, non_negative, positive
from .geometry import BBox
from .simulator import SimConfig, generate_scene, spawn_proposals

TERMS = ("couloss", "couloss_attraction", "couloss_repulsion", "smooth_l1", "composite")
# the first four terms' configs: CouLoss (0 * SmoothL1 + 1 * CouLoss is CouLoss bit for bit), its parts, SmoothL1
_COULOSS = CompositeConfig(smoothl1_weight=0.0)
_FIXED_TERMS = (_COULOSS, replace(_COULOSS, include_repulsion=False), replace(_COULOSS, include_attraction=False),
                CompositeConfig(alpha=0.0))
# scene seeds per run_gradcheck block: bounds the memory of a retry round's evaluation
_BLOCK = 32
# the rules of the [gradcheck] keys that run_gradcheck checks too
_RUN_RULES = ((("kink_tolerance",), non_negative, "finite and >= 0"),
              (("num_scenes", "max_perturb_retries"), lambda v: v >= 1, ">= 1"))


@dataclass(frozen=True)
class GradCheckConfig:
    num_scenes: int = 1000
    tolerance: float = 1e-4
    fd_step_fraction: float = 1e-5
    kink_tolerance: float = 1e-3
    max_perturb_retries: int = 20

    def __post_init__(self):
        check(self, ("tolerance", "fd_step_fraction"), positive, "finite and > 0")
        for rule in _RUN_RULES:
            check(self, *rule)


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


def _at(weights: _Weights, scenes: np.ndarray) -> _Weights:
    """The ``_weights`` at the scene indices ``scenes``; a length-1 scene axis broadcasts, and stays."""
    return _Weights(*(w if w.shape[-1] == 1 else w.take(scenes, axis=-1) for w in weights))


def _swept_sums(values: np.ndarray, owner: np.ndarray, n: int, size: int) -> np.ndarray:
    """``(size * 8,)``: each point's sum of its scene's items, added in order by ``np.bincount``. An item's
    ``values`` ``(I, 9)`` are at the base point and at the 8 points that move its ``owner``, else its base."""
    proposals = (owner // n * n)[:, None] + np.arange(n)  # (I, n): each item's scene's proposals
    owned = proposals == owner[:, None]
    return np.array([np.bincount(proposals.ravel(), np.where(owned, values[:, move, None], values[:, :1]).ravel(),
                                 size) for move in range(1, 9)]).T.ravel()


def _topology(G, boxes, cou_cfg):
    """From one IoU matrix of B scenes' ``(B, N, 9, 4)`` boxes: the base pair structure and SmoothL1 targets, and
    the points (flat) whose moved proposal changes its SmoothL1 target, its assignment or its overlaps."""
    B, N = boxes.shape[:2]
    boxes = boxes.reshape(B, 9 * N, 4)
    ranked = best_gt(G, boxes)
    targets, assigned = _targets(G, boxes, ranked), np.zeros(boxes.shape[:2], bool)
    assigned.flat[_structure(G, boxes, cou_cfg, ranked, keep=np.zeros((2, B), bool)).assigned[0]] = True
    keys = np.concatenate([targets[:, None], assigned[:, None], ranked[0] > 0.0], axis=1)
    keys = keys.reshape(*keys.shape[:2], N, 9)  # each box's keys, against its proposal's base box's
    tripped = np.flatnonzero((keys[..., 1:] != keys[..., :1]).any(axis=1))
    return _structure(G, boxes[:, ::9], cou_cfg, tuple(r[..., ::9] for r in ranked)), targets[:, ::9], tripped


def finite_difference(G, P, weights, cou_cfg, h) -> np.ndarray:
    """Central finite differences ``(5, B, N, 4)`` of the ``TERMS`` values of ``_terms`` over B scenes'
    ``(B, N, 4)`` proposals, of ``(B, M, 4)`` ground truths and ``(B,)`` steps ``h``. Each point moves one
    proposal to a valid box. One kernel call evaluates each pair at its base point and at the 8 points that
    move its proposal; a point's other pairs and SmoothL1 rows are its base ones, added in the order of a full
    evaluation, so it has the values of ``_terms`` bit for bit. ``_terms`` evaluates the points ``_topology`` trips."""
    (B, N), c = P.shape[:2], np.arange(4)
    boxes = np.repeat(P[:, :, None], 9, axis=2)  # each proposal, then +h and -h on each coordinate in turn
    boxes[:, :, 1 + 2 * c, c] += h[:, None, None]
    boxes[:, :, 2 + 2 * c, c] -= h[:, None, None]
    check_boxes(boxes[:, :, 1:].reshape(-1, 4))
    structure, targets, tripped = _topology(G, boxes, cou_cfg)
    (_, prop, _, mult), ka = structure.pairs, structure.num_attraction
    frame = PairFrame.of(G.reshape(-1, 4), structure.pairs, ka)
    # each pair at the 9 boxes of its proposal; a value-only pair_work reads no other field of the pairs
    frame = PairFrame(structure.pairs._replace(proposal=(9 * prop[:, None] + np.arange(9)).ravel()), 9 * ka,
                      *(np.repeat(a, 9, axis=-1) for a in frame[2:]))
    literal = cou_cfg.aggregation_mode == "triplet-literal"
    work = pair_work(frame, boxes.reshape(-1, 4), cou_cfg.iou_floor, literal=literal).work.reshape(-1, 9)
    work = work * mult[:, None] if literal else work
    sums = np.array([_swept_sums(work[k], prop[k], N, B * N) for k in (slice(ka), slice(ka, None))])
    rows = _smooth_l1(boxes - G[np.arange(B)[:, None], targets, None], weights.beta[..., None, None, None])[0]
    sl1 = np.array([_swept_sums(r.reshape(B * N, 9), np.arange(B * N), N, B * N) for r in rows])
    at = _at(weights, np.repeat(np.arange(B), 8 * N))
    values = _values(at, sl1, _losses(sums, at.parts, G.shape[1]))[2]
    if tripped.size:
        scene, full = tripped // (8 * N), P[tripped // (8 * N)]
        full[np.arange(len(tripped)), tripped // 8 % N] = boxes[:, :, 1:].reshape(-1, 4)[tripped]
        values[:, tripped] = _terms(G[scene], full, _at(weights, scene), cou_cfg)[0]
    return (values[:, 0::2] - values[:, 1::2]).reshape(len(TERMS), B, N, 4) / (2.0 * h)[:, None, None]


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
    return float(np.abs(analytic - numeric).max()) / max(denom, 1e-8) if denom else 0.0


def _errors(G, P, analytic, scales, comp_cfg, cou_cfg, fd_step_fraction) -> list[dict[str, float]]:
    """``check_scene`` of B scenes' boxes from their ``(B, 5, N, 4)`` analytic gradients: one sweep."""
    numeric = finite_difference(G, P, _weights(comp_cfg, scales, P.shape[1]), cou_cfg, fd_step_fraction * scales)
    return [{t: relative_error(*d) for t, *d in zip(TERMS, a, n)} for a, n in zip(analytic, numeric.swapaxes(0, 1))]


def check_scene(
    gts: list[BBox],
    proposals: list[BBox],
    comp_cfg: CompositeConfig,
    cou_cfg: CouLossConfig,
    fd_step_fraction: float = GradCheckConfig.fd_step_fraction,
) -> dict[str, float]:
    """Per-term relative errors between analytic gradients, one evaluation of all five terms, and
    the central differences of ``finite_difference``'s substituted sweep on a block of one scene."""
    G, P = scene_boxes(gts, proposals)
    scale = scene_scale(G)
    analytic = _terms(G, P, _weights(comp_cfg, scale, P.shape[1]), cou_cfg, gradient=True)[1]
    return _errors(G, P, analytic.swapaxes(0, 1), scale, comp_cfg, cou_cfg, fd_step_fraction)[0]


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
    """The boxes, ``(B, 5, N, 4)`` analytic gradients and scales of the B scenes of ``scenes`` ({seed: scene})
    that a retry makes kink-free, stacked in seed order (or ``[]``). A retry round is one evaluation of the
    pending scenes: their kink reports and analytic gradients. Round 0's kink lines go to ``kink_lines``."""
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
    return [np.array(x) for x in zip(*(found[seed] for seed in sorted(found)))]


def run_gradcheck(
    sim_cfg: SimConfig,
    comp_cfg: CompositeConfig,
    cou_cfg: CouLossConfig,
    num_scenes: int = GradCheckConfig.num_scenes,
    fd_step_fraction: float = GradCheckConfig.fd_step_fraction,
    kink_tolerance: float = GradCheckConfig.kink_tolerance,
    max_perturb_retries: int = GradCheckConfig.max_perturb_retries,
    seed_base: int = 0,
) -> GradCheckOutcome:
    """Gradient check over seeded random scenes.

    Scenes whose configuration sits near a non-differentiable switch are re-jittered (fresh
    proposal seed) up to the retry budget; an irreducibly kinky scene is skipped and recorded as a
    warning line. Scenes are checked in blocks of ``_BLOCK`` seeds: the retry rounds of
    ``_kink_free``, then one ``finite_difference`` sweep of the block's kink-free scenes.
    """
    # fd_step_fraction is left unchecked: a step of 0 is how a caller reaches NaN errors, which fail the check
    args = SimpleNamespace(num_scenes=num_scenes, kink_tolerance=kink_tolerance,
                           max_perturb_retries=max_perturb_retries, seed_base=seed_base)
    for rule in (*_RUN_RULES, (("seed_base",), *SEED)):
        check(args, *rule)
    errors, kink_lines = [], []
    end = seed_base + num_scenes
    for start in range(seed_base, end, _BLOCK):
        scenes = {seed: generate_scene(sim_cfg, seed) for seed in range(start, min(start + _BLOCK, end))}
        found = _kink_free(scenes, sim_cfg, comp_cfg, cou_cfg, kink_tolerance, max_perturb_retries, kink_lines)
        errors += _errors(*found, comp_cfg, cou_cfg, fd_step_fraction) if found else []
    checked = len(errors)
    return GradCheckOutcome(
        scenes_checked=checked,
        scenes_skipped=num_scenes - checked,
        # np.max keeps a NaN error, which Python's max would drop
        max_error={t: float(np.max([0.0] + [e[t] for e in errors])) for t in TERMS},
        mean_error={t: sum(e[t] for e in errors) / checked if checked else 0.0 for t in TERMS},
        kink_lines=kink_lines,
    )
