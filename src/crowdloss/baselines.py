"""Reference losses and the composite regression objective.

SmoothL1 acts directly on corner coordinates (there is no anchor-encoding
stage here), and the composite combines the SmoothL1 slice with the
work-formula regulator under configurable weights and component toggles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._pairs import best_gt, scene_boxes
from .couloss import CouLossConfig, LossReport, TripletStructure, _evaluate, _loss_report
from .errors import check, non_negative, positive
from .geometry import BBox, centers, ray_length


@dataclass(frozen=True)
class CompositeConfig:
    """Weights and toggles for the joint regression objective.

    ``alpha`` weighs the work-formula term; ``gamma`` weighs the
    anchor-location focal loss where that branch is evaluated.
    ``smoothl1_weight`` defaults to the value that balances the typical
    gradient magnitudes of the two regression terms.
    """

    alpha: float = 1.0
    gamma: float = 1.0
    focal_gamma: float = 2.0
    focal_alpha: float = 0.25
    smoothl1_beta: float = 1.0
    smoothl1_weight: float = 25.0
    include_attraction: bool = True
    include_repulsion: bool = True

    def __post_init__(self):
        check(self, ("alpha", "gamma", "focal_gamma", "smoothl1_weight"), non_negative, "finite and >= 0")
        check(self, ("focal_alpha",), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check(self, ("smoothl1_beta",), positive, "finite and > 0")


@dataclass(frozen=True)
class CompositeReport:
    total: float
    smooth_l1: float
    couloss_total: float
    couloss: LossReport | None


def _smooth_l1(d: np.ndarray, beta, gradient: bool = False):
    """SmoothL1 of each row of coordinate differences ``d`` (..., 4), its four
    terms added left to right, and with ``gradient`` its gradient (else None);
    ``beta`` broadcasts against ``d``."""
    a = np.abs(d)
    small = a < beta
    t = np.where(small, 0.5 * d * d / beta, a - 0.5 * beta)
    rows = ((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]
    return rows, (np.where(small, d / beta, np.copysign(1.0, d)) if gradient else None)


def _focal(probs: np.ndarray, positive: np.ndarray, focal_gamma: float, focal_alpha: float) -> np.ndarray:
    """Alpha-balanced focal loss of each of ``probs`` in (0, 1); ``positive`` marks label 1."""
    p_t = np.where(positive, probs, 1.0 - probs)
    alpha_t = np.where(positive, focal_alpha, 1.0 - focal_alpha)
    return -alpha_t * np.power(1.0 - p_t, focal_gamma) * np.log(p_t)


def scene_scale(gts: np.ndarray) -> np.ndarray:
    """Characteristic length of each scene of ``(..., M, 4)`` ground truths: their mean
    max extent, the extents added left to right."""
    extent = np.maximum(gts[..., 2] - gts[..., 0], gts[..., 3] - gts[..., 1])
    return extent.cumsum(axis=-1)[..., -1] / gts.shape[-2]


def regression_targets(gts: list[BBox], proposals: list[BBox]) -> list[int]:
    """Target index per proposal for the SmoothL1 slice.

    Max-IoU assignment with ties toward the lowest index; proposals disjoint
    from every ground truth fall back to the nearest center (ties again
    toward the lowest index).
    """
    g, p = scene_boxes(gts, proposals)
    return _targets(g, p, best_gt(g, p))[0].tolist()


def _targets(gts: np.ndarray, proposals: np.ndarray, ranked) -> np.ndarray:
    """``regression_targets`` of B scenes' ``(B, M, 4)`` and ``(B, N, 4)`` box
    arrays, ``(B, N)``, from ``ranked = best_gt(gts, proposals)``."""
    _, best, best_v = ranked
    target = best.copy()
    far = np.nonzero(best_v <= 0.0)
    if far[0].size:  # rays (2, F, M) from each disjoint proposal's center to its scene's centers
        d = centers(gts[far[0]].transpose(2, 0, 1)) - centers(proposals[far].T)[:, :, None]
        target[far] = ray_length(d).argmin(axis=-1)
    return target


class _Weights(NamedTuple):
    """Per-scene constants of the composite loss of B scenes, from their B configs, ``(B,)``
    ``scene_scale``s and proposal count N: each field ``(B,)``, ``parts`` ``(2, B)``. With
    ``variants``, of V configs against each scene: the scene axis last, after a V axis, and of
    length 1 where the value is the config's alone. ``parts`` marks the CouLoss terms that are on
    and weighed; ``norm`` is N times the scale (1 without proposals); ``beta`` is the SmoothL1
    beta in scene units."""

    alpha: np.ndarray
    smoothl1_weight: np.ndarray
    parts: np.ndarray
    norm: np.ndarray
    beta: np.ndarray

    @classmethod
    def of(cls, cfgs, scale: np.ndarray, num_proposals: int, variants: bool = False) -> _Weights:
        tail = (..., None) if variants else ...  # a trailing scene axis on each config's values
        rows = [(c.alpha, c.smoothl1_weight, c.smoothl1_beta) for c in cfgs]
        alpha, weight, beta = np.array(rows, dtype=float).reshape(-1, 3).T[tail]
        parts = np.array([(c.include_attraction, c.include_repulsion) for c in cfgs], bool).reshape(-1, 2).T[tail]
        norm = num_proposals * scale if num_proposals else np.ones_like(scale)
        return cls(alpha, weight, parts & (alpha > 0.0), norm, beta * scale)


def composite_regression_loss(
    gts: list[BBox],
    proposals: list[BBox],
    cfg: CompositeConfig | None = None,
    cou_cfg: CouLossConfig | None = None,
    *,
    structure: TripletStructure | None = None,
    targets: list[int] | None = None,
) -> CompositeReport:
    """SmoothL1 slice plus the weighted work-formula regulator.

    The SmoothL1 part is the mean over proposals against their max-IoU
    targets, with coordinate differences measured in units of the mean
    ground-truth extent (``smoothl1_beta`` is in those units too), so the
    composite is invariant under joint scene scaling like the work-formula
    term. ``structure`` and ``targets`` accept frozen topology from a
    previous step; both default to being recomputed from the current boxes.
    """
    return _one_scene(gts, proposals, cfg, cou_cfg, structure, targets)[0]


def composite_gradient(
    gts: list[BBox],
    proposals: list[BBox],
    cfg: CompositeConfig | None = None,
    cou_cfg: CouLossConfig | None = None,
    *,
    structure: TripletStructure | None = None,
    targets: list[int] | None = None,
    warn_kinks: bool = False,
) -> np.ndarray:
    """d(composite_regression_loss)/d(proposal coordinates), shape (N, 4)."""
    return _one_scene(gts, proposals, cfg, cou_cfg, structure, targets, True, warn_kinks)[1]


def _one_scene(gts, proposals, cfg, cou_cfg, structure, targets, gradient=False, warn_kinks=False):
    """The composite report of one scene's boxes and, with ``gradient``, its
    ``(N, 4)`` gradient (else None)."""
    cfg, cou_cfg = cfg or CompositeConfig(), cou_cfg or CouLossConfig()
    (G, P), warn = scene_boxes(gts, proposals), np.array([warn_kinks])
    weights = _Weights.of([cfg], scene_scale(G), len(proposals))
    targets = None if targets is None else np.asarray(targets, dtype=np.intp).reshape(1, -1)
    args = (G, P, weights, cou_cfg, gradient, targets, structure)
    (sl1, cou, total), grad, evaluation, _ = _composite(*args, warn=warn)
    composite = CompositeReport(
        total=float(total[0]),
        smooth_l1=float(sl1[0]),
        couloss_total=float(cou[2][0]),
        couloss=None if evaluation is None else _loss_report(cou_cfg, len(gts), evaluation),
    )
    return composite, None if grad is None else grad[0]


def _values(weights: _Weights, sl1_sums: np.ndarray, cou):
    """SmoothL1 means, CouLoss sums and composite totals of scenes from SmoothL1 row sums and ``_losses``."""
    sl1 = sl1_sums / weights.norm
    return sl1, cou, weights.smoothl1_weight * sl1 + weights.alpha * cou[2]


def _composite(gts, proposals, weights, cou_cfg, gradient, targets=None, structure=None, frame=None, keep=None,
               warn=None):
    """SmoothL1 means, CouLoss sums and composite totals of B scenes'
    ``(B, M, 4)`` and ``(B, N, 4)`` box arrays and, with ``gradient``, their
    ``(B, N, 4)`` gradients (else None): every evaluation of the objective.

    ``weights`` are the scenes' ``_Weights``. What is not given is rebuilt from one
    ``best_gt``: the SmoothL1 ``targets`` ((B, N)) and, when some scene weighs
    CouLoss, the pair structure (with ``keep``) and ``frame`` (reference rays
    included) of its ``_evaluate``, whose kink warnings ``warn`` selects. Returns
    ``((smooth_l1, (attraction, repulsion, couloss), total), gradient,
    evaluation, targets)``, each value ``(B,)`` and ``evaluation`` None when no
    scene weighs CouLoss; each scene's values are those it has alone. ``weights``
    of V variants give values ``(V, B)`` and gradients ``(V, B, N, 4)``.
    """
    weighs = bool((weights.alpha > 0.0).any())
    ranked = best_gt(gts, proposals) if targets is None or (structure is None and weighs) else None
    if targets is None:
        targets = _targets(gts, proposals, ranked)
    d = proposals - gts[np.arange(targets.shape[0])[:, None], targets]
    rows, sl1_grad = _smooth_l1(d, weights.beta[..., None, None], gradient)
    # each scene's rows added left to right (they are never -0.0, so starting from
    # the first row is starting from 0.0)
    sl1 = rows.cumsum(axis=-1)[..., -1] if rows.shape[-1] else np.zeros(rows.shape[:-1])
    cou, cou_grad, evaluation = np.zeros((3, *sl1.shape)), None, None
    if weighs:
        evaluation = _evaluate(gts, proposals, cou_cfg, weights.parts, structure, ranked, gradient, keep, warn, frame)
        cou, cou_grad = evaluation.losses, evaluation.grad
    values = _values(weights, sl1, cou)
    if not gradient:
        return values, None, evaluation, targets
    grad = sl1_grad * (weights.smoothl1_weight / weights.norm)[..., None, None]
    if cou_grad is not None:
        alpha = weights.alpha[..., None, None]
        np.add(grad, alpha * cou_grad, out=grad, where=alpha > 0.0)
    return values, grad, evaluation, targets
