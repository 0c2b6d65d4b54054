"""Reference losses and the composite regression objective.

SmoothL1 acts directly on corner coordinates (there is no anchor-encoding
stage here), IoULoss is the plain -ln(IoU) objective, and the composite
combines the SmoothL1 slice with the work-formula regulator under
configurable weights and component toggles.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry
from ._pairs import best_gt, box_array, iou_and_grad
from .couloss import CouLossConfig, LossReport, TripletStructure, _couloss, _evaluate, _loss_report
from .errors import InvalidInputError, NoOverlapError
from .geometry import BBox


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
        for name in ("alpha", "gamma", "focal_gamma", "focal_alpha", "smoothl1_weight"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be >= 0")
        if self.smoothl1_beta <= 0.0:
            raise InvalidInputError("smoothl1_beta must be > 0")


@dataclass(frozen=True)
class CompositeReport:
    total: float
    smooth_l1: float
    couloss_total: float
    couloss: LossReport | None


def smooth_l1(pred: BBox, target: BBox, beta: float = 1.0) -> float:
    """Summed piecewise quadratic/linear penalty over the four coordinates."""
    return float(_smooth_l1(box_array([pred]) - box_array([target]), beta)[0][0])


def smooth_l1_gradient(pred: BBox, target: BBox, beta: float = 1.0):
    """d(smooth_l1)/d(pred coordinates)."""
    grad = _smooth_l1(box_array([pred]) - box_array([target]), beta, gradient=True)[1]
    return tuple(grad[0].tolist())


def _smooth_l1(d: np.ndarray, beta, gradient: bool = False):
    """SmoothL1 of each row of coordinate differences ``d`` (..., 4), its four
    terms added left to right, and with ``gradient`` its gradient (else None);
    ``beta`` broadcasts against ``d``."""
    a = np.abs(d)
    small = a < beta
    t = np.where(small, 0.5 * d * d / beta, a - 0.5 * beta)
    rows = ((t[..., 0] + t[..., 1]) + t[..., 2]) + t[..., 3]
    return rows, (np.where(small, d / beta, np.copysign(1.0, d)) if gradient else None)


def iou_loss(pred: BBox, target: BBox, eps: float = 1e-6) -> float:
    """-ln(IoU) regression loss; undefined (raises) for disjoint boxes."""
    v = geometry.iou(pred, target)
    if v <= 0.0:
        raise NoOverlapError("iou_loss undefined for non-overlapping boxes")
    return -math.log(max(v, eps))


def iou_loss_gradient(pred: BBox, target: BBox, eps: float = 1e-6):
    v, dv = iou_and_grad(box_array([target]).T, box_array([pred]).T)
    v = float(v[0])
    if v <= 0.0:
        raise NoOverlapError("iou_loss undefined for non-overlapping boxes")
    if v <= eps:
        return (0.0, 0.0, 0.0, 0.0)
    return tuple((-dv[:, 0] / v).tolist())


def focal_loss(
    prob: float, label: int, focal_gamma: float = 2.0, focal_alpha: float = 0.25, eps: float = 1e-6
) -> float:
    """Alpha-balanced focal loss for one binary prediction.

    ``prob`` is the predicted foreground probability; probabilities at (or
    beyond) 0 or 1 are clamped to the eps margin with a warning.
    """
    if label not in (0, 1):
        raise InvalidInputError(f"label must be 0 or 1, got {label}")
    if prob <= 0.0 or prob >= 1.0:
        warnings.warn(f"focal_loss probability {prob} clamped into ({eps}, {1 - eps})")
        prob = min(max(prob, eps), 1.0 - eps)
    p_t = prob if label == 1 else 1.0 - prob
    alpha_t = focal_alpha if label == 1 else 1.0 - focal_alpha
    return -alpha_t * (1.0 - p_t) ** focal_gamma * math.log(p_t)


def scene_scale(gts: list[BBox]) -> float:
    """Characteristic length of a scene: mean ground-truth max extent."""
    if not gts:
        raise InvalidInputError("at least one ground-truth box is required")
    return sum(max(g.width, g.height) for g in gts) / len(gts)


def regression_targets(gts: list[BBox], proposals: list[BBox]) -> list[int]:
    """Target index per proposal for the SmoothL1 slice.

    Max-IoU assignment with ties toward the lowest index; proposals disjoint
    from every ground truth fall back to the nearest center (ties again
    toward the lowest index).
    """
    if not gts:
        raise InvalidInputError("at least one ground-truth box is required")
    g, p = box_array(gts)[None], box_array(proposals)[None]
    return _targets(g, p, best_gt(g, p))[0].tolist()


def _targets(gts: np.ndarray, proposals: np.ndarray, ranked) -> np.ndarray:
    """``regression_targets`` of B scenes' ``(B, M, 4)`` and ``(B, N, 4)`` box
    arrays, ``(B, N)``, from ``ranked = best_gt(gts, proposals)``."""
    _, best, best_v = ranked
    target = best.copy()
    gc = (gts[..., :2] + gts[..., 2:]) / 2.0
    for b, pi in zip(*(i.tolist() for i in np.nonzero(best_v <= 0.0))):
        d = gc[b] - (proposals[b, pi, :2] + proposals[b, pi, 2:]) / 2.0
        target[b, pi] = np.argmin([math.hypot(x, y) for x, y in d.tolist()])
    return target


class _Weights(NamedTuple):
    """Per-scene constants of the composite loss of B scenes, from their configs,
    ``scene_scale``s and proposal count N (or of B configs against one scene).
    ``parts`` ((2, B)) marks the CouLoss terms that are on and weighed; ``norm``
    is N times the scale (1 without proposals); ``beta`` (the SmoothL1 beta in
    scene units) and ``grad_factor`` are shaped (B, 1, 1)."""

    alpha: np.ndarray
    smoothl1_weight: np.ndarray
    parts: np.ndarray
    norm: np.ndarray
    beta: np.ndarray
    grad_factor: np.ndarray

    @classmethod
    def of(cls, cfgs, scale: np.ndarray, num_proposals: int) -> _Weights:
        rows = [(c.alpha, c.smoothl1_weight, c.smoothl1_beta) for c in cfgs]
        alpha, weight, beta = np.array(rows, dtype=float).reshape(-1, 3).T
        parts = np.array([(c.include_attraction, c.include_repulsion) for c in cfgs], bool).reshape(-1, 2).T
        norm = num_proposals * scale if num_proposals else np.ones_like(scale)
        factors = ((beta * scale)[:, None, None], (weight / norm)[:, None, None])
        return cls(alpha, weight, parts & (alpha > 0.0), norm, *factors)


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
    ``(N, 4)`` gradient (else None).

    Targets and structure left out are rebuilt from one max-IoU assignment,
    and one kernel call gives the CouLoss value and gradient.
    """
    cfg, cou_cfg = cfg or CompositeConfig(), cou_cfg or CouLossConfig()
    weights = _Weights.of([cfg], np.array([scene_scale(gts)]), len(proposals))
    G, P = box_array(gts)[None], box_array(proposals)[None]
    ranked = None
    if targets is None or (structure is None and cfg.alpha > 0.0):
        ranked = best_gt(G, P)
    if targets is None:
        targets = _targets(G, P, ranked)
    targets = np.asarray(targets, dtype=np.intp).reshape(1, -1)
    evaluation = None
    if cfg.alpha > 0.0:
        evaluation = _evaluate(G, P, cou_cfg, structure, ranked, gradient, warn=np.array([warn_kinks]))
    (sl1, cou, total), grad = _composite(G, P, weights, targets, evaluation, gradient)
    composite = CompositeReport(
        total=float(total[0]),
        smooth_l1=float(sl1[0]),
        couloss_total=float(cou[2][0]),
        couloss=None if evaluation is None else _loss_report(cou_cfg, len(gts), evaluation, cou),
    )
    return composite, None if grad is None else grad[0]


def _composite(gts, proposals, weights, targets, evaluation=None, gradient=False):
    """SmoothL1 means, CouLoss sums and composite totals of B scenes'
    ``(B, M, 4)`` and ``(B, N, 4)`` box arrays and, with ``gradient``, their
    ``(B, N, 4)`` gradients (else None).

    ``weights`` are the scenes' ``_Weights``, ``targets`` ((B, N)) the SmoothL1
    targets and ``evaluation`` an ``_evaluate`` of the boxes, or None when no
    scene weighs the CouLoss term. Returns ``((smooth_l1, (attraction,
    repulsion, couloss), total), gradient)``, each value ``(B,)``; each scene's
    values are those it has alone. One scene's boxes broadcast against B configs.
    """
    d = proposals - gts[np.arange(targets.shape[0])[:, None], targets]
    rows, sl1_grad = _smooth_l1(d, weights.beta, gradient)
    B, N = rows.shape
    # each scene's rows added left to right (they are never -0.0, so starting from
    # the first row is starting from 0.0)
    sl1 = rows.cumsum(axis=1)[:, -1] / weights.norm if N else np.zeros(B)
    cou, cou_grad = np.zeros((3, B)), None
    if evaluation is not None:
        cou, cou_grad = _couloss(weights.parts, evaluation, gts.shape[1], gradient)
    total = weights.smoothl1_weight * sl1 + weights.alpha * cou[2]
    if not gradient:
        return (sl1, cou, total), None
    grad = sl1_grad * weights.grad_factor
    if cou_grad is not None:
        alpha = weights.alpha[:, None, None]
        np.add(grad, alpha * cou_grad, out=grad, where=alpha > 0.0)
    return (sl1, cou, total), grad
