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

import numpy as np

from . import geometry
from ._pairs import best_gt, box_array, iou_and_grad, ordered_sum
from .couloss import CouLossConfig, LossReport, TripletStructure, _couloss
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


def _smooth_l1(d: np.ndarray, beta: float, gradient: bool = False):
    """SmoothL1 of each row of coordinate differences ``d`` (N, 4), its four
    terms added left to right, and with ``gradient`` its (N, 4) gradient (else None)."""
    a = np.abs(d)
    small = a < beta
    t = np.where(small, 0.5 * d * d / beta, a - 0.5 * beta)
    rows = ((t[:, 0] + t[:, 1]) + t[:, 2]) + t[:, 3]
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
    g, p = box_array(gts), box_array(proposals)
    return _targets(g, p, best_gt(g, p)).tolist()


def _targets(gts: np.ndarray, proposals: np.ndarray, ranked) -> np.ndarray:
    """``regression_targets`` of box arrays, from ``ranked = best_gt(gts, proposals)``."""
    _, best, best_v = ranked
    target = best.copy()
    gc = (gts[:, :2] + gts[:, 2:]) / 2.0
    for pi in np.flatnonzero(best_v <= 0.0).tolist():
        d = gc - (proposals[pi, :2] + proposals[pi, 2:]) / 2.0
        target[pi] = np.argmin([math.hypot(x, y) for x, y in d.tolist()])
    return target


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
    cfg, cou_cfg = cfg or CompositeConfig(), cou_cfg or CouLossConfig()
    g, p = box_array(gts), box_array(proposals)
    return _composite(g, p, scene_scale(gts), cfg, cou_cfg, structure, targets)[0]


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
    cfg, cou_cfg = cfg or CompositeConfig(), cou_cfg or CouLossConfig()
    g, p = box_array(gts), box_array(proposals)
    args = (g, p, scene_scale(gts), cfg, cou_cfg, structure, targets)
    return _composite(*args, gradient=True, warn_kinks=warn_kinks)[1]


def _composite(
    gts, proposals, scale, cfg, cou_cfg, structure, targets, *, gradient=False, warn_kinks=False,
    evaluation=None,
):
    """The composite report of box arrays and, with ``gradient``, its (N, 4)
    gradient (else None).

    ``scale`` is ``scene_scale`` of the ground truths. Targets and structure
    left out are rebuilt from one max-IoU assignment, and one kernel call
    gives the CouLoss value and gradient; ``evaluation`` passes a CouLoss
    evaluation of these boxes on to ``_couloss`` in place of that call.
    """
    ranked = None
    if targets is None or (structure is None and cfg.alpha > 0.0):
        ranked = best_gt(gts, proposals)
    if targets is None:
        targets = _targets(gts, proposals, ranked)
    rows, sl1_grad = _smooth_l1(proposals - gts[targets], cfg.smoothl1_beta * scale, gradient)
    norm = proposals.shape[0] * scale or 1.0  # no proposals: the SmoothL1 sum is 0.0
    sl1 = ordered_sum(rows) / norm
    report, cou_grad, cou_total = None, None, 0.0
    if cfg.alpha > 0.0:
        parts = (cfg.include_attraction, cfg.include_repulsion)
        kw = dict(ranked=ranked, gradient=gradient, warn_kinks=warn_kinks, evaluation=evaluation)
        report, cou_grad = _couloss(gts, proposals, cou_cfg, structure, parts, **kw)
        cou_total = report.total
    composite = CompositeReport(
        total=cfg.smoothl1_weight * sl1 + cfg.alpha * cou_total,
        smooth_l1=sl1,
        couloss_total=cou_total,
        couloss=report,
    )
    if not gradient:
        return composite, None
    grad = sl1_grad * (cfg.smoothl1_weight / norm)
    if cou_grad is not None:
        grad += cfg.alpha * cou_grad
    return composite, grad
