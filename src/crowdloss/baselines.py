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
from ._pairs import best_gt, box_array, iou_and_grad
from .couloss import CouLossConfig, LossReport, TripletStructure, couloss, couloss_gradient
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
    total = 0.0
    for d in _coord_diffs(pred, target):
        a = abs(d)
        total += 0.5 * d * d / beta if a < beta else a - 0.5 * beta
    return total


def smooth_l1_gradient(pred: BBox, target: BBox, beta: float = 1.0):
    """d(smooth_l1)/d(pred coordinates)."""
    grad = []
    for d in _coord_diffs(pred, target):
        grad.append(d / beta if abs(d) < beta else math.copysign(1.0, d))
    return tuple(grad)


def _coord_diffs(pred: BBox, target: BBox):
    return (
        pred.x1 - target.x1,
        pred.y1 - target.y1,
        pred.x2 - target.x2,
        pred.y2 - target.y2,
    )


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
    _, best, best_v = best_gt(box_array(gts), box_array(proposals))
    out = best.tolist()
    for pi in np.flatnonzero(best_v <= 0.0).tolist():
        pc = geometry.center(proposals[pi])
        out[pi] = min(
            range(len(gts)),
            key=lambda gi: (
                math.hypot(geometry.center(gts[gi]).x - pc.x, geometry.center(gts[gi]).y - pc.y),
                gi,
            ),
        )
    return out


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
    cfg = cfg or CompositeConfig()
    cou_cfg = cou_cfg or CouLossConfig()
    if not gts:
        raise InvalidInputError("at least one ground-truth box is required")

    sl1 = 0.0
    if proposals:
        if targets is None:
            targets = regression_targets(gts, proposals)
        scale = scene_scale(gts)
        sl1 = sum(
            smooth_l1(p, gts[t], cfg.smoothl1_beta * scale) for p, t in zip(proposals, targets)
        ) / (len(proposals) * scale)

    report = None
    cou_total = 0.0
    if cfg.alpha > 0.0:
        report = couloss(
            gts,
            proposals,
            cou_cfg,
            include_attraction=cfg.include_attraction,
            include_repulsion=cfg.include_repulsion,
            structure=structure,
        )
        cou_total = report.total
    return CompositeReport(
        total=cfg.smoothl1_weight * sl1 + cfg.alpha * cou_total,
        smooth_l1=sl1,
        couloss_total=cou_total,
        couloss=report,
    )


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
    cfg = cfg or CompositeConfig()
    cou_cfg = cou_cfg or CouLossConfig()
    grad = np.zeros((len(proposals), 4))
    if proposals and cfg.smoothl1_weight > 0.0:
        if targets is None:
            targets = regression_targets(gts, proposals)
        scale = scene_scale(gts)
        factor = cfg.smoothl1_weight / (len(proposals) * scale)
        for pi, (p, t) in enumerate(zip(proposals, targets)):
            grad[pi] += np.multiply(
                smooth_l1_gradient(p, gts[t], cfg.smoothl1_beta * scale), factor
            )
    if cfg.alpha > 0.0:
        grad += cfg.alpha * couloss_gradient(
            gts,
            proposals,
            cou_cfg,
            include_attraction=cfg.include_attraction,
            include_repulsion=cfg.include_repulsion,
            structure=structure,
            warn_kinks=warn_kinks,
        )
    return grad
