"""Vectorised (ground truth, proposal) pair kernel for the work-formula loss.

Boxes travel as ``(K, 4)`` float arrays and are read coordinate-major,
``(4, K)``, inside the kernel, which composes the box quantities of
``geometry`` (IoU, border-distance factor, angle cosine and their
derivatives). The ground-truth side does not move: a structure's
:class:`PairFrame` holds it, with each repulsion pair's reference ray and its
length, gathered from the ground truths' :func:`ray_table` (a descent's one
per run). Only repulsion pairs compute an angle; an attraction pair's cosine is 1.

Bit-exact contract: every value equals, bit for bit, a scalar evaluation of
one pair at a time with Python floats: the same IEEE operations in the same
order, with the same clamps and tie rules (``geometry`` states the rule for
its formulas and for ``math.log``, ``math.hypot`` and ``**``). Sums over pairs
run left to right in sorted (gt, proposal) order (``np.bincount`` adds each
bin's weights in input order), and each proposal accumulates its gradient in
that order.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError
from .geometry import BBox, angle_cosine, border_factor, centers, iou_and_grad, iou_parts, ray_length, scalar_map


class Pairs(NamedTuple):
    """(gt, proposal) pairs, attraction pairs first; ``target`` is the proposal's
    assigned ground truth (``gt`` itself for attraction) and ``mult`` the
    number of triplets the pair sits in."""

    gt: np.ndarray
    proposal: np.ndarray
    target: np.ndarray
    mult: np.ndarray

    def keys(self) -> list[tuple[int, int]]:
        return list(zip(self.gt.tolist(), self.proposal.tolist()))


class PairWork(NamedTuple):
    work: np.ndarray  # per pair, clamped at zero
    raw: np.ndarray  # per pair, before the W <= 0 clamp
    angle_ray: np.ndarray  # per repulsion pair, |center(p) - center(g)|
    grad_attraction: np.ndarray | None  # (N, 4), weighted by multiplicity
    grad_repulsion: np.ndarray | None


class PairFrame(NamedTuple):
    """What :func:`pair_work` reads that does not move with the proposals."""

    pairs: Pairs
    num_attraction: int
    boxes: np.ndarray  # (4, P): each pair's ground truth
    vertex: np.ndarray  # (2, R): each repulsion pair's center(g), center(target) - center(g) and its length
    ray: np.ndarray
    ray_len: np.ndarray

    @classmethod
    def of(cls, gts: np.ndarray, pairs: Pairs, num_attraction: int, rays) -> PairFrame:
        """Of ``pairs`` over stacked ``(K, 4)`` ground truths, gathered from their :func:`ray_table` ``rays``."""
        (center, ray, length), ka, gt = rays, num_attraction, pairs.gt[num_attraction:]
        m = len(length) // len(gts)
        at = gt * m + pairs.target[ka:] % m  # each repulsion pair's (gt, target) entry
        g = gts.T.take(pairs.gt, axis=1)  # takes are row-contiguous, as every ufunc of the kernel prefers
        return cls(pairs, ka, g, center.take(gt, axis=1), ray.take(at, axis=1), length.take(at))


def ray_table(gts: np.ndarray):
    """The centers ``(2, B*M)`` of B scenes' ``(B, M, 4)`` ground truths, stacked, and at ``g*M + t mod M``, for
    each ordered pair (g, t) of one scene, the ray center(t) - center(g) ``(2, B*M*M)`` and its :func:`ray_length`."""
    c = centers(gts.transpose(2, 0, 1))  # (2, B, M)
    ray = (c[:, :, None, :] - c[..., None]).reshape(2, -1)
    return c.reshape(2, -1), ray, ray_length(ray)


def box_array(boxes) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def scene_boxes(gts, proposals) -> tuple[np.ndarray, np.ndarray]:
    """One scene's ground truths and proposals as ``(1, M, 4)`` and ``(1, N, 4)`` arrays; it needs a ground truth."""
    if not gts:
        raise InvalidInputError("at least one ground-truth box is required")
    return box_array(gts)[None], box_array(proposals)[None]


def valid_boxes(coords: np.ndarray) -> np.ndarray:
    """Which boxes (rows of the last axis) are finite with x2 > x1 and y2 > y1."""
    return np.isfinite(coords).all(axis=-1) & (coords[..., 2:] > coords[..., :2]).all(axis=-1)


def all_valid(coords: np.ndarray) -> bool:
    """``valid_boxes(coords).all()``, from two whole-array tests that cost less than its per-box reductions."""
    return bool(np.isfinite(coords).all() and (coords[..., 2:] > coords[..., :2]).all())


def check_boxes(coords: np.ndarray) -> None:
    """Reject, as ``BBox`` does, the first row of ``(K, 4)`` coords that is not a valid box."""
    if not all_valid(coords):
        BBox(*coords[np.argmin(valid_boxes(coords))].tolist())  # raises the box's InvalidInputError


def iou_matrix(gts: np.ndarray, proposals: np.ndarray) -> np.ndarray:
    """``(..., M, N)`` IoU of every ground truth with every proposal, of ``(..., M, 4)``
    and ``(..., N, 4)`` boxes; leading axes index scenes."""
    # coordinate-major copies: contiguous operands make every ufunc below faster
    g, p = (np.ascontiguousarray(a.transpose(-1, *range(a.ndim - 1))) for a in (gts, proposals))
    return iou_parts(g[..., :, None], p[..., None, :])[0]


def best_gt(gts: np.ndarray, proposals: np.ndarray):
    """IoU matrix, each proposal's max-IoU ground truth (lowest index on ties) and that IoU."""
    iou = iou_matrix(gts, proposals)
    return iou, iou.argmax(axis=-2), iou.max(axis=-2)


def pair_work(frame: PairFrame, proposals: np.ndarray, iou_floor: float, *, literal: bool,
              gradient: bool = False) -> PairWork:
    """Work ``F * cos * s`` of every pair of ``frame`` at the stacked ``(n, 4)``
    proposals, and optionally its gradient.

    The first ``num_attraction`` pairs attract: ``F = -ln(max(IoU, floor))``.
    The rest repel: ``F = -ln(max(1 - IoU, floor))``, zero unless the pair
    overlaps. ``cos`` is the angle at center(g) between center(p) and
    center(target); an attraction pair's target is g itself, a zero-length
    ray whose cos is 1. ``s`` is the border-distance factor of center(p) in
    g. Non-positive work is clamped to zero and has zero gradient; gradients
    are summed per proposal, weighted by multiplicity when ``literal``.
    Boxes of several scenes may share one call, their pairs indexing the
    stacked boxes.
    """
    pairs, ka, g = frame.pairs, frame.num_attraction, frame.boxes
    p = proposals.T.take(pairs.proposal, axis=1)
    if gradient:
        v, dv = iou_and_grad(g, p)
    else:
        v = iou_parts(g, p)[0]
    c = centers(p)
    s, _, ds_dc = border_factor(c, g, gradient)
    x = np.concatenate([v[:ka], 1.0 - v[ka:]])
    above = x > iou_floor
    force = -scalar_map(math.log, np.where(above, x, iou_floor))
    cos, ray, dcos_dc = angle_cosine(frame.vertex, c[:, ka:], frame.ray, frame.ray_len, gradient)
    cos = np.concatenate([np.ones(ka), cos])

    fc = force * cos
    valid = v > 0.0
    valid[:ka] = True
    raw = np.where(valid, fc * s, 0.0)
    live = raw > 0.0
    work = PairWork(np.where(live, raw, 0.0), raw, ray, None, None)
    if not gradient:
        return work

    # dF = -dIoU / IoU for attraction and dIoU / (1 - IoU) for repulsion; zero at the floor
    np.negative(dv[:, :ka], out=dv[:, :ka])
    df = np.where(above, dv / np.where(above, x, 1.0), 0.0)
    # rows (x1, y1), (x2, y2): a center moves by half of each coordinate; attraction has dcos 0
    grad = (df * cos * s).reshape(2, 2, -1)
    grad[..., ka:] += force[ka:] * (0.5 * dcos_dc) * s[ka:]
    grad += fc * (0.5 * ds_dc)

    # (kind, coordinate, proposal) bins; bincount adds each bin's weights in input order: (gt, proposal) order
    n, grad = proposals.shape[0], grad.reshape(4, -1)
    contrib = np.where(live, grad * pairs.mult if literal else grad, 0.0)
    bins = pairs.proposal + n * (np.arange(4)[:, None] + 4 * (np.arange(len(live)) >= ka))
    total = np.bincount(bins.ravel(), contrib.ravel(), minlength=8 * n).reshape(2, 4, n)
    return work._replace(grad_attraction=total[0].T, grad_repulsion=total[1].T)
