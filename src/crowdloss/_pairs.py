"""Vectorised (ground truth, proposal) pair kernel for the work-formula loss.

Boxes travel as ``(K, 4)`` float arrays and are read coordinate-major,
``(4, K)``, inside the kernel.

Bit-exact contract: every value equals, bit for bit, a scalar evaluation of
one pair at a time with Python floats: the same IEEE operations in the same
order, with the same clamps and tie rules. Numpy's +, -, *, / and sqrt are
correctly rounded like Python's. Its transcendentals are not: ``np.log``,
``np.hypot`` and ``np.power`` differ in the last bit from ``math.log``,
``math.hypot`` and ``**`` on 0.2-5 % of inputs (numpy 2.x, AVX-512 x86-64),
and fixed-step descent amplifies such ulp differences into different runs
(one final loss of the shipped simulate suite moved 2 %). So those three are
mapped element by element with the scalar functions, sums over pairs run
left to right in sorted (gt, proposal) order, each proposal accumulates its
gradient in that order, and clamps whose zero could take the other sign than
Python's ``max``/``min`` use ``np.where``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


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
    angle_ray: np.ndarray  # per pair, |center(p) - center(g)|
    grad_attraction: np.ndarray | None  # (N, 4), weighted by multiplicity
    grad_repulsion: np.ndarray | None


def box_array(boxes) -> np.ndarray:
    return np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=float).reshape(-1, 4)


def _map(fn, *arrays) -> np.ndarray:
    return np.array(list(map(fn, *(a.tolist() for a in arrays))), dtype=float)


def ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum, as a scalar accumulation loop adds."""
    total = 0.0
    for x in values.tolist():
        total += x
    return total


def _iou(g: np.ndarray, p: np.ndarray):
    """IoU of broadcast coordinate-major boxes, with (iw, ih), overlap, intersection, union."""
    iwh = np.minimum(g[2:], p[2:]) - np.maximum(g[:2], p[:2])
    overlap = (iwh[0] > 0.0) & (iwh[1] > 0.0)
    inter = np.where(overlap, iwh[0] * iwh[1], 0.0)
    union = (g[2] - g[0]) * (g[3] - g[1]) + (p[2] - p[0]) * (p[3] - p[1]) - inter
    return inter / union, iwh, overlap, inter, union


def iou_matrix(gts: np.ndarray, proposals: np.ndarray) -> np.ndarray:
    """``(M, N)`` IoU of every ground truth with every proposal."""
    return _iou(gts.T[:, :, None], proposals.T[:, None, :])[0]


def best_gt(gts: np.ndarray, proposals: np.ndarray):
    """IoU matrix, each proposal's max-IoU ground truth (lowest index on ties) and that IoU."""
    iou = iou_matrix(gts, proposals)
    best = np.argmax(iou, axis=0)
    return iou, best, iou[best, np.arange(proposals.shape[0])]


def iou_and_grad(g: np.ndarray, p: np.ndarray):
    """IoU of ``(4, K)`` box pairs and its gradient with respect to ``p``; zero when disjoint."""
    v, iwh, overlap, inter, union = _iou(g, p)
    ihw = iwh[::-1]
    # d(inter)/d(x1, y1, x2, y2) = (-ih, -iw, ih, iw) where p owns that edge
    owns = np.concatenate([p[:2] > g[:2], p[2:] < g[2:]])
    d_inter = np.where(owns, np.concatenate([-ihw, ihw]), 0.0)
    hw = (p[2:] - p[:2])[::-1]
    d_area = np.concatenate([-hw, hw])
    dv = (d_inter * union - inter * (d_area - d_inter)) * (1.0 / (union * union))
    return v, np.where(overlap, dv, 0.0)


def pair_work(
    gts: np.ndarray,
    proposals: np.ndarray,
    pairs: Pairs,
    num_attraction: int,
    iou_floor: float,
    *,
    literal: bool,
    gradient: bool = False,
    iou: np.ndarray | None = None,
) -> PairWork:
    """Work ``F * cos * s`` of every pair, and optionally its gradient.

    The first ``num_attraction`` pairs attract: ``F = -ln(max(IoU, floor))``.
    The rest repel: ``F = -ln(max(1 - IoU, floor))``, zero unless the pair
    overlaps. ``cos`` is the angle at center(g) between center(p) and
    center(target); an attraction pair's target is g itself, a zero-length
    ray whose cos is 1. ``s`` is the border-distance factor of center(p) in
    g. Non-positive work is clamped to zero and has zero gradient; gradients
    are summed per proposal, weighted by multiplicity when ``literal``.
    ``iou`` is the ``(M, N)`` IoU matrix of these boxes if already known.
    """
    ka = num_attraction
    g = gts.T[:, pairs.gt]
    p = proposals.T[:, pairs.proposal]
    if gradient:
        v, dv = iou_and_grad(g, p)
    elif iou is not None:
        v = iou[pairs.gt, pairs.proposal]
    else:
        v = _iou(g, p)[0]

    # border-distance factors (f_x, f_y); 1 - d / half is at most 1 and never -0.0
    c = (p[:2] + p[2:]) / 2.0
    half = (g[2:] - g[:2]) / 2.0
    to_lo, to_hi = c - g[:2], c - g[2:]
    d_lo, d_hi = np.abs(to_lo), np.abs(to_hi)
    f_xy = np.maximum(1.0 - np.minimum(d_lo, d_hi) / half, 0.0)
    s = np.sqrt(f_xy[0] * f_xy[1])

    x = np.concatenate([v[:ka], 1.0 - v[ka:]])
    above = x > iou_floor
    force = -_map(math.log, np.where(above, x, iou_floor))

    gc = (g[:2] + g[2:]) / 2.0
    t = gts.T[:, pairs.target]
    ref = (t[:2] + t[2:]) / 2.0 - gc
    u = c - gc
    nu = _map(math.hypot, u[0], u[1])
    nv = _map(math.hypot, ref[0], ref[1])
    degenerate = (nu == 0.0) | (nv == 0.0)
    nn = np.where(degenerate, 1.0, nu * nv)
    dot = u[0] * ref[0] + u[1] * ref[1]
    cos = np.where(degenerate, 1.0, np.clip(dot / nn, -1.0, 1.0))

    fc = force * cos
    valid = v > 0.0
    valid[:ka] = True
    raw = np.where(valid, fc * s, 0.0)
    live = raw > 0.0
    work = PairWork(np.where(live, raw, 0.0), raw, nu, None, None)
    if not gradient:
        return work

    # ds/d(x1, y1, x2, y2) = 0.5 * (ds/dcx, ds/dcy, ds/dcx, ds/dcy); zero subgradient at s == 0
    dmin_dc = np.where(d_lo <= d_hi, np.sign(to_lo), np.sign(to_hi))
    zero_s = s == 0.0
    ds_c = 0.5 * np.where(zero_s, 0.0, -dmin_dc / half * f_xy[::-1] / np.where(zero_s, 1.0, 2 * s))
    ds = np.concatenate([ds_c, ds_c])
    # dF = -dIoU / IoU for attraction and dIoU / (1 - IoU) for repulsion; zero at the floor
    np.negative(dv[:, :ka], out=dv[:, :ka])
    df = np.where(above, dv / np.where(above, x, 1.0), 0.0)
    nu3 = np.array([r**3 for r in nu.tolist()], dtype=float)
    den3 = np.where(degenerate, 1.0, nu3 * nv)
    dcos_c = np.where(degenerate, 0.0, 0.5 * (ref / nn - dot * u / den3))
    dcos = np.concatenate([dcos_c, dcos_c])
    grad = df * cos * s + force * dcos * s + fc * ds

    # bincount adds each bin's weights in input order: (gt, proposal) order per proposal
    n = proposals.shape[0]
    contrib = np.where(live, grad * pairs.mult if literal else grad, 0.0)
    bins = pairs.proposal + n * np.arange(4)[:, None]
    bins[:, ka:] += 4 * n
    total = np.bincount(bins.ravel(), contrib.ravel(), minlength=8 * n).reshape(2, 4, n)
    return work._replace(grad_attraction=total[0].T, grad_repulsion=total[1].T)
