"""Axis-aligned box arithmetic: IoU, centers, angles, border distances.

Boxes use corner form (x1, y1, x2, y2) with strictly positive width and
height. Each box quantity is written once, over coordinate-major arrays that
broadcast: boxes ``(4, ...)`` and points ``(2, ...)``. The helpers on one
``BBox`` or ``Point`` (``iou``, ``border_distance``, ``cos_angle_at``)
evaluate those formulas on one box and return Python scalars. All operations are pure functions and safe to call concurrently.

Bit-exact rule: every array formula equals, bit for bit, one evaluation with
Python floats of the same IEEE operations in the same order. Numpy's +, -, *,
/ and sqrt are correctly rounded like Python's. Its transcendentals are not:
``np.log``, ``np.hypot`` and ``np.power`` differ in the last bit from
``math.log``, ``math.hypot`` and ``**`` on 0.2-5 % of inputs (numpy 2.x,
AVX-512 x86-64), and fixed-step descent amplifies such ulp differences into
different runs. So those are applied element by element with the scalar
functions (:func:`scalar_map`), and clamps whose zero could take the other
sign than Python's ``max``/``min`` use ``np.where``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidInputError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned rectangle in corner form.

    Zero-area boxes are rejected at construction so downstream code never
    has to branch on degeneracy.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(c) for c in coords):
            raise InvalidInputError(f"non-finite box coordinates {coords}")
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise InvalidInputError(f"degenerate box {coords}: requires x2 > x1 and y2 > y1")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def center(b: BBox) -> Point:
    """Center point of a box."""
    return Point((b.x1 + b.x2) / 2.0, (b.y1 + b.y2) / 2.0)


def scalar_map(fn, *args) -> np.ndarray:
    """``fn`` of Python floats, applied element by element to 1-D arrays and
    other iterables of floats (such as ``itertools.repeat`` of a constant)."""
    lists = (a.tolist() if isinstance(a, np.ndarray) else a for a in args)
    return np.fromiter(map(fn, *lists), dtype=float)


def centers(boxes: np.ndarray) -> np.ndarray:
    """Center points ``(2, ...)`` of boxes ``(4, ...)``."""
    return (boxes[:2] + boxes[2:]) / 2.0


def ray_length(v: np.ndarray) -> np.ndarray:
    """``math.hypot`` length of each vector of ``(2, ...)`` ``v``."""
    return scalar_map(math.hypot, v[0].ravel(), v[1].ravel()).reshape(v.shape[1:])


def iou_parts(a: np.ndarray, b: np.ndarray):
    """IoU of broadcast boxes, with the overlap extents (iw, ih), the overlap
    mask, the intersection and the union. Disjoint boxes have IoU 0."""
    iwh = np.minimum(a[2:], b[2:]) - np.maximum(a[:2], b[:2])
    overlap = np.minimum(iwh[0], iwh[1]) > 0.0
    inter = np.where(overlap, iwh[0] * iwh[1], 0.0)
    wa, wb = a[2:] - a[:2], b[2:] - b[:2]
    union = wa[0] * wa[1] + wb[0] * wb[1] - inter
    return inter / union, iwh, overlap, inter, union


def iou_and_grad(g: np.ndarray, p: np.ndarray):
    """IoU of broadcast boxes and its gradient ``(4, ...)`` with respect to ``p``;
    zero when disjoint."""
    v, iwh, overlap, inter, union = iou_parts(g, p)
    ihw = iwh[::-1]
    # d(inter)/d(x1, y1, x2, y2) = (-ih, -iw, ih, iw) where p owns that edge
    owns = np.concatenate([p[:2] > g[:2], p[2:] < g[2:]])
    d_inter = np.where(owns, np.concatenate([-ihw, ihw]), 0.0)
    hw = (p[2:] - p[:2])[::-1]
    d_area = np.concatenate([-hw, hw])
    dv = (d_inter * union - inter * (d_area - d_inter)) * (1.0 / (union * union))
    return v, np.where(overlap, dv, 0.0)


def border_factor(points: np.ndarray, boxes: np.ndarray, gradient: bool = False):
    """Border-distance factor ``s`` of points in broadcast boxes.

    With l, r, t, b the unsigned distances from the point to the four border
    lines of the box::

        s = sqrt(f_x * f_y)
        f_x = 1 - min(l, r) / (W / 2)
        f_y = 1 - min(t, b) / (H / 2)

    Each factor is clamped at 0 before the product (it is at most 1 and never
    -0.0), so s is 0 at the center of the box (and again once the point strays
    half an extent past a border) and 1 on a corner. Returns ``s``, the factors
    ``(f_x, f_y)`` before the clamp and, with ``gradient``, ``ds/d(point)``
    ``(2, ...)`` with a zero subgradient where s == 0 (else None).
    """
    half = (boxes[2:] - boxes[:2]) / 2.0
    to_lo, to_hi = points - boxes[:2], points - boxes[2:]
    d_lo, d_hi = np.abs(to_lo), np.abs(to_hi)
    f = 1.0 - np.minimum(d_lo, d_hi) / half
    f_xy = np.maximum(f, 0.0)
    s = np.sqrt(f_xy[0] * f_xy[1])
    if not gradient:
        return s, f, None
    dmin = np.where(d_lo <= d_hi, np.sign(to_lo), np.sign(to_hi))
    zero = s == 0.0
    return s, f, np.where(zero, 0.0, -dmin / half * f_xy[::-1] / np.where(zero, 1.0, 2 * s))


def angle_cosine(vertex: np.ndarray, a: np.ndarray, v: np.ndarray, nv: np.ndarray, gradient=False):
    """Cosine of the angle at ``vertex`` between the rays toward ``a`` and ``vertex + v``,
    ``v`` of :func:`ray_length` ``nv``, of broadcast points and vectors ``(2, n)``.

    Uses the law of cosines. If either ray has zero length the angle is
    undefined; by convention the cosine is 1 (full effective force). The value
    is clamped to [-1, 1] against rounding. Returns the cosine, the length of
    the ray toward ``a`` and, with ``gradient``, ``dcos/da`` ``(2, n)``, zero
    where the angle is undefined (else None).
    """
    u = a - vertex
    nu = ray_length(u)
    degenerate = (nu == 0.0) | (nv == 0.0)
    nn = np.where(degenerate, 1.0, nu * nv)
    dot = u[0] * v[0] + u[1] * v[1]
    cos = np.where(degenerate, 1.0, np.clip(dot / nn, -1.0, 1.0))
    if not gradient:
        return cos, nu, None
    nu3 = scalar_map(math.pow, nu, repeat(3.0))  # math.pow(r, 3.0) is r**3: both call C pow
    den3 = np.where(degenerate, 1.0, nu3 * nv)
    return cos, nu, np.where(degenerate, 0.0, v / nn - dot * u / den3)


def contains(boxes: np.ndarray, points) -> np.ndarray:
    """Mask of the points ``(x, y)`` inside the broadcast boxes, edges included.
    The axes are tested apart, so a grid of x rows and y columns broadcasts once."""
    x1, y1, x2, y2 = boxes
    x, y = points
    return ((x1 <= x) & (x <= x2)) & ((y1 <= y) & (y <= y2))


def _column(coords) -> np.ndarray:
    """One box or point as a ``(4, 1)`` or ``(2, 1)`` coordinate-major array."""
    return np.array(coords, dtype=float)[:, None]


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes: symmetric, in [0, 1], 0 for
    disjoint boxes and 1 only for identical ones."""
    return float(iou_parts(_column(a.as_tuple()), _column(b.as_tuple()))[0][0])


def cos_angle_at(b: Point, a: Point, c: Point) -> float:
    """Cosine of the angle at vertex ``b`` between rays toward ``a`` and ``c``
    (:func:`angle_cosine`)."""
    vertex, a, c = (_column((q.x, q.y)) for q in (b, a, c))
    return float(angle_cosine(vertex, a, c - vertex, ray_length(c - vertex))[0][0])


def border_distance(g: BBox, p: BBox) -> float:
    """:func:`border_factor` of ``p``'s center in ``g``: 0 at the center of ``g``,
    1 on its corners."""
    return float(border_factor(centers(_column(p.as_tuple())), _column(g.as_tuple()))[0][0])

