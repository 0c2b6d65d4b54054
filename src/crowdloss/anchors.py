"""Anchor location selection from pedestrian-existence probability maps.

Only anchors whose center cell beats the map's root-mean-square value are
kept, which concentrates negative sampling on human-like regions. Target
maps for the location branch label cells positive (inside a visible box),
ignored (inside a full-body box only), or negative (background).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from ._pairs import box_array, check_boxes, iou_matrix
from .errors import InvalidAnnotationError, InvalidInputError, at_line
from .geometry import BBox

POSITIVE = "P"
IGNORED = "I"
NEGATIVE = "N"


@dataclass
class ProbabilityMap:
    """2-D grid of pedestrian-existence probabilities.

    ``values`` has shape (height, width); ``stride`` converts cell indices
    to scene units. Cell (row, col) covers the square with center
    ((col + 0.5) * stride, (row + 0.5) * stride).
    """

    stride: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.size == 0:
            raise InvalidInputError("probability map must be a non-empty 2-D grid")
        if self.stride <= 0.0:
            raise InvalidInputError("stride must be > 0")
        if not np.all(np.isfinite(self.values)):
            raise InvalidInputError("probability values must be finite")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise InvalidInputError("probability values must lie in [0, 1]")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    def cell_center(self, row: int, col: int) -> tuple[float, float]:
        return ((col + 0.5) * self.stride, (row + 0.5) * self.stride)


@dataclass
class TargetMap:
    """Per-cell P/I/N labels on the same grid layout as a probability map."""

    stride: float
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=str)
        if labels.ndim != 2 or labels.size == 0:
            raise InvalidInputError("target map must be a non-empty 2-D grid")
        if self.stride <= 0.0:
            raise InvalidInputError("stride must be > 0")
        for label in np.unique(labels).tolist():
            _label(label)
        self.labels = labels.astype("<U1")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True)
class Anchor:
    row: int
    col: int
    box: BBox


@dataclass
class AnchorSet:
    """Anchors retained by the dynamic threshold, with their provenance."""

    anchors: list[Anchor]
    threshold: float
    fallback: bool
    grid_height: int
    grid_width: int
    stride: float
    scales: tuple[float, ...]
    ratios: tuple[float, ...]
    cells: list[tuple[int, int]] = field(default_factory=list)


def dynamic_threshold(pmap: ProbabilityMap) -> float:
    """Root mean square of all cell values."""
    return float(np.sqrt(np.mean(np.square(pmap.values))))


def _anchor_boxes(rows: np.ndarray, cols: np.ndarray, stride: float, scales, ratios) -> np.ndarray:
    """``(K, 4)`` anchors in (cell, scale, ratio) order, centered on the cells.

    A (scale, ratio) anchor is ``scale * sqrt(ratio)`` wide and
    ``scale / sqrt(ratio)`` high.
    """
    half = np.array(
        [(scale * math.sqrt(ratio) / 2.0, scale / math.sqrt(ratio) / 2.0) for scale in scales for ratio in ratios]
    ).reshape(-1, 2)
    cx = ((cols + 0.5) * stride)[:, None]
    cy = ((rows + 0.5) * stride)[:, None]
    return np.stack([cx - half[:, 0], cy - half[:, 1], cx + half[:, 0], cy + half[:, 1]], axis=-1).reshape(-1, 4)


def select_anchors(
    pmap: ProbabilityMap, scales=(32.0,), ratios=(0.41,), keep_mask: np.ndarray | None = None
) -> AnchorSet:
    """Instantiate anchors at cells whose probability beats the RMS threshold.

    The comparison is strictly greater, so a constant map retains nothing;
    in that degenerate case all cells are used and the set is flagged as a
    fallback. ``keep_mask`` marks cells retained regardless of the threshold
    (e.g. positive regions when only negatives should be restricted).
    """
    scales = tuple(float(s) for s in scales)
    ratios = tuple(float(r) for r in ratios)
    if not scales or not ratios:
        raise InvalidInputError("at least one scale and one ratio are required")
    eps_a = dynamic_threshold(pmap)
    selected = pmap.values > eps_a
    if keep_mask is not None:
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != pmap.values.shape:
            raise InvalidInputError(
                f"keep_mask shape {keep_mask.shape} does not match map {pmap.values.shape}"
            )
        selected |= keep_mask
    rows, cols = np.nonzero(selected)
    fallback = rows.size == 0
    if fallback:
        rows, cols = np.nonzero(np.ones_like(pmap.values, dtype=bool))
    cells = list(zip(rows.tolist(), cols.tolist()))
    boxes = _anchor_boxes(rows, cols, pmap.stride, scales, ratios).reshape(len(cells), -1, 4)
    anchors = [
        Anchor(row, col, BBox(*box)) for (row, col), cell_boxes in zip(cells, boxes.tolist()) for box in cell_boxes
    ]
    return AnchorSet(
        anchors=anchors,
        threshold=eps_a,
        fallback=fallback,
        grid_height=pmap.height,
        grid_width=pmap.width,
        stride=pmap.stride,
        scales=scales,
        ratios=ratios,
        cells=cells,
    )


def build_target_map(scene, grid_shape: tuple[int, int], stride: float) -> TargetMap:
    """Label grid cells from full-body and visible annotations.

    A cell is positive when its center lies in any visible box, ignored when
    it lies in a full-body box but no visible box, negative otherwise.
    Positive takes precedence over ignored across different pedestrians.
    """
    height, width = grid_shape
    if height < 1 or width < 1:
        raise InvalidInputError("grid must have at least one cell")
    if stride <= 0.0:
        raise InvalidInputError("stride must be > 0")
    for ped in scene.pedestrians:
        f, v = ped.full, ped.visible
        if not (f.x1 <= v.x1 and v.x2 <= f.x2 and f.y1 <= v.y1 and v.y2 <= f.y2):
            raise InvalidAnnotationError(
                f"visible box {v.as_tuple()} not inside full box {f.as_tuple()}"
            )

    xs = (np.arange(width) + 0.5) * stride
    ys = (np.arange(height) + 0.5) * stride

    def coverage(box):
        in_x = (xs >= box.x1) & (xs <= box.x2)
        in_y = (ys >= box.y1) & (ys <= box.y2)
        return np.outer(in_y, in_x)

    pos = np.zeros((height, width), dtype=bool)
    full = np.zeros((height, width), dtype=bool)
    for ped in scene.pedestrians:
        pos |= coverage(ped.visible)
        full |= coverage(ped.full)

    labels = np.full((height, width), NEGATIVE, dtype="<U1")
    labels[full & ~pos] = IGNORED
    labels[pos] = POSITIVE
    return TargetMap(stride=stride, labels=labels)


def location_branch_loss(pmap: ProbabilityMap, targets: TargetMap, cfg=None) -> float:
    """Mean focal loss over positive and negative cells; ignored cells are skipped.

    An all-ignored target map yields 0 by convention (empty mean). The focal
    parameters come from a :class:`~crowdloss.baselines.CompositeConfig`.
    """
    from .baselines import CompositeConfig

    cfg = cfg or CompositeConfig()
    if pmap.values.shape != targets.labels.shape:
        raise InvalidInputError(
            f"shape mismatch: map {pmap.values.shape} vs targets {targets.labels.shape}"
        )
    mask = targets.labels != IGNORED
    if not mask.any():
        return 0.0
    eps = 1e-6
    probs = pmap.values[mask]
    labels = (targets.labels[mask] == POSITIVE).astype(float)
    clamped = (probs <= 0.0) | (probs >= 1.0)
    if clamped.any():
        warnings.warn(f"{int(clamped.sum())} probability cell(s) clamped into ({eps}, {1 - eps})")
        probs = np.clip(probs, eps, 1.0 - eps)
    p_t = np.where(labels == 1.0, probs, 1.0 - probs)
    alpha_t = np.where(labels == 1.0, cfg.focal_alpha, 1.0 - cfg.focal_alpha)
    losses = -alpha_t * np.power(1.0 - p_t, cfg.focal_gamma) * np.log(p_t)
    return float(np.mean(losses))


@dataclass(frozen=True)
class InformativenessStats:
    """Distractor-hit fractions of selected vs uniformly sampled negatives."""

    selected_fraction: float
    uniform_fraction: float
    selected_negatives: int
    uniform_negatives: int
    selected_hits: int
    uniform_hits: int


def negative_informativeness(
    selected: AnchorSet, scene, negative_iou_threshold: float = 0.3
) -> InformativenessStats:
    """Measure how often selected negative anchors land on distractors.

    A negative anchor has IoU below the threshold with every ground truth;
    a hit is a negative anchor whose center lies inside a distractor box.
    The uniform baseline regenerates the same anchor shapes at every cell.
    """
    gts = box_array(scene.gt_boxes)
    distractors = box_array(scene.distractors)

    def stats(boxes):
        negative = ~(iou_matrix(gts, boxes) >= negative_iou_threshold).any(axis=0)
        cx = (boxes[:, 0] + boxes[:, 2]) / 2.0
        cy = (boxes[:, 1] + boxes[:, 3]) / 2.0
        d = distractors.T[:, :, None]
        inside = ((d[0] <= cx) & (cx <= d[2]) & (d[1] <= cy) & (cy <= d[3])).any(axis=0)
        return int(negative.sum()), int((negative & inside).sum())

    rows, cols = np.indices((selected.grid_height, selected.grid_width)).reshape(2, -1)
    uniform = _anchor_boxes(rows, cols, selected.stride, selected.scales, selected.ratios)
    check_boxes(uniform)

    sel_neg, sel_hit = stats(box_array([a.box for a in selected.anchors]))
    uni_neg, uni_hit = stats(uniform)
    return InformativenessStats(
        selected_fraction=sel_hit / sel_neg if sel_neg else 0.0,
        uniform_fraction=uni_hit / uni_neg if uni_neg else 0.0,
        selected_negatives=sel_neg,
        uniform_negatives=uni_neg,
        selected_hits=sel_hit,
        uniform_hits=uni_hit,
    )


def scene_grid(scene, stride: float) -> tuple[int, int]:
    """(height, width) cell counts covering a scene extent at a stride."""
    return (
        max(1, int(math.ceil(scene.extent[1] / stride))),
        max(1, int(math.ceil(scene.extent[0] / stride))),
    )


def indicator_probability_map(scene, stride: float) -> ProbabilityMap:
    """Probability 1 on cells whose center lies in any pedestrian or distractor box."""
    height, width = scene_grid(scene, stride)
    xs = (np.arange(width) + 0.5) * stride
    ys = (np.arange(height) + 0.5) * stride
    values = np.zeros((height, width))
    for box in [p.full for p in scene.pedestrians] + list(scene.distractors):
        in_x = (xs >= box.x1) & (xs <= box.x2)
        in_y = (ys >= box.y1) & (ys <= box.y2)
        values[np.outer(in_y, in_x)] = 1.0
    return ProbabilityMap(stride=stride, values=values)


def bump_probability_map(
    scene, stride: float, peak: float = 0.9, background: float = 0.08, seed: int = 0
) -> ProbabilityMap:
    """Gaussian bump per pedestrian and distractor over a noisy background.

    Mimics a location-branch output: each box contributes a bump centered on
    it with quarter-extent standard deviations (so the mass stays inside the
    box); cells also carry uniform background noise in [0, background].
    """
    height, width = scene_grid(scene, stride)
    rng = np.random.default_rng(seed)
    xs = (np.arange(width) + 0.5) * stride
    ys = (np.arange(height) + 0.5) * stride
    gx, gy = np.meshgrid(xs, ys)
    values = rng.uniform(0.0, background, (height, width))
    for box in [p.full for p in scene.pedestrians] + list(scene.distractors):
        cx, cy = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
        sx, sy = box.width / 4.0, box.height / 4.0
        bump = peak * np.exp(-0.5 * (((gx - cx) / sx) ** 2 + ((gy - cy) / sy) ** 2))
        values = np.maximum(values, bump)
    return ProbabilityMap(stride=stride, values=np.clip(values, 0.0, 1.0))


def save_probability_map(pmap: ProbabilityMap, path) -> None:
    """Plain-text grid: header ``width height stride``, then row-major values."""
    _write_grid(path, pmap.stride, pmap.values, lambda v: repr(float(v)))


def load_probability_map(path) -> ProbabilityMap:
    with open(path) as fh:
        width, height, stride = _parse_grid_header(fh.readline(), path)
        values = _read_grid_rows(fh, width, height, path, _probability)
    return ProbabilityMap(stride=stride, values=np.array(values, dtype=float))


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise InvalidInputError(f"probability {text!r} not in [0, 1]")
    return value


def save_target_map(tmap: TargetMap, path) -> None:
    """Plain-text grid: header ``width height stride``, then P/I/N symbols."""
    _write_grid(path, tmap.stride, tmap.labels, str)


def load_target_map(path) -> TargetMap:
    with open(path) as fh:
        width, height, stride = _parse_grid_header(fh.readline(), path)
        labels = _read_grid_rows(fh, width, height, path, _label)
    return TargetMap(stride=stride, labels=np.array(labels, dtype="<U1"))


def _label(text: str) -> str:
    if text not in (POSITIVE, IGNORED, NEGATIVE):
        raise InvalidInputError(f"unknown target label {text!r}")
    return text


def _write_grid(path, stride: float, grid: np.ndarray, token) -> None:
    """Header ``width height stride``, then each row of ``grid`` as its cells'
    ``token`` text, space-separated."""
    with open(path, "w") as fh:
        fh.write(f"{grid.shape[1]} {grid.shape[0]} {stride!r}\n")
        for row in grid:
            fh.write(" ".join(map(token, row)) + "\n")


def _parse_grid_header(line: str, path):
    with at_line(path, 1):
        parts = line.split()
        if len(parts) != 3:
            raise InvalidInputError("expected header 'width height stride'")
        return int(parts[0]), int(parts[1]), float(parts[2])


def _read_grid_rows(fh, width, height, path, convert):
    rows = []
    for i in range(height):
        parts = fh.readline().split()
        with at_line(path, i + 2):
            if len(parts) != width:
                raise InvalidInputError(f"row {i} has {len(parts)} values, expected {width}")
            rows.append([convert(p) for p in parts])
    return rows
