"""Anchor location selection from pedestrian-existence probability maps.

Only anchors whose center cell beats the map's root-mean-square value are
kept, which concentrates negative sampling on human-like regions. Target
maps for the location branch label cells positive (inside a visible box),
ignored (inside a full-body box only), or negative (background).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._pairs import box_array, check_boxes, iou_matrix
from .baselines import CompositeConfig, _focal
from .errors import FINITE_POSITIVE, SEED, InvalidInputError, at_line, check, freeze, integer, open_text, positive
from .evalkit import _MATCH_IOU
from .geometry import centers, contains

POSITIVE = "P"
IGNORED = "I"
NEGATIVE = "N"
# the rule for anchor scales and ratios, in select_anchors and in [anchors]
_SIZES = (lambda v: bool(v) and all(map(positive, v)), "non-empty, each finite and > 0")
# the rule for a grid's stride, in the map records, in scene_grid and in [anchors]
_STRIDE = FINITE_POSITIVE
_MAP_KINDS = ("bump", "indicator", "flat", "file")


# the [anchors] section; its defaults are the anchor functions' defaults
@dataclass(frozen=True)
class AnchorDemoConfig:
    stride: float = 2.0
    scales: tuple[float, ...] = (40.0,)
    ratios: tuple[float, ...] = (0.41,)
    map_kind: str = "bump"  # one of _MAP_KINDS
    map_file: str = ""
    scene_file: str = ""
    flat_value: float = 0.5
    peak: float = 0.9
    background: float = 0.08
    negative_iou_threshold: float = 0.3

    def __post_init__(self):
        freeze(self, "scales", "ratios")
        check(self, ("stride",), *_STRIDE)
        check(self, ("scales", "ratios"), *_SIZES)
        check(self, ("map_kind",), _MAP_KINDS.__contains__, f"one of {', '.join(_MAP_KINDS)}")
        check(self, ("map_file",), lambda v: bool(v) == (self.map_kind == "file"), "set exactly when map_kind is file")
        check(self, ("flat_value", "peak", "background"), lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
        check(self, ("negative_iou_threshold",), *_MATCH_IOU)

    def probability_map(self, scene, seed: int) -> ProbabilityMap:
        """The ``map_kind`` map of ``scene`` at ``stride``; a ``file`` map keeps its header's stride."""
        if self.map_kind == "file":
            return load_probability_map(self.map_file)
        if self.map_kind == "bump":
            return bump_probability_map(scene, self.stride, peak=self.peak, background=self.background, seed=seed)
        if self.map_kind == "indicator":
            return indicator_probability_map(scene, self.stride)
        return ProbabilityMap(stride=self.stride, values=np.full(scene_grid(scene, self.stride), self.flat_value))  # flat


@dataclass(frozen=True)
class ProbabilityMap:
    """2-D grid of pedestrian-existence probabilities.

    ``values`` has shape (height, width); ``stride`` converts cell indices
    to scene units. Cell (row, col) is the stride-wide square centered on
    ``stride`` times (col + 1/2, row + 1/2).
    """

    stride: float
    values: np.ndarray

    def __post_init__(self):
        freeze(self, values=np.array(self.values, dtype=float))
        _check_grid(self, self.values, "probability map")
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


@dataclass(frozen=True)
class TargetMap:
    """Per-cell P/I/N labels on the same grid layout as a probability map."""

    stride: float
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=str)
        _check_grid(self, labels, "target map")
        bad = (labels != POSITIVE) & (labels != IGNORED) & (labels != NEGATIVE)
        for label in sorted(set(labels[bad].tolist())):  # not np.unique: it imports numpy.ma
            _label(label)
        freeze(self, labels=labels.astype("<U1"))


def _check_grid(record, cells: np.ndarray, name: str) -> None:
    """Reject ``cells`` unless they are a non-empty 2-D grid, then ``record.stride`` unless it meets ``_STRIDE``."""
    if cells.ndim != 2 or cells.size == 0:
        raise InvalidInputError(f"{name} must be a non-empty 2-D grid")
    check(record, ("stride",), *_STRIDE)


@dataclass(frozen=True)
class AnchorSet:
    """Anchors retained by the dynamic threshold, with their provenance.

    ``anchors`` is a ``(K, 4)`` box array in (cell, scale, ratio) order.
    """

    anchors: np.ndarray
    threshold: float
    fallback: bool
    grid_height: int
    grid_width: int
    stride: float
    scales: tuple[float, ...]
    ratios: tuple[float, ...]
    cells: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        freeze(self, "scales", "ratios", "cells", anchors=np.array(self.anchors, dtype=float).reshape(-1, 4))
        check_boxes(self.anchors)


def dynamic_threshold(pmap: ProbabilityMap) -> float:
    """Root mean square of all cell values."""
    return float(np.sqrt(np.mean(np.square(pmap.values))))


def _cell_centers(index, stride: float):
    """Scene coordinate of the center of cell ``index`` along either axis."""
    return (index + 0.5) * stride


def _grid_points(grid_shape: tuple[int, int], stride: float):
    """Cell-center x as a (1, width) row and y as a (height, 1) column."""
    height, width = grid_shape
    return _cell_centers(np.arange(width), stride)[None, :], _cell_centers(np.arange(height), stride)[:, None]


def _covered(boxes: np.ndarray, points) -> np.ndarray:
    """Which of the points ``(x, y)`` lie inside any of ``boxes`` (B, 4), edges included."""
    return contains(boxes.T.reshape(4, -1, *(1,) * np.ndim(points[0])), points).any(axis=0)


def _anchor_boxes(rows: np.ndarray, cols: np.ndarray, stride: float, scales, ratios) -> np.ndarray:
    """``(K, 4)`` anchors in (cell, scale, ratio) order, centered on the cells.

    A (scale, ratio) anchor is ``scale * sqrt(ratio)`` wide and
    ``scale / sqrt(ratio)`` high.
    """
    half = np.array(
        [(scale * math.sqrt(ratio) / 2.0, scale / math.sqrt(ratio) / 2.0) for scale in scales for ratio in ratios]
    ).reshape(-1, 2)
    cx = _cell_centers(cols, stride)[:, None]
    cy = _cell_centers(rows, stride)[:, None]
    return np.stack([cx - half[:, 0], cy - half[:, 1], cx + half[:, 0], cy + half[:, 1]], axis=-1).reshape(-1, 4)


def select_anchors(
    pmap: ProbabilityMap, scales=AnchorDemoConfig.scales, ratios=AnchorDemoConfig.ratios, keep_mask: np.ndarray | None = None
) -> AnchorSet:
    """Instantiate anchors at cells whose probability beats the RMS threshold.

    The comparison is strictly greater, so a constant map retains nothing;
    in that degenerate case all cells are used and the set is flagged as a
    fallback. ``keep_mask`` marks cells retained regardless of the threshold
    (e.g. positive regions when only negatives should be restricted).
    """
    scales = tuple(float(s) for s in scales)
    ratios = tuple(float(r) for r in ratios)
    check(SimpleNamespace(scales=scales, ratios=ratios), ("scales", "ratios"), *_SIZES)
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
    return AnchorSet(
        anchors=_anchor_boxes(rows, cols, pmap.stride, scales, ratios),
        threshold=eps_a,
        fallback=fallback,
        grid_height=pmap.height,
        grid_width=pmap.width,
        stride=pmap.stride,
        scales=scales,
        ratios=ratios,
        cells=zip(rows.tolist(), cols.tolist()),
    )


def build_target_map(scene, grid_shape: tuple[int, int], stride: float) -> TargetMap:
    """Label grid cells from full-body and visible annotations.

    A cell is positive when its center lies in any visible box, ignored when
    it lies in a full-body box but no visible box, negative otherwise.
    Positive takes precedence over ignored across different pedestrians.
    """
    check(SimpleNamespace(grid_shape=grid_shape), ("grid_shape",), lambda v: len(v) == 2 and all(map(integer, v)),
          "two integers")
    height, width = grid_shape
    if height < 1 or width < 1:
        raise InvalidInputError("grid must have at least one cell")

    points = _grid_points(grid_shape, stride)
    pos = _covered(box_array(p.visible for p in scene.pedestrians), points)
    full = _covered(box_array(p.full for p in scene.pedestrians), points)
    labels = np.full((height, width), NEGATIVE, dtype="<U1")
    labels[full & ~pos] = IGNORED
    labels[pos] = POSITIVE
    return TargetMap(stride=stride, labels=labels)


def location_branch_loss(pmap: ProbabilityMap, targets: TargetMap, cfg=None) -> float:
    """Mean focal loss over positive and negative cells; ignored cells are skipped.

    An all-ignored target map yields 0 by convention (empty mean). The focal
    parameters come from a :class:`~crowdloss.baselines.CompositeConfig`.
    Cells at (or beyond) 0 or 1 are clamped into (1e-6, 1 - 1e-6), with one
    warning that counts them; cells strictly inside (0, 1) are used as given.
    """
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
    positive = targets.labels[mask] == POSITIVE
    clamped = (probs <= 0.0) | (probs >= 1.0)
    if clamped.any():
        warnings.warn(f"{int(clamped.sum())} probability cell(s) clamped into ({eps}, {1 - eps})")
        probs = np.where(clamped, np.clip(probs, eps, 1.0 - eps), probs)
    return float(np.mean(_focal(probs, positive, cfg.focal_gamma, cfg.focal_alpha)))


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
    selected: AnchorSet, scene, negative_iou_threshold: float = AnchorDemoConfig.negative_iou_threshold
) -> InformativenessStats:
    """Measure how often selected negative anchors land on distractors.

    A negative anchor has IoU below the threshold with every ground truth;
    a hit is a negative anchor whose center lies inside a distractor box.
    The uniform baseline regenerates the same anchor shapes at every cell.
    It is the same for every scene on a grid, so it is built once per grid.
    """
    check(SimpleNamespace(negative_iou_threshold=negative_iou_threshold), ("negative_iou_threshold",), *_MATCH_IOU)
    gts = box_array(scene.gt_boxes)
    distractors = box_array(scene.distractors)

    def stats(boxes, box_centers):
        negative = ~(iou_matrix(gts, boxes) >= negative_iou_threshold).any(axis=0)
        inside = _covered(distractors, box_centers)
        return int(negative.sum()), int((negative & inside).sum())

    grid = (selected.grid_height, selected.grid_width, selected.stride)
    uniform = _uniform_anchors(*grid, selected.scales, selected.ratios)
    sel_neg, sel_hit = stats(selected.anchors, centers(np.ascontiguousarray(selected.anchors.T)))
    uni_neg, uni_hit = stats(*uniform)
    return InformativenessStats(
        selected_fraction=sel_hit / sel_neg if sel_neg else 0.0,
        uniform_fraction=uni_hit / uni_neg if uni_neg else 0.0,
        selected_negatives=sel_neg,
        uniform_negatives=uni_neg,
        selected_hits=sel_hit,
        uniform_hits=uni_hit,
    )


@functools.lru_cache(maxsize=1)
def _uniform_anchors(grid_height: int, grid_width: int, stride: float, scales: tuple, ratios: tuple):
    """Read-only ``(K, 4)`` anchors at every cell of a grid, checked as boxes,
    and their ``(2, K)`` centers; a run's seeds share one grid, so one is kept."""
    rows, cols = np.indices((grid_height, grid_width)).reshape(2, -1)
    anchors = _anchor_boxes(rows, cols, stride, scales, ratios)
    check_boxes(anchors)
    anchor_centers = centers(np.ascontiguousarray(anchors.T))
    anchors.flags.writeable = anchor_centers.flags.writeable = False
    return anchors, anchor_centers


def scene_grid(scene, stride: float) -> tuple[int, int]:
    """(height, width) cell counts covering a scene extent at a stride."""
    check(SimpleNamespace(stride=stride), ("stride",), *_STRIDE)
    return (
        max(1, int(math.ceil(scene.extent[1] / stride))),
        max(1, int(math.ceil(scene.extent[0] / stride))),
    )


def indicator_probability_map(scene, stride: float) -> ProbabilityMap:
    """Probability 1 on cells whose center lies in any pedestrian or distractor box."""
    boxes = box_array(scene.gt_boxes + scene.distractors)
    covered = _covered(boxes, _grid_points(scene_grid(scene, stride), stride))
    return ProbabilityMap(stride=stride, values=covered.astype(float))


def bump_probability_map(
    scene, stride: float, peak=AnchorDemoConfig.peak, background=AnchorDemoConfig.background, seed: int = 0
) -> ProbabilityMap:
    """Gaussian bump per pedestrian and distractor over a noisy background.

    Mimics a location-branch output: each box contributes a bump centered on
    it with quarter-extent standard deviations (so the mass stays inside the
    box); cells also carry uniform background noise in [0, background].
    """
    check(SimpleNamespace(seed=seed), ("seed",), *SEED)
    shape = scene_grid(scene, stride)
    gx, gy = _grid_points(shape, stride)
    values = np.random.default_rng(seed).uniform(0.0, background, shape)
    for box in scene.gt_boxes + scene.distractors:
        cx, cy = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
        sx, sy = box.width / 4.0, box.height / 4.0
        bump = peak * np.exp(-0.5 * (((gx - cx) / sx) ** 2 + ((gy - cy) / sy) ** 2))
        values = np.maximum(values, bump)
    return ProbabilityMap(stride=stride, values=np.clip(values, 0.0, 1.0))


def save_probability_map(pmap: ProbabilityMap, path) -> None:
    """Plain-text grid: header ``width height stride``, then row-major values."""
    _write_grid(path, pmap.stride, pmap.values.shape, (map(repr, row) for row in pmap.values.tolist()))


def load_probability_map(path) -> ProbabilityMap:
    with open_text(path) as fh:
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
    _write_grid(path, tmap.stride, tmap.labels.shape, tmap.labels.tolist())


def load_target_map(path) -> TargetMap:
    with open_text(path) as fh:
        width, height, stride = _parse_grid_header(fh.readline(), path)
        labels = _read_grid_rows(fh, width, height, path, _label)
    return TargetMap(stride=stride, labels=np.array(labels, dtype="<U1"))


def _label(text: str) -> str:
    if text not in (POSITIVE, IGNORED, NEGATIVE):
        raise InvalidInputError(f"unknown target label {text!r}")
    return text


def _write_grid(path, stride: float, shape: tuple[int, int], rows) -> None:
    """Header ``width height stride`` of a ``(height, width)`` grid, then each of
    ``rows``, the texts of its cells, space-separated."""
    with open(path, "w") as fh:
        fh.write(f"{shape[1]} {shape[0]} {stride!r}\n")
        fh.writelines(" ".join(row) + "\n" for row in rows)


def _parse_grid_header(line: str, path):
    with at_line(path, 1):
        parts = line.split()
        if len(parts) != 3:
            raise InvalidInputError("expected header 'width height stride'")
        width, height, stride = int(parts[0]), int(parts[1]), float(parts[2])
        if min(width, height) < 1 or not positive(stride):
            raise InvalidInputError(f"expected width and height >= 1 and stride finite and > 0, got {line.strip()!r}")
        return width, height, stride


def _read_grid_rows(fh, width, height, path, convert):
    """The ``height`` rows of ``width`` cells that follow the header; only blank lines may follow them."""
    rows = []
    for i in range(height):
        parts = fh.readline().split()
        with at_line(path, i + 2):
            if len(parts) != width:
                raise InvalidInputError(f"row {i} has {len(parts)} values, expected {width}")
            rows.append([convert(p) for p in parts])
    for lineno, line in enumerate(fh, start=height + 2):
        if line.strip():
            raise InvalidInputError(f"{path}:{lineno}: more rows than the header's {height}")
    return rows
