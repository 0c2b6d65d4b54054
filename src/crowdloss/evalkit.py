"""Detection evaluation: greedy NMS, matching, FPPI curves, log-average miss rate."""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from ._pairs import box_array, iou_matrix
from .errors import InvalidInputError, check, open_text
from .geometry import BBox

# the rule for a match IoU threshold, in match, fppi_curve, negative_informativeness and [nms], [eval], [anchors]
_MATCH_IOU = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")
# the rule for an NMS threshold, in greedy_nms and in [nms]
_NMS_THRESHOLD = (lambda v: 0.0 < v < 1.0, "in (0, 1)")
# the rule for a target miss rate, in fppi_at_miss_rate and in [eval]
_MISS_RATE = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


@dataclass(frozen=True)
class Detection:
    box: BBox
    score: float
    scene_id: str = "0"

    def __post_init__(self):
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise InvalidInputError(f"score must be finite in [0, 1], got {self.score}")


@dataclass(frozen=True)
class EvalCurve:
    """Operating points swept over score thresholds, ordered by descending threshold."""

    thresholds: tuple[float, ...]
    points: tuple[tuple[float, float], ...]  # (fppi, miss_rate)


@dataclass(frozen=True)
class MatchResult:
    true_positives: int
    false_positives: int
    misses: int


@dataclass(frozen=True)
class SubsetFilter:
    """Predicate on (box height, visible-area ratio) used to slice scenes.

    Pedestrians outside the subset become ignore regions: detections on them
    count neither as true nor as false positives.
    """

    min_height: float = 0.0
    max_height: float = math.inf
    min_visibility: float = 0.0
    max_visibility: float = 1.0

    def __post_init__(self):
        check(self, ("min_height",), lambda v: 0.0 <= v <= self.max_height, "in [0, max_height]")
        check(self, ("max_visibility",), lambda v: v <= 1.0, "<= 1")
        check(self, ("min_visibility",), lambda v: 0.0 <= v <= self.max_visibility, "in [0, max_visibility]")

    def selects(self, full: BBox, visible: BBox) -> bool:
        h = full.height
        vis_ratio = visible.area / full.area
        return (
            self.min_height <= h <= self.max_height
            and self.min_visibility <= vis_ratio <= self.max_visibility
        )


@dataclass(frozen=True)
class EvalConfig(SubsetFilter):
    detections: str = ""
    scenes_dir: str = ""
    match_iou: float = 0.5
    target_miss_rate: float = 0.1

    def __post_init__(self):
        check(self, ("match_iou",), *_MATCH_IOU)
        check(self, ("target_miss_rate",), *_MISS_RATE)
        super().__post_init__()


def greedy_nms(dets: list[Detection], threshold: float) -> list[Detection]:
    """Standard score-descending suppression.

    A detection is dropped when its IoU with any already-kept detection
    exceeds the threshold. Equal scores keep insertion order.
    """
    check(SimpleNamespace(threshold=threshold), ("threshold",), *_NMS_THRESHOLD)
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    coords = box_array(d.box for d in dets)
    iou = iou_matrix(coords, coords).tolist()
    kept: list[int] = []
    for i in order:
        if all(iou[i][k] <= threshold for k in kept):
            kept.append(i)
    return [dets[i] for i in kept]


TRUE_POSITIVE = "tp"
FALSE_POSITIVE = "fp"
IGNORED = "ignored"


def _greedy_pass(dets, gts, iou_threshold, ignored_gts):
    """Yield ``(detection, outcome)`` under :func:`match`'s rule, in its order.

    An outcome depends only on the detections yielded before it. One IoU
    matrix holds every detection against the ground truths, then the ignore
    regions.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    n = len(gts)
    regions = [*gts, *ignored_gts]
    iou = iou_matrix(box_array(d.box for d in dets), box_array(regions)).tolist()
    matched = [False] * len(regions)
    for i in order:
        row = iou[i]
        best_gi, best_v = -1, 0.0
        for gi in range(n):
            if not matched[gi] and row[gi] > best_v:
                best_gi, best_v = gi, row[gi]
        if best_gi >= 0 and best_v >= iou_threshold:
            matched[best_gi] = True
            yield dets[i], TRUE_POSITIVE
            continue
        for gi in range(n, len(row)):
            if not matched[gi] and row[gi] >= iou_threshold:
                matched[gi] = True
                yield dets[i], IGNORED
                break
        else:
            yield dets[i], FALSE_POSITIVE


def match(
    dets: list[Detection],
    gts: list[BBox],
    iou_threshold: float = EvalConfig.match_iou,
    ignored_gts: list[BBox] = (),
) -> MatchResult:
    """Greedy detection-to-GT matching in descending score order.

    Equal scores keep input order. Each ground truth is matched at most once
    and requires IoU >= threshold. A detection that matches no real ground
    truth but overlaps an unconsumed ignore region at IoU >= threshold is
    discarded rather than counted as a false positive, and consumes that
    region: each ignore region absorbs at most one detection. (The Caltech
    protocol instead lets one ignore region absorb many detections, judged by
    intersection over detection area.)
    """
    check(SimpleNamespace(iou_threshold=iou_threshold), ("iou_threshold",), *_MATCH_IOU)
    outcomes = Counter(o for _, o in _greedy_pass(dets, gts, iou_threshold, ignored_gts))
    tp = outcomes[TRUE_POSITIVE]
    return MatchResult(tp, outcomes[FALSE_POSITIVE], len(gts) - tp)


def fppi_curve(
    dets: list[Detection],
    gts_by_scene: dict,
    iou_threshold: float = EvalConfig.match_iou,
    ignored_by_scene: dict | None = None,
) -> EvalCurve:
    """Sweep score thresholds over all distinct detection scores.

    Each point equals :func:`match` of every scene's detections scoring at
    least the threshold: FPPI is total false positives over the number of
    scenes (with or without detections), miss rate is total misses over the
    ground-truth count. Greedy matching is prefix-closed, so the curve comes
    from one greedy pass per scene, tallied per score and accumulated over
    the thresholds in descending order. A detection whose ``scene_id`` is
    not in ``gts_by_scene`` still sets a threshold but counts as neither a
    true nor a false positive.
    """
    check(SimpleNamespace(iou_threshold=iou_threshold), ("iou_threshold",), *_MATCH_IOU)
    n_scenes = len(gts_by_scene)
    n_gts = sum(len(g) for g in gts_by_scene.values())
    if n_scenes == 0 or n_gts == 0:
        raise InvalidInputError("fppi_curve requires at least one scene with ground truths")
    ignored_by_scene = ignored_by_scene or {}

    by_scene: dict = {sid: [] for sid in gts_by_scene}
    for d in dets:
        if d.scene_id in by_scene:
            by_scene[d.scene_id].append(d)

    counts: Counter = Counter()
    for sid, gts in gts_by_scene.items():
        ignored = ignored_by_scene.get(sid, ())
        counts.update((d.score, o) for d, o in _greedy_pass(by_scene[sid], gts, iou_threshold, ignored))

    thresholds = sorted({d.score for d in dets}, reverse=True)
    points = []
    tp = fp = 0
    for t in thresholds:
        tp += counts[t, TRUE_POSITIVE]
        fp += counts[t, FALSE_POSITIVE]
        points.append((fp / n_scenes, (n_gts - tp) / n_gts))
    return EvalCurve(thresholds=tuple(thresholds), points=tuple(points))


def log_average_miss_rate(curve: EvalCurve, floor: float = 1e-4) -> float:
    """Log-average of miss rates sampled at 9 FPPI points over [1e-2, 1].

    At each log-spaced reference FPPI the miss rate of the last curve point
    with FPPI <= reference is used; when no point qualifies, the highest
    miss rate on the curve stands in. Miss rates are floored before the log.
    """
    check(SimpleNamespace(floor=floor), ("floor",), lambda v: 0.0 < v <= 1.0, "in (0, 1]")
    if not curve.points:
        raise InvalidInputError("log_average_miss_rate requires a non-empty curve")
    pts = sorted(curve.points, key=lambda p: p[0])
    refs = [10.0 ** (-2.0 + 0.25 * k) for k in range(9)]
    fallback = max(m for _, m in pts)
    acc = 0.0
    for ref in refs:
        mr = fallback
        for fppi, miss in pts:
            if fppi <= ref:
                mr = miss
            else:
                break
        acc += math.log(max(mr, floor))
    return math.exp(acc / len(refs))


def fppi_at_miss_rate(curve: EvalCurve, target_miss_rate: float = EvalConfig.target_miss_rate) -> float:
    """FPPI of the curve point whose miss rate is nearest the target.

    Nearest-point semantics; ties resolve toward the smaller FPPI.
    """
    if not curve.points:
        raise InvalidInputError("fppi_at_miss_rate requires a non-empty curve")
    check(SimpleNamespace(target_miss_rate=target_miss_rate), ("target_miss_rate",), *_MISS_RATE)
    return min(curve.points, key=lambda p: (abs(p[1] - target_miss_rate), p[0]))[0]


DETECTION_FIELDS = ("scene_id", "x1", "y1", "x2", "y2", "score")
CURVE_FIELDS = ("threshold", "fppi", "miss_rate")


def _plain(v):
    """``v``, a numpy real as its Python float: written ``1.5``, which reads back, not ``np.float64(1.5)``."""
    return float(v) if isinstance(v, np.floating) else v


def _write_csv(path, fields, rows) -> None:
    """CSV with header row ``fields``: strings as they are, reals by ``repr`` (so
    they keep full precision) and every other value by ``str``, as ``csv`` writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for row in rows:
            writer.writerow(map(_plain, row))


def _read_csv(path, fields, convert) -> list:
    """``convert(*row)`` of each row of a CSV whose header is ``fields``; a bad
    header or row is rejected at its ``path:line``."""
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != list(fields):
            raise InvalidInputError(f"{path}:1: expected header {','.join(fields)}")
        out = []
        for row in reader:
            # a plain try per row, not at_line: a context manager per row costs eval's many-row files
            try:
                if len(row) != len(fields):
                    raise InvalidInputError(f"malformed row {row}")
                out.append(convert(*row))
            except ValueError as exc:
                raise InvalidInputError(f"{path}:{reader.line_num}: {exc}") from exc
    return out


def save_detections(dets: list[Detection], path) -> None:
    """CSV with header ``scene_id,x1,y1,x2,y2,score``; full-precision reals."""
    _write_csv(path, DETECTION_FIELDS, ((d.scene_id, *d.box.as_tuple(), d.score) for d in dets))


def _detection(sid, x1, y1, x2, y2, score) -> Detection:
    return Detection(BBox(float(x1), float(y1), float(x2), float(y2)), float(score), sid)


def load_detections(path) -> list[Detection]:
    return _read_csv(path, DETECTION_FIELDS, _detection)


def save_curve(curve: EvalCurve, path) -> None:
    """CSV with header ``threshold,fppi,miss_rate``; full-precision reals."""
    _write_csv(path, CURVE_FIELDS, ((t, *p) for t, p in zip(curve.thresholds, curve.points)))


def load_curve(path) -> EvalCurve:
    rows = _read_csv(path, CURVE_FIELDS, lambda t, fppi, miss: (float(t), (float(fppi), float(miss))))
    return EvalCurve(tuple(t for t, _ in rows), tuple(p for _, p in rows))
