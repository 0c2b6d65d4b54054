"""Synthetic crowd scenes and a gradient-descent regression loop.

Scenes hold overlapping pedestrians (full + visible boxes) plus human-like
distractor boxes. Proposals jittered off the ground truths are regressed by
fixed-step descent on a configurable composite loss, which lets the
crowd-robustness behaviour of the work-formula regulator be measured without
any learned components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .baselines import (
    CompositeConfig,
    composite_gradient,
    composite_regression_loss,
    regression_targets,
)
from .couloss import CouLossConfig, TripletStructure
from .errors import DivergenceError, InfeasibleConfigError, InvalidAnnotationError, InvalidInputError
from .evalkit import Detection, greedy_nms, match
from .geometry import BBox


@dataclass(frozen=True)
class Pedestrian:
    full: BBox
    visible: BBox


@dataclass
class Scene:
    extent: tuple[float, float]
    pedestrians: list[Pedestrian]
    distractors: list[BBox] = field(default_factory=list)

    def __post_init__(self):
        w, h = self.extent
        if w <= 0.0 or h <= 0.0:
            raise InvalidInputError(f"extent must be positive, got {self.extent}")
        for ped in self.pedestrians:
            f, v = ped.full, ped.visible
            if not (f.x1 <= v.x1 and v.x2 <= f.x2 and f.y1 <= v.y1 and v.y2 <= f.y2):
                raise InvalidAnnotationError(
                    f"visible box {v.as_tuple()} not inside full box {f.as_tuple()}"
                )
        for box in [p.full for p in self.pedestrians] + list(self.distractors):
            if box.x1 < 0.0 or box.y1 < 0.0 or box.x2 > w or box.y2 > h:
                raise InvalidInputError(f"box {box.as_tuple()} outside extent {self.extent}")

    @property
    def gt_boxes(self) -> list[BBox]:
        return [p.full for p in self.pedestrians]


@dataclass(frozen=True)
class SimConfig:
    """Scene-generation and descent parameters.

    The coordinate update per step is ``step_size * max_extent**2 * (grad +
    xi)`` with ``xi ~ N(0, gradient_noise)`` per coordinate; since both loss
    terms are scale-invariant (their gradients scale as 1/extent), this
    makes whole runs equivariant under joint scene scaling.
    """

    extent: tuple[float, float] = (100.0, 100.0)
    pedestrian_count: int = 2
    crowd_iou_min: float = 0.3
    crowd_iou_max: float = 0.5
    aspect_ratio: float = 0.41
    height_range: tuple[float, float] = (0.3, 0.5)
    distractor_count: int = 3
    proposal_jitter: float = 0.2
    proposals_per_gt: int = 6
    descent_steps: int = 300
    step_size: float = 4e-4
    gradient_noise: float = 0.0
    recompute_assignments: bool = True
    divergence_factor: float = 10.0
    warn_kinks: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.pedestrian_count < 1:
            raise InvalidInputError("pedestrian_count must be >= 1")
        if not (0.0 <= self.crowd_iou_min <= self.crowd_iou_max < 1.0):
            raise InvalidInputError(
                f"crowd IoU band must satisfy 0 <= min <= max < 1, got "
                f"[{self.crowd_iou_min}, {self.crowd_iou_max}]"
            )
        if self.aspect_ratio <= 0.0:
            raise InvalidInputError("aspect_ratio must be > 0")
        if not (0.0 < self.height_range[0] <= self.height_range[1] <= 1.0):
            raise InvalidInputError(f"bad height_range {self.height_range}")
        for name in ("proposal_jitter", "gradient_noise"):
            if getattr(self, name) < 0.0:
                raise InvalidInputError(f"{name} must be >= 0")
        for name in ("proposals_per_gt", "descent_steps"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be >= 1")
        if self.step_size <= 0.0 or self.divergence_factor <= 1.0:
            raise InvalidInputError("step_size must be > 0 and divergence_factor > 1")


@dataclass(frozen=True)
class ProposalOutcome:
    proposal_index: int
    target: int
    iou_with_target: float
    best_non_target_iou: float
    center_in_overlap: bool


@dataclass
class SimResult:
    final_boxes: list[BBox]
    targets: list[int]
    per_proposal: list[ProposalOutcome]
    mean_final_iou: float
    drift_rate: float
    overlap_occupancy: float
    loss_curve: list[float]
    steps: int
    aborted: bool = False


_PLACEMENT_TRIES = 300
_SCENE_TRIES = 60


def generate_scene(cfg: SimConfig, seed: int) -> Scene:
    """Deterministically sample a crowd scene for a seed.

    Pedestrians are placed as a chain: each one overlaps its predecessor
    with an IoU inside the configured band while staying at or below the
    band maximum against everyone else. Visible boxes are carved by
    occlusion order (larger y2 occludes), and distractors are placed with
    IoU < 0.3 against every pedestrian.
    """
    rng = np.random.default_rng(seed)
    for _ in range(_SCENE_TRIES):
        scene = _try_generate(cfg, rng)
        if scene is not None:
            return scene
    raise InfeasibleConfigError(
        f"could not place {cfg.pedestrian_count} pedestrians with IoU band "
        f"[{cfg.crowd_iou_min}, {cfg.crowd_iou_max}] in extent {cfg.extent}"
    )


def _try_generate(cfg: SimConfig, rng) -> Scene | None:
    ew, eh = cfg.extent
    fulls: list[BBox] = []
    height = rng.uniform(*cfg.height_range) * eh
    for k in range(cfg.pedestrian_count):
        if k > 0:
            height = float(
                np.clip(
                    height * math.exp(rng.uniform(-0.08, 0.08)),
                    cfg.height_range[0] * eh,
                    cfg.height_range[1] * eh,
                )
            )
        width = cfg.aspect_ratio * height
        if width > ew or height > eh:
            return None
        placed = False
        for _ in range(_PLACEMENT_TRIES):
            if k == 0:
                x1 = rng.uniform(0.0, ew - width)
                y1 = rng.uniform(0.0, eh - height)
            else:
                anchor = fulls[k - 1]
                cx = (anchor.x1 + anchor.x2) / 2.0 + rng.uniform(-1.0, 1.0) * (
                    anchor.width + width
                ) / 2.0
                cy = (anchor.y1 + anchor.y2) / 2.0 + rng.uniform(-0.5, 0.5) * (
                    anchor.height + height
                ) / 2.0
                x1 = cx - width / 2.0
                y1 = cy - height / 2.0
            if x1 < 0.0 or y1 < 0.0 or x1 + width > ew or y1 + height > eh:
                continue
            box = BBox(x1, y1, x1 + width, y1 + height)
            if k > 0:
                v = geometry.iou(box, fulls[k - 1])
                if not (cfg.crowd_iou_min <= v <= cfg.crowd_iou_max):
                    continue
                if any(geometry.iou(box, other) > cfg.crowd_iou_max for other in fulls[:-1]):
                    continue
            fulls.append(box)
            placed = True
            break
        if not placed:
            return None

    visibles = _carve_visible(fulls)
    if visibles is None:
        return None

    distractors = []
    if cfg.distractor_count:
        mean_h = sum(f.height for f in fulls) / len(fulls)
        for _ in range(cfg.distractor_count):
            placed = False
            for _ in range(_PLACEMENT_TRIES):
                h = mean_h * rng.uniform(0.5, 1.0)
                w = cfg.aspect_ratio * h * rng.uniform(0.8, 1.2)
                if w > ew or h > eh:
                    continue
                x1 = rng.uniform(0.0, ew - w)
                y1 = rng.uniform(0.0, eh - h)
                box = BBox(x1, y1, x1 + w, y1 + h)
                if all(geometry.iou(box, f) < 0.3 for f in fulls):
                    distractors.append(box)
                    placed = True
                    break
            if not placed:
                return None

    peds = [Pedestrian(f, v) for f, v in zip(fulls, visibles)]
    return Scene(extent=cfg.extent, pedestrians=peds, distractors=distractors)


def _carve_visible(fulls: list[BBox]) -> list[BBox] | None:
    """Visible box per pedestrian under near-to-far occlusion (larger y2 is nearer)."""
    order = sorted(range(len(fulls)), key=lambda i: (-fulls[i].y2, i))
    visibles: list[BBox | None] = [None] * len(fulls)
    for rank, idx in enumerate(order):
        vis = fulls[idx]
        for occ_idx in order[:rank]:
            occ = fulls[occ_idx]
            if geometry.intersection_area(vis, occ) == 0.0:
                continue
            vis = _largest_free_strip(vis, occ)
            if vis is None:
                return None
        visibles[idx] = vis
    return visibles  # type: ignore[return-value]


def _largest_free_strip(box: BBox, occluder: BBox) -> BBox | None:
    """Largest axis-aligned strip of ``box`` disjoint from ``occluder``."""
    candidates = []
    if occluder.x1 > box.x1:
        candidates.append((box.x1, box.y1, min(occluder.x1, box.x2), box.y2))
    if occluder.x2 < box.x2:
        candidates.append((max(occluder.x2, box.x1), box.y1, box.x2, box.y2))
    if occluder.y1 > box.y1:
        candidates.append((box.x1, box.y1, box.x2, min(occluder.y1, box.y2)))
    if occluder.y2 < box.y2:
        candidates.append((box.x1, max(occluder.y2, box.y1), box.x2, box.y2))
    best = None
    best_area = 0.0
    for x1, y1, x2, y2 in candidates:
        area = (x2 - x1) * (y2 - y1)
        if x2 > x1 and y2 > y1 and area > best_area:
            best = BBox(x1, y1, x2, y2)
            best_area = area
    return best


def spawn_proposals(scene: Scene, cfg: SimConfig, seed: int) -> list[BBox]:
    """Jittered copies of each ground truth: Gaussian center and log-size noise.

    Produces ``proposals_per_gt`` boxes per pedestrian, grouped in ground
    truth order, clipped to the scene extent. With zero jitter the proposals
    equal their ground truths.
    """
    rng = np.random.default_rng(seed)
    ew, eh = scene.extent
    sigma = cfg.proposal_jitter
    out = []
    for full in scene.gt_boxes:
        if sigma == 0.0:
            out.extend([full] * cfg.proposals_per_gt)
            continue
        cx0 = (full.x1 + full.x2) / 2.0
        cy0 = (full.y1 + full.y2) / 2.0
        for _ in range(cfg.proposals_per_gt):
            cx = cx0 + rng.normal(0.0, sigma * full.width)
            cy = cy0 + rng.normal(0.0, sigma * full.height)
            w = min(full.width * math.exp(rng.normal(0.0, sigma)), ew)
            h = min(full.height * math.exp(rng.normal(0.0, sigma)), eh)
            cx = float(np.clip(cx, w / 2.0, ew - w / 2.0))
            cy = float(np.clip(cy, h / 2.0, eh - h / 2.0))
            out.append(BBox(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0))
    return out


def _project_min_size(coords: np.ndarray, min_size: float) -> np.ndarray:
    """Push degenerate-width or -height rows back to a minimal box, in place."""
    for lo, hi in ((0, 2), (1, 3)):
        bad = coords[:, hi] - coords[:, lo] < min_size
        if bad.any():
            mid = (coords[bad, lo] + coords[bad, hi]) / 2.0
            coords[bad, lo] = mid - min_size / 2.0
            coords[bad, hi] = mid + min_size / 2.0
    return coords


def _overlap_regions(gts: list[BBox]) -> list[tuple[float, float, float, float]]:
    regions = []
    for i in range(len(gts)):
        for j in range(i + 1, len(gts)):
            a, b = gts[i], gts[j]
            x1, y1 = max(a.x1, b.x1), max(a.y1, b.y1)
            x2, y2 = min(a.x2, b.x2), min(a.y2, b.y2)
            if x2 > x1 and y2 > y1:
                regions.append((x1, y1, x2, y2))
    return regions


def _summarize(
    boxes: list[BBox], gts: list[BBox], targets: list[int], loss_curve, steps, aborted=False
) -> SimResult:
    regions = _overlap_regions(gts)
    outcomes = []
    for pi, box in enumerate(boxes):
        t = targets[pi]
        iou_t = geometry.iou(box, gts[t])
        iou_n = max(
            (geometry.iou(box, g) for gi, g in enumerate(gts) if gi != t), default=0.0
        )
        c = geometry.center(box)
        in_overlap = any(x1 <= c.x <= x2 and y1 <= c.y <= y2 for x1, y1, x2, y2 in regions)
        outcomes.append(ProposalOutcome(pi, t, iou_t, iou_n, in_overlap))
    n = len(boxes)
    return SimResult(
        final_boxes=boxes,
        targets=list(targets),
        per_proposal=outcomes,
        mean_final_iou=sum(o.iou_with_target for o in outcomes) / n if n else 0.0,
        drift_rate=sum(o.best_non_target_iou > o.iou_with_target for o in outcomes) / n
        if n
        else 0.0,
        overlap_occupancy=sum(o.center_in_overlap for o in outcomes) / n if n else 0.0,
        loss_curve=list(loss_curve),
        steps=steps,
        aborted=aborted,
    )


def run_descent(
    scene: Scene,
    proposals: list[BBox],
    comp_cfg: CompositeConfig | None = None,
    cou_cfg: CouLossConfig | None = None,
    sim_cfg: SimConfig | None = None,
    *,
    seed: int | None = None,
    intended_targets: list[int] | None = None,
) -> SimResult:
    """Fixed-step gradient descent of the proposals under the composite loss.

    Assignments are recomputed every step unless the config freezes them.
    Drift and overlap statistics are measured against ``intended_targets``
    (max-IoU at step zero when not given). ``seed`` drives the gradient
    noise and defaults to the config's seed. A loss exceeding
    ``divergence_factor`` times the initial loss aborts with the partial
    result attached to the raised :class:`DivergenceError`.
    """
    comp_cfg = comp_cfg or CompositeConfig()
    cou_cfg = cou_cfg or CouLossConfig()
    sim_cfg = sim_cfg or SimConfig()
    if seed is None:
        seed = sim_cfg.seed
    gts = scene.gt_boxes
    if not gts:
        raise InvalidInputError("scene has no pedestrians")
    if not proposals:
        return _summarize([], gts, [], [], 0)

    if intended_targets is None:
        intended_targets = regression_targets(gts, proposals)
    elif len(intended_targets) != len(proposals):
        raise InvalidInputError("intended_targets length must match proposals")

    rng = np.random.default_rng(seed)
    max_extent = max(scene.extent)
    step = sim_cfg.step_size * max_extent * max_extent
    min_size = 1e-3 * max_extent

    coords = np.array([p.as_tuple() for p in proposals], dtype=float)
    boxes = list(proposals)

    frozen_structure = None
    frozen_targets = None
    if not sim_cfg.recompute_assignments:
        frozen_structure = TripletStructure.from_boxes(gts, boxes, cou_cfg)
        frozen_targets = regression_targets(gts, boxes)

    losses: list[float] = []
    divergence_limit = None
    for step_idx in range(sim_cfg.descent_steps):
        if sim_cfg.recompute_assignments:
            targets = regression_targets(gts, boxes)
            structure = None
            if comp_cfg.alpha > 0.0:
                structure = TripletStructure.from_boxes(gts, boxes, cou_cfg)
        else:
            structure = frozen_structure
            targets = frozen_targets
        report = composite_regression_loss(
            gts, boxes, comp_cfg, cou_cfg, structure=structure, targets=targets
        )
        losses.append(report.total)
        if divergence_limit is None:
            divergence_limit = max(sim_cfg.divergence_factor * report.total, 1e-6)
        elif report.total > divergence_limit:
            partial = _summarize(boxes, gts, intended_targets, losses, step_idx, aborted=True)
            raise DivergenceError(
                f"loss {report.total:.6g} exceeded {divergence_limit:.6g} at step {step_idx}",
                partial_result=partial,
            )
        grad = composite_gradient(
            gts,
            boxes,
            comp_cfg,
            cou_cfg,
            structure=structure,
            targets=targets,
            warn_kinks=sim_cfg.warn_kinks,
        )
        if sim_cfg.gradient_noise > 0.0:
            grad = grad + rng.normal(0.0, sim_cfg.gradient_noise, grad.shape)
        coords -= step * grad
        _project_min_size(coords, min_size)
        boxes = [BBox(*(float(v) for v in row)) for row in coords]

    final_report = composite_regression_loss(
        gts,
        boxes,
        comp_cfg,
        cou_cfg,
        structure=frozen_structure,
        targets=frozen_targets,
    )
    losses.append(final_report.total)
    return _summarize(boxes, gts, intended_targets, losses, sim_cfg.descent_steps)


def score_detections(scene: Scene, boxes: list[BBox], scene_id: str) -> list[Detection]:
    """Turn final boxes into detections scored by best IoU with any ground truth.

    Stand-in for a classifier: confidence mirrors localization quality,
    which is what the NMS-threshold sensitivity question is about.
    """
    dets = []
    for box in boxes:
        score = max((geometry.iou(box, g) for g in scene.gt_boxes), default=0.0)
        dets.append(Detection(box, score, scene_id))
    return dets


@dataclass(frozen=True)
class NmsSweepRow:
    variant: str
    threshold: float
    kept: int
    false_positives: int
    misses: int
    miss_rate: float


@dataclass
class NmsSweepResult:
    rows: list[NmsSweepRow]
    miss_spread: dict
    miss_variance: dict


DEFAULT_NMS_THRESHOLDS = tuple(round(0.3 + 0.05 * k, 2) for k in range(11))


def nms_sensitivity_experiment(
    variants: dict[str, CompositeConfig],
    seeds: list[int],
    sim_cfg: SimConfig | None = None,
    cou_cfg: CouLossConfig | None = None,
    thresholds=DEFAULT_NMS_THRESHOLDS,
    match_iou: float = 0.5,
) -> NmsSweepResult:
    """Miss/false-positive counts per NMS threshold for each loss variant.

    Every variant descends the same seeded scenes and proposals; the final
    boxes are scored, suppressed at each threshold, and matched against the
    ground truths. The per-variant spread (max - min) and variance of miss
    counts across thresholds quantify threshold sensitivity.
    """
    sim_cfg = sim_cfg or SimConfig()
    cou_cfg = cou_cfg or CouLossConfig()
    per_variant_dets: dict[str, list[tuple[Scene, list[Detection]]]] = {
        name: [] for name in variants
    }
    for seed in seeds:
        scene = generate_scene(sim_cfg, seed)
        proposals = spawn_proposals(scene, sim_cfg, seed + 1)
        targets = [gi for gi in range(len(scene.pedestrians)) for _ in range(sim_cfg.proposals_per_gt)]
        for name, comp_cfg in variants.items():
            result = run_descent(
                scene,
                proposals,
                comp_cfg,
                cou_cfg,
                sim_cfg,
                seed=seed + 2,
                intended_targets=targets,
            )
            dets = score_detections(scene, result.final_boxes, f"seed{seed}")
            per_variant_dets[name].append((scene, dets))

    rows = []
    miss_spread = {}
    miss_variance = {}
    for name in variants:
        miss_counts = []
        for thr in thresholds:
            kept_n = fp = misses = gt_n = 0
            for scene, dets in per_variant_dets[name]:
                kept = greedy_nms(dets, thr)
                res = match(kept, scene.gt_boxes, match_iou)
                kept_n += len(kept)
                fp += res.false_positives
                misses += res.misses
                gt_n += len(scene.gt_boxes)
            rows.append(NmsSweepRow(name, thr, kept_n, fp, misses, misses / gt_n))
            miss_counts.append(misses)
        miss_spread[name] = (min(miss_counts), max(miss_counts))
        miss_variance[name] = float(np.var(miss_counts))
    return NmsSweepResult(rows=rows, miss_spread=miss_spread, miss_variance=miss_variance)


def save_scene(scene: Scene, path) -> None:
    """Structured text: ``extent W H``, then one ``ped``/``distractor`` line per box."""
    with open(path, "w") as fh:
        fh.write(f"extent {scene.extent[0]!r} {scene.extent[1]!r}\n")
        for ped in scene.pedestrians:
            f, v = ped.full, ped.visible
            fh.write(
                "ped "
                + " ".join(repr(c) for c in f.as_tuple())
                + " "
                + " ".join(repr(c) for c in v.as_tuple())
                + "\n"
            )
        for d in scene.distractors:
            fh.write("distractor " + " ".join(repr(c) for c in d.as_tuple()) + "\n")


def load_scene(path) -> Scene:
    extent = None
    peds = []
    distractors = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            kind, args = parts[0], parts[1:]
            if kind == "extent" and len(args) == 2:
                extent = (float(args[0]), float(args[1]))
            elif kind == "ped" and len(args) == 8:
                vals = [float(a) for a in args]
                peds.append(Pedestrian(BBox(*vals[:4]), BBox(*vals[4:])))
            elif kind == "distractor" and len(args) == 4:
                distractors.append(BBox(*(float(a) for a in args)))
            else:
                raise InvalidInputError(f"{path}:{lineno}: unrecognized scene line {raw!r}")
    if extent is None:
        raise InvalidInputError(f"{path}: missing extent header")
    return Scene(extent=extent, pedestrians=peds, distractors=distractors)


def standard_variants(base: CompositeConfig | None = None) -> dict[str, CompositeConfig]:
    """The four ablation variants: baseline, full, attraction-only, repulsion-only."""
    base = base or CompositeConfig()
    return {
        "baseline": replace(base, alpha=0.0),
        "couloss": base,
        "only_att": replace(base, include_repulsion=False),
        "only_rep": replace(base, include_attraction=False),
    }
