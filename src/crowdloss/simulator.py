"""Synthetic crowd scenes and a gradient-descent regression loop.

Scenes hold overlapping pedestrians (full + visible boxes) plus human-like
distractor boxes. Proposals jittered off the ground truths are regressed by
fixed-step descent on a configurable composite loss, which lets the
crowd-robustness behaviour of the work-formula regulator be measured without
any learned components.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from ._pairs import box_array, check_boxes, iou_matrix, valid_boxes
from .baselines import CompositeConfig, _composite, _Weights, scene_scale
from .couloss import CouLossConfig
from .errors import (
    SEED,
    CrowdLossError,
    DivergenceError,
    InfeasibleConfigError,
    InvalidAnnotationError,
    InvalidInputError,
    at_line,
    check,
    freeze,
    non_negative,
    open_text,
    positive,
)
from .evalkit import _MATCH_IOU, _NMS_THRESHOLD, Detection, _plain, greedy_nms, match
from .geometry import BBox, centers, contains, iou, iou_parts, scalar_map


# the extent rule of check, for scenes and their config
_EXTENT = (lambda v: len(v) == 2 and all(map(positive, v)), "two values, each finite and > 0")


@dataclass(frozen=True)
class Pedestrian:
    full: BBox
    visible: BBox

    def __post_init__(self):
        """Reject a visible box that is not inside the full box."""
        f, v = self.full, self.visible
        if not (f.x1 <= v.x1 and v.x2 <= f.x2 and f.y1 <= v.y1 and v.y2 <= f.y2):
            raise InvalidAnnotationError(f"visible box {v.as_tuple()} not inside full box {f.as_tuple()}")


@dataclass(frozen=True)
class Scene:
    extent: tuple[float, float]
    pedestrians: tuple[Pedestrian, ...]
    distractors: tuple[BBox, ...] = ()

    def __post_init__(self):
        freeze(self, "extent", "pedestrians", "distractors")
        check(self, ("extent",), *_EXTENT)
        w, h = self.extent
        for box in self.gt_boxes + self.distractors:
            if box.x1 < 0.0 or box.y1 < 0.0 or box.x2 > w or box.y2 > h:
                raise InvalidInputError(f"box {box.as_tuple()} outside extent {self.extent}")

    @property
    def gt_boxes(self) -> tuple[BBox, ...]:
        return tuple(p.full for p in self.pedestrians)


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

    def __post_init__(self):
        freeze(self, "extent", "height_range")
        check(self, ("extent",), *_EXTENT)
        check(self, ("pedestrian_count", "proposals_per_gt", "descent_steps"), lambda v: v >= 1, ">= 1")
        check(self, ("crowd_iou_max",), lambda v: v < 1.0, "< 1")
        check(self, ("crowd_iou_min",), lambda v: 0.0 <= v <= self.crowd_iou_max, "in [0, crowd_iou_max]")
        check(self, ("aspect_ratio", "step_size"), positive, "finite and > 0")
        check(self, ("height_range",), lambda v: len(v) == 2 and 0.0 < v[0] <= v[1] <= 1.0,
              "two values, 0 < low <= high <= 1")
        check(self, ("distractor_count",), lambda v: v >= 0, ">= 0")
        check(self, ("proposal_jitter", "gradient_noise"), non_negative, "finite and >= 0")
        check(self, ("divergence_factor",), lambda v: v > 1.0, "> 1")


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
_MIN_SIZE = 1e-3  # the least box width and height of proposals and descents, in units of the larger extent
_LOG_MAX = math.log(sys.float_info.max)  # math.exp overflows above this; the extent caps such a size anyway


def generate_scene(cfg: SimConfig, seed: int) -> Scene:
    """Deterministically sample a crowd scene for a seed.

    Pedestrians are placed as a chain: each one overlaps its predecessor
    with an IoU inside the configured band while staying at or below the
    band maximum against everyone else. Visible boxes are carved by
    occlusion order (larger y2 occludes), and distractors are placed with
    IoU < 0.3 against every pedestrian.
    """
    check(SimpleNamespace(seed=seed), ("seed",), *SEED)
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
    full_coords = np.empty((4, cfg.pedestrian_count))  # fulls, coordinate-major
    height = rng.uniform(*cfg.height_range) * eh
    for k in range(cfg.pedestrian_count):
        if k > 0:
            lo, hi = cfg.height_range
            height = min(max(height * math.exp(rng.uniform(-0.08, 0.08)), lo * eh), hi * eh)
        width = cfg.aspect_ratio * height
        if width > ew or height > eh:
            return None
        for _ in range(_PLACEMENT_TRIES):
            if k == 0:
                x1 = rng.uniform(0.0, ew - width)
                y1 = rng.uniform(0.0, eh - height)
            else:
                a = fulls[k - 1]
                cx = (a.x1 + a.x2) / 2.0 + rng.uniform(-1.0, 1.0) * (a.width + width) / 2.0
                cy = (a.y1 + a.y2) / 2.0 + rng.uniform(-0.5, 0.5) * (a.height + height) / 2.0
                x1 = cx - width / 2.0
                y1 = cy - height / 2.0
            if x1 < 0.0 or y1 < 0.0 or x1 + width > ew or y1 + height > eh:
                continue
            box = (x1, y1, x1 + width, y1 + height)
            if k > 0:
                v = iou_parts(np.array(box)[:, None], full_coords[:, :k])[0].tolist()
                if not cfg.crowd_iou_min <= v[-1] <= cfg.crowd_iou_max or max(v) > cfg.crowd_iou_max:
                    continue
            fulls.append(BBox(*box))
            full_coords[:, k] = box
            break
        else:
            return None

    visibles = _carve_visible(fulls)
    if visibles is None:
        return None

    distractors = []
    if cfg.distractor_count:
        mean_h = sum(f.height for f in fulls) / len(fulls)
        for _ in range(cfg.distractor_count):
            for _ in range(_PLACEMENT_TRIES):
                h = mean_h * rng.uniform(0.5, 1.0)
                w = cfg.aspect_ratio * h * rng.uniform(0.8, 1.2)
                if w > ew or h > eh:
                    continue
                x1 = rng.uniform(0.0, ew - w)
                y1 = rng.uniform(0.0, eh - h)
                box = (x1, y1, x1 + w, y1 + h)
                if max(iou_parts(np.array(box)[:, None], full_coords)[0].tolist()) < 0.3:
                    distractors.append(BBox(*box))
                    break
            else:
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
            if iou(vis, occ) == 0.0:
                continue
            vis = _largest_free_strip(vis, occ)
            if vis is None:
                return None
        visibles[idx] = vis
    return visibles  # type: ignore[return-value]


def _largest_free_strip(box: BBox, occluder: BBox) -> BBox | None:
    """Largest axis-aligned strip of ``box`` disjoint from ``occluder``, which is
    nearer: ``occluder.y2 >= box.y2``, so no strip lies below it."""
    candidates = []
    if occluder.x1 > box.x1:
        candidates.append((box.x1, box.y1, min(occluder.x1, box.x2), box.y2))
    if occluder.x2 < box.x2:
        candidates.append((max(occluder.x2, box.x1), box.y1, box.x2, box.y2))
    if occluder.y1 > box.y1:
        candidates.append((box.x1, box.y1, box.x2, min(occluder.y1, box.y2)))
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
    truth order, clipped to the scene extent, each side at least the descent's
    minimal size. With zero jitter the proposals equal their ground truths.
    """
    check(SimpleNamespace(seed=seed), ("seed",), *SEED)
    ew, eh = scene.extent
    min_size = _MIN_SIZE * max(ew, eh)
    sigma = cfg.proposal_jitter
    k = cfg.proposals_per_gt
    if sigma == 0.0:
        return [full for full in scene.gt_boxes for _ in range(k)]
    gts = np.repeat(box_array(scene.gt_boxes), k, axis=0)
    size = gts[:, 2:] - gts[:, :2]
    # per proposal, in draw order: center x and y, then log width and log height
    noise = np.random.default_rng(seed).normal(0.0, np.hstack([sigma * size, np.full_like(size, sigma)]))
    scale = scalar_map(math.exp, np.minimum(noise[:, 2:], _LOG_MAX).ravel()).reshape(-1, 2)
    with np.errstate(over="ignore"):  # an inf side is capped by the extent below
        wh = np.minimum(np.maximum(size * scale, min_size), (ew, eh))
    half = wh / 2.0
    c = np.minimum(np.maximum((gts[:, :2] + gts[:, 2:]) / 2.0 + noise[:, :2], half), (ew, eh) - half)
    return [BBox(*box) for box in np.hstack([c - half, c + half]).tolist()]


def _project_min_size(coords: np.ndarray, min_size) -> np.ndarray:
    """Push degenerate-width or -height boxes (rows of the last axis) back to a
    minimal box, in place; ``min_size`` broadcasts over the boxes."""
    for lo, hi in ((0, 2), (1, 3)):
        bad = coords[..., hi] - coords[..., lo] < min_size
        if bad.any():
            size = np.broadcast_to(min_size, bad.shape)[bad]
            mid = (coords[..., lo][bad] + coords[..., hi][bad]) / 2.0
            coords[..., lo][bad] = mid - size / 2.0
            coords[..., hi][bad] = mid + size / 2.0
    return coords


def _summarize(
    coords: np.ndarray, gts: np.ndarray, targets: list[int], loss_curve, steps, aborted=False
) -> SimResult:
    """Outcomes of the boxes ``coords`` against the ground truths ``gts``, both (K, 4) arrays."""
    n = coords.shape[0]
    t = np.asarray(targets, dtype=np.intp)
    iou = iou_matrix(gts, coords)
    iou_t = iou[t, np.arange(n)]
    iou_n = np.max(iou, axis=0, initial=0.0, where=np.arange(gts.shape[0])[:, None] != t)
    # is the center inside two ground truths that overlap
    i, j = np.triu_indices(gts.shape[0], 1)
    overlap = iou_parts(gts[i].T, gts[j].T)[2]
    inside = contains(gts.T[:, :, None], centers(coords.T)[:, None])
    in_overlap = (inside[i[overlap]] & inside[j[overlap]]).any(axis=0)
    columns = (range(n), t.tolist(), iou_t.tolist(), iou_n.tolist(), in_overlap.tolist())
    outcomes = [ProposalOutcome(*o) for o in zip(*columns)]
    return SimResult(
        final_boxes=[BBox(*row) for row in coords.tolist()],
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


@dataclass(frozen=True)
class Descent:
    """One member of :func:`run_descents`, with the arguments of :func:`run_descent`."""

    scene: Scene
    proposals: tuple[BBox, ...]
    comp_cfg: CompositeConfig = field(default_factory=CompositeConfig)
    seed: int = 0
    intended_targets: tuple[int, ...] | None = None

    def __post_init__(self):
        freeze(self, "proposals", "intended_targets")
        check(self, ("seed",), *SEED)
        n, targets = len(self.scene.pedestrians), self.intended_targets
        if not n:
            raise InvalidInputError("scene has no pedestrians")
        if targets is not None and len(targets) != len(self.proposals):
            raise InvalidInputError("intended_targets length must match proposals")
        if targets is not None and not all(0 <= t < n for t in targets):
            raise InvalidInputError(f"intended_targets must index the {n} pedestrians")


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

    Assignments are recomputed every step unless the config freezes them at
    those of step zero. Drift and overlap statistics are measured against
    ``intended_targets`` (max-IoU at step zero when not given). ``seed``
    drives the gradient noise and defaults to 0. A loss exceeding
    ``divergence_factor`` times the initial loss aborts with the partial
    result attached to the raised :class:`DivergenceError`.
    """
    member = Descent(scene, proposals, comp_cfg or CompositeConfig(), seed or 0, intended_targets)
    (result,) = run_descents([member], cou_cfg, sim_cfg)
    if isinstance(result, CrowdLossError):
        raise result
    return result


def run_descents(
    descents: list[Descent], cou_cfg: CouLossConfig | None = None, sim_cfg: SimConfig | None = None
) -> list[SimResult | CrowdLossError]:
    """:func:`run_descent` of every member, stepped in lockstep as one batch.

    The members share the configs and their pedestrian and proposal counts;
    each step makes one IoU matrix and one CouLoss kernel call for all, and
    each member's values equal those of its own :func:`run_descent` bit for
    bit. A member that diverges or leaves invalid boxes stops, its entry the
    error :func:`run_descent` would raise; the others run on.
    """
    cou_cfg = cou_cfg or CouLossConfig()
    sim_cfg = sim_cfg or SimConfig()
    if not descents:
        return []
    shapes = {(len(d.scene.pedestrians), len(d.proposals)) for d in descents}
    if len(shapes) > 1:
        raise InvalidInputError("batched descents need equal pedestrian and proposal counts")
    G = np.array([box_array(d.scene.gt_boxes) for d in descents])
    coords = np.array([box_array(d.proposals) for d in descents])
    (B, N), steps = coords.shape[:2], sim_cfg.descent_steps
    if N == 0:
        return [_summarize(coords[b], G[b], [], [], 0) for b in range(B)]

    scale = scene_scale(G)
    weights = _Weights.of([d.comp_cfg for d in descents], scale, N)
    weighs = weights.alpha > 0.0
    # each member's pairs, unless it leaves them out of its loss and its kink check
    keep = np.broadcast_to(weighs, (2, B)) if sim_cfg.warn_kinks else weights.parts
    rngs = [np.random.default_rng(d.seed) for d in descents]
    max_extent = np.array([max(d.scene.extent) for d in descents])
    step = (sim_cfg.step_size * max_extent * max_extent)[:, None, None]
    min_size = (_MIN_SIZE * max_extent)[:, None]

    # SmoothL1 targets, pair structure and pair frame: rebuilt every step or kept from the first
    frozen = {}
    active = np.ones(B, dtype=bool)

    def evaluate(gradient):
        warn = active & weighs if sim_cfg.warn_kinks and gradient else None
        args = (G, coords, weights, cou_cfg, gradient)
        values, grad, evaluation, targets = _composite(*args, keep=keep, warn=warn, **frozen)
        if not (sim_cfg.recompute_assignments or frozen):
            structure, frame = (evaluation.structure, evaluation.frame) if evaluation else (None, None)
            frozen.update(targets=targets, structure=structure, frame=frame)
        return targets, values[2], grad

    intended = [d.intended_targets for d in descents]
    outcome: list[SimResult | CrowdLossError | None] = [None] * B
    losses = np.empty((steps + 1, B))
    for step_idx in range(steps):
        targets, losses[step_idx], grad = evaluate(gradient=True)
        if step_idx == 0:
            intended = [t if t is not None else s.tolist() for t, s in zip(intended, targets)]
            limit = np.maximum(sim_cfg.divergence_factor * losses[0], 1e-6)
        for b in np.flatnonzero(active & (losses[step_idx] > limit)).tolist():
            curve = losses[: step_idx + 1, b].tolist()
            partial = _summarize(coords[b], G[b], intended[b], curve, step_idx, aborted=True)
            outcome[b] = DivergenceError(
                f"loss {curve[-1]:.6g} exceeded {limit[b]:.6g} at step {step_idx}",
                partial_result=partial,
            )
            active[b] = False
        with np.errstate(over="ignore", invalid="ignore"):  # valid_boxes reports a non-finite box below
            if sim_cfg.gradient_noise > 0.0:
                grad = grad + np.array([rng.normal(0.0, sim_cfg.gradient_noise, (N, 4)) for rng in rngs])
            moved = _project_min_size(coords - step * grad, min_size)
        for b in np.flatnonzero(active & ~valid_boxes(moved).all(axis=1)).tolist():
            try:
                check_boxes(moved[b])
            except InvalidInputError as exc:
                outcome[b] = exc
            active[b] = False
        np.copyto(coords, moved, where=active[:, None, None])
        if not active.any():
            return outcome

    losses[steps] = evaluate(gradient=False)[1]
    for b in np.flatnonzero(active).tolist():
        outcome[b] = _summarize(coords[b], G[b], intended[b], losses[:, b].tolist(), steps)
    return outcome


def descend_variants(
    variants: dict[str, CompositeConfig],
    seeds,
    sim_cfg: SimConfig | None = None,
    cou_cfg: CouLossConfig | None = None,
) -> list[tuple[int, Scene | None, dict[str, SimResult | CrowdLossError]]]:
    """``(seed, scene, {variant: result or error})`` per seed, all descended as one batch.

    Seed ``s`` draws the scene, the proposals and the noise from ``s``,
    ``s + 1`` and ``s + 2``; each proposal's intended target is the pedestrian
    it was spawned from. A seed whose scene cannot be made ends the list, its
    error standing for every variant.
    """
    sim_cfg = sim_cfg or SimConfig()
    seeded, descents = [], []
    for seed in seeds:
        try:
            scene = generate_scene(sim_cfg, seed)
            proposals = spawn_proposals(scene, sim_cfg, seed + 1)
        except CrowdLossError as exc:
            seeded.append((seed, None, exc))
            break
        targets = [gi for gi in range(len(scene.pedestrians)) for _ in range(sim_cfg.proposals_per_gt)]
        seeded.append((seed, scene, None))
        descents.extend(Descent(scene, proposals, c, seed + 2, targets) for c in variants.values())
    results = iter(run_descents(descents, cou_cfg, sim_cfg))
    return [
        (seed, scene, {name: error or next(results) for name in variants})
        for seed, scene, error in seeded
    ]


def score_detections(scene: Scene, boxes: list[BBox], scene_id: str) -> list[Detection]:
    """Turn final boxes into detections scored by best IoU with any ground truth.

    Stand-in for a classifier: confidence mirrors localization quality,
    which is what the NMS-threshold sensitivity question is about.
    """
    scores = np.max(iou_matrix(box_array(scene.gt_boxes), box_array(boxes)), axis=0, initial=0.0)
    return [Detection(box, score, scene_id) for box, score in zip(boxes, scores.tolist())]


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


def standard_variants(base: CompositeConfig | None = None) -> dict[str, CompositeConfig]:
    """The four ablation variants of ``base``: baseline, full, attraction-only,
    repulsion-only. Each sets both CouLoss term flags, so ``base``'s are not read."""
    both = replace(base or CompositeConfig(), include_attraction=True, include_repulsion=True)
    return {
        "baseline": replace(both, alpha=0.0),
        "couloss": both,
        "only_att": replace(both, include_repulsion=False),
        "only_rep": replace(both, include_attraction=False),
    }


_VARIANTS = tuple(standard_variants())
# the rule for a variant list, in [run] and [nms]
VARIANT_LIST = (lambda v: 0 < len(set(v) & set(_VARIANTS)) == len(v),
                f"non-empty, each one of {', '.join(_VARIANTS)} at most once")
DEFAULT_NMS_THRESHOLDS = tuple(round(0.3 + 0.05 * k, 2) for k in range(11))


@dataclass(frozen=True)
class NmsSweepConfig:
    thresholds: tuple[float, ...] = DEFAULT_NMS_THRESHOLDS  # swept in this order
    match_iou: float = 0.5
    variants: tuple[str, ...] = _VARIANTS[:2]  # the baseline and the full CouLoss

    def __post_init__(self):
        freeze(self, "thresholds", "variants")
        ok, rule = _NMS_THRESHOLD
        check(self, ("thresholds",), lambda v: bool(v) and all(map(ok, v)), f"non-empty, each {rule}")
        check(self, ("thresholds",), lambda v: len(set(v)) == len(v), f"non-empty, each {rule}, at most once")
        check(self, ("variants",), *VARIANT_LIST)
        check(self, ("match_iou",), *_MATCH_IOU)


def nms_sensitivity_experiment(
    variants: dict[str, CompositeConfig],
    seeds: list[int],
    sim_cfg: SimConfig | None = None,
    cou_cfg: CouLossConfig | None = None,
    thresholds=NmsSweepConfig.thresholds,
    match_iou: float = NmsSweepConfig.match_iou,
) -> NmsSweepResult:
    """Miss/false-positive counts per NMS threshold for each loss variant.

    Every variant descends the same seeded scenes and proposals; the final
    boxes are scored, suppressed at each threshold, and matched against the
    ground truths. The per-variant spread (max - min) and variance of miss
    counts across thresholds quantify threshold sensitivity.
    """
    named = SimpleNamespace(variants=variants, seeds=seeds, thresholds=thresholds)
    check(named, ("variants", "seeds", "thresholds"), len, "non-empty")
    check(named, ("thresholds",), lambda v: len(set(v)) == len(v), "without a repeated value")
    per_variant_dets: dict[str, list[tuple[Scene, list[Detection]]]] = {
        name: [] for name in variants
    }
    for seed, scene, results in descend_variants(variants, seeds, sim_cfg, cou_cfg):
        for name, result in results.items():
            if isinstance(result, CrowdLossError):
                raise result
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
    lines = [("extent", scene.extent)]
    lines += [("ped", p.full.as_tuple() + p.visible.as_tuple()) for p in scene.pedestrians]
    lines += [("distractor", d.as_tuple()) for d in scene.distractors]
    with open(path, "w") as fh:
        for kind, values in lines:
            fh.write(" ".join([kind, *(str(_plain(v)) for v in values)]) + "\n")


def load_scene(path) -> Scene:
    extent = None
    peds = []
    distractors = []
    lines = []  # (line, pedestrians, distractors) of each box line
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                continue
            kind, args = parts[0], parts[1:]
            with at_line(path, lineno):
                if kind == "extent" and len(args) == 2:
                    if extent is not None:
                        raise InvalidInputError("repeated extent header")
                    extent = (float(args[0]), float(args[1]))
                    Scene(extent=extent, pedestrians=[])
                elif kind == "ped" and len(args) == 8:
                    vals = [float(a) for a in args]
                    peds.append(Pedestrian(BBox(*vals[:4]), BBox(*vals[4:])))
                    lines.append((lineno, peds[-1:], []))
                elif kind == "distractor" and len(args) == 4:
                    distractors.append(BBox(*(float(a) for a in args)))
                    lines.append((lineno, [], distractors[-1:]))
                else:
                    raise InvalidInputError(f"unrecognized scene line {raw!r}")
    if extent is None:
        raise InvalidInputError(f"{path}: missing extent header")
    try:
        return Scene(extent=extent, pedestrians=peds, distractors=distractors)
    except ValueError:  # find the first bad box's line: a one-box Scene checks it against the extent
        for lineno, line_peds, line_distractors in lines:
            with at_line(path, lineno):
                Scene(extent=extent, pedestrians=line_peds, distractors=line_distractors)
        raise
