"""Work-formula regression regulator for crowded scenes.

Each proposal is attracted by its target box and repelled by overlapping
non-target boxes. Force magnitudes are log-IoU terms, the useful component
is taken via the law of cosines, and the per-triplet contribution is the
mechanical work ``F * cos(theta) * s`` with non-positive work ignored.

Assignment and pairs come from one (gt, proposal) IoU matrix, pair terms from
the numpy kernel in ``_pairs``; triplets are built only when asked for.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry
from ._pairs import Pairs, best_gt, box_array, iou_matrix, ordered_sum, pair_work
from .errors import InvalidInputError, NoOverlapError
from .geometry import BBox

AGGREGATION_MODES = ("deduplicated", "triplet-literal")


class KinkWarning(UserWarning):
    """A gradient was evaluated near a non-differentiable point."""


@dataclass(frozen=True)
class CouLossConfig:
    positive_iou_threshold: float = 0.5
    iou_floor: float = 1e-6
    aggregation_mode: str = "deduplicated"
    kink_tolerance: float = 1e-6

    def __post_init__(self):
        if not 0.0 < self.positive_iou_threshold < 1.0:
            raise InvalidInputError(
                f"positive_iou_threshold must be in (0, 1), got {self.positive_iou_threshold}"
            )
        if not 0.0 < self.iou_floor < 1.0:
            raise InvalidInputError(f"iou_floor must be in (0, 1), got {self.iou_floor}")
        if self.aggregation_mode not in AGGREGATION_MODES:
            raise InvalidInputError(
                f"aggregation_mode must be one of {AGGREGATION_MODES}, got {self.aggregation_mode!r}"
            )


@dataclass(frozen=True)
class Assignment:
    proposal_index: int
    target_gt_index: int
    iou_with_target: float


@dataclass(frozen=True)
class Triplet:
    gt_index: int
    positive_index: int
    negative_index: int


@dataclass(frozen=True)
class TripletWork:
    triplet: Triplet
    attractive: float
    repulsive: float


@dataclass(frozen=True, eq=False)
class TripletStructure:
    """Assignment and pair topology, reusable across descent steps.

    ``pairs`` holds the ``num_attraction`` attraction pairs (g, positive),
    then the repulsion pairs (g, negative), each group sorted. ``assigned``
    holds the assigned proposals, their targets and IoUs. ``assignments``,
    ``target_of`` and ``triplets`` are computed on first access.
    """

    pairs: Pairs
    num_attraction: int
    assigned: tuple[np.ndarray, np.ndarray, np.ndarray]

    @classmethod
    def build(cls, triplets, assignments):
        """Structure of explicit triplets; pair multiplicities are counted from them."""
        triplets, assignments = tuple(triplets), tuple(assignments)
        target_of = {a.proposal_index: a.target_gt_index for a in assignments}
        att = Counter((t.gt_index, t.positive_index) for t in triplets)
        rep = Counter((t.gt_index, t.negative_index) for t in triplets)
        rows = [(gi, pi, gi, att[gi, pi]) for gi, pi in sorted(att)]
        rows += [(gi, pi, target_of[pi], rep[gi, pi]) for gi, pi in sorted(rep)]
        targets = [(a.proposal_index, a.target_gt_index) for a in assignments]
        assigned = np.array(targets, dtype=np.intp).reshape(-1, 2).T
        structure = cls(
            pairs=Pairs(*np.array(rows, dtype=np.intp).reshape(-1, 4).T),
            num_attraction=len(att),
            assigned=(*assigned, np.array([a.iou_with_target for a in assignments], dtype=float)),
        )
        # already known: fill the cached properties
        structure.__dict__.update(triplets=triplets, assignments=assignments, target_of=target_of)
        return structure

    @classmethod
    def from_boxes(cls, gts: list[BBox], proposals: list[BBox], cfg: CouLossConfig | None = None):
        """Assign proposals and derive the pairs without enumerating triplets."""
        return _structure(box_array(gts), box_array(proposals), cfg or CouLossConfig())[0]

    @cached_property
    def assignments(self) -> tuple[Assignment, ...]:
        return tuple(Assignment(*a) for a in zip(*(x.tolist() for x in self.assigned)))

    @cached_property
    def target_of(self) -> dict[int, int]:
        return dict(zip(self.assigned[0].tolist(), self.assigned[1].tolist()))

    @cached_property
    def triplets(self) -> tuple[Triplet, ...]:
        keys, ka = self.pairs.keys(), self.num_attraction
        negatives: dict[int, list[int]] = {}
        for gi, pn in keys[ka:]:
            negatives.setdefault(gi, []).append(pn)
        return tuple(Triplet(gi, pp, pn) for gi, pp in keys[:ka] for pn in negatives.get(gi, ()))


@dataclass(frozen=True)
class LossReport:
    """CouLoss value with its attraction/repulsion split.

    ``attractive_work`` and ``repulsive_work`` are the un-normalized
    component sums under the chosen aggregation mode;
    ``total == attractive_work / num_gts + repulsive_work / num_gts``.
    ``per_triplet`` lists both work terms of every triplet of ``structure``
    and is computed on first access.
    """

    total: float
    attractive_work: float
    repulsive_work: float
    mode: str
    num_gts: int
    structure: TripletStructure = field(repr=False, compare=False)
    pair_work: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def per_triplet(self) -> tuple[TripletWork, ...]:
        keys, ka = self.structure.pairs.keys(), self.structure.num_attraction
        work = self.pair_work.tolist()
        att, rep = dict(zip(keys[:ka], work[:ka])), dict(zip(keys[ka:], work[ka:]))
        return tuple(
            TripletWork(t, att[(t.gt_index, t.positive_index)], rep[(t.gt_index, t.negative_index)])
            for t in self.structure.triplets
        )


def _structure(gts: np.ndarray, proposals: np.ndarray, cfg: CouLossConfig, ranked=None):
    """The pair structure of the boxes, and their IoU matrix.

    A proposal is assigned to its max-IoU ground truth when that IoU exceeds
    the positive threshold and its center lies inside that ground truth.
    ``ranked`` is ``best_gt(gts, proposals)`` when already computed.
    """
    if gts.shape[0] == 0:
        raise InvalidInputError("at least one ground-truth box is required")
    iou, best, best_v = ranked or best_gt(gts, proposals)
    p, g = proposals.T, gts.T[:, best]
    c = (p[:2] + p[2:]) / 2.0
    inside = ((g[:2] <= c) & (c <= g[2:])).all(axis=0)
    target = np.where((best_v > cfg.positive_iou_threshold) & inside, best, -1)
    assigned = target >= 0
    positive = target == np.arange(gts.shape[0])[:, None]
    negative = assigned & ~positive & (iou > 0.0)
    # a pair of g exists only if g has both positives and negatives; it sits in
    # |negatives(g)| triplets as an attraction pair, |positives(g)| as a repulsion pair
    counts = np.array([negative.sum(axis=1), positive.sum(axis=1)])
    kind, gt, prop = np.nonzero(np.array([positive, negative]) & (counts > 0)[:, :, None])
    structure = TripletStructure(
        pairs=Pairs(gt, prop, target[prop], counts[kind, gt]),
        num_attraction=len(kind) - int(kind.sum()),
        assigned=(np.flatnonzero(assigned), target[assigned], best_v[assigned]),
    )
    return structure, iou


def _evaluate(gts: np.ndarray, proposals: np.ndarray, cfg, structure, ranked=None, gradient=False):
    """The structure (built from the boxes when not given), the IoU matrix if
    that build made one, and the kernel's pair work."""
    iou = None
    if structure is None:
        structure, iou = _structure(gts, proposals, cfg, ranked)
    literal = cfg.aggregation_mode == "triplet-literal"
    args = (structure.pairs, structure.num_attraction, cfg.iou_floor)
    work = pair_work(gts, proposals, *args, literal=literal, gradient=gradient, iou=iou)
    return structure, iou, work


def _couloss(
    gts, proposals, cfg, structure, parts, *, ranked=None, gradient=False, warn_kinks=False,
    evaluation=None,
):
    """The loss report of box arrays and, with ``gradient``, its ``(N, 4)``
    gradient (else None), both from one kernel call.

    ``parts`` switches (attraction, repulsion) on or off. ``ranked`` is
    ``best_gt(gts, proposals)`` when already computed; with ``warn_kinks``
    the kink check reuses that IoU matrix and the pair work. ``evaluation``
    is an ``_evaluate`` of these boxes (same ``gradient``) to use instead.
    """
    if gts.shape[0] == 0:
        raise InvalidInputError("couloss requires at least one ground-truth box")
    structure, iou, work = evaluation or _evaluate(gts, proposals, cfg, structure, ranked, gradient)
    if warn_kinks:
        kinks = _kinks(gts, proposals, cfg, cfg.kink_tolerance, structure, iou, work)
        if kinks:
            warnings.warn(
                f"gradient evaluated near {len(kinks)} non-differentiable point(s): {kinks[0]}",
                KinkWarning,
                stacklevel=3,
            )
    literal = cfg.aggregation_mode == "triplet-literal"
    weighted = work.work * structure.pairs.mult if literal else work.work
    ka = structure.num_attraction
    att_sum = ordered_sum(weighted[:ka]) if parts[0] else 0.0
    rep_sum = ordered_sum(weighted[ka:]) if parts[1] else 0.0
    n = gts.shape[0]
    report = LossReport(
        total=att_sum / n + rep_sum / n,
        attractive_work=att_sum,
        repulsive_work=rep_sum,
        mode=cfg.aggregation_mode,
        num_gts=n,
        structure=structure,
        pair_work=work.work,
    )
    if not gradient:
        return report, None
    zero = np.zeros((proposals.shape[0], 4))
    grad_att = work.grad_attraction if parts[0] else zero
    grad_rep = work.grad_repulsion if parts[1] else zero
    return report, grad_att / n + grad_rep / n


def attractive_force(g: BBox, p: BBox, cfg: CouLossConfig | None = None) -> float:
    """Pull magnitude between a proposal and its target: -ln(IoU).

    Decreasing in IoU; zero for a perfect overlap. Raises
    :class:`NoOverlapError` when the boxes are disjoint (the force is only
    defined on overlapping pairs).
    """
    cfg = cfg or CouLossConfig()
    v = geometry.iou(g, p)
    if v <= 0.0:
        raise NoOverlapError("attractive force undefined for non-overlapping boxes")
    return -math.log(max(v, cfg.iou_floor))


def repulsive_force(g: BBox, p: BBox, cfg: CouLossConfig | None = None) -> float:
    """Push magnitude between a proposal and a non-target: -ln(1 - IoU)."""
    cfg = cfg or CouLossConfig()
    v = geometry.iou(g, p)
    if v <= 0.0:
        raise NoOverlapError("repulsive force undefined for non-overlapping boxes")
    return -math.log(max(1.0 - v, cfg.iou_floor))


def effective_cos(g_i: BBox, p_n: BBox, g_j: BBox) -> tuple[float, float]:
    """Direction factors of the effective forces for one triplet.

    Attraction always points the right way (theta = 0), so its factor is 1.
    The repulsive factor is the cosine of the angle at the center of the
    non-target ``g_i`` between the negative proposal's center and the center
    of its own target ``g_j``.
    """
    cos_r = geometry.cos_angle_at(
        geometry.center(g_i), geometry.center(p_n), geometry.center(g_j)
    )
    return 1.0, cos_r


def work_terms(
    g_i: BBox, p_p: BBox, p_n: BBox, g_j: BBox, cfg: CouLossConfig | None = None
) -> tuple[float, float]:
    """Attractive and repulsive work for the triplet (g_i, p_p, p_n).

    ``g_j`` is the target of ``p_n``. Both border-distance factors are
    measured against ``g_i``. Non-positive raw work is clamped to zero.
    """
    cfg = cfg or CouLossConfig()
    # gts (g_i, g_j), proposals (p_p, p_n): attraction pair (0, 0), repulsion pair (0, 1)
    pairs = Pairs(*(np.array(a, dtype=np.intp) for a in ([0, 0], [0, 1], [0, 1], [1, 1])))
    work = pair_work(
        box_array([g_i, g_j]), box_array([p_p, p_n]), pairs, 1, cfg.iou_floor, literal=False
    ).work
    return float(work[0]), float(work[1])


def assign_proposals(
    gts: list[BBox], proposals: list[BBox], cfg: CouLossConfig | None = None
) -> list[Assignment]:
    """Assign each proposal to its max-IoU ground truth.

    A proposal is assigned only if the best IoU exceeds the positive
    threshold and the proposal's center falls inside that ground truth.
    Ties break toward the lowest ground-truth index.
    """
    return list(TripletStructure.from_boxes(gts, proposals, cfg).assignments)


def assemble_triplets(
    gts: list[BBox], proposals: list[BBox], cfg: CouLossConfig | None = None
) -> tuple[list[Triplet], list[Assignment]]:
    """Enumerate (target, positive, negative) triplets.

    For every ground truth G_i, pairs each proposal assigned to G_i with
    each proposal assigned elsewhere that still overlaps G_i (repulsion only
    exists where there is an overlap).
    """
    structure = TripletStructure.from_boxes(gts, proposals, cfg)
    return list(structure.triplets), list(structure.assignments)


def couloss(
    gts: list[BBox],
    proposals: list[BBox],
    cfg: CouLossConfig | None = None,
    *,
    include_attraction: bool = True,
    include_repulsion: bool = True,
    structure: TripletStructure | None = None,
) -> LossReport:
    """Total work-formula loss over a scene, normalized by the GT count.

    ``structure`` may carry a previously built assignment/pair topology
    (frozen-assignment descent); by default it is rebuilt from the current
    boxes. The attraction/repulsion switches zero out one component while
    keeping the other bit-identical to the full computation.
    """
    parts = (include_attraction, include_repulsion)
    return _couloss(box_array(gts), box_array(proposals), cfg or CouLossConfig(), structure, parts)[0]


def couloss_gradient(
    gts: list[BBox],
    proposals: list[BBox],
    cfg: CouLossConfig | None = None,
    *,
    include_attraction: bool = True,
    include_repulsion: bool = True,
    structure: TripletStructure | None = None,
    warn_kinks: bool = False,
) -> np.ndarray:
    """Analytic d(couloss)/d(proposal coordinates), shape (N, 4).

    Ground-truth boxes and the assignment topology are treated as constants;
    clamped or ignored terms contribute exactly zero gradient. With
    ``warn_kinks`` a :class:`KinkWarning` is emitted when any sub-expression
    sits within ``cfg.kink_tolerance`` (relative) of a non-differentiable
    switch.
    """
    g, p, parts = box_array(gts), box_array(proposals), (include_attraction, include_repulsion)
    cfg = cfg or CouLossConfig()
    return _couloss(g, p, cfg, structure, parts, gradient=True, warn_kinks=warn_kinks)[1]


def detect_kinks(
    gts: list[BBox],
    proposals: list[BBox],
    cfg: CouLossConfig | None = None,
    tolerance: float | None = None,
    structure: TripletStructure | None = None,
) -> list[str]:
    """Report sub-expressions close to a non-differentiable switch.

    Checks assignment boundaries (IoU threshold, argmax ties, center-inside
    flips), overlap-existence boundaries, min()/abs() switches and clamp
    edges inside the border-distance factor, the W <= 0 clamp, log floors,
    and degenerate angle configurations. Distance tolerances are relative to
    the ground-truth box extents.
    """
    cfg = cfg or CouLossConfig()
    tol = cfg.kink_tolerance if tolerance is None else tolerance
    G, P = box_array(gts), box_array(proposals)
    return _kinks(G, P, cfg, tol, *_evaluate(G, P, cfg, structure))


def _kinks(G: np.ndarray, P: np.ndarray, cfg: CouLossConfig, tol: float, structure, iou, work):
    """``detect_kinks`` from the structure and pair work of an evaluation;
    ``iou`` is the IoU matrix of the boxes, or None to compute it."""
    if iou is None:
        iou = iou_matrix(G, P)

    def near(a, b, scale=1.0):
        return np.abs(a - b) <= tol * scale

    # per proposal: switches of the assignment
    ranked = np.sort(iou, axis=0)[::-1]
    second = ranked[1] if len(ranked) > 1 else np.inf
    target = np.full(P.shape[0], -1)
    target[structure.assigned[0]] = structure.assigned[1]
    g, p = G.T[:, target], P.T
    c = (p[:2] + p[2:]) / 2.0
    wh = g[2:] - g[:2]
    on_border = (target >= 0) & (near(c, g[:2], wh) | near(c, g[2:], wh)).any(axis=0)
    checks = (
        (near(ranked[0], cfg.positive_iou_threshold), "best IoU at the positive threshold"),
        ((ranked[0] > 0.0) & near(ranked[0], second), "argmax IoU tie between ground truths"),
        (on_border, "center at the boundary of its target"),
    )
    out = _report("proposal {}", (range(P.shape[0]),), checks)

    # per pair, attraction pairs first: switches inside the work terms
    pairs = structure.pairs
    repulsive = np.arange(len(pairs.gt)) >= structure.num_attraction
    g, p = G.T[:, pairs.gt], P.T[:, pairs.proposal]
    v = iou[pairs.gt, pairs.proposal]
    wh = g[2:] - g[:2]
    c = (p[:2] + p[2:]) / 2.0
    to_lo, to_hi = np.abs(c - g[:2]), np.abs(c - g[2:])
    closest = np.minimum(to_lo, to_hi)
    checks = (
        (repulsive & near(v, 0.0), "IoU at the overlap-existence boundary"),
        (near(v, cfg.iou_floor) | near(1.0 - v, cfg.iou_floor), "IoU at the log floor"),
        (near(p, g, np.concatenate([wh, wh])).any(axis=0), "intersection corner switch"),
        (near(to_lo, to_hi, wh).any(axis=0), "min(l,r) or min(t,b) tie"),
        (near(closest, 0.0, wh).any(axis=0), "center on a border line"),
        (near(1.0 - closest / (wh / 2.0), 0.0).any(axis=0), "border-distance factor at the zero clamp"),
        (repulsive & (work.angle_ray <= tol * np.maximum(wh[0], wh[1])), "degenerate angle vertex"),
        (repulsive & (np.abs(work.raw) <= tol), "work at the zero clamp"),
    )
    kind = np.where(repulsive, "repulsive", "attractive")
    return out + _report("{} pair (gt {}, proposal {})", (kind, pairs.gt, pairs.proposal), checks)


def _report(label: str, fields, checks) -> list[str]:
    """``label: text`` for each flagged item, items in order, each item's checks in order."""
    flagged = np.zeros(len(fields[0]), dtype=bool)
    for mask, _ in checks:
        flagged |= mask
    out = []
    for k in np.flatnonzero(flagged).tolist():
        prefix = label.format(*(f[k] for f in fields))
        out.extend(f"{prefix}: {text}" for mask, text in checks if mask[k])
    return out
