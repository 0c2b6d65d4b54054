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
from itertools import compress
from typing import NamedTuple

import numpy as np

from . import geometry
from ._pairs import PairWork, Pairs, best_gt, box_array, iou_matrix, pair_work
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
        return _structure(box_array(gts)[None], box_array(proposals)[None], cfg or CouLossConfig())[0]

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


def _structure(gts: np.ndarray, proposals: np.ndarray, cfg: CouLossConfig, ranked=None, keep=None):
    """The pair structure of B scenes' ``(B, M, 4)`` ground truths and
    ``(B, N, 4)`` proposals, and their ``(B, M, N)`` IoU matrix.

    A proposal is assigned to its max-IoU ground truth when that IoU exceeds
    the positive threshold and its center lies inside that ground truth.
    ``ranked`` is ``best_gt(gts, proposals)`` when already computed. Pairs run
    in (kind, scene, gt, proposal) order and index the stacked ``(B*M, 4)``
    ground truths and ``(B*N, 4)`` proposals, so each scene's pairs keep their
    single-scene order. ``keep`` ((2, B) bool) builds only the attraction and
    repulsion pairs of the scenes it marks; by default all of them.
    """
    if gts.shape[1] == 0:
        raise InvalidInputError("at least one ground-truth box is required")
    iou, best, best_v = ranked or best_gt(gts, proposals)
    B, M, N = iou.shape
    g = gts[np.arange(B)[:, None], best]
    c = (proposals[..., :2] + proposals[..., 2:]) / 2.0
    inside = ((g[..., :2] <= c) & (c <= g[..., 2:])).all(axis=-1)
    target = np.where((best_v > cfg.positive_iou_threshold) & inside, best, -1)
    assigned = target >= 0
    positive = target[:, None, :] == np.arange(M)[:, None]
    negative = assigned[:, None, :] & ~positive & (iou > 0.0)
    # a pair of g exists only if g has both positives and negatives; it sits in
    # |negatives(g)| triplets as an attraction pair, |positives(g)| as a repulsion pair
    kinds = np.array([positive, negative])
    counts = kinds.sum(axis=3)[::-1]
    exists = kinds & (counts > 0)[..., None]
    if keep is not None:
        exists &= keep[:, :, None, None]
    kind, scene, gt, prop = np.nonzero(exists)
    stacked = target + M * np.arange(B)[:, None]
    structure = TripletStructure(
        pairs=Pairs(M * scene + gt, N * scene + prop, stacked[scene, prop], counts[kind, scene, gt]),
        num_attraction=len(kind) - int(kind.sum()),
        assigned=(np.flatnonzero(assigned), stacked[assigned], best_v[assigned]),
    )
    return structure, iou


def _pair_iou(iou: np.ndarray, pairs: Pairs) -> np.ndarray:
    """The pairs' entries of a ``(B, M, N)`` IoU matrix."""
    B, M, N = iou.shape
    return iou.reshape(B * M, N)[pairs.gt, pairs.proposal % N]


class _Evaluation(NamedTuple):
    """One kernel evaluation of B scenes' boxes. ``iou`` is their IoU matrix if
    the structure was built from them; ``sums`` ((2, B)) holds each scene's
    attraction and repulsion work, its pairs added left to right."""

    structure: TripletStructure
    iou: np.ndarray | None
    work: PairWork
    sums: np.ndarray


def _evaluate(gts, proposals, cfg, structure=None, ranked=None, gradient=False, keep=None, warn=None):
    """The :class:`_Evaluation` of B scenes' ``(B, M, 4)`` and ``(B, N, 4)``
    boxes, from one kernel call; the structure is built from the boxes, with
    ``keep``, when not given. Each scene that ``warn`` ((B,) bool) marks raises
    one :class:`KinkWarning` if its boxes sit near a non-differentiable point.
    """
    iou = None
    if structure is None:
        structure, iou = _structure(gts, proposals, cfg, ranked, keep)
    literal = cfg.aggregation_mode == "triplet-literal"
    args = (structure.pairs, structure.num_attraction, cfg.iou_floor)
    pair_iou = None if iou is None else _pair_iou(iou, structure.pairs)
    work = pair_work(
        gts.reshape(-1, 4), proposals.reshape(-1, 4), *args,
        literal=literal, gradient=gradient, iou=pair_iou,
    )
    if warn is not None and warn.any():
        kinks = _kinks(gts, proposals, cfg, cfg.kink_tolerance, structure, iou, work)
        for lines in compress(kinks, warn):
            if lines:
                warnings.warn(
                    f"gradient evaluated near {len(lines)} non-differentiable point(s): {lines[0]}",
                    KinkWarning,
                    stacklevel=4,
                )
    B, N = proposals.shape[:2]
    weighted = work.work * structure.pairs.mult if literal else work.work
    scene, ka = structure.pairs.proposal // N, structure.num_attraction
    sums = [np.bincount(scene[k], weighted[k], minlength=B) for k in (slice(ka), slice(ka, None))]
    return _Evaluation(structure, iou, work, np.array(sums))


def _couloss(parts, evaluation: _Evaluation, num_gts: int, gradient=False):
    """Attraction sums, repulsion sums and losses of B scenes with ``num_gts``
    ground truths each, each ``(B,)``, and with ``gradient`` their ``(B, N, 4)``
    gradients (else None), from an ``_evaluate`` of their boxes.

    ``parts`` ((2, B) bool) switches attraction and repulsion on per scene;
    against one scene's evaluation it gives B variants of that scene.
    """
    att, rep = np.where(parts, evaluation.sums, 0.0)
    losses = (att, rep, att / num_gts + rep / num_gts)
    if not gradient:
        return losses, None
    work, scenes = evaluation.work, evaluation.sums.shape[1]
    grad_att, grad_rep = (
        np.where(on[:, None, None], grad.reshape(scenes, -1, 4), 0.0)
        for on, grad in zip(parts, (work.grad_attraction, work.grad_repulsion))
    )
    return losses, grad_att / num_gts + grad_rep / num_gts


def _scene_loss(gts, proposals, cfg, structure, parts, gradient=False, warn_kinks=False):
    """The :class:`LossReport` of one scene's boxes and, with ``gradient``, its
    ``(N, 4)`` gradient (else None)."""
    if not gts:
        raise InvalidInputError("couloss requires at least one ground-truth box")
    cfg = cfg or CouLossConfig()
    G, P = box_array(gts)[None], box_array(proposals)[None]
    evaluation = _evaluate(G, P, cfg, structure, gradient=gradient, warn=np.array([warn_kinks]))
    losses, grad = _couloss(np.array(parts)[:, None], evaluation, len(gts), gradient)
    return _loss_report(cfg, len(gts), evaluation, losses), None if grad is None else grad[0]


def _loss_report(cfg: CouLossConfig, num_gts: int, evaluation, losses) -> LossReport:
    """The :class:`LossReport` of one scene from its ``_evaluate`` and ``_couloss`` sums."""
    att, rep, total = (float(x[0]) for x in losses)
    return LossReport(
        total=total,
        attractive_work=att,
        repulsive_work=rep,
        mode=cfg.aggregation_mode,
        num_gts=num_gts,
        structure=evaluation.structure,
        pair_work=evaluation.work.work,
    )


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
    return _scene_loss(gts, proposals, cfg, structure, (include_attraction, include_repulsion))[0]


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
    parts = (include_attraction, include_repulsion)
    return _scene_loss(gts, proposals, cfg, structure, parts, True, warn_kinks)[1]


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
    G, P = box_array(gts)[None], box_array(proposals)[None]
    return _kinks(G, P, cfg, tol, *_evaluate(G, P, cfg, structure)[:3])[0]


def _kinks(G: np.ndarray, P: np.ndarray, cfg: CouLossConfig, tol: float, structure, iou, work):
    """``detect_kinks`` of B scenes' boxes, one list per scene, from the
    structure and pair work of an evaluation; ``iou`` is the ``(B, M, N)`` IoU
    matrix of the boxes, or None to compute it."""
    if iou is None:
        iou = iou_matrix(G, P)
    B, M, N = iou.shape
    G, P = G.reshape(-1, 4), P.reshape(-1, 4)

    def near(a, b, scale=1.0):
        return np.abs(a - b) <= tol * scale

    # per proposal: switches of the assignment
    ranked = np.sort(iou, axis=1)[:, ::-1].transpose(1, 0, 2).reshape(M, B * N)
    second = ranked[1] if M > 1 else np.inf
    target = np.full(B * N, -1)
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
    out = [[] for _ in range(B)]
    proposal = np.arange(B * N)
    _report(out, proposal // N, "proposal {}", (proposal % N,), checks)

    # per pair, attraction pairs first: switches inside the work terms
    pairs = structure.pairs
    repulsive = np.arange(len(pairs.gt)) >= structure.num_attraction
    g, p = G.T[:, pairs.gt], P.T[:, pairs.proposal]
    v = _pair_iou(iou, pairs)
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
    fields = (kind, pairs.gt % M, pairs.proposal % N)
    _report(out, pairs.proposal // N, "{} pair (gt {}, proposal {})", fields, checks)
    return out


def _report(out: list[list[str]], owner, label: str, fields, checks) -> None:
    """Append ``label: text`` for each flagged item to the list ``out[owner[item]]``,
    items in order, each item's checks in order."""
    flagged = np.zeros(len(owner), dtype=bool)
    for mask, _ in checks:
        flagged |= mask
    for k in np.flatnonzero(flagged).tolist():
        prefix = label.format(*(f[k] for f in fields))
        out[owner[k]].extend(f"{prefix}: {text}" for mask, text in checks if mask[k])
