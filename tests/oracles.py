"""Independent straight-line oracles used to freeze expected test values.

Everything here works on plain (x1, y1, x2, y2) tuples, or reads box,
detection and anchor-set fields by name, and deliberately shares no code
with the package under test, except
:func:`five_sweep_check_scene`, which drives the package's public losses, and
:func:`per_point_finite_difference`, which drives its gradcheck terms.
"""

import math
import sys

from collections import namedtuple

import numpy as np


_Box = namedtuple("_Box", "x1 y1 x2 y2")


def tuple_iou(a, b):
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def raster_iou(a, b, scale=1):
    """Pixel-counting IoU for integer-coordinate boxes.

    Rasterizes both boxes onto a unit grid (optionally refined by ``scale``)
    and counts cells. Exact for integer boxes with scale=1.
    """
    ax1, ay1, ax2, ay2 = (int(round(v * scale)) for v in a)
    bx1, by1, bx2, by2 = (int(round(v * scale)) for v in b)
    x_lo = min(ax1, bx1)
    x_hi = max(ax2, bx2)
    y_lo = min(ay1, by1)
    y_hi = max(ay2, by2)
    inter = 0
    union = 0
    for x in range(x_lo, x_hi):
        for y in range(y_lo, y_hi):
            in_a = ax1 <= x < ax2 and ay1 <= y < ay2
            in_b = bx1 <= x < bx2 and by1 <= y < by2
            if in_a and in_b:
                inter += 1
            if in_a or in_b:
                union += 1
    return inter / union if union else 0.0


def tuple_center(b):
    return ((b[0] + b[2]) / 2.0, (b[1] + b[3]) / 2.0)


def reference_ray(g, t):
    """The ray center(t) - center(g) between two ground-truth tuples and its ``math.hypot`` length."""
    (gx, gy), (tx, ty) = tuple_center(g), tuple_center(t)
    return (tx - gx, ty - gy), math.hypot(tx - gx, ty - gy)


def tuple_s(g, p):
    """Border-distance factor of p's center measured against g, with clamps."""
    cx, cy = tuple_center(p)
    wg = g[2] - g[0]
    hg = g[3] - g[1]
    l = abs(cx - g[0])
    r = abs(cx - g[2])
    t = abs(cy - g[1])
    b = abs(cy - g[3])
    fx = 1.0 - min(l, r) / (wg / 2.0)
    fy = 1.0 - min(t, b) / (hg / 2.0)
    fx = max(0.0, min(1.0, fx))
    fy = max(0.0, min(1.0, fy))
    return math.sqrt(fx * fy)


def tuple_cos(vertex, a, c):
    """Law-of-cosines cos of the angle at ``vertex`` toward points a and c."""
    d2 = lambda p, q: (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
    ba = d2(vertex, a)
    bc = d2(vertex, c)
    ac = d2(a, c)
    if ba == 0 or bc == 0:
        return 1.0
    cos = (ba + bc - ac) / (2.0 * math.sqrt(ba) * math.sqrt(bc))
    return max(-1.0, min(1.0, cos))


def brute_force_couloss(gts, proposals, iou_threshold=0.5, eps=1e-6, mode="deduplicated"):
    """Straight-line evaluation of the force/work/loss pipeline.

    Returns (total, attractive_sum, repulsive_sum, triplets) where the sums
    are un-normalized and triplets is the list of (i, p, n) index triples.
    """
    # assignment: argmax IoU, threshold, center-inside filter
    assigned = {}
    for pi, p in enumerate(proposals):
        best_i, best_v = -1, -1.0
        for gi, g in enumerate(gts):
            v = tuple_iou(g, p)
            if v > best_v:
                best_i, best_v = gi, v
        if best_v > iou_threshold:
            g = gts[best_i]
            cx, cy = tuple_center(p)
            if g[0] <= cx <= g[2] and g[1] <= cy <= g[3]:
                assigned[pi] = best_i

    triplets = []
    for gi in range(len(gts)):
        positives = [pi for pi, t in assigned.items() if t == gi]
        negatives = [
            pi
            for pi, t in assigned.items()
            if t != gi and tuple_iou(gts[gi], proposals[pi]) > 0.0
        ]
        for pp in sorted(positives):
            for pn in sorted(negatives):
                triplets.append((gi, pp, pn))

    def w_att(gi, pp):
        v = tuple_iou(gts[gi], proposals[pp])
        fa = -math.log(max(v, eps))
        return max(0.0, fa * 1.0 * tuple_s(gts[gi], proposals[pp]))

    def w_rep(gi, pn):
        v = tuple_iou(gts[gi], proposals[pn])
        fr = -math.log(max(1.0 - v, eps))
        gj = assigned[pn]
        cos = tuple_cos(tuple_center(gts[gi]), tuple_center(proposals[pn]), tuple_center(gts[gj]))
        return max(0.0, fr * cos * tuple_s(gts[gi], proposals[pn]))

    if mode == "triplet-literal":
        att = sum(w_att(gi, pp) for gi, pp, _ in triplets)
        rep = sum(w_rep(gi, pn) for gi, _, pn in triplets)
    elif mode == "deduplicated":
        att = sum(w_att(gi, pp) for gi, pp in sorted({(t[0], t[1]) for t in triplets}))
        rep = sum(w_rep(gi, pn) for gi, pn in sorted({(t[0], t[2]) for t in triplets}))
    else:
        raise ValueError(mode)

    total = att / len(gts) + rep / len(gts)
    return total, att, rep, triplets


def _scalar_cos(vertex, a, c):
    """cos of the angle at ``vertex`` from the two ray lengths (hypot form)."""
    ux, uy = a[0] - vertex[0], a[1] - vertex[1]
    vx, vy = c[0] - vertex[0], c[1] - vertex[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0.0 or nv == 0.0:
        return 1.0
    return max(-1.0, min(1.0, (ux * vx + uy * vy) / (nu * nv)))


def _scalar_iou_grad(g, p):
    ix1 = max(g[0], p[0])
    iy1 = max(g[1], p[1])
    ix2 = min(g[2], p[2])
    iy2 = min(g[3], p[3])
    iw = ix2 - ix1
    ih = iy2 - iy1
    if iw <= 0.0 or ih <= 0.0:
        return 0.0, (0.0, 0.0, 0.0, 0.0)
    inter = iw * ih
    union = (g[2] - g[0]) * (g[3] - g[1]) + (p[2] - p[0]) * (p[3] - p[1]) - inter
    d_inter = (
        -ih if p[0] > g[0] else 0.0,
        -iw if p[1] > g[1] else 0.0,
        ih if p[2] < g[2] else 0.0,
        iw if p[3] < g[3] else 0.0,
    )
    w, h = p[2] - p[0], p[3] - p[1]
    d_area = (-h, -w, h, w)
    inv_u2 = 1.0 / (union * union)
    grad = tuple(
        (d_inter[k] * union - inter * (d_area[k] - d_inter[k])) * inv_u2 for k in range(4)
    )
    return inter / union, grad


def _scalar_factor_grad(c, lo, hi):
    half = (hi - lo) / 2.0
    d_lo = abs(c - lo)
    d_hi = abs(c - hi)
    raw = 1.0 - min(d_lo, d_hi) / half
    if raw <= 0.0:
        return 0.0, 0.0
    x = c - lo if d_lo <= d_hi else c - hi
    sign = 1.0 if x > 0.0 else (-1.0 if x < 0.0 else 0.0)
    return min(1.0, raw), -sign / half


def _scalar_s_grad(g, p):
    cx, cy = tuple_center(p)
    fx, dfx = _scalar_factor_grad(cx, g[0], g[2])
    fy, dfy = _scalar_factor_grad(cy, g[1], g[3])
    s = math.sqrt(fx * fy)
    if s == 0.0:
        return 0.0, (0.0, 0.0, 0.0, 0.0)
    dx = dfx * fy / (2.0 * s)
    dy = fx * dfy / (2.0 * s)
    return s, (0.5 * dx, 0.5 * dy, 0.5 * dx, 0.5 * dy)


def _scalar_cos_grad(vx, vy, vertex, p):
    ax, ay = tuple_center(p)
    ux = ax - vertex[0]
    uy = ay - vertex[1]
    nu = math.hypot(ux, uy)
    nv = math.hypot(vx, vy)
    if nu == 0.0 or nv == 0.0:
        return 1.0, (0.0, 0.0, 0.0, 0.0)
    dot = ux * vx + uy * vy
    cos = dot / (nu * nv)
    dax = vx / (nu * nv) - dot * ux / (nu**3 * nv)
    day = vy / (nu * nv) - dot * uy / (nu**3 * nv)
    cos = max(-1.0, min(1.0, cos))
    return cos, (0.5 * dax, 0.5 * day, 0.5 * dax, 0.5 * day)


def scalar_structure(gts, proposals, iou_threshold=0.5):
    """Triplets and the proposal -> target map, one (gt, proposal) pair at a time.

    Max-IoU assignment (ties to the lowest index) gated by the threshold
    and the center-inside test; a negative of g is a proposal assigned
    elsewhere that overlaps g.
    """
    target_of = {}
    for pi, p in enumerate(proposals):
        best_gi, best_v = 0, -1.0
        for gi, g in enumerate(gts):
            v = tuple_iou(g, p)
            if v > best_v:
                best_gi, best_v = gi, v
        g = gts[best_gi]
        cx, cy = tuple_center(p)
        if best_v > iou_threshold and g[0] <= cx <= g[2] and g[1] <= cy <= g[3]:
            target_of[pi] = best_gi
    triplets = []
    for gi in range(len(gts)):
        positives = sorted(pi for pi, t in target_of.items() if t == gi)
        negatives = sorted(
            pi for pi, t in target_of.items() if t != gi and tuple_iou(gts[gi], proposals[pi]) > 0.0
        )
        triplets.extend((gi, pp, pn) for pp in positives for pn in negatives)
    return triplets, target_of


def scalar_regression_targets(gts, proposals):
    """Max-IoU target per proposal; disjoint proposals take the nearest center."""
    out = []
    for p in proposals:
        best_gi, best_v = 0, -1.0
        for gi, g in enumerate(gts):
            v = tuple_iou(g, p)
            if v > best_v:
                best_gi, best_v = gi, v
        if best_v <= 0.0:
            px, py = tuple_center(p)
            best_gi = min(
                range(len(gts)),
                key=lambda gi: (
                    math.hypot(tuple_center(gts[gi])[0] - px, tuple_center(gts[gi])[1] - py),
                    gi,
                ),
            )
        out.append(best_gi)
    return out


def _scalar_terms(triplets, mode):
    att_mult, rep_mult = {}, {}
    for gi, pp, pn in triplets:
        att_mult[(gi, pp)] = att_mult.get((gi, pp), 0) + 1
        rep_mult[(gi, pn)] = rep_mult.get((gi, pn), 0) + 1
    if mode == "deduplicated":
        return [(k, 1) for k in sorted(att_mult)], [(k, 1) for k in sorted(rep_mult)]
    return sorted(att_mult.items()), sorted(rep_mult.items())


def _scalar_att_work(g, p, eps):
    v = tuple_iou(g, p)
    f = -math.log(max(v, eps)) if v > 0.0 else -math.log(eps)
    return max(0.0, f * tuple_s(g, p))


def _scalar_rep_work(g, p, g_target, eps):
    v = tuple_iou(g, p)
    if v <= 0.0:
        return 0.0
    f = -math.log(max(1.0 - v, eps))
    cos = _scalar_cos(tuple_center(g), tuple_center(p), tuple_center(g_target))
    return max(0.0, f * cos * tuple_s(g, p))


def scalar_couloss(
    gts, proposals, iou_threshold=0.5, eps=1e-6, mode="deduplicated",
    include_attraction=True, include_repulsion=True, structure=None,
):
    """CouLoss evaluated one pair at a time with Python floats.

    ``structure`` is ``(triplets, target_of)`` as from :func:`scalar_structure`
    and is rebuilt from the boxes when omitted. Returns ``(total,
    attractive_sum, repulsive_sum, per_triplet)`` with per_triplet a list of
    ``(gt, positive, negative, attractive_work, repulsive_work)``.
    """
    triplets, target_of = structure or scalar_structure(gts, proposals, iou_threshold)
    att_terms, rep_terms = _scalar_terms(triplets, mode)
    att_w = {(gi, pi): _scalar_att_work(gts[gi], proposals[pi], eps) for (gi, pi), _ in att_terms}
    rep_w = {
        (gi, pi): _scalar_rep_work(gts[gi], proposals[pi], gts[target_of[pi]], eps)
        for (gi, pi), _ in rep_terms
    }
    att_sum = 0.0
    rep_sum = 0.0
    if include_attraction:
        for key, mult in att_terms:
            att_sum += mult * att_w[key]
    if include_repulsion:
        for key, mult in rep_terms:
            rep_sum += mult * rep_w[key]
    per_triplet = [(gi, pp, pn, att_w[(gi, pp)], rep_w[(gi, pn)]) for gi, pp, pn in triplets]
    n = len(gts)
    return att_sum / n + rep_sum / n, att_sum, rep_sum, per_triplet


def scalar_couloss_gradient(
    gts, proposals, iou_threshold=0.5, eps=1e-6, mode="deduplicated",
    include_attraction=True, include_repulsion=True, structure=None,
):
    """d(scalar_couloss)/d(proposal coordinates) as a list of 4-lists."""
    triplets, target_of = structure or scalar_structure(gts, proposals, iou_threshold)
    att_terms, rep_terms = _scalar_terms(triplets, mode)
    grad_att = [[0.0] * 4 for _ in proposals]
    grad_rep = [[0.0] * 4 for _ in proposals]
    if include_attraction:
        for (gi, pi), mult in att_terms:
            g, p = gts[gi], proposals[pi]
            v, dv = _scalar_iou_grad(g, p)
            if v > eps:
                f = -math.log(v)
                df = tuple(-dv[k] / v for k in range(4))
            else:
                f = -math.log(eps)
                df = (0.0, 0.0, 0.0, 0.0)
            s, ds = _scalar_s_grad(g, p)
            if f * s > 0.0:
                for k in range(4):
                    grad_att[pi][k] += (df[k] * s + f * ds[k]) * mult
    if include_repulsion:
        for (gi, pi), mult in rep_terms:
            g, p = gts[gi], proposals[pi]
            v, dv = _scalar_iou_grad(g, p)
            if v <= 0.0:
                continue
            one_minus = 1.0 - v
            if one_minus > eps:
                f = -math.log(one_minus)
                df = tuple(dv[k] / one_minus for k in range(4))
            else:
                f = -math.log(eps)
                df = (0.0, 0.0, 0.0, 0.0)
            gc = tuple_center(g)
            tc = tuple_center(gts[target_of[pi]])
            cos, dcos = _scalar_cos_grad(tc[0] - gc[0], tc[1] - gc[1], gc, p)
            s, ds = _scalar_s_grad(g, p)
            if f * cos * s > 0.0:
                for k in range(4):
                    grad_rep[pi][k] += (
                        df[k] * cos * s + f * dcos[k] * s + f * cos * ds[k]
                    ) * mult
    n = len(gts)
    return [[a / n + r / n for a, r in zip(ga, gr)] for ga, gr in zip(grad_att, grad_rep)]


def _scalar_smooth_l1(p, t, beta):
    total = 0.0
    for k in range(4):
        d = p[k] - t[k]
        a = abs(d)
        total += 0.5 * d * d / beta if a < beta else a - 0.5 * beta
    return total


def scalar_spawn_proposals(scene, sim, seed):
    """The jittered proposals of ``simulator.spawn_proposals`` as tuples, drawn
    one ``rng.normal`` per center coordinate and log side, proposal by proposal."""
    rng = np.random.default_rng(seed)
    ew, eh = scene.extent
    min_size = 1e-3 * max(ew, eh)
    log_max = math.log(sys.float_info.max)
    sigma = sim.proposal_jitter
    out = []
    for ped in scene.pedestrians:
        x1, y1, x2, y2 = ped.full.x1, ped.full.y1, ped.full.x2, ped.full.y2
        if sigma == 0.0:
            out.extend([(x1, y1, x2, y2)] * sim.proposals_per_gt)
            continue
        for _ in range(sim.proposals_per_gt):
            cx = (x1 + x2) / 2.0 + rng.normal(0.0, sigma * (x2 - x1))
            cy = (y1 + y2) / 2.0 + rng.normal(0.0, sigma * (y2 - y1))
            w = min(max((x2 - x1) * math.exp(min(rng.normal(0.0, sigma), log_max)), min_size), ew)
            h = min(max((y2 - y1) * math.exp(min(rng.normal(0.0, sigma), log_max)), min_size), eh)
            cx = min(max(cx, w / 2.0), ew - w / 2.0)
            cy = min(max(cy, h / 2.0), eh - h / 2.0)
            out.append((cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0))
    return out


def scalar_focal(prob, label, focal_gamma=2.0, focal_alpha=0.25, eps=1e-6):
    """Alpha-balanced focal loss of one prediction with foreground probability
    ``prob`` and label 0 or 1; a ``prob`` at or beyond 0 or 1 is clamped into
    ``(eps, 1 - eps)``, one strictly inside is used as given."""
    if prob <= 0.0 or prob >= 1.0:
        prob = min(max(prob, eps), 1.0 - eps)
    p_t = prob if label == 1 else 1.0 - prob
    alpha_t = focal_alpha if label == 1 else 1.0 - focal_alpha
    return -alpha_t * (1.0 - p_t) ** focal_gamma * math.log(p_t)


def scalar_descent(gts, proposals, extent, sim, comp, cou, seed):
    """Fixed-step descent of tuple proposals under SmoothL1 plus the scalar CouLoss.

    ``sim``, ``comp`` and ``cou`` are read as plain attribute bags with the
    fields of the simulator, composite and CouLoss configs. Per step: the
    loss, then the gradient at the same boxes, plus one ``(N, 4)`` draw of
    Gaussian noise from ``numpy.random.default_rng(seed)``, a step of
    ``step_size * max(extent)**2`` and a push of too-thin boxes back to
    ``1e-3 * max(extent)``. Targets and triplets are rebuilt every step, or
    taken once from the start boxes when assignments are frozen. Returns
    ``(loss_curve, final_boxes)``; the curve ends with the loss at the final boxes.
    """
    max_extent = max(extent)
    step = sim.step_size * max_extent * max_extent
    min_size = 1e-3 * max_extent
    scale = sum(max(g[2] - g[0], g[3] - g[1]) for g in gts) / len(gts)
    beta = comp.smoothl1_beta * scale
    kw = dict(
        iou_threshold=cou.positive_iou_threshold, eps=cou.iou_floor, mode=cou.aggregation_mode,
        include_attraction=comp.include_attraction, include_repulsion=comp.include_repulsion,
    )
    rng = np.random.default_rng(seed)
    boxes = [tuple(p) for p in proposals]

    def topology():
        return (
            scalar_regression_targets(gts, boxes),
            scalar_structure(gts, boxes, cou.positive_iou_threshold),
        )

    def loss(targets, structure):
        sl1 = sum(_scalar_smooth_l1(p, gts[t], beta) for p, t in zip(boxes, targets))
        sl1 /= len(boxes) * scale
        work = scalar_couloss(gts, boxes, structure=structure, **kw)[0] if comp.alpha > 0.0 else 0.0
        return comp.smoothl1_weight * sl1 + comp.alpha * work

    frozen = None if sim.recompute_assignments else topology()
    losses = []
    for _ in range(sim.descent_steps):
        targets, structure = frozen or topology()
        losses.append(loss(targets, structure))
        factor = comp.smoothl1_weight / (len(boxes) * scale)
        work_grad = None
        if comp.alpha > 0.0:
            work_grad = scalar_couloss_gradient(gts, boxes, structure=structure, **kw)
        noise = None
        if sim.gradient_noise > 0.0:
            noise = rng.normal(0.0, sim.gradient_noise, (len(boxes), 4)).tolist()
        moved = []
        for pi, (p, t) in enumerate(zip(boxes, targets)):
            row = []
            for k in range(4):
                d = p[k] - gts[t][k]
                g = (d / beta if abs(d) < beta else math.copysign(1.0, d)) * factor
                if work_grad is not None:
                    g += comp.alpha * work_grad[pi][k]
                if noise is not None:
                    g += noise[pi][k]
                row.append(p[k] - step * g)
            for lo, hi in ((0, 2), (1, 3)):
                if row[hi] - row[lo] < min_size:
                    mid = (row[lo] + row[hi]) / 2.0
                    row[lo], row[hi] = mid - min_size / 2.0, mid + min_size / 2.0
            moved.append(tuple(row))
        boxes = moved
    losses.append(loss(*(frozen or topology())))
    return losses, boxes


def scalar_kinks(gts, proposals, structure=None, iou_threshold=0.5, eps=1e-6, tol=1e-6):
    """Near-kink report lines, checked one proposal and one pair at a time.

    ``structure`` is ``(triplets, target_of)`` as from :func:`scalar_structure`.
    """
    triplets, target_of = structure or scalar_structure(gts, proposals, iou_threshold)
    out = []

    def near(a, b, scale=1.0):
        return abs(a - b) <= tol * scale

    for pi, p in enumerate(proposals):
        ious = sorted((tuple_iou(g, p) for g in gts), reverse=True)
        if near(ious[0], iou_threshold):
            out.append(f"proposal {pi}: best IoU at the positive threshold")
        if len(ious) > 1 and ious[0] > 0.0 and near(ious[0], ious[1]):
            out.append(f"proposal {pi}: argmax IoU tie between ground truths")
        if pi in target_of:
            g = gts[target_of[pi]]
            cx, cy = tuple_center(p)
            w, h = g[2] - g[0], g[3] - g[1]
            if near(cx, g[0], w) or near(cx, g[2], w) or near(cy, g[1], h) or near(cy, g[3], h):
                out.append(f"proposal {pi}: center at the boundary of its target")

    def check_pair(kind, gi, pi):
        g, p = gts[gi], proposals[pi]
        v = tuple_iou(g, p)
        w, h = g[2] - g[0], g[3] - g[1]
        cx, cy = tuple_center(p)
        label = f"{kind} pair (gt {gi}, proposal {pi})"
        if kind == "repulsive" and near(v, 0.0):
            out.append(f"{label}: IoU at the overlap-existence boundary")
        if near(v, eps) or near(1.0 - v, eps):
            out.append(f"{label}: IoU at the log floor")
        if near(p[0], g[0], w) or near(p[2], g[2], w) or near(p[1], g[1], h) or near(p[3], g[3], h):
            out.append(f"{label}: intersection corner switch")
        l, r = abs(cx - g[0]), abs(cx - g[2])
        t, b = abs(cy - g[1]), abs(cy - g[3])
        if near(l, r, w) or near(t, b, h):
            out.append(f"{label}: min(l,r) or min(t,b) tie")
        if near(min(l, r), 0.0, w) or near(min(t, b), 0.0, h):
            out.append(f"{label}: center on a border line")
        if near(1.0 - min(l, r) / (w / 2.0), 0.0) or near(1.0 - min(t, b) / (h / 2.0), 0.0):
            out.append(f"{label}: border-distance factor at the zero clamp")

    for gi, pi in sorted({(t[0], t[1]) for t in triplets}):
        check_pair("attractive", gi, pi)
    for gi, pi in sorted({(t[0], t[2]) for t in triplets}):
        check_pair("repulsive", gi, pi)
        g, p = gts[gi], proposals[pi]
        gc, pc = tuple_center(g), tuple_center(p)
        if math.hypot(pc[0] - gc[0], pc[1] - gc[1]) <= tol * max(g[2] - g[0], g[3] - g[1]):
            out.append(f"repulsive pair (gt {gi}, proposal {pi}): degenerate angle vertex")
        v = tuple_iou(g, p)
        raw = 0.0
        if v > 0.0:
            cos = _scalar_cos(gc, pc, tuple_center(gts[target_of[pi]]))
            raw = -math.log(max(1.0 - v, eps)) * cos * tuple_s(g, p)
        if abs(raw) <= tol:
            out.append(f"repulsive pair (gt {gi}, proposal {pi}): work at the zero clamp")
    return out


def central_difference_gradient(f, proposals, h):
    """Central finite differences of a scalar function of a proposal list.

    ``proposals`` is a list of 4-tuples; returns a list of 4-lists.
    """
    grads = []
    for pi in range(len(proposals)):
        row = []
        for ci in range(4):
            plus = [list(p) for p in proposals]
            minus = [list(p) for p in proposals]
            plus[pi][ci] += h
            minus[pi][ci] -= h
            fp = f([tuple(p) for p in plus])
            fm = f([tuple(p) for p in minus])
            row.append((fp - fm) / (2.0 * h))
        grads.append(row)
    return grads


def lamr_nine_point(curve_points, floor=1e-4):
    """Hand 9-point log-average miss rate.

    ``curve_points`` is an ordered list of (fppi, miss_rate) with fppi
    non-decreasing. At each of 9 reference FPPI values log-spaced over
    [1e-2, 1], takes the miss rate of the last point with fppi <= ref, or
    the highest miss rate on the curve when no such point exists.
    """
    refs = [10.0 ** e for e in [-2 + 0.25 * k for k in range(9)]]
    logs = []
    for ref in refs:
        mr = None
        for fppi, miss in curve_points:
            if fppi <= ref:
                mr = miss
        if mr is None:
            mr = max(m for _, m in curve_points)
        logs.append(math.log(max(mr, floor)))
    return math.exp(sum(logs) / len(logs))


def five_sweep_check_scene(gts, proposals, comp_cfg, cou_cfg, fd_step_fraction=1e-5):
    """Gradcheck errors of the five terms, one term at a time.

    The earlier ``gradcheck.check_scene``: each term gets its own analytic
    call and its own central-difference sweep, which rebuilds the ``BBox``
    list at every point, all through the package's public loss functions.
    Returns ``{term: relative error}``.
    """
    from crowdloss.baselines import CompositeConfig, composite_gradient, composite_regression_loss
    from crowdloss.couloss import couloss, couloss_gradient
    from crowdloss.geometry import BBox

    def finite_difference(loss_fn, h):
        coords = np.array([p.as_tuple() for p in proposals], dtype=float)
        grad = np.zeros_like(coords)
        for pi in range(coords.shape[0]):
            for ci in range(4):
                plus = coords.copy()
                minus = coords.copy()
                plus[pi, ci] += h
                minus[pi, ci] -= h
                fp = loss_fn([BBox(*row) for row in plus])
                fm = loss_fn([BBox(*row) for row in minus])
                grad[pi, ci] = (fp - fm) / (2.0 * h)
        return grad

    def relative_error(analytic, numeric):
        denom = max(float(np.abs(analytic).max(initial=0.0)), float(np.abs(numeric).max(initial=0.0)))
        if denom == 0.0:
            return 0.0
        return float(np.abs(analytic - numeric).max()) / max(denom, 1e-8)

    def couloss_total(ps, att=True, rep=True):
        return couloss(gts, ps, cou_cfg, include_attraction=att, include_repulsion=rep).total

    scale = sum(max(g.width, g.height) for g in gts) / len(gts)
    sl1_cfg = CompositeConfig(alpha=0.0)
    pairs = {
        "couloss": (couloss_gradient(gts, proposals, cou_cfg), lambda ps: couloss_total(ps)),
        "couloss_attraction": (
            couloss_gradient(gts, proposals, cou_cfg, include_repulsion=False),
            lambda ps: couloss_total(ps, rep=False),
        ),
        "couloss_repulsion": (
            couloss_gradient(gts, proposals, cou_cfg, include_attraction=False),
            lambda ps: couloss_total(ps, att=False),
        ),
        "smooth_l1": (
            composite_gradient(gts, proposals, sl1_cfg, cou_cfg),
            lambda ps: composite_regression_loss(gts, ps, sl1_cfg, cou_cfg).total,
        ),
        "composite": (
            composite_gradient(gts, proposals, comp_cfg, cou_cfg),
            lambda ps: composite_regression_loss(gts, ps, comp_cfg, cou_cfg).total,
        ),
    }
    h = fd_step_fraction * scale
    return {
        term: relative_error(analytic, finite_difference(loss_fn, h))
        for term, (analytic, loss_fn) in pairs.items()
    }


def per_point_finite_difference(gts, coords, weights, cou_cfg, h):
    """``gradcheck.finite_difference`` of one scene, one point at a time.

    Each of the 8N perturbed points is its own ``gradcheck._terms`` call, a
    batch of one evaluated in full, and each coordinate's central difference
    is taken from its two calls. Returns the ``(5, N, 4)`` array.
    """
    from crowdloss.gradcheck import TERMS, _terms

    grad = np.zeros((len(TERMS), *coords.shape))
    for pi, ci in np.ndindex(coords.shape):
        plus, minus = coords.copy(), coords.copy()
        plus[pi, ci] += h
        minus[pi, ci] -= h
        fp, fm = (_terms(gts, point[None], weights, cou_cfg)[0][:, 0] for point in (plus, minus))
        grad[:, pi, ci] = (fp - fm) / (2.0 * h)
    return grad


def _box_iou(a, b):
    return tuple_iou((a.x1, a.y1, a.x2, a.y2), (b.x1, b.y1, b.x2, b.y2))


def scalar_greedy_nms(dets, threshold):
    """Score-descending suppression, one pair of boxes at a time.

    A detection is dropped when its IoU with any already-kept detection
    exceeds the threshold; equal scores keep input order.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    kept = []
    for i in order:
        d = dets[i]
        if all(_box_iou(d.box, k.box) <= threshold for k in kept):
            kept.append(d)
    return kept


def scalar_match(dets, gts, iou_threshold=0.5, ignored_gts=()):
    """Greedy matching, one detection and one box at a time: ``(tp, fp, misses)``.

    ``dets`` carry ``.box`` and ``.score``; boxes carry ``x1, y1, x2, y2``.
    Equal scores keep input order; an ignore region absorbs at most one
    detection.
    """
    order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
    matched = [False] * len(gts)
    ignored_matched = [False] * len(ignored_gts)
    tp = fp = 0
    for i in order:
        d = dets[i]
        best_gi, best_v = -1, 0.0
        for gi, g in enumerate(gts):
            if matched[gi]:
                continue
            v = _box_iou(d.box, g)
            if v > best_v:
                best_gi, best_v = gi, v
        if best_gi >= 0 and best_v >= iou_threshold:
            matched[best_gi] = True
            tp += 1
            continue
        on_ignored = False
        for gi, g in enumerate(ignored_gts):
            if not ignored_matched[gi] and _box_iou(d.box, g) >= iou_threshold:
                ignored_matched[gi] = True
                on_ignored = True
                break
        if not on_ignored:
            fp += 1
    return (tp, fp, len(gts) - tp)


def scalar_fppi_curve(dets, gts_by_scene, iou_threshold=0.5, ignored_by_scene=None):
    """FPPI curve by re-matching every scene at every distinct score: ``(thresholds, points)``."""
    n_scenes = len(gts_by_scene)
    n_gts = sum(len(g) for g in gts_by_scene.values())
    ignored_by_scene = ignored_by_scene or {}

    by_scene = {sid: [] for sid in gts_by_scene}
    for d in dets:
        if d.scene_id in by_scene:
            by_scene[d.scene_id].append(d)

    thresholds = sorted({d.score for d in dets}, reverse=True)
    points = []
    for t in thresholds:
        total_fp = 0
        total_miss = 0
        for sid, gts in gts_by_scene.items():
            kept = [d for d in by_scene[sid] if d.score >= t]
            _, fp, misses = scalar_match(kept, gts, iou_threshold, ignored_by_scene.get(sid, ()))
            total_fp += fp
            total_miss += misses
        points.append((total_fp / n_scenes, total_miss / n_gts))
    return (tuple(thresholds), tuple(points))


def scalar_anchor_boxes(cells, stride, scales, ratios):
    """Anchor boxes per (row, col) cell, then scale, then ratio, centered on the cell."""
    boxes = []
    for row, col in cells:
        cx = (col + 0.5) * stride
        cy = (row + 0.5) * stride
        for scale in scales:
            for ratio in ratios:
                w = scale * math.sqrt(ratio)
                h = scale / math.sqrt(ratio)
                boxes.append(_Box(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0))
    return boxes


def scalar_negative_informativeness(selected, scene, negative_iou_threshold=0.3):
    """Negative and distractor-hit counts, one anchor at a time.

    ``selected`` carries ``.anchors`` (a ``(K, 4)`` array), the grid shape,
    stride, scales and ratios; the uniform set is rebuilt per cell, scale and
    ratio. Returns the six ``InformativenessStats`` fields in order.
    """
    gt_boxes = [ped.full for ped in scene.pedestrians]

    def stats(boxes):
        negatives = 0
        hits = 0
        for box in boxes:
            if any(_box_iou(g, box) >= negative_iou_threshold for g in gt_boxes):
                continue
            negatives += 1
            cx, cy = (box.x1 + box.x2) / 2.0, (box.y1 + box.y2) / 2.0
            if any(d.x1 <= cx <= d.x2 and d.y1 <= cy <= d.y2 for d in scene.distractors):
                hits += 1
        return negatives, hits

    cells = [(row, col) for row in range(selected.grid_height) for col in range(selected.grid_width)]
    uniform = scalar_anchor_boxes(cells, selected.stride, selected.scales, selected.ratios)

    sel_neg, sel_hit = stats([_Box(*row) for row in selected.anchors.tolist()])
    uni_neg, uni_hit = stats(uniform)
    return (
        sel_hit / sel_neg if sel_neg else 0.0,
        uni_hit / uni_neg if uni_neg else 0.0,
        sel_neg,
        uni_neg,
        sel_hit,
        uni_hit,
    )


def sequential_run_gradcheck(
    sim_cfg,
    comp_cfg,
    cou_cfg,
    num_scenes=1000,
    fd_step_fraction=1e-5,
    kink_tolerance=1e-3,
    max_perturb_retries=20,
    seed_base=0,
):
    """``gradcheck.run_gradcheck`` one scene at a time, as it ran before blocks.

    Per seed: ``generate_scene``, then for each retry ``spawn_proposals`` and
    ``detect_kinks``, until a kink-free retry gets its ``check_scene``. The
    first retry's kink line of each kinky scene is recorded.
    """
    from crowdloss.couloss import detect_kinks
    from crowdloss.gradcheck import TERMS, GradCheckOutcome, check_scene
    from crowdloss.simulator import generate_scene, spawn_proposals

    errors, kink_lines = [], []
    seeds = range(seed_base, seed_base + num_scenes)
    for seed in seeds:
        scene = generate_scene(sim_cfg, seed)
        gts = scene.gt_boxes
        for retry in range(max_perturb_retries):
            proposals = spawn_proposals(scene, sim_cfg, seed * 1000 + retry + 1)
            kinks = detect_kinks(gts, proposals, cou_cfg, tolerance=kink_tolerance)
            if not kinks:
                errors.append(check_scene(gts, proposals, comp_cfg, cou_cfg, fd_step_fraction))
                break
            if retry == 0:
                kink_lines.append(f"kink_warning seed={seed} {kinks[0]}")
    checked = len(errors)
    return GradCheckOutcome(
        scenes_checked=checked,
        scenes_skipped=len(seeds) - checked,
        max_error={t: float(np.max([0.0] + [e[t] for e in errors])) for t in TERMS},
        mean_error={t: sum(e[t] for e in errors) / checked if checked else 0.0 for t in TERMS},
        kink_lines=kink_lines,
    )
