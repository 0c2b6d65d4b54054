"""Independent straight-line oracles used to freeze expected test values.

Everything here works on plain (x1, y1, x2, y2) tuples and deliberately
shares no code with the package under test.
"""

import math

from fractions import Fraction


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


def exact_fraction_iou(a, b):
    """IoU as an exact Fraction, for freezing rational expected values."""
    a = [Fraction(v) for v in a]
    b = [Fraction(v) for v in b]
    iw = min(a[2], b[2]) - max(a[0], b[0])
    ih = min(a[3], b[3]) - max(a[1], b[1])
    if iw <= 0 or ih <= 0:
        return Fraction(0)
    inter = iw * ih
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return inter / union
