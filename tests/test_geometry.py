import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdloss._pairs import box_array, iou_matrix
from crowdloss.errors import InvalidInputError
from crowdloss.geometry import (
    BBox,
    Point,
    border_distance,
    center,
    centers,
    contains,
    cos_angle_at,
    iou,
)
from oracles import raster_iou, tuple_center, tuple_iou, tuple_s
from util import random_box


class TestBBox:
    def test_valid_box(self):
        b = BBox(0, 0, 4, 8)
        assert b.width == 4 and b.height == 8 and b.area == 32

    @pytest.mark.parametrize("coords", [(0, 0, 0, 1), (0, 0, 1, 0), (2, 0, 1, 1), (0, 3, 1, 1)])
    def test_degenerate_rejected(self, coords):
        with pytest.raises(InvalidInputError):
            BBox(*coords)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            BBox(0, 0, bad, 1)
        with pytest.raises(InvalidInputError):
            Point(bad, 0)


class TestIoU:
    def test_identity(self):
        for b in [BBox(0, 0, 2, 2), BBox(-3, 1, 5, 9), BBox(0.5, 0.25, 0.75, 4)]:
            assert iou(b, b) == 1.0

    def test_partial_overlap(self):
        assert iou(BBox(0, 0, 2, 2), BBox(1, 1, 3, 3)) == pytest.approx(1 / 7, abs=1e-15)

    def test_disjoint(self):
        assert iou(BBox(0, 0, 1, 1), BBox(2, 2, 3, 3)) == 0.0

    def test_symmetric_and_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            v = iou(a, b)
            assert v == iou(b, a)
            assert 0.0 <= v <= 1.0

    def test_one_only_for_identical(self):
        rng = np.random.default_rng(12)
        for _ in range(300):
            a, b = random_box(rng), random_box(rng)
            if a.as_tuple() != b.as_tuple():
                assert iou(a, b) < 1.0

    def test_joint_translation_and_scale_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            a, b = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-50, 50, 2)
            k = rng.uniform(0.1, 10.0)
            at = BBox(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
            bt = BBox(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
            assert iou(at, bt) == pytest.approx(iou(a, b), abs=1e-12)
            ak = BBox(a.x1 * k, a.y1 * k, a.x2 * k, a.y2 * k)
            bk = BBox(b.x1 * k, b.y1 * k, b.x2 * k, b.y2 * k)
            assert iou(ak, bk) == pytest.approx(iou(a, b), rel=1e-12, abs=1e-12)

    def test_against_rasterization_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            a = tuple(sorted(rng.integers(0, 12, 2))) + tuple(sorted(rng.integers(0, 12, 2)))
            b = tuple(sorted(rng.integers(0, 12, 2))) + tuple(sorted(rng.integers(0, 12, 2)))
            a = (a[0], a[2], a[1] + 13, a[3] + 13)
            b = (b[0], b[2], b[1] + 13, b[3] + 13)
            expected = raster_iou(a, b)
            assert iou(BBox(*a), BBox(*b)) == pytest.approx(expected, abs=1e-9)


class TestCenter:
    @pytest.mark.parametrize(
        "box,expected",
        [
            ((0, 0, 2, 2), (1, 1)),
            ((0, 0, 4, 8), (2, 4)),
            ((-1, -1, 1, 1), (0, 0)),
        ],
    )
    def test_examples(self, box, expected):
        c = center(BBox(*box))
        assert (c.x, c.y) == expected


class TestCosAngle:
    def test_collinear_same_side(self):
        assert cos_angle_at(Point(0, 0), Point(1, 0), Point(2, 0)) == 1.0

    def test_collinear_opposite(self):
        assert cos_angle_at(Point(0, 0), Point(1, 0), Point(-1, 0)) == -1.0

    def test_right_angle(self):
        assert cos_angle_at(Point(0, 0), Point(1, 0), Point(0, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_ray_returns_one(self):
        assert cos_angle_at(Point(0, 0), Point(0, 0), Point(1, 1)) == 1.0
        assert cos_angle_at(Point(2, 3), Point(5, 1), Point(2, 3)) == 1.0

    def test_bounded_and_symmetric(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            pts = [Point(*rng.uniform(-10, 10, 2)) for _ in range(3)]
            v = cos_angle_at(pts[0], pts[1], pts[2])
            assert -1.0 <= v <= 1.0
            assert v == cos_angle_at(pts[0], pts[2], pts[1])


class TestBorderDistance:
    def test_center_coincidence(self):
        g = BBox(0, 0, 4, 8)
        assert border_distance(g, BBox(1, 3, 3, 5)) == 0.0

    def test_corner(self):
        g = BBox(0, 0, 4, 8)
        p = BBox(-1, -1, 1, 1)  # centered on the (0, 0) corner
        assert border_distance(g, p) == 1.0

    def test_hand_value(self):
        # center at (1, 2): f_x = 1 - 1/2, f_y = 1 - 2/4, s = sqrt(0.25)
        g = BBox(0, 0, 4, 8)
        p = BBox(0.5, 1.5, 1.5, 2.5)
        assert border_distance(g, p) == pytest.approx(0.5, abs=1e-15)

    def test_range_and_zero_iff_centered(self):
        rng = np.random.default_rng(16)
        g = BBox(10, 10, 30, 50)
        for _ in range(400):
            cx = rng.uniform(10, 30)
            cy = rng.uniform(10, 50)
            p = BBox(cx - 1, cy - 1, cx + 1, cy + 1)
            s = border_distance(g, p)
            assert 0.0 <= s <= 1.0
            if s == 0.0:
                assert (cx, cy) == (20.0, 30.0)
        assert border_distance(g, BBox(19, 29, 21, 31)) == 0.0

    def test_zero_when_center_far_outside(self):
        # a center half an extent past the border is fully clamped
        g = BBox(0, 0, 4, 8)
        p = BBox(6, 3, 8, 5)  # center (7, 4): 3 units past x2=4 > W/2=2
        assert border_distance(g, p) == 0.0

    def test_joint_translation_and_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            g, p = random_box(rng), random_box(rng)
            dx, dy = rng.uniform(-30, 30, 2)
            k = rng.uniform(0.2, 8.0)
            gt = BBox(g.x1 + dx, g.y1 + dy, g.x2 + dx, g.y2 + dy)
            pt = BBox(p.x1 + dx, p.y1 + dy, p.x2 + dx, p.y2 + dy)
            assert border_distance(gt, pt) == pytest.approx(border_distance(g, p), abs=1e-12)
            gk = BBox(g.x1 * k, g.y1 * k, g.x2 * k, g.y2 * k)
            pk = BBox(p.x1 * k, p.y1 * k, p.x2 * k, p.y2 * k)
            assert border_distance(gk, pk) == pytest.approx(border_distance(g, p), abs=1e-12)


def contains_center(g: BBox, p: BBox) -> bool:
    """``contains`` of ``g`` as a (4, 1) column and ``p``'s center as a (2, 1) column."""
    g_col, p_col = (np.array(b.as_tuple())[:, None] for b in (g, p))
    (inside,) = contains(g_col, centers(p_col)).tolist()
    return inside


class TestContainsCenter:
    def test_nested(self):
        assert contains_center(BBox(0, 0, 4, 4), BBox(1, 1, 3, 3))

    def test_outside(self):
        assert not contains_center(BBox(0, 0, 4, 4), BBox(3, 3, 7, 7))

    def test_boundary_closed(self):
        assert contains_center(BBox(0, 0, 4, 4), BBox(2, 2, 6, 6))


properties = settings(derandomize=True, database=None, deadline=None, max_examples=300)
# half-unit grid: edges touch, boxes coincide and centers land on borders and corners
grid = st.integers(0, 16).map(lambda k: k / 2.0)


@st.composite
def grid_boxes(draw):
    x1, y1 = draw(grid), draw(grid)
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    return BBox(x1, y1, x1 + w / 2.0, y1 + h / 2.0)


class TestProperties:
    """The one-box helpers against the tuple oracles, bit for bit, on grid boxes."""

    @properties
    @given(grid_boxes(), grid_boxes())
    def test_iou_exact_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert type(v) is float
        assert v == tuple_iou(a.as_tuple(), b.as_tuple())
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0

    @properties
    @given(st.lists(grid_boxes(), min_size=1, max_size=5), st.lists(grid_boxes(), max_size=5))
    def test_iou_matrix_entries_equal_iou(self, gts, proposals):
        m = iou_matrix(box_array(gts), box_array(proposals))
        assert m.tolist() == [[iou(g, p) for p in proposals] for g in gts]

    @properties
    @given(grid_boxes(), grid_boxes())
    def test_border_distance_exact_and_bounded(self, g, p):
        s = border_distance(g, p)
        assert type(s) is float
        assert s == tuple_s(g.as_tuple(), p.as_tuple())
        assert 0.0 <= s <= 1.0

    @properties
    @given(grid_boxes(), grid_boxes())
    def test_contains_center_is_closed_box_test(self, g, p):
        cx, cy = tuple_center(p.as_tuple())
        assert contains_center(g, p) is (g.x1 <= cx <= g.x2 and g.y1 <= cy <= g.y2)

    @properties
    @given(*[st.builds(Point, grid, grid)] * 3)
    def test_cos_bounded(self, vertex, a, c):
        v = cos_angle_at(vertex, a, c)
        assert type(v) is float
        assert -1.0 <= v <= 1.0
