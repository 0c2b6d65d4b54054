"""Save then load gives back what was saved, for every file format with both."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crowdloss.anchors import (
    IGNORED,
    NEGATIVE,
    POSITIVE,
    ProbabilityMap,
    TargetMap,
    load_probability_map,
    load_target_map,
    save_probability_map,
    save_target_map,
)
from crowdloss.evalkit import Detection, EvalCurve, load_curve, load_detections, save_curve, save_detections
from crowdloss.geometry import BBox

# one file per test, rewritten by every example
roundtrip = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
reals = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
# printable ASCII, so commas and both quote characters are drawn
scene_ids = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)
strides = st.floats(1e-3, 1e3)


@st.composite
def boxes(draw):
    x1, y1 = draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))
    return BBox(x1, y1, x1 + draw(st.floats(1e-3, 1e3)), y1 + draw(st.floats(1e-3, 1e3)))


@st.composite
def grids(draw, cells):
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return np.array([[draw(cells) for _ in range(width)] for _ in range(height)])


@roundtrip
@given(st.lists(st.builds(Detection, boxes(), unit, scene_ids), max_size=5))
def test_detections(tmp_path, dets):
    path = tmp_path / "dets.csv"
    save_detections(dets, path)
    assert load_detections(path) == dets


@roundtrip
@given(st.lists(st.tuples(reals, reals, reals), max_size=5))
def test_curve(tmp_path, rows):
    curve = EvalCurve(tuple(t for t, _, _ in rows), tuple((f, m) for _, f, m in rows))
    path = tmp_path / "curve.csv"
    save_curve(curve, path)
    assert load_curve(path) == curve


@roundtrip
@given(strides, grids(unit))
def test_probability_map(tmp_path, stride, values):
    path = tmp_path / "map.txt"
    save_probability_map(ProbabilityMap(stride, values), path)
    loaded = load_probability_map(path)
    assert loaded.stride == stride and np.array_equal(loaded.values, values)


@roundtrip
@given(strides, grids(st.sampled_from([POSITIVE, IGNORED, NEGATIVE])))
def test_target_map(tmp_path, stride, labels):
    path = tmp_path / "targets.txt"
    save_target_map(TargetMap(stride, labels), path)
    loaded = load_target_map(path)
    assert loaded.stride == stride and np.array_equal(loaded.labels, labels)
