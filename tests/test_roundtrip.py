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
from crowdloss.simulator import Pedestrian, Scene, load_scene, save_scene

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
def boxes_inside(draw, x1, y1, x2, y2):
    """A box with its edges in [x1, x2] x [y1, y2]."""
    (a, b), (c, d) = (
        sorted(draw(st.lists(st.floats(lo, hi), min_size=2, max_size=2, unique=True)))
        for lo, hi in ((x1, x2), (y1, y2))
    )
    return BBox(a, c, b, d)


@st.composite
def scenes(draw):
    """Fulls inside the extent, each visible box inside its full box, distractors inside the extent."""
    extent = (draw(st.floats(1e-3, 1e6)), draw(st.floats(1e-3, 1e6)))
    fulls = draw(st.lists(boxes_inside(0.0, 0.0, *extent), max_size=4))
    peds = [Pedestrian(f, draw(boxes_inside(f.x1, f.y1, f.x2, f.y2))) for f in fulls]
    return Scene(extent, peds, draw(st.lists(boxes_inside(0.0, 0.0, *extent), max_size=3)))


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


@roundtrip
@given(scenes())
def test_scene(tmp_path, scene):
    path = tmp_path / "scene.txt"
    save_scene(scene, path)
    assert load_scene(path) == scene


def test_numpy_reals_written_as_plain_reals(tmp_path):
    """A numpy real is written as its Python float, so the file reads back and
    has the bytes of the same values given as Python floats."""
    numpy_values = (np.float64(0.5), np.float64(1 / 3), np.float32(10.25), np.float64(20.0), np.float32(0.1))
    files = []
    for values in (numpy_values, tuple(map(float, numpy_values))):
        x1, y1, x2, y2, score = values
        box = BBox(x1, y1, x2, y2)
        det, scene = Detection(box, score, "s"), Scene((x2 * 2, y2 * 2), [Pedestrian(box, box)], [box])
        dets_path, scene_path = tmp_path / f"dets{len(files)}.csv", tmp_path / f"scene{len(files)}.txt"
        save_detections([det], dets_path)
        save_scene(scene, scene_path)
        assert load_detections(dets_path) == [det]
        assert load_scene(scene_path) == scene
        files.append((dets_path.read_bytes(), scene_path.read_bytes()))
    assert files[0] == files[1]
