"""Every library keyword that a config key also sets defaults to that key's default."""

import inspect

import pytest

from crowdloss.anchors import bump_probability_map, negative_informativeness, select_anchors
from crowdloss.config import AnchorDemoConfig, EvalConfig, GradCheckConfig, NmsSweepConfig
from crowdloss.evalkit import fppi_at_miss_rate, fppi_curve, match
from crowdloss.gradcheck import check_scene, run_gradcheck
from crowdloss.simulator import nms_sensitivity_experiment

# (function, keyword, config record, key)
PAIRS = [
    (select_anchors, "scales", AnchorDemoConfig, "scales"),
    (select_anchors, "ratios", AnchorDemoConfig, "ratios"),
    (bump_probability_map, "peak", AnchorDemoConfig, "peak"),
    (bump_probability_map, "background", AnchorDemoConfig, "background"),
    (negative_informativeness, "negative_iou_threshold", AnchorDemoConfig, "negative_iou_threshold"),
    *[(run_gradcheck, key, GradCheckConfig, key)
      for key in ("num_scenes", "fd_step_fraction", "kink_tolerance", "max_perturb_retries")],
    (check_scene, "fd_step_fraction", GradCheckConfig, "fd_step_fraction"),
    (nms_sensitivity_experiment, "thresholds", NmsSweepConfig, "thresholds"),
    (nms_sensitivity_experiment, "match_iou", NmsSweepConfig, "match_iou"),
    (match, "iou_threshold", EvalConfig, "match_iou"),
    (fppi_curve, "iou_threshold", EvalConfig, "match_iou"),
    (fppi_at_miss_rate, "target_miss_rate", EvalConfig, "target_miss_rate"),
]


@pytest.mark.parametrize("fn, keyword, record, key", PAIRS, ids=lambda v: getattr(v, "__name__", v))
def test_library_default_is_the_config_default(fn, keyword, record, key):
    assert inspect.signature(fn).parameters[keyword].default == getattr(record(), key)
