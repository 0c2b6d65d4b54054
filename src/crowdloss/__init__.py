"""Crowd-occlusion-aware box regression losses and evaluation tooling."""

from .anchors import (
    AnchorSet,
    ProbabilityMap,
    TargetMap,
    build_target_map,
    bump_probability_map,
    dynamic_threshold,
    indicator_probability_map,
    load_probability_map,
    load_target_map,
    location_branch_loss,
    negative_informativeness,
    save_probability_map,
    save_target_map,
    select_anchors,
)
from .baselines import (
    CompositeConfig,
    CompositeReport,
    composite_gradient,
    composite_regression_loss,
    focal_loss,
    iou_loss,
    iou_loss_gradient,
    smooth_l1,
    smooth_l1_gradient,
)
from .couloss import (
    Assignment,
    CouLossConfig,
    LossReport,
    Triplet,
    assemble_triplets,
    attractive_force,
    couloss,
    couloss_gradient,
    detect_kinks,
    effective_cos,
    repulsive_force,
    work_terms,
)
from .errors import (
    ConfigError,
    CrowdLossError,
    DivergenceError,
    InfeasibleConfigError,
    InvalidAnnotationError,
    InvalidInputError,
    NoOverlapError,
)
from .evalkit import (
    Detection,
    EvalCurve,
    SubsetFilter,
    fppi_at_miss_rate,
    fppi_curve,
    greedy_nms,
    load_curve,
    load_detections,
    log_average_miss_rate,
    match,
    save_curve,
    save_detections,
)
from .geometry import BBox, Point, border_distance, center, contains_center, cos_angle_at, iou
from .simulator import (
    Descent,
    Pedestrian,
    Scene,
    SimConfig,
    SimResult,
    descend_variants,
    generate_scene,
    load_scene,
    nms_sensitivity_experiment,
    run_descent,
    run_descents,
    save_scene,
    score_detections,
    spawn_proposals,
    standard_variants,
)

__version__ = "0.1.0"
