"""Deterministic building blocks for satellite-video object tracking.

The package covers the supervision side (aspect-ratio-aware centerness
labels and the matching losses), a cross-frame attention block with a
depthwise correlation head, confidence-gated online refinement of raw
tracker outputs, a synthetic scenario simulator, and one-pass evaluation.
"""

from .attention import (
    ProjectionWeights,
    aggregate_values,
    attention_weights,
    enhance_features,
    init_projection_weights,
    project_qkv,
    template_saliency,
    xcorr_depthwise,
)
from .boxes import BoundingBox
from .geometry import (
    AspectRatioParams,
    GridGeometry,
    LabelMaps,
    LossWeights,
    RegressionTarget,
    build_label_maps,
    centerness_loss,
    classic_centerness,
    cls_loss,
    constrained_centerness,
    modulation_factor,
    regression_loss,
    soft_cls_target,
    total_loss,
)
from .metrics import (
    EvalResult,
    aggregate_results,
    cle,
    evaluate,
    iou,
    normalized_cle,
)
from .motion import (
    MotionParams,
    TrackerState,
    fit_value,
    instantaneous_velocity,
    linear_fit,
    normalized_psr,
    peak_to_box,
    psr,
    refine_step,
    track_rows,
)
from .scenario import (
    FrameObservation,
    ScenarioConfig,
    TraceRow,
    drift_series,
    generate_scenario,
    generate_scenario_rows,
    run_tracking,
    synthesize_response_map,
)

__version__ = "0.1.0"

__all__ = [
    "AspectRatioParams",
    "BoundingBox",
    "EvalResult",
    "FrameObservation",
    "GridGeometry",
    "LabelMaps",
    "LossWeights",
    "MotionParams",
    "ProjectionWeights",
    "RegressionTarget",
    "ScenarioConfig",
    "TraceRow",
    "TrackerState",
    "aggregate_results",
    "aggregate_values",
    "attention_weights",
    "build_label_maps",
    "centerness_loss",
    "classic_centerness",
    "cle",
    "cls_loss",
    "constrained_centerness",
    "drift_series",
    "enhance_features",
    "evaluate",
    "fit_value",
    "generate_scenario",
    "generate_scenario_rows",
    "init_projection_weights",
    "instantaneous_velocity",
    "iou",
    "linear_fit",
    "modulation_factor",
    "normalized_cle",
    "normalized_psr",
    "peak_to_box",
    "project_qkv",
    "psr",
    "refine_step",
    "regression_loss",
    "run_tracking",
    "soft_cls_target",
    "synthesize_response_map",
    "template_saliency",
    "total_loss",
    "track_rows",
    "xcorr_depthwise",
]
