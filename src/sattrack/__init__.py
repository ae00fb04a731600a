"""Deterministic building blocks for satellite-video object tracking.

The package covers the supervision side (aspect-ratio-aware centerness
labels and the matching losses), a cross-frame attention block with a
depthwise correlation head, confidence-gated online refinement of raw
tracker outputs, a synthetic scenario simulator, and one-pass evaluation.
"""

from .attention import (
    ProjectionWeights,
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
    RegressionTarget,
    build_label_maps,
    centerness_loss,
    classic_centerness,
    cls_loss,
    constrained_centerness,
    regression_loss,
    soft_cls_target,
)
from .metrics import (
    EvalResult,
    aggregate_results,
    evaluate,
)
from .motion import (
    MotionParams,
    TrackerState,
    normalized_psr,
    psr,
    refine_step,
    track_rows,
)
from .scenario import (
    FrameObservation,
    ScenarioConfig,
    drift_series,
    generate_scenario,
    generate_scenario_rows,
    run_tracking,
)

__version__ = "0.1.0"

__all__ = [
    "AspectRatioParams",
    "BoundingBox",
    "EvalResult",
    "FrameObservation",
    "GridGeometry",
    "LabelMaps",
    "MotionParams",
    "ProjectionWeights",
    "RegressionTarget",
    "ScenarioConfig",
    "TrackerState",
    "aggregate_results",
    "attention_weights",
    "build_label_maps",
    "centerness_loss",
    "classic_centerness",
    "cls_loss",
    "constrained_centerness",
    "drift_series",
    "enhance_features",
    "evaluate",
    "generate_scenario",
    "generate_scenario_rows",
    "init_projection_weights",
    "normalized_psr",
    "project_qkv",
    "psr",
    "refine_step",
    "regression_loss",
    "run_tracking",
    "soft_cls_target",
    "template_saliency",
    "track_rows",
    "xcorr_depthwise",
]
