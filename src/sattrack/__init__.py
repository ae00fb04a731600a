"""Deterministic building blocks for satellite-video object tracking.

The package covers the supervision side (aspect-ratio-aware centerness
labels and the matching losses), a cross-frame attention block with a
depthwise correlation head, confidence-gated online refinement of raw
tracker outputs, a synthetic scenario simulator, and one-pass evaluation.
"""

from .attention import (
    ProjectionWeights,
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
    build_label_maps,
    centerness_loss,
    cls_loss,
    regression_loss,
)
from .metrics import EvalResult, aggregate_results
from .motion import (
    MotionParams,
    TrackerState,
    psr,
    refine_step,
    track_rows,
)
from .scenario import (
    FrameObservation,
    ScenarioConfig,
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
    "ScenarioConfig",
    "TrackerState",
    "aggregate_results",
    "build_label_maps",
    "centerness_loss",
    "cls_loss",
    "enhance_features",
    "generate_scenario",
    "generate_scenario_rows",
    "init_projection_weights",
    "project_qkv",
    "psr",
    "refine_step",
    "regression_loss",
    "run_tracking",
    "template_saliency",
    "track_rows",
    "xcorr_depthwise",
]
