"""One-pass evaluation: per-frame errors, threshold curves, summary scalars.

A tracker run is scored frame by frame against ground truth with three
errors: center location error in pixels, the same error normalized by the
ground-truth box size, and intersection over union.  Sweeping thresholds
turns these into the standard precision, normalized precision and success
curves; the headline scalars are precision at 20 px (plus 5 px for the
small-object regime), normalized precision at 0.5 and the success AUC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .boxes import BoundingBox

# Threshold grids for the three curves.
PRECISION_THRESHOLDS = np.arange(51, dtype=float)  # px, 0..50 step 1
NORM_PRECISION_THRESHOLDS = np.arange(51, dtype=float) / 100.0  # 0..0.5 step 0.01
SUCCESS_THRESHOLDS = np.arange(21, dtype=float) / 20.0  # IoU 0..1 step 0.05


@dataclass(frozen=True)
class EvalResult:
    """Curves plus summary scalars for one sequence (or one average)."""

    precision: np.ndarray  # (51,) fraction of frames with CLE <= tau
    norm_precision: np.ndarray  # (51,) fraction with normalized CLE <= tau
    success: np.ndarray  # (21,) fraction with IoU > tau (strict)
    p5: float
    p20: float
    np05: float
    success_auc: float
    frame_count: int


def cle(pred: BoundingBox, gt: BoundingBox) -> float:
    """Center location error: Euclidean distance between box centers, px."""
    return math.hypot(pred.cx - gt.cx, pred.cy - gt.cy)


def normalized_cle(pred: BoundingBox, gt: BoundingBox) -> float:
    """Center error with each axis divided by the ground-truth box size,
    making the score resolution independent."""
    return math.hypot((pred.cx - gt.cx) / gt.w, (pred.cy - gt.cy) / gt.h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes."""
    ax0, ay0, ax1, ay1 = a.corners
    bx0, by0, bx1, by1 = b.corners
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    intersection = iw * ih
    return intersection / (a.area + b.area - intersection)


def evaluate(pred: Sequence[BoundingBox], gt: Sequence[BoundingBox]) -> EvalResult:
    """Score one predicted trajectory against ground truth of equal length."""
    if len(pred) != len(gt) or len(pred) == 0:
        raise ValueError(
            f"trajectories must have equal nonzero length, got {len(pred)} and {len(gt)}"
        )
    cles = np.array([cle(p, g) for p, g in zip(pred, gt)])
    norm_cles = np.array([normalized_cle(p, g) for p, g in zip(pred, gt)])
    ious = np.array([iou(p, g) for p, g in zip(pred, gt)])

    precision = (cles[None, :] <= PRECISION_THRESHOLDS[:, None]).mean(axis=1)
    norm_precision = (norm_cles[None, :] <= NORM_PRECISION_THRESHOLDS[:, None]).mean(axis=1)
    success = (ious[None, :] > SUCCESS_THRESHOLDS[:, None]).mean(axis=1)
    return EvalResult(
        precision=precision,
        norm_precision=norm_precision,
        success=success,
        p5=float(precision[5]),
        p20=float(precision[20]),
        np05=float(norm_precision[50]),
        success_auc=float(success.mean()),
        frame_count=len(pred),
    )


def aggregate_results(
    results: Mapping[str, EvalResult], groups: Mapping[str, Iterable[str]]
) -> dict[str, EvalResult]:
    """Average per-sequence results over named groups, every sequence with
    equal weight.  Unknown sequence ids are an error."""
    aggregated = {}
    for group, members in groups.items():
        ids = list(members)
        if not ids:
            raise ValueError(f"group {group!r} is empty")
        missing = [i for i in ids if i not in results]
        if missing:
            raise ValueError(f"group {group!r} names unknown sequences: {missing}")
        member_results = [results[i] for i in ids]
        aggregated[group] = EvalResult(
            precision=np.mean([r.precision for r in member_results], axis=0),
            norm_precision=np.mean([r.norm_precision for r in member_results], axis=0),
            success=np.mean([r.success for r in member_results], axis=0),
            p5=float(np.mean([r.p5 for r in member_results])),
            p20=float(np.mean([r.p20 for r in member_results])),
            np05=float(np.mean([r.np05 for r in member_results])),
            success_auc=float(np.mean([r.success_auc for r in member_results])),
            frame_count=sum(r.frame_count for r in member_results),
        )
    return aggregated
