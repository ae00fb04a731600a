"""Aspect-ratio-aware centerness targets and the training losses built on them.

Grid points inside the ground-truth box are positive samples and receive a
centerness score in [0, 1] that decays from the box center outward.  For the
classic score the decay is isotropic, which starves elongated, low-resolution
targets (vehicles seen from orbit are a few pixels wide but many long) of
usable positives along their long axis.  The constrained variant flattens the
decay along the principal axis by raising each side ratio to an exponent
derived from the box aspect ratio, so supervision follows the object shape.
A cell's horizontal side ratio depends only on its column and its vertical
one only on its row, so a whole map is built from two 1-D profiles.  The
scalar scores are the same code at one cell, but take rho = (l+r)/(t+b)
where the map takes w/h, so the two agree bitwise only where those do.

The losses consume these targets: a soft-label cross entropy for the
classification head, a centerness-weighted log-IoU loss for the regression
head, and a plain binary cross entropy for the centerness head.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .boxes import BoundingBox, overlap_areas

# Predictions are clamped to [LOG_EPS, 1 - LOG_EPS] before any logarithm.
LOG_EPS = 1e-7


@dataclass(frozen=True)
class RegressionTarget:
    """Distances from a grid point to the left/right/top/bottom box sides."""

    l: float
    r: float
    t: float
    b: float

    def __post_init__(self):
        sides = (self.l, self.r, self.t, self.b)
        if not all(math.isfinite(s) for s in sides):
            raise ValueError("regression target sides must be finite")
        if min(sides) < 0:
            raise ValueError(f"regression target sides must be >= 0, got {sides}")


@dataclass(frozen=True)
class AspectRatioParams:
    """Tuning of the aspect-ratio constraint.

    ``gamma`` controls how fast the side-ratio exponents react to elongation:
    the exponent applied to the horizontal side ratio is min(1, (1/rho)**gamma)
    and the vertical one min(1, rho**gamma), where rho = w / h.  Exponents
    below one flatten the decay along that axis.
    """

    gamma: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(f"gamma must be > 0, got {self.gamma}")


@dataclass(frozen=True)
class GridGeometry:
    """Dense prediction grid: height x width cells, one point every `stride` px.

    Cell (i, j) maps to image location (stride//2 + j*stride,
    stride//2 + i*stride); the defaults describe a 25x25 head over a 255x255
    search crop.
    """

    stride: int = 8
    height: int = 25
    width: int = 25

    def __post_init__(self):
        if self.stride <= 0 or self.height <= 0 or self.width <= 0:
            raise ValueError("grid stride and shape must be positive")

    def point_xs(self) -> np.ndarray:
        """Image x coordinate of every grid column."""
        return self.stride // 2 + np.arange(self.width, dtype=float) * self.stride

    def point_ys(self) -> np.ndarray:
        """Image y coordinate of every grid row."""
        return self.stride // 2 + np.arange(self.height, dtype=float) * self.stride


@dataclass(frozen=True)
class LabelMaps:
    """Per-cell training targets for one ground-truth box.

    centerness -- (H, W) float64 scores in [0, 1], zero outside the box
    labels     -- (H, W) uint8, 1 where the cell is a positive sample
    """

    centerness: np.ndarray
    labels: np.ndarray

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())


def _check_nondegenerate(target: RegressionTarget):
    if target.l + target.r <= 0 or target.t + target.b <= 0:
        raise ValueError(
            "degenerate box: l+r and t+b must both be positive, "
            f"got l+r={target.l + target.r}, t+b={target.t + target.b}"
        )


def _exponents(rho: float, params: AspectRatioParams | None) -> tuple[float, float]:
    """Horizontal and vertical side-ratio exponents ``min(1, (1/rho)**gamma)``
    and ``min(1, rho**gamma)`` of the aspect ratio ``rho = w/h``; both 1
    without params.  Values below 1 slow the centerness decay along that
    axis; they saturate at 1 so compact axes keep the classic behaviour."""
    if params is None:
        return 1.0, 1.0
    if not (0.0 < rho < math.inf and 1.0 / rho < math.inf):
        raise ValueError(
            f"aspect ratio w/h must be finite and > 0 with a finite reciprocal, got {rho}"
        )
    return min(1.0, (1.0 / rho) ** params.gamma), min(1.0, rho**params.gamma)


def _side_ratios(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min/max of the paired distances ``lo`` and ``hi`` to two opposite box
    sides where both are > 0 (else 0), and the mask of those entries."""
    near = np.minimum(lo, hi)
    inside = near > 0
    return np.divide(near, np.maximum(lo, hi), out=np.zeros(near.shape), where=inside), inside


def _centerness(ratio_h, ratio_v, rho: float, params: AspectRatioParams | None) -> np.ndarray:
    exp_h, exp_v = _exponents(rho, params)
    return np.sqrt(np.multiply.outer(ratio_v**exp_v, ratio_h**exp_h))


def _cell_centerness(target: RegressionTarget, params: AspectRatioParams | None) -> float:
    _check_nondegenerate(target)
    ratios, _ = _side_ratios(np.array([target.l, target.t]), np.array([target.r, target.b]))
    rho = (target.l + target.r) / (target.t + target.b)
    return float(_centerness(ratios[:1], ratios[1:], rho, params)[0, 0])


def classic_centerness(target: RegressionTarget) -> float:
    """Isotropic centerness: sqrt of the product of the two side ratios.

    Equals 1 at the box center and falls to 0 on the boundary at the same
    rate in both axes, regardless of the box shape.
    """
    return _cell_centerness(target, None)


def constrained_centerness(target: RegressionTarget, params: AspectRatioParams) -> float:
    """Centerness with the decay flattened along the box principal axis.

    The aspect ratio rho = (l+r)/(t+b) selects the exponents: a wide box
    (rho > 1) gets a horizontal exponent below one, so moving off-center
    along the width costs less score; the perpendicular axis keeps the
    classic decay.  For square boxes both exponents are 1 and the score
    equals :func:`classic_centerness`.
    """
    if params is None:
        raise TypeError("constrained_centerness needs AspectRatioParams")
    return _cell_centerness(target, params)


def build_label_maps(
    gt_box: BoundingBox,
    grid: GridGeometry = GridGeometry(),
    params: AspectRatioParams | None = AspectRatioParams(),
) -> LabelMaps:
    """Label every grid cell against one ground-truth box.

    Cells strictly inside the box are positive and scored with
    :func:`constrained_centerness` (or :func:`classic_centerness` when
    ``params`` is None); everything else is zero.  A box that covers no grid
    point yields all-negative maps and a warning.
    """
    x0, y0, x1, y1 = gt_box.corners
    xs, ys = grid.point_xs(), grid.point_ys()
    ratio_h, inside_x = _side_ratios(xs - x0, x1 - xs)
    ratio_v, inside_y = _side_ratios(ys - y0, y1 - ys)
    if not (inside_x.any() and inside_y.any()):
        warnings.warn(
            "ground-truth box covers no grid point; all cells are negative",
            stacklevel=2,
        )
    # both profiles are zero outside the box, so negatives score zero
    centerness = _centerness(ratio_h, ratio_v, gt_box.w / gt_box.h, params)
    labels = np.multiply.outer(inside_y, inside_x).astype(np.uint8)
    return LabelMaps(centerness, labels)


def soft_cls_target(c_target: float, c_pred: float, label: int) -> float:
    """Soft classification label from centerness agreement.

    Negative samples stay 0.  A positive sample is labelled by the ratio
    min/max of the target and predicted centerness, so the classification
    head is rewarded in proportion to how consistent the two heads are.
    Two exact zeros count as perfect agreement.
    """
    if label not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {label}")
    for name, value in (("c_target", c_target), ("c_pred", c_pred)):
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1], got {value}")
    if label == 0:
        return 0.0
    if c_target == c_pred:
        return 1.0
    return min(c_target, c_pred) / max(c_target, c_pred)


def _soft_binary_cross_entropy(preds, targets) -> float:
    preds = np.asarray(preds, dtype=float).ravel()
    targets = np.asarray(targets, dtype=float).ravel()
    if preds.size == 0:
        raise ValueError("loss inputs must be non-empty")
    if preds.shape != targets.shape:
        raise ValueError(f"shape mismatch: {preds.shape} vs {targets.shape}")
    for name, arr in (("predictions", preds), ("targets", targets)):
        # one check: NaN and +-inf fail the comparisons as well
        if not (arr.min() >= 0.0 and arr.max() <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    p = np.clip(preds, LOG_EPS, 1.0 - LOG_EPS)
    terms = targets * np.log(p) + (1.0 - targets) * np.log1p(-p)
    return float(-terms.mean())


def cls_loss(preds, soft_targets) -> float:
    """Mean binary cross entropy of classification scores against soft labels."""
    return _soft_binary_cross_entropy(preds, soft_targets)


def centerness_loss(c_pred, c_target) -> float:
    """Mean binary cross entropy of predicted centerness against targets."""
    return _soft_binary_cross_entropy(c_pred, c_target)


def regression_loss(pred_boxes, gt_boxes, centerness_weights) -> float:
    """Centerness-weighted log-IoU regression loss.

    Boxes are (N, 4) arrays in center format.  Each sample contributes
    -log((intersection + 1) / (union + 1)), the +1 smoothing keeping the
    term finite for disjoint boxes; contributions are averaged with the
    given non-negative weights, which must not all be zero.
    """
    pred = np.asarray(pred_boxes, dtype=float)
    gt = np.asarray(gt_boxes, dtype=float)
    weights = np.asarray(centerness_weights, dtype=float).ravel()
    if pred.ndim != 2 or pred.shape[1] != 4 or pred.shape != gt.shape:
        raise ValueError(
            f"boxes must be matching (N, 4) arrays, got {pred.shape} and {gt.shape}"
        )
    if pred.shape[0] == 0:
        raise ValueError("loss inputs must be non-empty")
    if weights.shape[0] != pred.shape[0]:
        raise ValueError(
            f"expected {pred.shape[0]} weights, got {weights.shape[0]}"
        )
    if not (np.isfinite(pred).all() and np.isfinite(gt).all() and np.isfinite(weights).all()):
        raise ValueError("loss inputs must be finite")
    if (pred[:, 2:] <= 0).any() or (gt[:, 2:] <= 0).any():
        raise ValueError("box sizes must be positive")
    if weights.min() < 0:
        raise ValueError("centerness weights must be >= 0")
    total_weight = weights.sum()
    if total_weight <= 0:
        raise ValueError("centerness weights must not all be zero")

    # an exact prediction gives intersection == union and a loss of exactly 0
    intersection, union = overlap_areas(pred, gt)
    per_sample = -np.log((intersection + 1.0) / (union + 1.0))
    return float((weights * per_sample).sum() / total_weight)

