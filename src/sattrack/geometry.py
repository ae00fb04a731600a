"""Aspect-ratio-aware centerness targets and the training losses built on them.

Grid points inside the ground-truth box are positive samples and receive a
centerness score in [0, 1] that decays from the box center outward.  For the
classic score the decay is isotropic, which starves elongated, low-resolution
targets (vehicles seen from orbit are a few pixels wide but many long) of
usable positives along their long axis.  The constrained variant flattens the
decay along the principal axis by raising each side ratio to an exponent
derived from the box aspect ratio, so supervision follows the object shape.
A cell's horizontal side ratio depends only on its column and its vertical
one only on its row, so a whole map is built from two 1-D profiles.

The losses consume these targets: a soft-label cross entropy for the
classification head, a centerness-weighted log-IoU loss for the regression
head, and a plain binary cross entropy for the centerness head.

On a 25x25 grid the cost of a map or a loss is numpy call overhead more
than arithmetic, so the kernels make as few array calls as they can and
stay exact: a :class:`GridGeometry` builds its read-only grid points once
and keeps them, the cross entropy clamps with ``np.minimum`` and
``np.maximum`` and averages with ``np.add.reduce`` over the size, the same
doubles as ``np.clip`` and ``mean`` without their Python wrappers, and the
regression loss proves each input finite by PSR's proof
(``motion._finite_total``): one dot product, and the cell-by-cell scan only
when that total is not finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoundingBox, overlap_areas
from .motion import _finite_total

# Predictions are clamped to [LOG_EPS, 1 - LOG_EPS] before any logarithm.
LOG_EPS = 1e-7


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

    @functools.cached_property
    def _points(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only column x and row y coordinates, built on first use
        and kept on the instance."""
        points = tuple(
            self.stride // 2 + np.arange(count, dtype=float) * self.stride
            for count in (self.width, self.height)
        )
        for axis in points:
            axis.flags.writeable = False
        return points

    def point_xs(self) -> np.ndarray:
        """Image x coordinate of every grid column (read-only)."""
        return self._points[0]

    def point_ys(self) -> np.ndarray:
        """Image y coordinate of every grid row (read-only)."""
        return self._points[1]


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


def _exponents(rho: float, params: AspectRatioParams | None) -> tuple[float, float]:
    """Horizontal and vertical side-ratio exponents ``min(1, (1/rho)**gamma)``
    and ``min(1, rho**gamma)`` of the aspect ratio ``rho = w/h``; both 1
    without params.  Values below 1 slow the centerness decay along that
    axis; they saturate at 1 so compact axes keep the classic behaviour.
    A base of 1 or more saturates without a power, which for a large
    ``gamma`` would overflow."""
    if params is None:
        return 1.0, 1.0
    if not (0.0 < rho < math.inf and 1.0 / rho < math.inf):
        raise ValueError(
            f"aspect ratio w/h must be finite and > 0 with a finite reciprocal, got {rho}"
        )
    return tuple(min(1.0, base**params.gamma) if base < 1.0 else 1.0 for base in (1.0 / rho, rho))


def _side_ratios(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min/max of the paired distances ``lo`` and ``hi`` to two opposite box
    sides where both are > 0 (else 0), and the mask of those entries."""
    near = np.minimum(lo, hi)
    inside = near > 0
    return np.divide(near, np.maximum(lo, hi), out=np.zeros(near.shape), where=inside), inside


def build_label_maps(
    gt_box: BoundingBox,
    grid: GridGeometry = GridGeometry(),
    params: AspectRatioParams | None = AspectRatioParams(),
) -> LabelMaps:
    """Label every grid cell against one ground-truth box.

    Cells strictly inside the box are positive; everything else is zero.  A
    positive cell at distances l, r, t, b from the left, right, top and
    bottom sides scores sqrt((min(l, r)/max(l, r))**e_h *
    (min(t, b)/max(t, b))**e_v), the FCOS centerness when both exponents are
    1 (``params`` None) and otherwise the exponents of :func:`_exponents` at
    rho = w/h.  A box that covers no grid point yields all-negative maps,
    ``positive_count`` 0.
    """
    x0, y0, x1, y1 = gt_box.corners
    xs, ys = grid.point_xs(), grid.point_ys()
    ratio_h, inside_x = _side_ratios(xs - x0, x1 - xs)
    ratio_v, inside_y = _side_ratios(ys - y0, y1 - ys)
    exp_h, exp_v = _exponents(gt_box.w / gt_box.h, params)
    # both profiles are zero outside the box, so negatives score zero
    centerness = np.sqrt(np.multiply.outer(ratio_v**exp_v, ratio_h**exp_h))
    labels = np.multiply.outer(inside_y, inside_x).astype(np.uint8)
    return LabelMaps(centerness, labels)


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
    # np.clip and mean give these doubles too, through slower wrappers
    p = np.minimum(np.maximum(preds, LOG_EPS), 1.0 - LOG_EPS)
    terms = targets * np.log(p) + (1.0 - targets) * np.log1p(-p)
    return float(-(np.add.reduce(terms) / terms.size))


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
    given non-negative weights, which must not all be zero.  A weight sum
    or a loss beyond float range (areas or weights near the float maximum)
    is a ``ValueError``.
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
    for array in (pred, gt, weights):
        _finite_total(array, "loss inputs")
    if (pred[:, 2:] <= 0).any() or (gt[:, 2:] <= 0).any():
        raise ValueError("box sizes must be positive")
    if weights.min() < 0:
        raise ValueError("centerness weights must be >= 0")
    with np.errstate(all="ignore"):  # an overflow is reported below
        total_weight = weights.sum()
        if total_weight <= 0:
            raise ValueError("centerness weights must not all be zero")
        if total_weight == math.inf:
            raise ValueError("centerness weights must have a finite sum")
        # an exact prediction gives intersection == union and a loss of exactly 0
        intersection, union = overlap_areas(pred, gt)
        per_sample = -np.log((intersection + 1.0) / (union + 1.0))
        loss = float((weights * per_sample).sum() / total_weight)
    if not math.isfinite(loss):
        raise ValueError("regression loss is not finite: a box area or a weighted term overflows")
    return loss

