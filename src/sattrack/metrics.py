"""One-pass evaluation: per-frame errors, threshold curves, summary scalars.

A tracker run is scored frame by frame against ground truth with three
errors: center location error in pixels, the same error normalized by the
ground-truth box size, and intersection over union.  Sweeping thresholds
turns these into the standard precision, normalized precision and success
curves; the headline scalars are precision at 20 px (plus 5 px for the
small-object regime), normalized precision at 0.5 and the success AUC.

Each error has one kernel over ``(N, 4)`` center-format rows
(:func:`center_errors`, :func:`normalized_center_errors`,
:func:`overlap_ratios`); a single box pair is a one-row call.
:func:`evaluate_rows` scores such rows as the trajectory reader returns
them (:func:`~sattrack.boxes.box_rows` makes them from a list of boxes).
It sorts each error once and reads every curve point as one
``searchsorted`` count, the same doubles as the mean of a
threshold-by-frame comparison.  IoU areas come from corner differences
(:func:`~sattrack.boxes.overlap_areas`), so equal boxes score exactly 1,
never above: a perfect trajectory has a success AUC of 20/21, as IoU > 1
never holds.  That holds for boxes whose areas overflow a float too:
:func:`overlap_ratios` scores such a pair again on boxes scaled by a power
of two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .boxes import overlap_areas

# Threshold grids for the three curves.
PRECISION_THRESHOLDS = np.arange(51, dtype=float)  # px, 0..50 step 1
NORM_PRECISION_THRESHOLDS = np.arange(51, dtype=float) / 100.0  # 0..0.5 step 0.01
SUCCESS_THRESHOLDS = np.arange(21, dtype=float) / 20.0  # IoU 0..1 step 0.05

# EvalResult's curves and summary scalars, by field name.
CURVE_NAMES = ("precision", "norm_precision", "success")
SUMMARY_NAMES = ("p5", "p20", "np05", "success_auc")


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


def center_errors(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-row center location error: Euclidean distance between centers, px."""
    return np.hypot(pred[:, 0] - gt[:, 0], pred[:, 1] - gt[:, 1])


def normalized_center_errors(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-row center error with each axis divided by the ground-truth box
    size, making the score resolution independent."""
    return np.hypot((pred[:, 0] - gt[:, 0]) / gt[:, 2], (pred[:, 1] - gt[:, 1]) / gt[:, 3])


def overlap_ratios(pred: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Per-row intersection over union in [0, 1]; 0 where the union rounds
    to zero (boxes narrower than the float spacing at their coordinates).

    A row whose union is finite is ``intersection / union`` as
    :func:`~sattrack.boxes.overlap_areas` gives them.  A row whose union is
    not (an area beyond float range) is computed again with both boxes
    scaled by one power of two, chosen from the pair's largest field so
    that every field is below 1 and no area can overflow.  The scale
    cancels in the ratio, bit for bit unless a scaled value is subnormal,
    so equal boxes score 1 at any size; rows holding ``inf`` or ``nan``
    still score 0."""
    intersection, union = overlap_areas(pred, gt)
    redo = ~np.isfinite(union)
    if redo.any():
        a, b = pred[redo], gt[redo]
        largest = np.maximum(np.abs(a).max(axis=1), np.abs(b).max(axis=1))
        scale = np.ldexp(1.0, -np.frexp(largest)[1])[:, None]  # largest * scale < 1
        intersection[redo], union[redo] = overlap_areas(a * scale, b * scale)
    return np.divide(intersection, union, out=np.zeros_like(union), where=union > 0)


def evaluate_rows(pred_rows: np.ndarray, gt_rows: np.ndarray) -> EvalResult:
    """Score ``(N, 4)`` predicted ``(cx, cy, w, h)`` rows against ground
    truth rows of equal length; unequal or zero lengths, or rows of another
    shape, are an error.

    Each curve point is a count over the sorted errors, divided by ``N``:
    the errors ``<= tau`` are ``searchsorted(..., side="right")``, and the
    IoUs ``> tau`` are ``N`` less that.  That is the comparison mean bit for
    bit (a bool mean adds exact 0/1 doubles and divides once by ``N``)
    because no error is NaN, which would sort last and count as above every
    ``tau``: on valid rows (finite, ``w, h > 0``) the two center errors are
    finite or ``inf``, and :func:`overlap_ratios` is 0 wherever its union,
    after the rescale of an overflowing pair, is not a positive number, on
    any rows."""
    if len(pred_rows) != len(gt_rows) or len(pred_rows) == 0:
        raise ValueError(
            f"trajectories must have equal nonzero length, got {len(pred_rows)} and {len(gt_rows)}"
        )
    if np.ndim(pred_rows) != 2 or np.shape(pred_rows) != np.shape(gt_rows) or np.shape(pred_rows)[1] != 4:
        raise ValueError(
            f"trajectories must be (N, 4) rows, got shapes {np.shape(pred_rows)} and {np.shape(gt_rows)}"
        )
    n = len(pred_rows)
    cles = center_errors(pred_rows, gt_rows)
    norm_cles = normalized_center_errors(pred_rows, gt_rows)
    ious = overlap_ratios(pred_rows, gt_rows)
    for errors in (cles, norm_cles, ious):
        errors.sort()

    precision = np.searchsorted(cles, PRECISION_THRESHOLDS, side="right") / n
    norm_precision = np.searchsorted(norm_cles, NORM_PRECISION_THRESHOLDS, side="right") / n
    success = (n - np.searchsorted(ious, SUCCESS_THRESHOLDS, side="right")) / n
    return EvalResult(
        precision=precision,
        norm_precision=norm_precision,
        success=success,
        p5=float(precision[5]),
        p20=float(precision[20]),
        np05=float(norm_precision[50]),
        success_auc=float(success.mean()),
        frame_count=len(pred_rows),
    )


def _checked_groups(groups: Mapping[str, Iterable[str]], names) -> dict[str, list[str]]:
    """Each group's members as a list, checked by the one rule a group of
    sequences keeps: it is not empty and names only sequences in ``names``."""
    checked = {}
    for group, members in groups.items():
        ids = list(members)
        if not ids:
            raise ValueError(f"group {group!r} is empty")
        missing = [i for i in ids if i not in names]
        if missing:
            raise ValueError(f"group {group!r} names unknown sequences: {missing}")
        checked[group] = ids
    return checked


def aggregate_results(
    results: Mapping[str, EvalResult], groups: Mapping[str, Iterable[str]]
) -> dict[str, EvalResult]:
    """Average per-sequence results over named groups, every sequence with
    equal weight.  Unknown sequence ids are an error."""
    aggregated = {}
    for group, ids in _checked_groups(groups, results).items():
        members = [results[i] for i in ids]
        means = {n: np.mean([getattr(r, n) for r in members], axis=0) for n in CURVE_NAMES}
        means.update({n: float(np.mean([getattr(r, n) for r in members])) for n in SUMMARY_NAMES})
        aggregated[group] = EvalResult(**means, frame_count=sum(r.frame_count for r in members))
    return aggregated
