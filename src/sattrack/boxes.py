"""Axis-aligned bounding boxes in center format (cx, cy, w, h), pixel units.

Bulk code holds boxes as ``(N, 4)`` float rows instead of one
:class:`BoundingBox` each; :func:`valid_rows` is the box's own validity
rule over such rows, and :func:`check_rows` raises the box's own error for
the first row that breaks it.

:func:`overlap_areas` is the one definition of box overlap, shared by
evaluation and the regression loss.  Every area comes from corner
differences, so equal boxes give intersection == union exactly (IoU 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Box given by its center point and a strictly positive width/height."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        # one call per field, in field order: cheaper than a loop over the
        # names, and a box is made on every refined frame
        if not math.isfinite(self.cx):
            raise ValueError("box field cx must be finite")
        if not math.isfinite(self.cy):
            raise ValueError("box field cy must be finite")
        if not math.isfinite(self.w):
            raise ValueError("box field w must be finite")
        if not math.isfinite(self.h):
            raise ValueError("box field h must be finite")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box size must be positive, got w={self.w}, h={self.h}")

    @property
    def corners(self) -> tuple[float, float, float, float]:
        """Edge coordinates (x0, y0, x1, y1)."""
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )


def box_rows(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """``(N, 4)`` float array of ``(cx, cy, w, h)`` rows, one per box."""
    return np.array([(b.cx, b.cy, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def valid_rows(rows: np.ndarray) -> np.ndarray:
    """``(N,)`` mask of the ``(N, 4)`` rows that make a valid
    :class:`BoundingBox`: every field finite, ``w, h > 0``."""
    return np.isfinite(rows).all(axis=1) & (rows[:, 2] > 0) & (rows[:, 3] > 0)


def check_rows(rows: np.ndarray):
    """Raise the ``ValueError`` :class:`BoundingBox` gives for the first of
    the ``(N, 4)`` rows that is not a valid box; return when all are."""
    valid = valid_rows(rows)
    if not valid.all():
        BoundingBox(*rows[valid.argmin()].tolist())


def overlap_areas(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection and union areas of paired ``(N, 4)`` center-format rows.
    The union takes the side lengths ``hi - lo`` rather than ``w * h``, so
    for equal rows the two are the same float and never cross."""
    a_lo, a_hi = a[:, :2] - a[:, 2:] / 2.0, a[:, :2] + a[:, 2:] / 2.0
    b_lo, b_hi = b[:, :2] - b[:, 2:] / 2.0, b[:, :2] + b[:, 2:] / 2.0
    overlap = np.clip(np.minimum(a_hi, b_hi) - np.maximum(a_lo, b_lo), 0.0, None)
    intersection = overlap[:, 0] * overlap[:, 1]
    a_sides, b_sides = a_hi - a_lo, b_hi - b_lo
    union = a_sides[:, 0] * a_sides[:, 1] + b_sides[:, 0] * b_sides[:, 1] - intersection
    return intersection, union
