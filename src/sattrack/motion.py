"""Confidence-gated online refinement of raw tracker outputs.

The quality of a response map is measured by its peak-to-sidelobe ratio
(PSR); dividing by the running per-sequence maximum turns that into a
normalized score in [0, 1].  Each frame the refinement keeps, blends or
overrides the raw model box:

* warm-up: for the first ``n1`` frames the model box passes through
  untouched while history accumulates;
* low confidence (normalized PSR below ``theta``): the model box is
  ignored and the new box is extrapolated from a least-squares linear fit
  of the recent center and size history;
* high confidence: the model displacement is blended with the mean
  historical velocity, weighted by the squared normalized PSR, and the
  size follows an exponential moving average.

All positions are pixel units, center-format boxes.  The per-frame step is
a real-time hot path, so the tracker state stores its history once, as
``(cx, cy, w, h)`` rows in a doubled ring buffer: every row is written twice,
``capacity`` rows apart, so the recent window is always one contiguous slice
and a push costs O(1).  ``TrackerState.history`` is a read-only view built
from those rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoundingBox

PSR_EPS = 1e-6
MIN_SIZE = 1.0

WARMUP = "warmup"
LOW_CONFIDENCE = "low"
HIGH_CONFIDENCE = "high"


@dataclass(frozen=True)
class MotionParams:
    """Refinement settings.

    n1         -- history length and warm-up duration, in frames
    n2         -- velocity window; the mean velocity uses the last 2*n2 centers
    theta      -- normalized-PSR threshold separating the two branches
    lambda_ema -- weight of the newest size in the size moving average
    """

    n1: int = 50
    n2: int = 10
    theta: float = 0.5
    lambda_ema: float = 0.7

    def __post_init__(self):
        if self.n2 < 1:
            raise ValueError(f"n2 must be >= 1, got {self.n2}")
        if self.n1 <= 2 * self.n2:
            raise ValueError(
                f"n1 must exceed 2*n2 so the velocity window fits the history, "
                f"got n1={self.n1}, n2={self.n2}"
            )
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not (0.0 <= self.lambda_ema <= 1.0):
            raise ValueError(f"lambda_ema must lie in [0, 1], got {self.lambda_ema}")


class TrackerState:
    """Mutable per-sequence state: a bounded box history (chronological,
    oldest evicted first, at most ``capacity`` boxes), the running PSR
    maximum and the current frame index.  The last scored PSR, normalized
    PSR and branch label are kept for tracing.

    The history lives only in a ``(2 * capacity, 4)`` ring of ``(cx, cy, w,
    h)`` rows; ``history`` rebuilds the boxes from it and cannot be mutated.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"history capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.psr_max = 0.0
        self.frame_index = 0
        self.last_psr = 0.0
        self.last_npsr = 0.0
        self.last_branch = ""
        self._ring = np.zeros((2 * capacity, 4))
        self._slot = 0  # ring row the next box goes to (and capacity rows on)
        self._count = 0

    @property
    def history(self) -> tuple[BoundingBox, ...]:
        """The stored boxes, oldest first."""
        return tuple(BoundingBox(*row) for row in self._window().tolist())

    def _window(self) -> np.ndarray:
        """The stored rows, oldest first, as one contiguous ``(count, 4)`` view."""
        end = self._slot + self.capacity
        return self._ring[end - self._count : end]

    def _push(self, box: BoundingBox):
        self._ring[self._slot :: self.capacity] = (box.cx, box.cy, box.w, box.h)
        self._slot = (self._slot + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)


def _check_response(response) -> tuple[np.ndarray, float]:
    """Validate a response map; return it as a float array with its cell sum.

    A finite sum proves every cell finite, so the cell-by-cell scan only runs
    when the sum is not (non-finite cells, or finite cells that overflow).
    """
    response = np.asarray(response, dtype=float)
    if response.ndim != 2:
        raise ValueError(f"response map must be 2-D, got shape {response.shape}")
    if response.shape[0] < 3 or response.shape[1] < 3:
        raise ValueError(f"response map must be at least 3x3, got {response.shape}")
    total = response.sum()
    if not math.isfinite(total) and not np.isfinite(response).all():
        raise ValueError("response map must be finite")
    return response, total


def psr(response) -> float:
    """Peak-to-sidelobe ratio of a response map.

    The sidelobe is every cell outside the 3x3 block around the global peak
    (ties resolved to the first peak in row-major order; the block is clipped
    at the borders).  Returns (peak - mean) / (std + eps) with the population
    standard deviation of the sidelobe, so a constant map scores 0.
    """
    response, total = _check_response(response)
    height, width = response.shape
    flat = response.ravel()
    peak_index = int(flat.argmax())
    pi, pj = divmod(peak_index, width)
    i0, i1 = max(pi - 1, 0), min(pi + 2, height)
    j0, j1 = max(pj - 1, 0), min(pj + 2, width)
    block = response[i0:i1, j0:j1]
    sidelobe_count = flat.size - block.size
    if sidelobe_count == 0:
        raise ValueError(f"map {response.shape} has no sidelobe outside the peak block")
    peak = flat[peak_index]
    if peak == flat.min():
        return 0.0  # flat map: peak equals the sidelobe mean exactly
    # Sidelobe statistics without gathering: the mean is the whole-map sum
    # minus the block; the squares are summed with the block zeroed out.
    mean = (total - block.sum()) / sidelobe_count
    centered = flat - mean
    centered.reshape(height, width)[i0:i1, j0:j1] = 0.0
    std = math.sqrt(centered @ centered / sidelobe_count)
    return float((peak - mean) / (std + PSR_EPS))


def _score(response, state: TrackerState) -> tuple[float, float]:
    """Score a response map, raise ``state.psr_max`` and return (psr, npsr)."""
    value = psr(response)
    state.psr_max = max(state.psr_max, value)
    return value, (value / state.psr_max if state.psr_max > 0.0 else 0.0)


def normalized_psr(response, state: TrackerState) -> float:
    """PSR divided by the running per-sequence maximum.

    The maximum is raised first, so the result always lies in [0, 1]; while
    the maximum is still zero the score is defined as 0.
    """
    return _score(response, state)[1]


@functools.lru_cache(maxsize=16)
def _fit_indices(count: int) -> tuple[np.ndarray, float, float]:
    """Indices 0..count-1 minus their mean, their squared norm and the mean,
    built once per length; the vector is read-only as every call shares it."""
    mid = 0.5 * (count - 1)
    centered = np.arange(count, dtype=float) - mid
    centered.flags.writeable = False
    return centered, float(centered @ centered), mid


def linear_fit(series) -> tuple[np.ndarray, np.ndarray]:
    """Ordinary least-squares line through a (K, d) series sampled at
    0, 1, ..., K-1.  Returns (slope, intercept), each shape (d,)."""
    series = np.asarray(series, dtype=float)
    if series.ndim == 1:
        series = series[:, None]
    count = series.shape[0]
    if count < 2:
        raise ValueError(f"linear fit needs at least 2 samples, got {count}")
    centered, norm, mid = _fit_indices(count)
    slope = (centered @ series) / norm
    intercept = series.sum(axis=0) / count - slope * mid
    return slope, intercept


def fit_value(slope: np.ndarray, intercept: np.ndarray, index: float) -> np.ndarray:
    """Evaluate a fitted line at the given sample index."""
    return intercept + slope * index


def instantaneous_velocity(centers, n2: int) -> np.ndarray:
    """Mean per-frame velocity over the last 2*n2 center positions.

    Averages the n2 displacements between the older and newer halves of the
    window, each spanning n2 frames, hence the 1/n2**2 normalization.
    """
    centers = np.asarray(centers, dtype=float)
    if n2 < 1:
        raise ValueError(f"n2 must be >= 1, got {n2}")
    if centers.ndim != 2 or centers.shape[0] < 2 * n2:
        raise ValueError(f"need at least {2 * n2} centers, got shape {centers.shape}")
    newer = centers[-n2:].sum(axis=0)
    older = centers[-2 * n2 : -n2].sum(axis=0)
    return (newer - older) / float(n2 * n2)


def refine_step(
    state: TrackerState,
    model_box: BoundingBox,
    response,
    params: MotionParams,
) -> BoundingBox:
    """Advance the tracker by one frame and return the refined box.

    Scores the response map, advances the frame counter, picks the branch
    described in the module docstring and appends the result to the history.
    Past warm-up the history must hold exactly ``n1`` boxes; a shorter one
    means the state was fed inconsistently and is reported as an error.
    """
    n1 = params.n1
    if state.capacity != n1:
        raise ValueError(f"state history capacity {state.capacity} does not match n1={n1}")
    value, npsr = _score(response, state)
    state.frame_index += 1

    if state.frame_index <= n1:
        refined = model_box
        branch = WARMUP
    else:
        if state._count < n1:
            raise ValueError(
                f"frame {state.frame_index} is past warm-up but history holds "
                f"{state._count} boxes instead of {n1}"
            )
        window = state._window()
        lam = params.lambda_ema
        prev_cx, prev_cy, prev_w, prev_h = window[-1].tolist()
        if npsr < params.theta:
            slope, intercept = linear_fit(window)
            cx, cy, fit_w, fit_h = fit_value(slope, intercept, n1).tolist()
            w = lam * fit_w + (1.0 - lam) * prev_w
            h = lam * fit_h + (1.0 - lam) * prev_h
            branch = LOW_CONFIDENCE
        else:
            vx, vy = instantaneous_velocity(window[:, :2], params.n2).tolist()
            alpha = npsr * npsr
            cx = prev_cx + alpha * (model_box.cx - prev_cx) + (1.0 - alpha) * vx
            cy = prev_cy + alpha * (model_box.cy - prev_cy) + (1.0 - alpha) * vy
            w = lam * model_box.w + (1.0 - lam) * prev_w
            h = lam * model_box.h + (1.0 - lam) * prev_h
            branch = HIGH_CONFIDENCE
        refined = BoundingBox(cx, cy, max(w, MIN_SIZE), max(h, MIN_SIZE))

    state._push(refined)
    state.last_psr = value
    state.last_npsr = npsr
    state.last_branch = branch
    return refined


def peak_to_box(response, scale: float, prev_size: tuple[float, float]) -> BoundingBox:
    """Convert the response peak cell to an image-space box.

    Cell (i, j) maps to pixel (floor(scale/2) + j*scale, floor(scale/2) +
    i*scale); the box keeps the previous size.
    """
    response, _ = _check_response(response)
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be positive, got {scale}")
    pi, pj = np.unravel_index(int(np.argmax(response)), response.shape)
    offset = math.floor(scale / 2.0)
    return BoundingBox(
        float(offset + pj * scale),
        float(offset + pi * scale),
        prev_size[0],
        prev_size[1],
    )
