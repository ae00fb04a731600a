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
a real-time hot path, so it works on floats: one kernel scores the map,
picks the branch and pushes the refined ``(cx, cy, w, h)`` row tuple into
the tracker state, whose history is those rows in a doubled ring buffer:
every row is written twice, ``capacity`` rows apart, so the recent window
is always one contiguous slice and a push costs O(1).
:func:`refine_step` runs the kernel for one :class:`BoundingBox`;
:func:`track_rows` runs it over a whole sequence of ``(T, 4)`` rows and
returns the refined rows and the trace as columns, with no per-frame
object.  Both therefore give the same floats.

On a 25x25 map the cost of a step is numpy call overhead, not arithmetic,
so each step makes as few array calls as it can and stays exact:

* PSR takes one dot product of the map with a cached read-only ones vector
  (the whole-map total: a finite total proves every cell finite, so the
  cell-by-cell scan runs only when it is not; minus the 3x3 block, it
  gives the sidelobe mean), one ``argmax``, a ``min`` only when the peak
  is cell 0 (``argmax`` returns the first maximum, so only there can the
  map be flat), the block summed in Python from ``tolist()``, and one dot
  product of the centred map with the block zeroed in that copy (not the
  whole-map squares minus the block's, which cancel under tall peaks).
* Each branch is one dot product of a cached read-only ``(n1,)`` weight
  vector with the ``(n1, 4)`` window (``_branch_weights``): the low branch
  weights evaluate the least-squares line of each column at ``n1``, the
  high branch weights are ``-1/n2**2`` on the older and ``+1/n2**2`` on the
  newer half of the last ``2*n2`` rows.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .boxes import BoundingBox, check_rows

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
    h)`` rows.
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

    def _window(self) -> np.ndarray:
        """The stored rows, oldest first, as one contiguous ``(count, 4)`` view."""
        end = self._slot + self.capacity
        return self._ring[end - self._count : end]

    def _push(self, row):
        """Store one ``(cx, cy, w, h)`` row, a tuple or list of floats."""
        self._ring[self._slot :: self.capacity] = row
        self._slot = (self._slot + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)


@functools.lru_cache(maxsize=16)
def _ones(size: int) -> np.ndarray:
    """A read-only vector of ``size`` ones, built once per map size: a dot
    product with it is the cheapest whole-map sum."""
    ones = np.ones(size)
    ones.flags.writeable = False
    return ones


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
    total = float(np.vdot(response, _ones(response.size)))
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
    peak_index = int(response.argmax())
    # argmax returns the first maximum, so a flat map peaks at cell 0 and a
    # peak anywhere else proves the map is not flat.
    if peak_index == 0 and response[0, 0] == response.min():
        return 0.0  # flat map: peak equals the sidelobe mean exactly
    pi, pj = divmod(peak_index, width)
    i0, i1 = max(pi - 1, 0), min(pi + 2, height)
    j0, j1 = max(pj - 1, 0), min(pj + 2, width)
    block = response[i0:i1, j0:j1].tolist()
    sidelobe_count = response.size - len(block) * len(block[0])
    if sidelobe_count == 0:
        raise ValueError(f"map {response.shape} has no sidelobe outside the peak block")
    peak = block[pi - i0][pj - j0]
    # Sidelobe statistics without gathering: the mean is the whole-map sum
    # minus the block; the squares are summed with the block zeroed out.
    mean = (total - sum(map(sum, block))) / sidelobe_count
    centered = response - mean
    centered[i0:i1, j0:j1] = 0.0
    std = math.sqrt(np.vdot(centered, centered) / sidelobe_count)
    return (peak - mean) / (std + PSR_EPS)


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
def _branch_weights(n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(n1,)`` weights that turn each branch into one dot product
    with the ``(n1, 4)`` history window, built once per ``(n1, n2)``.

    ``low @ window`` is the least-squares line of every column evaluated
    one step past the window, ``sum_i x_i (1/n1 + (i - mid)(n1 - mid)/norm)``.
    ``high @ window`` holds the mean velocity of the last ``2*n2`` centres
    in its first two entries: ``-1/n2**2`` on rows ``n1-2*n2 .. n1-n2-1``,
    ``+1/n2**2`` on the last ``n2`` rows, zero elsewhere.
    """
    mid = 0.5 * (n1 - 1)
    centered = np.arange(n1, dtype=float) - mid
    low = 1.0 / n1 + centered * ((n1 - mid) / float(centered @ centered))
    high = np.zeros(n1)
    high[n1 - 2 * n2 : n1 - n2] = -1.0 / (n2 * n2)
    high[n1 - n2 :] = 1.0 / (n2 * n2)
    low.flags.writeable = False
    high.flags.writeable = False
    return low, high


def _advance(state: TrackerState, row, response, params: MotionParams):
    """Advance the tracker by one frame on floats; return the refined
    ``(cx, cy, w, h)``, which is ``row`` itself during warm-up.

    Scores the response map, advances the frame counter, picks the branch
    described in the module docstring, pushes the result into the history
    and sets ``last_psr``, ``last_npsr`` and ``last_branch``.  Past warm-up
    the history must hold exactly ``n1`` rows; a shorter one means the state
    was fed inconsistently and is reported as an error.  A refined row with
    a non-finite field is rejected with :class:`BoundingBox`'s message.
    """
    n1 = params.n1
    if state.capacity != n1:
        raise ValueError(f"state history capacity {state.capacity} does not match n1={n1}")
    value, npsr = _score(response, state)
    state.frame_index += 1

    if state.frame_index <= n1:
        refined = row
        branch = WARMUP
    else:
        if state._count < n1:
            raise ValueError(
                f"frame {state.frame_index} is past warm-up but history holds "
                f"{state._count} boxes instead of {n1}"
            )
        window = state._window()
        low, high = _branch_weights(n1, params.n2)
        lam = params.lambda_ema
        prev_cx, prev_cy, prev_w, prev_h = window[-1].tolist()
        if npsr < params.theta:
            cx, cy, fit_w, fit_h = (low @ window).tolist()
            w = lam * fit_w + (1.0 - lam) * prev_w
            h = lam * fit_h + (1.0 - lam) * prev_h
            branch = LOW_CONFIDENCE
        else:
            model_cx, model_cy, model_w, model_h = row
            vx, vy, _, _ = (high @ window).tolist()
            alpha = npsr * npsr
            cx = prev_cx + alpha * (model_cx - prev_cx) + (1.0 - alpha) * vx
            cy = prev_cy + alpha * (model_cy - prev_cy) + (1.0 - alpha) * vy
            w = lam * model_w + (1.0 - lam) * prev_w
            h = lam * model_h + (1.0 - lam) * prev_h
            branch = HIGH_CONFIDENCE
        w, h = max(w, MIN_SIZE), max(h, MIN_SIZE)
        # a non-finite field makes the sum non-finite; a finite sum that
        # overflows is let through by the box's own check
        if not math.isfinite(cx + cy + w + h):
            BoundingBox(cx, cy, w, h)
        refined = (cx, cy, w, h)

    state._push(refined)
    state.last_psr = value
    state.last_npsr = npsr
    state.last_branch = branch
    return refined


def refine_step(
    state: TrackerState,
    model_box: BoundingBox,
    response,
    params: MotionParams,
) -> BoundingBox:
    """Advance the tracker by one frame and return the refined box: the
    per-frame kernel of :func:`track_rows` for one :class:`BoundingBox`.
    During warm-up the model box itself is returned."""
    row = (model_box.cx, model_box.cy, model_box.w, model_box.h)
    refined = _advance(state, row, response, params)
    return model_box if refined is row else BoundingBox(*refined)


def track_rows(
    raw_rows, maps, params: MotionParams, ommr_enabled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Run the online refinement (or the raw model verbatim) over a sequence.

    ``raw_rows`` are the raw model's ``(T, 4)`` ``(cx, cy, w, h)`` rows and
    ``maps`` its ``T`` response maps (a ``(T, H, W)`` array or a sequence of
    ``(H, W)`` maps), frame ``k + 1`` at index ``k``.  Returns the ``(T, 4)``
    trajectory rows and the trace as columns: ``(T,)`` PSR and normalized
    PSR and the ``T`` branch labels.  With refinement on, every frame goes
    through the kernel of :func:`refine_step`; off, the trajectory is a copy
    of the raw rows and the maps are still scored, under branch label
    ``"raw"``.
    """
    raw = np.asarray(raw_rows, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 4:
        raise ValueError(f"raw rows must be (T, 4), got shape {raw.shape}")
    if len(raw) < 2:
        raise ValueError(f"scenario must have at least 2 frames, got {len(raw)}")
    if len(maps) != len(raw):
        raise ValueError(f"{len(raw)} raw rows but {len(maps)} response maps")
    check_rows(raw)
    # off, only the running PSR maximum is read, so no n1-row history is kept
    state = TrackerState(capacity=params.n1 if ommr_enabled else 1)
    psrs, npsrs = [], []
    if ommr_enabled:
        rows, branches = [], []
        for row, response in zip(raw.tolist(), maps):
            rows.append(_advance(state, row, response, params))
            psrs.append(state.last_psr)
            npsrs.append(state.last_npsr)
            branches.append(state.last_branch)
        rows = np.array(rows, dtype=float)
    else:
        for response in maps:
            value, npsr = _score(response, state)
            psrs.append(value)
            npsrs.append(npsr)
        rows, branches = raw.copy(), ["raw"] * len(raw)
    return rows, np.array(psrs, dtype=float), np.array(npsrs, dtype=float), branches

