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
picks the branch, pushes the refined ``(cx, cy, w, h)`` row tuple into the
tracker state and returns the frame's record ``(refined, psr, npsr,
branch)``.  The history is those rows in a doubled ring buffer: every row
is written twice, ``capacity`` rows apart, so the recent window is always
one contiguous slice and a push costs O(1).  :func:`refine_step` scores
its map with :func:`psr` and runs the kernel for one
:class:`BoundingBox`; :func:`track_rows` scores the whole sequence's maps
first and runs the kernel over its ``(T, 4)`` rows, returning the records
as columns, with no per-frame object.  Both give the same floats.

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
* A whole sequence is scored ``_SCORE_BLOCK`` maps per pass
  (:func:`_psr_maps`), with the operations of :func:`psr` in the same
  order, so bit for bit the same values: each sum is one ``ddot`` per map,
  a ``(1, N) @ (N, 1)`` product in a stacked ``matmul``, never a
  matrix-vector product, which sums in another order; the clipped 3x3
  block, padded with exact zeros, is summed by Python's ``sum`` as in
  :func:`psr`.  A block's temporaries are a few blocks of maps in size,
  never the sequence's.  One map per call (:func:`refine_step`) stays on
  :func:`psr`: a batched pass over a single map costs several times more.
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
    maximum and the current frame index.  :func:`refine_step` keeps the
    PSR, normalized PSR and branch label of its last frame on the state.

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


# Maps scored per batched pass: temporaries stay a few blocks of maps in size.
_SCORE_BLOCK = 64
# Row and column offsets of the 3x3 block around a peak.
_BLOCK_OFFSETS = np.array([-1, 0, 1])


def _psr_maps(maps) -> list[float]:
    """``[psr(m) for m in maps]`` bit for bit, ``_SCORE_BLOCK`` maps per
    batched pass.  ``maps`` is a ``(T, H, W)`` array or a sequence of
    ``(H, W)`` maps; a block whose maps do not stack into one ``(n, H, W)``
    array (mixed shapes, maps that are not 2-D) is scored map by map."""
    values = []
    for start in range(0, len(maps), _SCORE_BLOCK):
        chunk = maps[start : start + _SCORE_BLOCK]
        try:
            block = np.asarray(chunk, dtype=float)
        except (TypeError, ValueError):
            block = None
        if block is None or block.ndim != 3:
            values += map(psr, chunk)
        else:
            values += _psr_block(block)
    return values


def _psr_block(block: np.ndarray) -> list[float]:
    """``psr`` of each map of an ``(n, H, W)`` block: :func:`psr`'s float
    operations in :func:`psr`'s order, as the module docstring sets out.
    Each ``(1, N) @ (N, 1)`` product of a stacked ``matmul`` runs numpy's
    dot loop (BLAS ``ddot``) on one map, as ``vdot`` does."""
    count, height, width = block.shape
    if height < 3 or width < 3:
        raise ValueError(f"response map must be at least 3x3, got {(height, width)}")
    size = height * width
    flat = block.reshape(count, size)  # a view, for a contiguous block
    index = np.arange(count)
    with np.errstate(all="ignore"):  # as in psr, an overflow or a nan gives no warning
        totals = (flat[:, None, :] @ _ones(size)[:, None])[:, 0, 0]
        finite = np.isfinite(totals)
        if not finite.all() and not np.isfinite(flat[~finite]).all():
            raise ValueError("response map must be finite")
        peaks = flat.argmax(axis=1)
        at_zero = index[peaks == 0]
        flat_maps = at_zero[flat[at_zero, 0] == flat[at_zero].min(axis=1)]
        # (n, 3, 3): the block's cells, as indices into the flattened block,
        # clipped into the map, and which of them the clipping left in place
        pi, pj = np.divmod(peaks, width)
        rows, cols = pi[:, None] + _BLOCK_OFFSETS, pj[:, None] + _BLOCK_OFFSETS
        clipped_rows, clipped_cols = np.clip(rows, 0, height - 1), np.clip(cols, 0, width - 1)
        first = clipped_rows * width + index[:, None] * size  # each block row's cell in column 0
        cells = first[:, :, None] + clipped_cols[:, None, :]
        inside = (clipped_rows == rows)[:, :, None] & (clipped_cols == cols)[:, None, :]
        sidelobe_counts = size - inside.sum(axis=(1, 2))
        if (height, width) == (3, 3) and np.setdiff1d(index[sidelobe_counts == 0], flat_maps).size:
            raise ValueError(f"map {(height, width)} has no sidelobe outside the peak block")
        gathered = np.where(inside, flat.reshape(-1)[cells], 0.0)
        # Python's sum, as in psr, whose rounding changed in Python 3.12; a
        # padded 0.0 changes neither its naive nor its compensated sum
        sums = np.array([sum(map(sum, block_rows)) for block_rows in gathered.tolist()])
        means = (totals - sums) / sidelobe_counts
        centered = flat - means[:, None]
        centered.reshape(-1)[cells] = 0.0
        squares = (centered[:, None, :] @ centered[:, :, None])[:, 0, 0]
        values = (flat[index, peaks] - means) / (np.sqrt(squares / sidelobe_counts) + PSR_EPS)
    values[flat_maps] = 0.0
    return values.tolist()


def _normalize(value: float, state: TrackerState) -> float:
    """Raise ``state.psr_max`` to a frame's PSR ``value`` and return the
    normalized PSR, ``value / state.psr_max``."""
    state.psr_max = max(state.psr_max, value)
    return value / state.psr_max if state.psr_max > 0.0 else 0.0


def normalized_psr(response, state: TrackerState) -> float:
    """PSR divided by the running per-sequence maximum.

    The maximum is raised first, so the result always lies in [0, 1]; while
    the maximum is still zero the score is defined as 0.
    """
    return _normalize(psr(response), state)


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


def _advance(state: TrackerState, row, value: float, params: MotionParams):
    """Advance the tracker by one frame on floats, given the frame's PSR
    ``value``; return the frame's record ``(refined, psr, npsr, branch)``.
    ``refined`` is the refined ``(cx, cy, w, h)``, which is ``row`` itself
    during warm-up.

    Normalizes the PSR, advances the frame counter, picks the branch
    described in the module docstring and pushes the result into the
    history.  Past warm-up the history must hold exactly ``n1`` rows; a
    shorter one means the state was fed inconsistently and is reported as
    an error.  A refined row with a non-finite field is rejected with
    :class:`BoundingBox`'s message.
    """
    n1 = params.n1
    if state.capacity != n1:
        raise ValueError(f"state history capacity {state.capacity} does not match n1={n1}")
    npsr = _normalize(value, state)
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
    return refined, value, npsr, branch


def refine_step(
    state: TrackerState,
    model_box: BoundingBox,
    response,
    params: MotionParams,
) -> BoundingBox:
    """Advance the tracker by one frame and return the refined box: the
    per-frame kernel of :func:`track_rows` for one :class:`BoundingBox`.
    During warm-up the model box itself is returned.  The frame's trace is
    kept as ``state.last_psr``, ``last_npsr`` and ``last_branch``."""
    row = (model_box.cx, model_box.cy, model_box.w, model_box.h)
    refined, state.last_psr, state.last_npsr, state.last_branch = _advance(
        state, row, psr(response), params
    )
    return model_box if refined is row else BoundingBox(*refined)


def track_rows(
    raw_rows, maps, params: MotionParams, ommr_enabled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Run the online refinement (or the raw model verbatim) over a sequence.

    ``raw_rows`` are the raw model's ``(T, 4)`` ``(cx, cy, w, h)`` rows and
    ``maps`` its ``T`` response maps (a ``(T, H, W)`` array or a sequence of
    ``(H, W)`` maps), frame ``k + 1`` at index ``k``.  Returns the per-frame
    records as columns: the ``(T, 4)`` trajectory rows, the ``(T,)`` PSR and
    normalized PSR and the ``T`` branch labels.  With refinement on, every
    frame goes through the kernel of :func:`refine_step`; off, the
    trajectory is a copy of the raw rows and the maps are still scored,
    under branch label ``"raw"``.

    Every map is scored before the first frame is refined, in one batched
    pass that gives :func:`psr`'s floats (:func:`_psr_maps`).  So a map
    :func:`psr` rejects is reported before an error of any refinement step,
    even one of an earlier frame.
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
    frames = zip(raw.tolist(), _psr_maps(maps))
    if ommr_enabled:
        records = [_advance(state, row, value, params) for row, value in frames]
    else:
        records = [(row, value, _normalize(value, state), "raw") for row, value in frames]
    rows, psrs, npsrs, branches = zip(*records)
    return np.array(rows, dtype=float), np.array(psrs), np.array(npsrs), list(branches)

