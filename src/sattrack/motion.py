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
a real-time hot path, so it works on floats.  One branch kernel
(:func:`_branch_row`) turns the ``(n1, 4)`` history window, the frame's
raw row and its nPSR into the refined ``(cx, cy, w, h)`` row tuple.
:func:`refine_step` scores its map with :func:`psr`, normalizes it, picks
the branch, runs the kernel on the tracker state's history and pushes the
result there.  That history is a row buffer (:class:`TrackerState`) whose
window is one contiguous slice, as :func:`track_rows`' is of its output.

:func:`track_rows` does a whole sequence with no per-frame object.  It
scores every map first, then decides nPSR, warm-up and branch for all
frames as arrays (:func:`_normalized`: the running maximum is one
``accumulate``); only the history recurrence is looped, the kernel run on
each frame's window of the refined ``(T, 4)`` output.  It returns the
records as columns, the same floats and labels as a :func:`refine_step`
loop.

On a 25x25 map the cost of a step is numpy call overhead, not arithmetic,
so each step makes as few array calls as it can and stays exact:

* A map is scored as its C-contiguous float copy (no copy for a map that
  is one already), so each dot product below runs BLAS ``ddot`` over one
  stride-1 buffer, in one summation order, whatever the layout it came in.
  PSR's products are ``np.vdot``: ``ndarray.dot`` is the same ``ddot`` at a
  lower call cost, but it warns where a sum overflows or is invalid, and
  ``np.vdot`` does not.  The clipped block bounds are comparisons, not
  ``max``/``min`` calls.
* PSR takes one dot product of the map with a cached read-only ones vector
  (the whole-map total: a finite total proves every cell finite, so the
  cell-by-cell scan runs only when it is not; minus the 3x3 block, it
  gives the sidelobe mean), one ``argmax``, a ``min`` only when the peak
  is cell 0 (``argmax`` returns the first maximum, so only there can the
  map be flat), the block's rows summed left to right from 0.0, then the
  row sums (not by ``sum``, compensated from Python 3.12), and one dot
  product of the centred map with the block zeroed in that copy (not the
  whole-map squares minus the block's, which cancel under tall peaks).
* A whole sequence is scored :data:`BLOCK_FRAMES` maps per pass
  (:func:`_psr_maps`), with the operations of :func:`psr` in the same
  order, so bit for bit the same values: each sum is one ``ddot`` per map,
  a ``(1, N) @ (N, 1)`` product in a stacked ``matmul``, never a
  matrix-vector product, which sums in another order; the clipped 3x3
  block, padded with exact zeros, is summed a column at a time in
  :func:`psr`'s order.  A chunk :func:`psr` rejects goes to it map by map,
  and one map (:func:`refine_step`) to :func:`psr`, several times faster.
* Each branch is one dot product of a cached read-only ``(n1,)`` weight
  vector with the ``(n1, 4)`` window (``_branch_weights``), taken as
  ``weights.dot(window)``: the ``dgemv`` of ``weights @ window`` at about
  half the call cost, with the same floating-point warnings.  The low branch
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
    PSR, normalized PSR and branch label of its last accepted frame on the
    state; a frame it rejects leaves every field as it was.

    The history lives only in a ``(2 * capacity, 4)`` array of ``(cx, cy,
    w, h)`` rows: the window is the last ``min(_end, capacity)`` rows before
    ``_end``, a push writes one row at ``_end``, and a push that finds
    ``_end`` at the last row first copies the newest ``capacity - 1`` rows
    to the front, once every ``capacity + 1`` pushes.
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
        self._rows = np.zeros((2 * capacity, 4))
        self._end = 0  # the row the next box goes to

    def _push(self, row):
        """Store one ``(cx, cy, w, h)`` row, a tuple or list of floats."""
        rows, end = self._rows, self._end
        if end == len(rows):
            keep = self.capacity - 1
            rows[:keep] = rows[end - keep : end]
            end = keep
        rows[end] = row
        self._end = end + 1


@functools.lru_cache(maxsize=16)
def _ones(size: int) -> np.ndarray:
    """A read-only vector of ``size`` ones, built once per map size: a dot
    product with it is the cheapest whole-map sum."""
    ones = np.ones(size)
    ones.flags.writeable = False
    return ones


def _all_finite(array: np.ndarray) -> bool:
    """Whether every cell of the float ``array`` is finite.  A finite total
    (one ``np.vdot`` with :func:`_ones`, which never warns) proves it, so
    the cell-by-cell scan runs only when the total is not: non-finite
    cells, or finite cells that overflow."""
    return math.isfinite(np.vdot(array, _ones(array.size))) or bool(np.isfinite(array).all())


def _check_response(response) -> tuple[np.ndarray, float]:
    """Validate a response map; return it as a C-contiguous float array with
    its cell sum.

    A finite sum proves every cell finite, so the cell-by-cell scan only runs
    when the sum is not (non-finite cells, or finite cells that overflow).
    """
    # order="C" copies a strided, transposed or Fortran-ordered map, so its
    # dot products run over one stride-1 buffer, in one summation order;
    # unlike np.ascontiguousarray it keeps a 0-d input 0-d for the message
    response = np.asarray(response, dtype=float, order="C")
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
    standard deviation of the sidelobe, so a constant map scores 0.  A map
    is scored as its C-contiguous float copy, so a strided, transposed or
    Fortran-ordered map scores as ``np.ascontiguousarray(map)`` does.
    """
    response, total = _check_response(response)
    height, width = response.shape
    peak_index = int(response.argmax())
    # argmax returns the first maximum, so a flat map peaks at cell 0 and a
    # peak anywhere else proves the map is not flat.
    if peak_index == 0 and response[0, 0] == response.min():
        return 0.0  # flat map: peak equals the sidelobe mean exactly
    pi, pj = divmod(peak_index, width)
    # the block clipped into the map, by comparisons (cheaper than max/min calls)
    i0 = pi - 1 if pi else 0
    i1 = pi + 2 if pi + 2 < height else height
    j0 = pj - 1 if pj else 0
    j1 = pj + 2 if pj + 2 < width else width
    block = response[i0:i1, j0:j1].tolist()
    sidelobe_count = response.size - len(block) * len(block[0])
    if sidelobe_count == 0:
        raise ValueError(f"map {response.shape} has no sidelobe outside the peak block")
    peak = block[pi - i0][pj - j0]
    block_sum = 0.0  # each row left to right from 0.0, then the row sums
    for block_row in block:
        row_sum = 0.0
        for cell in block_row:
            row_sum += cell
        block_sum += row_sum
    # Sidelobe statistics without gathering: the mean is the whole-map sum
    # minus the block; the squares are summed with the block zeroed out.
    mean = (total - block_sum) / sidelobe_count
    centered = response - mean
    centered[i0:i1, j0:j1] = 0.0
    std = math.sqrt(np.vdot(centered, centered) / sidelobe_count)
    return (peak - mean) / (std + PSR_EPS)


# Maps per batched pass, scored or synthesized: temporaries stay a few blocks in size.
BLOCK_FRAMES = 64
_BLOCK_OFFSETS = np.array([-1, 0, 1])  # row and column offsets of a peak's 3x3 block


def _psr_maps(maps) -> list[float]:
    """``[psr(m) for m in maps]`` for a ``(T, H, W)`` array or a sequence of
    ``(H, W)`` maps: :func:`_psr_block` on each :data:`BLOCK_FRAMES` maps."""
    values = []
    for start in range(0, len(maps), BLOCK_FRAMES):
        values += _psr_block(maps[start : start + BLOCK_FRAMES])
    return values


def _psr_block(maps) -> list[float]:
    """``[psr(m) for m in maps]`` for a chunk: :func:`psr`'s float operations
    in its order, as the module docstring sets out; the chunk is stacked as
    one C-contiguous block, and each ``(1, N) @ (N, 1)`` product of a
    stacked ``matmul`` is the stride-1 BLAS ``ddot`` that :func:`psr`'s
    ``np.vdot`` runs on the map's C-contiguous copy.  A chunk that is not one
    float ``(n, H, W)`` block with finite sidelobe means goes to :func:`psr`
    map by map."""
    try:
        count, height, width = (block := np.asarray(maps, dtype=float, order="C")).shape
    except (TypeError, ValueError):  # maps of mixed shapes, or not 2-D
        height = width = 0
    if min(height, width) < 3:
        return list(map(psr, maps))
    size = height * width
    flat = block.reshape(count, size)  # a view: the block is C-contiguous, as psr's maps
    index = np.arange(count)
    with np.errstate(all="ignore"):  # as in psr, an overflow or a nan gives no warning
        totals = (flat[:, None, :] @ _ones(size)[:, None])[:, 0, 0]
        peaks = flat.argmax(axis=1)
        # (n, 3, 3): the block's cells, as indices into the flattened block,
        # clipped into the map, and which of them the clipping left in place
        pi, pj = np.divmod(peaks, width)
        rows, cols = pi[:, None] + _BLOCK_OFFSETS, pj[:, None] + _BLOCK_OFFSETS
        # np.clip's Python wrapper costs several times these two calls
        clipped_rows = np.minimum(np.maximum(rows, 0), height - 1)
        clipped_cols = np.minimum(np.maximum(cols, 0), width - 1)
        first = clipped_rows * width + index[:, None] * size  # each block row's cell in column 0
        cells = first[:, :, None] + clipped_cols[:, None, :]
        inside = (clipped_rows == rows)[:, :, None] & (clipped_cols == cols)[:, None, :]
        sidelobe_counts = size - inside.sum(axis=(1, 2))
        # psr's sum; a padded 0.0 adds nothing to a sum that starts at 0.0
        gathered = np.where(inside, flat.reshape(-1)[cells], 0.0)
        row_sums = 0.0 + gathered[:, :, 0]
        row_sums += gathered[:, :, 1]
        row_sums += gathered[:, :, 2]
        sums = 0.0 + row_sums[:, 0]
        sums += row_sums[:, 1]
        sums += row_sums[:, 2]
        means = (totals - sums) / sidelobe_counts
        # a non-finite map, a 3x3 one peaking at its centre, a total that overflows
        if not np.isfinite(means).all():
            return list(map(psr, maps))
        at_zero = index[peaks == 0]
        flat_maps = at_zero[flat[at_zero, 0] == flat[at_zero].min(axis=1)]
        centered = flat - means[:, None]
        centered.reshape(-1)[cells] = 0.0
        squares = (centered[:, None, :] @ centered[:, :, None])[:, 0, 0]
        values = (flat[index, peaks] - means) / (np.sqrt(squares / sidelobe_counts) + PSR_EPS)
    values[flat_maps] = 0.0
    return values.tolist()


def _normalize(value: float, psr_max: float) -> tuple[float, float]:
    """The running PSR maximum ``psr_max`` raised to a frame's PSR
    ``value``, and the normalized PSR, ``value`` over that maximum.  ``max``
    keeps the old maximum against a NaN ``value``."""
    psr_max = max(psr_max, value)
    return psr_max, value / psr_max if psr_max > 0.0 else 0.0


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


def _branch_row(window: np.ndarray, prev, row, npsr: float, low: bool, params: MotionParams):
    """The refined ``(cx, cy, w, h)`` of one frame past warm-up: the low
    branch (``low``) or the high one, as the module docstring describes,
    from the ``(n1, 4)`` history ``window``, whose last row is ``prev`` as
    floats, the frame's raw ``row`` and its nPSR.  A refined row with a
    non-finite field is rejected with :class:`BoundingBox`'s message.  The
    one branch kernel of :func:`refine_step` and :func:`track_rows`."""
    weights_low, weights_high = _branch_weights(params.n1, params.n2)
    lam = params.lambda_ema
    prev_cx, prev_cy, prev_w, prev_h = prev
    if low:
        cx, cy, fit_w, fit_h = weights_low.dot(window).tolist()
        w = lam * fit_w + (1.0 - lam) * prev_w
        h = lam * fit_h + (1.0 - lam) * prev_h
    else:
        model_cx, model_cy, model_w, model_h = row
        vx, vy, _, _ = weights_high.dot(window).tolist()
        alpha = npsr * npsr
        cx = prev_cx + alpha * (model_cx - prev_cx) + (1.0 - alpha) * vx
        cy = prev_cy + alpha * (model_cy - prev_cy) + (1.0 - alpha) * vy
        w = lam * model_w + (1.0 - lam) * prev_w
        h = lam * model_h + (1.0 - lam) * prev_h
    w, h = max(w, MIN_SIZE), max(h, MIN_SIZE)
    # a non-finite field makes the sum non-finite; a finite sum that
    # overflows is let through by the box's own check
    if not math.isfinite(cx + cy + w + h):
        BoundingBox(cx, cy, w, h)
    return cx, cy, w, h


def refine_step(
    state: TrackerState,
    model_box: BoundingBox,
    response,
    params: MotionParams,
) -> BoundingBox:
    """Advance the tracker by one frame and return the refined box: the
    per-frame kernel of :func:`track_rows` for one :class:`BoundingBox`.

    Scores the map with :func:`psr`, normalizes it, picks the branch, runs
    :func:`_branch_row` on the history's window and, once the refined row
    is accepted, advances the frame counter and the running maximum and
    pushes the row; a frame rejected with an error leaves the state as it
    was.  During warm-up the model box itself is returned.  Past warm-up
    the history must hold exactly ``n1`` rows; a shorter one means the
    state was fed inconsistently and is an error.  The frame's trace is
    kept as ``state.last_psr``, ``last_npsr`` and ``last_branch``.
    """
    value = psr(response)
    n1 = params.n1
    if state.capacity != n1:
        raise ValueError(f"state history capacity {state.capacity} does not match n1={n1}")
    psr_max, npsr = _normalize(value, state.psr_max)
    frame_index = state.frame_index + 1
    row = (model_box.cx, model_box.cy, model_box.w, model_box.h)

    if frame_index <= n1:
        refined, branch = model_box, WARMUP
    else:
        end = state._end
        if end < n1:
            raise ValueError(
                f"frame {frame_index} is past warm-up but history holds "
                f"{end} boxes instead of {n1}"
            )
        low = npsr < params.theta
        window = state._rows[end - n1 : end]
        row = _branch_row(window, window[-1].tolist(), row, npsr, low, params)
        refined, branch = BoundingBox(*row), LOW_CONFIDENCE if low else HIGH_CONFIDENCE

    state.psr_max, state.frame_index = psr_max, frame_index
    state._push(row)
    state.last_psr, state.last_npsr, state.last_branch = value, npsr, branch
    return refined


def track_rows(
    raw_rows, maps, params: MotionParams, ommr_enabled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Run the online refinement (or the raw model verbatim) over a sequence.

    ``raw_rows`` are the raw model's ``(T, 4)`` ``(cx, cy, w, h)`` rows and
    ``maps`` its ``T`` response maps (a ``(T, H, W)`` array or a sequence of
    ``(H, W)`` maps), frame ``k + 1`` at index ``k``.  Returns the per-frame
    records as columns: the ``(T, 4)`` trajectory rows, the ``(T,)`` PSR and
    normalized PSR and the ``T`` branch labels, the floats and labels of a
    :func:`refine_step` loop.  Off, the trajectory is a copy of the raw rows
    and the maps are still scored, under branch label ``"raw"``.

    Every map is scored before the first frame is refined, in one batched
    pass that gives :func:`psr`'s floats (:func:`_psr_maps`).  So a map
    :func:`psr` rejects is reported before an error of any refinement step,
    even one of an earlier frame.  The refinement is :func:`_refine_rows`.
    """
    raw = np.asarray(raw_rows, dtype=float)
    if raw.ndim != 2 or raw.shape[1] != 4:
        raise ValueError(f"raw rows must be (T, 4), got shape {raw.shape}")
    if len(raw) < 2:
        raise ValueError(f"scenario must have at least 2 frames, got {len(raw)}")
    if len(maps) != len(raw):
        raise ValueError(f"{len(raw)} raw rows but {len(maps)} response maps")
    check_rows(raw)
    return _refine_rows(raw, np.array(_psr_maps(maps)), params, ommr_enabled)


def _normalized(values: np.ndarray) -> np.ndarray:
    """The nPSR column of a sequence's ``(T,)`` PSR column: a loop of
    :func:`_normalize` from a fresh state, bit for bit, as arrays.  The
    running maximum starts at the state's 0.0 and, like ``max``, passes
    over a NaN (``fmax``); ``max`` and one IEEE division per frame give
    ``_normalize``'s doubles."""
    peak = np.fmax.accumulate(np.fmax(values, 0.0))
    with np.errstate(all="ignore"):  # as in _normalize, inf / inf gives nan without a warning
        return np.divide(values, peak, out=np.zeros_like(values), where=peak > 0.0)


def _refine_rows(
    raw: np.ndarray, values: np.ndarray, params: MotionParams, ommr_enabled: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """:func:`track_rows` on checked ``(T, 4)`` raw rows and their maps'
    ``(T,)`` PSR column ``values``.

    nPSR, warm-up and branch are decided as arrays: the first ``n1``
    refined rows are the raw rows, a later frame takes the low branch where
    its nPSR is below ``theta``.  Only the history recurrence is a loop:
    each later frame runs :func:`_branch_row` on the ``n1`` refined rows
    before it, read as one slice of the output, and on the last of them as
    the floats the loop made.
    """
    npsr = _normalized(values)
    out = raw.copy()
    if not ommr_enabled:
        return out, values, npsr, ["raw"] * len(raw)
    n1 = params.n1
    low = (npsr[n1:] < params.theta).tolist()
    frames = zip(range(n1, len(raw)), raw[n1:].tolist(), npsr[n1:].tolist(), low)
    prev = raw[n1 - 1].tolist() if len(raw) > n1 else None  # the last warm-up row
    for k, row, value, is_low in frames:
        prev = out[k] = _branch_row(out[k - n1 : k], prev, row, value, is_low, params)
    branches = [WARMUP] * min(n1, len(raw))
    branches += [LOW_CONFIDENCE if is_low else HIGH_CONFIDENCE for is_low in low]
    return out, values, npsr, branches
