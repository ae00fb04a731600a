"""Synthetic tracking scenarios for exercising the refinement end to end.

A scenario is a sequence of frames, each carrying the ground-truth box, the
box an (emulated) raw Siamese tracker would report, and the response map that
tracker would see.  The target moves along piecewise-linear waypoint paths;
configured occlusion windows dim its response peak to distractor level and
send the raw tracker on a random walk.

The emulation mirrors how a real search-window tracker fails: the response
map covers ``map_size`` cells of ``cell_scale`` pixels around the previous
raw position.  While the target stays inside that window the raw box locks
onto it (small Gaussian jitter); once the target leaves the window, for
example after drifting away during an occlusion, the map holds nothing but
distractor peaks and the raw box never recovers on its own.

Randomness comes from four independent PCG64 streams, spawned once from
``np.random.SeedSequence(seed).spawn(4)`` in this fixed order (NEP 19):

0. walk and jitter steps of the raw box;
1. distractor cells;
2. peak amplitudes;
3. pixel noise.

Each purpose draws whole arrays from its own stream, so all frames are
synthesized in one batch.  Only the raw-box walk over pre-drawn ``(T, 2)``
steps is a Python loop, one pass over the frames as Python floats,
because each position depends on the one before; it yields each frame's
target cell and whether the cell lies in the window (:func:`_walk` states
the rule).  Then, over all frames at once:

* distractor cells: one vectorised rejection pass per distractor slot,
  redrawing only the frames whose candidate sits within
  :data:`CLUTTER_CLEARANCE` (Chebyshev) of an earlier peak, for at most
  :data:`PLACEMENT_TRIES` draws; one bool mask per frame of the cells
  near the peaks placed so far makes each draw's check one gather, however
  many distractors there are;
* amplitudes: one ``(T, 1 + D)`` uniform draw;
* noise: drawn in place into the ``(T, H, W)`` result, one scoring block
  (:data:`~sattrack.motion.BLOCK_FRAMES`) at a time in block order, from
  the one noise stream: the bytes of a single whole-array draw.
  Everything runs on the calling thread: a second one drawing the noise
  would make the time of a scenario depend on whether another core is
  free.
* peaks: every peak centre is an integer cell, so a peak's 2-D Gaussian is
  the outer product of a row profile and a column profile.  The profile
  tables are read-only windows onto one 1-D kernel per axis (O(H + W)
  memory, so even a 3 x 20000 map stays cheap), and a block's peaks are
  one batched ``(t, H, P) @ (t, P, W)`` product added to the result; no
  per-frame ``exp``.

Each block is made as soon as its noise is drawn, while it is still in
cache: scaled by each frame's sigma, its peaks added, clipped at zero in
place and scored (:func:`~sattrack.motion._psr_block`,
:func:`~sattrack.motion.psr`'s floats).  The result is made read-only.
It takes ``T*H*W*8`` bytes, as the per-frame maps did; every temporary is
O(T * D) or O(BLOCK_FRAMES * H * W), but for the placement mask's byte a
cell.

:func:`generate_scenario_rows` returns a scenario as columns: the ``(T,
4)`` ground-truth and raw ``(cx, cy, w, h)`` rows, the read-only ``(T, H,
W)`` maps, the ``(T,)`` occlusion flags and the ``(T,)`` PSR of each map,
with no per-frame object; ``sattrack track`` and ``simulate`` run on
those, and ``track`` refines from the PSR column, scoring no map twice.
:func:`generate_scenario` wraps them into one :class:`FrameObservation` per
frame, whose ``response`` is a view of its map.

Equal seeds give byte-identical scenarios.  Splitting the one interleaved
stream the simulator used before changed, once, which scenario each seed
yields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boxes import BoundingBox, box_rows, check_rows
from .formats import ConfigError, _check_bytes
from .motion import BLOCK_FRAMES, MotionParams, _psr_block, _psr_maps, track_rows
# Not called here: benchmarks/tracing.py wraps ``scenario.refine_step`` by name.
from .motion import refine_step  # noqa: F401

# Jitter of the raw box around the truth while the target is in view (px).
TRACK_JITTER_SIGMA = 0.5
# Random-walk step of the raw box while the target is occluded (px).
WALK_SIGMA = 3.0
# Amplitude range shared by distractor peaks and the dimmed occluded target.
CLUTTER_AMP = (0.25, 0.4)
# Minimum Chebyshev cell distance between a distractor and the peaks placed
# before it in its frame (the target only when it is in the window).
CLUTTER_CLEARANCE = 3
# Noise floor of a window that holds no real target: occluder or background
# texture correlates weakly everywhere, flattening the map.
CLUTTER_NOISE_SIGMA = 0.06
# Draws per distractor slot before a clashing frame keeps its last candidate.
PLACEMENT_TRIES = 100


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one synthetic sequence.

    waypoints are (frame, cx, cy) triples with strictly increasing 1-based
    frames, the first at frame 1 and the last at ``frame_count``; positions
    between waypoints are interpolated linearly.  occlusions are inclusive
    (start, end) frame intervals, sorted and non-overlapping.
    """

    frame_count: int
    waypoints: tuple[tuple[int, float, float], ...]
    target_size: tuple[float, float]
    occlusions: tuple[tuple[int, int], ...] = ()
    peak_sharpness: float = 1.0
    distractor_count: int = 3
    noise_sigma: float = 0.02
    map_size: tuple[int, int] = (25, 25)
    cell_scale: float = 8.0
    seed: int = 0

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError(f"frame_count must be >= 1, got {self.frame_count}")
        if not self.waypoints:
            raise ValueError("at least one waypoint is required")
        frames = [f for f, _, _ in self.waypoints]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError(f"waypoint frames must be strictly increasing, got {frames}")
        if frames[0] != 1 or frames[-1] != self.frame_count:
            raise ValueError(
                f"waypoints must start at frame 1 and end at frame "
                f"{self.frame_count}, got {frames[0]}..{frames[-1]}"
            )
        for waypoint in self.waypoints:
            if not (math.isfinite(waypoint[1]) and math.isfinite(waypoint[2])):
                raise ValueError(f"waypoint coordinates must be finite, got {waypoint}")
        if not all(math.isfinite(s) and s > 0 for s in self.target_size):
            raise ValueError(f"target_size must be finite and positive, got {self.target_size}")
        previous_end = 0
        for start, end in self.occlusions:
            if not (1 <= start <= end <= self.frame_count):
                raise ValueError(
                    f"occlusion ({start}, {end}) outside frames 1..{self.frame_count}"
                )
            if start <= previous_end:
                raise ValueError("occlusion intervals must be sorted and disjoint")
            previous_end = end
        sharpness = self.peak_sharpness  # 2 * s * s divides in _profiles: not 0 either
        if not (math.isfinite(sharpness) and sharpness > 0 and 2.0 * sharpness * sharpness > 0):
            raise ValueError(f"peak_sharpness must be > 0 with 2 * s * s > 0, got {sharpness}")
        if self.distractor_count < 0:
            raise ValueError(f"distractor_count must be >= 0, got {self.distractor_count}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.map_size[0] < 3 or self.map_size[1] < 3:
            raise ValueError(f"map_size must be at least 3x3, got {self.map_size}")
        if tuple(self.map_size) == (3, 3):
            raise ValueError(
                f"map_size must be larger than 3x3, got {self.map_size}: a peak at "
                f"the centre cell would leave no sidelobe for PSR"
            )
        if not (math.isfinite(self.cell_scale) and self.cell_scale > 0):
            raise ValueError(f"cell_scale must be > 0, got {self.cell_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class FrameObservation:
    """One simulated frame: what the world did and what the raw model saw."""

    frame: int
    gt_box: BoundingBox
    raw_model_box: BoundingBox
    response: np.ndarray = field(repr=False)
    occluded: bool


def _profiles(shape, sharpness: float) -> tuple[np.ndarray, np.ndarray]:
    """Row and column profile tables of a map: for an axis of length ``L``, a
    read-only ``(L, L)`` view whose row ``c`` is the 1-D Gaussian
    ``exp(-(i - c)**2 / (2 * sharpness**2))`` centred on cell ``c``.

    Every row is a window onto one kernel of ``2L - 1`` samples, so a table
    costs O(L) memory however long its axis is.
    """
    tables = []
    for length in shape:
        offsets = np.arange(1 - length, length, dtype=float)
        with np.errstate(over="ignore"):  # an exponent of -inf: exp gives the exact 0.0
            kernel = np.exp(-(offsets * offsets) / (2.0 * sharpness * sharpness))
        tables.append(sliding_window_view(kernel, length)[::-1])
    return tuple(tables)


def _streams(seed: int) -> list[np.random.Generator]:
    """The four independent PCG64 streams of a seed, spawned from
    ``SeedSequence(seed)`` in a fixed order: walk and jitter steps,
    distractor cells, amplitudes, pixel noise."""
    return [
        np.random.Generator(np.random.PCG64(child))
        for child in np.random.SeedSequence(seed).spawn(4)
    ]


def _place_distractors(rng, shape, cells, in_window):
    """Fill slots ``1:`` of the ``(T, P, 2)`` cell array with uniform random
    cells, each at Chebyshev distance >= :data:`CLUTTER_CLEARANCE` from the
    earlier slots of its frame: the distractors before it, and slot 0, the
    target, in the frames ``in_window`` marks.

    A slot draws one cell for every frame, then redraws only the frames
    whose candidate clashes, for at most :data:`PLACEMENT_TRIES` draws in
    all; a frame that still clashes keeps its last candidate.  The clashing
    cells are one bool mask per frame, padded by ``CLUTTER_CLEARANCE - 1``
    on each side so that each placed peak marks its whole square: one
    gather per draw and one scatter per slot, whatever the slot count.

    A square map draws with the scalar bound, which gives the same cells
    and leaves the generator in the same state as the ``(H, W)`` bound, in
    about a third of the time.
    """
    pad = CLUTTER_CLEARANCE - 1
    near = np.zeros((len(cells), shape[0] + 2 * pad, shape[1] + 2 * pad), dtype=bool)
    # squares[t, i, j] is the mask of the cells within the clearance of cell (i, j)
    squares = sliding_window_view(near, (2 * pad + 1,) * 2, axis=(1, 2), writeable=True)
    high = shape[0] if shape[0] == shape[1] else shape
    every = np.arange(len(cells))
    peaks = every[in_window]  # the frames whose previous slot holds a peak
    for slot in range(1, cells.shape[1]):
        squares[peaks, cells[peaks, slot - 1, 0], cells[peaks, slot - 1, 1]] = True
        peaks = frames = every
        for _ in range(PLACEMENT_TRIES):
            candidates = rng.integers(0, high, size=(len(frames), 2))
            cells[frames, slot] = candidates
            frames = frames[near[frames, candidates[:, 0] + pad, candidates[:, 1] + pad]]
            if not len(frames):
                break


def _add_peaks(out, profiles, cells, amps):
    """Add to each map ``out[t]`` of a block the Gaussian peaks at the
    integer cells ``cells[t]`` (``(P, 2)``) with heights ``amps[t]``.

    A 2-D Gaussian is the outer product of its row and column profiles, so
    a frame's peaks are one ``(H, P) @ (P, W)`` product of rows taken from
    the :func:`_profiles` tables, and a block's one batched product.
    """
    row_profiles, col_profiles = profiles
    rows = row_profiles[cells[:, :, 0]]
    rows *= amps[:, :, None]
    out += rows.transpose(0, 2, 1) @ col_profiles[cells[:, :, 1]]
    return out


def _synthesize(
    streams, profiles, target, in_window, occluded, distractors, noise_sigma
) -> tuple[np.ndarray, list[float]]:
    """The ``(T, H, W)`` response maps of ``T`` frames, clipped at zero, and
    their PSRs.

    Frame ``t`` holds a target peak at cell ``target[t]`` of height 1 when
    the target is seen (``in_window`` and not ``occluded``), a clutter-level
    height when it is occluded inside the window and none outside it, plus
    ``distractors`` clutter peaks placed clear of the peaks before them.
    Pixel noise of sigma ``noise_sigma`` is drawn into the result itself,
    one :data:`BLOCK_FRAMES` block at a time; frames without a seen target
    get at least :data:`CLUTTER_NOISE_SIGMA`.  Each block is made and
    scored (:func:`~sattrack.motion._psr_block`) right after its noise is
    drawn; a non-finite map is a ``ConfigError`` on ``noise_sigma``, which
    alone can overflow a cell.  ``streams`` are the cell, amplitude and
    noise generators.
    """
    cell_rng, amp_rng, noise_rng = streams
    count = len(target)
    shape = (len(profiles[0]), len(profiles[1]))
    seen = in_window & ~occluded

    cells = np.empty((count, 1 + distractors, 2), dtype=np.intp)
    cells[:, 0] = np.where(in_window[:, None], target, 0)
    _place_distractors(cell_rng, shape, cells, in_window)

    amps = amp_rng.uniform(*CLUTTER_AMP, size=(count, 1 + distractors))
    amps[:, 0] = np.where(seen, 1.0, np.where(in_window, amps[:, 0], 0.0))
    sigmas = np.where(seen, noise_sigma, max(noise_sigma, CLUTTER_NOISE_SIGMA))

    response = np.empty((count, *shape))
    values = []
    for start in range(0, count, BLOCK_FRAMES):
        frames = slice(start, start + BLOCK_FRAMES)
        maps = noise_rng.standard_normal(out=response[frames])
        with np.errstate(over="ignore"):  # an inf cell is reported by the scoring
            maps *= sigmas[frames, None, None]
        _add_peaks(maps, profiles, cells[frames], amps[frames])
        try:
            values += _psr_block(np.maximum(maps, 0.0, out=maps))
        except ValueError:  # a non-finite map
            raise ConfigError(f"noise_sigma {noise_sigma!r} overflows the response maps") from None
    return response, values


def _walk(gt_x, gt_y, occluded, steps, shape, cell_scale):
    """The raw tracker's ``(T, 2)`` path and, per frame, the target's cell
    in its window and whether that cell lies inside the map, walked one
    frame at a time.

    Frame ``k``'s window is centred on the raw position after frame
    ``k - 1`` (frame 1's on the truth).  The target's offset from that
    centre, in cells, is outside the window when it is NaN, infinite or a
    map or more away, and is then never rounded (its cell is ``(0, 0)``);
    any other offset rounds half to even, as :func:`round` does, to the
    cell it names, which may still fall off the map.  The raw box then
    locks onto the truth plus ``steps[k]`` when the target is inside and
    not occluded, and otherwise moves by ``steps[k]`` from where it was.
    The cell of a frame outside the window is unused, as
    :func:`_synthesize` places no target there.
    """
    rows, cols = shape
    raw_x, raw_y = gt_x[0].item(), gt_y[0].item()
    xs, ys, cis, cjs, inside = [], [], [], [], []
    for gx, gy, dx, dy, hidden in zip(
        gt_x.tolist(), gt_y.tolist(), steps[:, 0].tolist(), steps[:, 1].tolist(),
        occluded.tolist(),
    ):
        di, dj = (gy - raw_y) / cell_scale, (gx - raw_x) / cell_scale
        ci = cj = 0
        in_window = abs(di) < rows and abs(dj) < cols
        if in_window:
            ci, cj = rows // 2 + round(di), cols // 2 + round(dj)
            in_window = 0 <= ci < rows and 0 <= cj < cols
        if in_window and not hidden:
            raw_x, raw_y = gx + dx, gy + dy
        else:
            raw_x, raw_y = raw_x + dx, raw_y + dy
        xs.append(raw_x)
        ys.append(raw_y)
        cis.append(ci)
        cjs.append(cj)
        inside.append(in_window)
    cells = np.column_stack((cis, cjs)).astype(np.intp, copy=False)
    return np.column_stack((xs, ys)), cells, np.array(inside)


def _check_sizes(config: ScenarioConfig):
    """Raise the ConfigError of the first key, in allocation order, at which
    the bytes of a scenario's arrays outgrow memory: 1,024 a frame (rows,
    columns, the walk's lists), 64 a peak (cells, amplitudes, the placement
    pass's copies), then the maps and the placement pass's mask (a byte a
    cell of the padded map); each with its block's share."""
    frames, peaks, (rows, cols) = config.frame_count, 1 + config.distractor_count, config.map_size
    block, needed, pad = min(frames, BLOCK_FRAMES), 0, 2 * (CLUTTER_CLEARANCE - 1)
    for key, value, nbytes in (
        ("frame_count", frames, frames * 1024),
        ("distractor_count", peaks - 1, peaks * (frames * 64 + block * (rows + cols) * 16)),
        ("map_size", f"{rows} {cols}",
         (frames + 4 * block) * rows * cols * 8 + frames * (rows + pad) * (cols + pad)),
    ):
        needed += nbytes
        _check_bytes(f"{key} = {value}", needed)


def generate_scenario_rows(
    config: ScenarioConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate and score every frame of a configured scenario, as columns.

    Returns the ``(T, 4)`` ground-truth rows, the ``(T, 4)`` raw model rows
    (both ``(cx, cy, w, h)``), the read-only ``(T, H, W)`` response maps,
    the ``(T,)`` occlusion flags and the ``(T,)`` PSR of each map, equal to
    :func:`~sattrack.motion.psr`'s; frame ``k + 1`` is index ``k``.

    The raw tracker starts locked on the first ground-truth position.  Each
    frame its response map is built around its previous position: a unit
    target peak when the target is in view inside the window, a dimmed peak
    during occlusion, no target peak at all once the window has lost the
    target.  Distractors and noise are always added on top; frames without a
    real target additionally get the :data:`CLUTTER_NOISE_SIGMA` floor, since
    whatever fills the window then matches the template weakly everywhere.

    Every row must make a valid :class:`BoundingBox`; the first that does
    not (ground truth before raw within a frame) raises the box's error.
    """
    _check_sizes(config)
    walk_rng, cell_rng, amp_rng, noise_rng = _streams(config.seed)
    count = config.frame_count
    shape = tuple(config.map_size)
    frames = np.arange(1, count + 1, dtype=float)
    gt_x = np.interp(frames, *zip(*((f, x) for f, x, _ in config.waypoints)))
    gt_y = np.interp(frames, *zip(*((f, y) for f, _, y in config.waypoints)))
    occluded = np.zeros(count, dtype=bool)
    for start, end in config.occlusions:
        occluded[start - 1 : end] = True

    steps = walk_rng.standard_normal((count, 2))
    steps *= np.where(occluded, WALK_SIGMA, TRACK_JITTER_SIGMA)[:, None]
    path, target, in_window = _walk(gt_x, gt_y, occluded, steps, shape, config.cell_scale)

    # one (T, 2, 4) block: frame k's gt row, then its raw row
    boxes = np.empty((count, 2, 4))
    boxes[:, :, 2:] = config.target_size
    boxes[:, 0, 0], boxes[:, 0, 1] = gt_x, gt_y
    boxes[:, 1, :2] = path
    check_rows(boxes.reshape(-1, 4))

    responses, values = _synthesize(
        (cell_rng, amp_rng, noise_rng),
        _profiles(shape, config.peak_sharpness),
        target,
        in_window,
        occluded,
        config.distractor_count,
        config.noise_sigma,
    )
    responses.flags.writeable = False
    return boxes[:, 0], boxes[:, 1], responses, occluded, np.array(values)


def generate_scenario(config: ScenarioConfig) -> list[FrameObservation]:
    """:func:`generate_scenario_rows` as one :class:`FrameObservation` per
    frame; each observation's ``response`` is a view of its frame's map."""
    gt, raw, responses, occluded, _ = generate_scenario_rows(config)
    return [
        FrameObservation(
            frame=k,
            gt_box=BoundingBox(*gt_row),
            raw_model_box=BoundingBox(*raw_row),
            response=response,
            occluded=hidden,
        )
        for k, gt_row, raw_row, response, hidden in zip(
            range(1, len(gt) + 1), gt.tolist(), raw.tolist(), responses, occluded.tolist()
        )
    ]


def run_tracking(
    scenario: list[FrameObservation], params: MotionParams, ommr_enabled: bool
) -> list[BoundingBox]:
    """Run the online refinement (or the raw model verbatim) over a scenario,
    as one :class:`BoundingBox` per frame.  Every map is scored first
    (:func:`~sattrack.motion._psr_maps`), so a map ``psr`` rejects is
    reported before any refinement error, even an earlier frame's; then
    :func:`~sattrack.motion.track_rows` refines from that PSR column."""
    psrs = _psr_maps([obs.response for obs in scenario])
    rows, _, _, _ = track_rows(
        box_rows(obs.raw_model_box for obs in scenario), psrs, params, ommr_enabled
    )
    return [BoundingBox(*row) for row in rows.tolist()]
