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
steps is partly a Python loop, because each position depends on the one
before; it yields each frame's target cell and whether the cell lies in
the window.  A frame after one that locked on starts from that frame's
truth plus step, so runs of locked frames are decided as arrays and only
the frames after a lost one are stepped one at a time.  An offset of a
map or more, or a non-finite one, is outside the window and never
rounded, so no valid config can overflow the walk.  Then, over all frames
at once:

* distractor cells: one vectorised rejection pass per distractor slot,
  redrawing only the frames whose candidate sits within
  :data:`CLUTTER_CLEARANCE` (Chebyshev) of an earlier peak, for at most
  :data:`PLACEMENT_TRIES` draws;
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
O(T * D) or O(BLOCK_FRAMES * H * W).

:func:`generate_scenario_rows` returns a scenario as columns: the ``(T,
4)`` ground-truth and raw ``(cx, cy, w, h)`` rows, the read-only ``(T, H,
W)`` maps, the ``(T,)`` occlusion flags and the ``(T,)`` PSR of each map,
with no per-frame object; ``sattrack track`` and ``simulate`` run on
those.
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
from .formats import ConfigError
from .motion import BLOCK_FRAMES, MotionParams, _psr_block, track_rows
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


def _place_distractors(rng, shape, cells, placed):
    """Fill slots ``1:`` of the ``(T, P, 2)`` cell array with uniform random
    cells, each at Chebyshev distance >= :data:`CLUTTER_CLEARANCE` from the
    earlier slots of its frame that ``placed`` (``(T, P)``) marks.

    A slot draws one cell for every frame, then redraws only the frames
    whose candidate clashes, for at most :data:`PLACEMENT_TRIES` draws in
    all; a frame that still clashes keeps its last candidate.
    """
    for slot in range(1, cells.shape[1]):
        frames = np.arange(len(cells))
        for _ in range(PLACEMENT_TRIES):
            candidates = rng.integers(0, shape, size=(len(frames), 2))
            cells[frames, slot] = candidates
            gaps = np.abs(cells[frames, :slot] - candidates[:, None]).max(axis=2)
            clash = ((gaps < CLUTTER_CLEARANCE) & placed[frames, :slot]).any(axis=1)
            frames = frames[clash]
            if not len(frames):
                break
        placed[:, slot] = True


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
    placed = np.zeros((count, 1 + distractors), dtype=bool)
    placed[:, 0] = in_window
    _place_distractors(cell_rng, shape, cells, placed)

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
    in its window and whether that cell lies inside the map.

    Frame ``k``'s window is centred on the raw position after frame
    ``k - 1`` (frame 1's on the truth).  The raw box then locks onto the
    truth plus ``steps[k]`` when the target is seen, and otherwise moves by
    ``steps[k]`` from where it was.  The cell of a frame outside the window
    is unused, as :func:`_synthesize` places no target there.

    A frame whose predecessor locked on has its window centred on that
    predecessor's truth plus step, so such runs of frames are decided as
    arrays; only the frames after one that did not lock on are walked one
    by one, until one locks on again.  Both give the same floats.
    """
    rows, cols = shape
    with np.errstate(all="ignore"):  # overflow gives inf, as with Python floats
        locked = gt_x + steps[:, 0], gt_y + steps[:, 1]
    path = np.stack(locked, axis=1)
    # each frame's window centre were its predecessor locked on
    centre_x = np.concatenate((gt_x[:1], locked[0][:-1]))
    centre_y = np.concatenate((gt_y[:1], locked[1][:-1]))
    cells, inside = _window_cells(gt_x, gt_y, centre_x, centre_y, shape, cell_scale)
    locks = inside & ~occluded

    truth = np.stack((gt_x, gt_y), axis=1).tolist()
    steps_list, hidden = steps.tolist(), occluded.tolist()
    frame = 0
    while True:
        misses = np.flatnonzero(~locks[frame:])
        if not len(misses):
            break
        # this frame's window is right, but it does not lock on: the next
        # frames are walked from here until one locks on
        frame += int(misses[0])
        raw_x, raw_y = centre_x[frame].item(), centre_y[frame].item()
        while frame < len(truth):
            (gx, gy), (dx, dy) = truth[frame], steps_list[frame]
            if frame > 0 and not locks[frame - 1]:
                di, dj = (gy - raw_y) / cell_scale, (gx - raw_x) / cell_scale
                # an offset that is NaN, infinite or a map or more away lies
                # outside the window; only the others are rounded to a cell
                ci = cj = 0
                in_window = abs(di) < rows and abs(dj) < cols
                if in_window:
                    ci, cj = rows // 2 + round(di), cols // 2 + round(dj)
                    in_window = 0 <= ci < rows and 0 <= cj < cols
                cells[frame] = ci, cj
                inside[frame] = in_window
                locks[frame] = in_window and not hidden[frame]
            if locks[frame]:
                break
            raw_x, raw_y = raw_x + dx, raw_y + dy
            path[frame] = raw_x, raw_y
            frame += 1
        frame += 1
    return path, cells, inside


def _window_cells(gt_x, gt_y, centre_x, centre_y, shape, cell_scale):
    """Per frame, the truth's cell in a map of ``shape`` cells of
    ``cell_scale`` pixels centred on ``(centre_x, centre_y)``, and whether
    it lies inside the map.  An offset that is NaN, infinite or a map or
    more away lies outside and is never rounded; its cell is ``(0, 0)``.
    Rounding is half to even, as :func:`round`'s."""
    rows, cols = shape
    with np.errstate(all="ignore"):  # inf and NaN offsets, as with Python floats
        di, dj = (gt_y - centre_y) / cell_scale, (gt_x - centre_x) / cell_scale
        inside = (np.abs(di) < rows) & (np.abs(dj) < cols)
    cells = np.zeros((len(di), 2), dtype=np.intp)
    cells[inside, 0] = rows // 2 + np.round(di[inside])
    cells[inside, 1] = cols // 2 + np.round(dj[inside])
    inside &= ((cells >= 0) & (cells < shape)).all(axis=1)
    return cells, inside


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
    """Run the online refinement (or the raw model verbatim) over a scenario:
    :func:`~sattrack.motion.track_rows` on the observations' raw boxes and
    maps, as one :class:`BoundingBox` per frame.  The per-frame trace is
    ``track_rows``' PSR, normalized PSR and branch columns.
    """
    rows, _, _, _ = track_rows(
        box_rows(obs.raw_model_box for obs in scenario),
        [obs.response for obs in scenario],
        params,
        ommr_enabled,
    )
    return [BoundingBox(*row) for row in rows.tolist()]

