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

Response maps are synthesized separably.  Every peak centre is an integer
cell, so a peak's 2-D Gaussian is the outer product of a row profile and a
column profile.  One 1-D kernel per axis is computed once per scenario (or
per standalone map); the profiles of all cells are read-only windows onto
it, so the tables cost O(H + W) memory and even a 3 x 20000 map stays
cheap.  A frame's P peaks are then one ``(H, P) @ (P, W)`` product: no
per-frame ``exp``.  Noise is added and the map clipped at zero in place.

All randomness flows through one seeded PCG64 generator, so a configuration
reproduces its scenario exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .boxes import BoundingBox
from .metrics import center_errors, paired_rows
from .motion import MotionParams, TrackerState, _score, refine_step

# Jitter of the raw box around the truth while the target is in view (px).
TRACK_JITTER_SIGMA = 0.5
# Random-walk step of the raw box while the target is occluded (px).
WALK_SIGMA = 3.0
# Amplitude range shared by distractor peaks and the dimmed occluded target.
CLUTTER_AMP = (0.25, 0.4)
# Minimum Chebyshev cell distance between a distractor and the target peak.
CLUTTER_CLEARANCE = 3
# Noise floor of a window that holds no real target: occluder or background
# texture correlates weakly everywhere, flattening the map.
CLUTTER_NOISE_SIGMA = 0.06


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
        if self.target_size[0] <= 0 or self.target_size[1] <= 0:
            raise ValueError(f"target_size must be positive, got {self.target_size}")
        previous_end = 0
        for start, end in self.occlusions:
            if not (1 <= start <= end <= self.frame_count):
                raise ValueError(
                    f"occlusion ({start}, {end}) outside frames 1..{self.frame_count}"
                )
            if start <= previous_end:
                raise ValueError("occlusion intervals must be sorted and disjoint")
            previous_end = end
        if not (math.isfinite(self.peak_sharpness) and self.peak_sharpness > 0):
            raise ValueError(f"peak_sharpness must be > 0, got {self.peak_sharpness}")
        if self.distractor_count < 0:
            raise ValueError(f"distractor_count must be >= 0, got {self.distractor_count}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.map_size[0] < 3 or self.map_size[1] < 3:
            raise ValueError(f"map_size must be at least 3x3, got {self.map_size}")
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


@dataclass(frozen=True)
class TraceRow:
    """Per-frame diagnostics emitted alongside a tracking run."""

    frame: int
    psr: float
    npsr: float
    branch: str


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
        kernel = np.exp(-(offsets * offsets) / (2.0 * sharpness * sharpness))
        tables.append(sliding_window_view(kernel, length)[::-1])
    return tuple(tables)


def _place_distractor(rng, shape, taken):
    """Uniform random cell, rejection-sampled clear of already placed peaks."""
    di = dj = 0
    for _ in range(100):
        di = int(rng.integers(0, shape[0]))
        dj = int(rng.integers(0, shape[1]))
        if all(
            max(abs(di - ti), abs(dj - tj)) >= CLUTTER_CLEARANCE for ti, tj in taken
        ):
            return di, dj
    return di, dj


def _compose(rng, profiles, cells, amps, noise_sigma) -> np.ndarray:
    """Sum of Gaussian peaks at integer ``cells`` with heights ``amps``, plus
    optional noise, clipped at zero.

    A 2-D Gaussian is the outer product of its row and column profiles, so
    all peaks together are one ``(H, P) @ (P, W)`` product of rows taken
    from the :func:`_profiles` tables.
    """
    row_profiles, col_profiles = profiles
    ci, cj = np.array(cells, dtype=np.intp).reshape(-1, 2).T
    response = (row_profiles[ci].T * amps) @ col_profiles[cj]
    if noise_sigma > 0:
        response += rng.normal(0.0, noise_sigma, response.shape)
    return np.maximum(response, 0.0, out=response)


def synthesize_response_map(
    center_cell: tuple[int, int],
    sharpness: float = 1.0,
    distractors: int = 0,
    noise_sigma: float = 0.0,
    map_size: tuple[int, int] = (25, 25),
    seed: int = 0,
) -> np.ndarray:
    """One standalone response map: a unit peak plus clutter.

    Places an amplitude-1 Gaussian at ``center_cell``, adds ``distractors``
    weaker peaks (amplitude 0.25..0.4, kept clear of the target) and optional
    Gaussian pixel noise, then clips at zero.
    """
    if map_size[0] < 3 or map_size[1] < 3:
        raise ValueError(f"map_size must be at least 3x3, got {map_size}")
    ci, cj = center_cell
    if not (0 <= ci < map_size[0] and 0 <= cj < map_size[1]):
        raise ValueError(f"center_cell {center_cell} outside map {map_size}")
    if not (math.isfinite(sharpness) and sharpness > 0):
        raise ValueError(f"sharpness must be > 0, got {sharpness}")
    if distractors < 0:
        raise ValueError(f"distractors must be >= 0, got {distractors}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    rng = np.random.Generator(np.random.PCG64(seed))
    taken = [(ci, cj)]
    amps = [1.0]
    for _ in range(distractors):
        taken.append(_place_distractor(rng, map_size, taken))
        amps.append(rng.uniform(*CLUTTER_AMP))
    return _compose(rng, _profiles(map_size, sharpness), taken, amps, noise_sigma)


def generate_scenario(config: ScenarioConfig) -> list[FrameObservation]:
    """Simulate every frame of a configured scenario.

    The raw tracker starts locked on the first ground-truth position.  Each
    frame its response map is built around its previous position: a unit
    target peak when the target is in view inside the window, a dimmed peak
    during occlusion, no target peak at all once the window has lost the
    target.  Distractors and noise are always added on top; frames without a
    real target additionally get the :data:`CLUTTER_NOISE_SIGMA` floor, since
    whatever fills the window then matches the template weakly everywhere.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    frames = np.arange(1, config.frame_count + 1, dtype=float)
    gt_x = np.interp(frames, *zip(*((f, x) for f, x, _ in config.waypoints)))
    gt_y = np.interp(frames, *zip(*((f, y) for f, _, y in config.waypoints)))
    occluded_flags = np.zeros(config.frame_count, dtype=bool)
    for start, end in config.occlusions:
        occluded_flags[start - 1 : end] = True

    shape = tuple(config.map_size)
    profiles = _profiles(shape, config.peak_sharpness)
    target_w, target_h = config.target_size
    raw_x, raw_y = float(gt_x[0]), float(gt_y[0])
    observations = []
    for k in range(config.frame_count):
        gx, gy = float(gt_x[k]), float(gt_y[k])
        occluded = bool(occluded_flags[k])
        ci = shape[0] // 2 + round((gy - raw_y) / config.cell_scale)
        cj = shape[1] // 2 + round((gx - raw_x) / config.cell_scale)
        in_window = 0 <= ci < shape[0] and 0 <= cj < shape[1]

        target_seen = in_window and not occluded
        taken = []
        amps = []
        if in_window:
            taken.append((ci, cj))
            amps.append(rng.uniform(*CLUTTER_AMP) if occluded else 1.0)
        for _ in range(config.distractor_count):
            taken.append(_place_distractor(rng, shape, taken))
            amps.append(rng.uniform(*CLUTTER_AMP))
        noise_sigma = (
            config.noise_sigma
            if target_seen
            else max(config.noise_sigma, CLUTTER_NOISE_SIGMA)
        )
        response = _compose(rng, profiles, taken, amps, noise_sigma)

        if occluded:
            step = rng.normal(0.0, WALK_SIGMA, 2)
            raw_x, raw_y = raw_x + step[0], raw_y + step[1]
        elif in_window:
            jitter = rng.normal(0.0, TRACK_JITTER_SIGMA, 2)
            raw_x, raw_y = gx + jitter[0], gy + jitter[1]
        else:
            jitter = rng.normal(0.0, TRACK_JITTER_SIGMA, 2)
            raw_x, raw_y = raw_x + jitter[0], raw_y + jitter[1]

        observations.append(
            FrameObservation(
                frame=k + 1,
                gt_box=BoundingBox(gx, gy, target_w, target_h),
                raw_model_box=BoundingBox(raw_x, raw_y, target_w, target_h),
                response=response,
                occluded=occluded,
            )
        )
    return observations


def run_tracking(
    scenario: list[FrameObservation],
    params: MotionParams,
    ommr_enabled: bool,
    *,
    trace: list[TraceRow] | None = None,
) -> list[BoundingBox]:
    """Run the online refinement (or the raw model verbatim) over a scenario.

    With refinement on, each frame goes through :func:`~sattrack.motion.refine_step`;
    off, the trajectory is the raw model boxes and the response maps are
    still scored, under branch label "raw".  One :class:`TraceRow` per frame
    is appended to ``trace`` when it is a list.
    """
    if len(scenario) < 2:
        raise ValueError(f"scenario must have at least 2 frames, got {len(scenario)}")
    trajectory: list[BoundingBox] = []
    state = TrackerState(capacity=params.n1)
    for obs in scenario:
        if ommr_enabled:
            trajectory.append(refine_step(state, obs.raw_model_box, obs.response, params))
            value, npsr, branch = state.last_psr, state.last_npsr, state.last_branch
        else:
            trajectory.append(obs.raw_model_box)
            value, npsr = _score(obs.response, state)
            branch = "raw"
        if trace is not None:
            trace.append(TraceRow(obs.frame, value, npsr, branch))
    return trajectory


def drift_series(trajectory, ground_truth) -> np.ndarray:
    """Per-frame center distance between a trajectory and the ground truth."""
    return center_errors(*paired_rows(trajectory, ground_truth))
