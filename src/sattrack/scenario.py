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

All randomness flows through one seeded PCG64 generator, so a configuration
reproduces its scenario exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import BoundingBox
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


def _gaussian_peaks(shape, peaks, sharpness) -> np.ndarray:
    rows, cols = np.meshgrid(
        np.arange(shape[0], dtype=float), np.arange(shape[1], dtype=float), indexing="ij"
    )
    response = np.zeros(shape)
    denom = 2.0 * sharpness * sharpness
    for ci, cj, amp in peaks:
        response += amp * np.exp(-((rows - ci) ** 2 + (cols - cj) ** 2) / denom)
    return response


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


def _compose(rng, shape, peaks, sharpness, noise_sigma) -> np.ndarray:
    response = _gaussian_peaks(shape, peaks, sharpness)
    if noise_sigma > 0:
        response += rng.normal(0.0, noise_sigma, shape)
    return np.clip(response, 0.0, None)


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
    peaks = [(ci, cj, 1.0)]
    taken = [(ci, cj)]
    for _ in range(distractors):
        di, dj = _place_distractor(rng, map_size, taken)
        taken.append((di, dj))
        peaks.append((di, dj, rng.uniform(*CLUTTER_AMP)))
    return _compose(rng, map_size, peaks, sharpness, noise_sigma)


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
        peaks = []
        taken = []
        if in_window:
            amp = rng.uniform(*CLUTTER_AMP) if occluded else 1.0
            peaks.append((ci, cj, amp))
            taken.append((ci, cj))
        for _ in range(config.distractor_count):
            di, dj = _place_distractor(rng, shape, taken)
            taken.append((di, dj))
            peaks.append((di, dj, rng.uniform(*CLUTTER_AMP)))
        noise_sigma = (
            config.noise_sigma
            if target_seen
            else max(config.noise_sigma, CLUTTER_NOISE_SIGMA)
        )
        response = _compose(rng, shape, peaks, config.peak_sharpness, noise_sigma)

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
    return_trace: bool = False,
) -> list[BoundingBox] | tuple[list[BoundingBox], list[TraceRow]]:
    """Run the online refinement (or the raw model verbatim) over a scenario.

    With refinement on, each frame goes through :func:`~sattrack.motion.refine_step`;
    off, the trajectory is the raw model boxes and the trace still records
    response quality with branch label "raw".
    """
    if len(scenario) < 2:
        raise ValueError(f"scenario must have at least 2 frames, got {len(scenario)}")
    trajectory: list[BoundingBox] = []
    trace: list[TraceRow] = []
    state = TrackerState(capacity=params.n1)
    if ommr_enabled:
        for obs in scenario:
            box = refine_step(state, obs.raw_model_box, obs.response, params)
            trajectory.append(box)
            trace.append(TraceRow(obs.frame, state.last_psr, state.last_npsr, state.last_branch))
    else:
        for obs in scenario:
            value, npsr = _score(obs.response, state)
            trajectory.append(obs.raw_model_box)
            trace.append(TraceRow(obs.frame, value, npsr, "raw"))
    if return_trace:
        return trajectory, trace
    return trajectory


def drift_series(trajectory, ground_truth) -> np.ndarray:
    """Per-frame center distance between a trajectory and the ground truth."""
    if len(trajectory) != len(ground_truth) or len(trajectory) == 0:
        raise ValueError(
            f"trajectories must have equal nonzero length, "
            f"got {len(trajectory)} and {len(ground_truth)}"
        )
    return np.array(
        [
            math.hypot(p.cx - g.cx, p.cy - g.cy)
            for p, g in zip(trajectory, ground_truth)
        ]
    )
