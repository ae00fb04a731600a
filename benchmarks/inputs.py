"""Seeded inputs for the benchmark workloads.

Every input the package sees is generated here from the workload seed:
scenario config files, trajectory files, attribute groups and feature maps.
Properties that set how much work an input costs (motion speed, occlusion
length, distractor count, tracking noise) are stratified: each seed gets the
same spread of values in shuffled order, so the work per seed stays nearly
constant while the details vary from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sattrack.attention import init_projection_weights
from sattrack.boxes import BoundingBox
from sattrack.motion import MotionParams
from sattrack.scenario import ScenarioConfig

# Warm-up length of the default refinement; occlusions start after it.
N1 = MotionParams().n1
SEGMENT_FRAMES = 100
ATTRIBUTE_GROUPS = (
    "occlusion", "fast_motion", "small_target", "low_contrast", "clutter", "drift",
)
# Head-frame shapes: a (C, 29, 29) search map and a (C, 5, 5) template give a
# 25x25 response, the size of the default stride-8 label grid.
HEAD_CHANNELS = 8
HEAD_SEARCH = 29
HEAD_TEMPLATE = 5
HEAD_STRIDE = 8
HEAD_GATE = 0.1


@dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload."""

    track_scenarios: int = 40
    track_frames: int = 500
    refine_sequences: int = 20
    refine_frames: int = 500
    eval_sequences: int = 50
    eval_frames: int = 1000
    head_pool: int = 64


FULL = Sizes()
# A few frames per workload, for the harness self-test.
TINY = Sizes(
    track_scenarios=2, track_frames=120, refine_sequences=2, refine_frames=120,
    eval_sequences=6, eval_frames=60, head_pool=4,
)


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input stream, so adding one stream never
    shifts the draws of another."""
    return np.random.Generator(np.random.PCG64([seed, *stream.encode()]))


def stratified(rng, count: int, low: float, high: float) -> np.ndarray:
    """One uniform draw from each of ``count`` equal strata of [low, high),
    in shuffled order."""
    return low + (high - low) * (rng.permutation(count) + rng.random(count)) / count


def _waypoints(rng, frames: int, speeds) -> tuple[tuple[int, float, float], ...]:
    """Piecewise-linear path: one segment per speed, random headings."""
    bounds = np.linspace(1, frames, len(speeds) + 1).round().astype(int)
    x, y = (float(v) for v in rng.uniform(200.0, 800.0, 2))
    points = [(1, x, y)]
    for k, speed in enumerate(speeds):
        heading = rng.uniform(0.0, 2.0 * math.pi)
        steps = int(bounds[k + 1] - bounds[k])
        x += float(speed) * steps * math.cos(heading)
        y += float(speed) * steps * math.sin(heading)
        points.append((int(bounds[k + 1]), x, y))
    return tuple(points)


def scenario_configs(rng, count: int, frames: int) -> list[ScenarioConfig]:
    """Scenarios of 1-4 px/frame piecewise-linear motion, one occlusion of
    15-40 frames after warm-up, and 1-4 distractors."""
    segments = max(1, frames // SEGMENT_FRAMES)
    speeds = stratified(rng, count * segments, 1.0, 4.0).reshape(count, segments)
    occlusion_lengths = np.floor(stratified(rng, count, 15, 41)).astype(int)
    distractors = rng.permutation(np.arange(count) % 4) + 1
    configs = []
    for s in range(count):
        waypoints = _waypoints(rng, frames, speeds[s])
        width, height = (float(v) for v in rng.uniform(8.0, 24.0, 2))
        length = int(occlusion_lengths[s])
        start = int(rng.integers(N1 + 10, frames - length - 5 + 1))
        configs.append(
            ScenarioConfig(
                frame_count=frames,
                waypoints=waypoints,
                target_size=(width, height),
                occlusions=((start, start + length - 1),),
                distractor_count=int(distractors[s]),
                seed=int(rng.integers(2**31)),
            )
        )
    return configs


def write_scenario(path: Path, config: ScenarioConfig):
    """Key = value scenario file; floats in shortest round-trip form, so the
    CLI parses back exactly ``config``."""
    width, height = config.target_size
    lines = [
        f"frame_count = {config.frame_count}",
        f"target_size = {width!r} {height!r}",
        *(f"waypoint = {f} {x!r} {y!r}" for f, x, y in config.waypoints),
        *(f"occlusion = {start} {end}" for start, end in config.occlusions),
        f"distractor_count = {config.distractor_count}",
        f"seed = {config.seed}",
    ]
    path.write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class EvalSequence:
    """One evaluation sequence.  ``pred`` and ``gt`` hold the (N, 4) values
    as written: center format for ``.csv``, top-left corner format for the
    headerless ``.txt`` files."""

    name: str
    pred: np.ndarray
    gt: np.ndarray
    corner_txt: bool

    def as_read(self, values: np.ndarray) -> np.ndarray:
        """Center boxes exactly as a reader restores them from ``values``."""
        if not self.corner_txt:
            return values
        centers = values.copy()
        centers[:, :2] += values[:, 2:] / 2.0
        return centers


def eval_sequences(rng, count: int, frames: int) -> list[EvalSequence]:
    """Ground-truth paths plus predictions with per-sequence jitter and one
    drift episode.  Odd sequences are stored as headerless tab-separated
    corner-format ``.txt``, even ones as headered center-format ``.csv``."""
    segments = max(1, frames // SEGMENT_FRAMES)
    speeds = stratified(rng, count * segments, 1.0, 4.0).reshape(count, segments)
    jitter = stratified(rng, count, 1.0, 12.0)
    drift = stratified(rng, count, 10.0, 80.0)
    sequences = []
    t = np.arange(1, frames + 1, dtype=float)
    for s in range(count):
        frame_ids, xs, ys = zip(*_waypoints(rng, frames, speeds[s]))
        size = rng.uniform(8.0, 30.0, 2)
        gt = np.column_stack(
            [np.interp(t, frame_ids, xs), np.interp(t, frame_ids, ys),
             np.full(frames, size[0]), np.full(frames, size[1])]
        )
        start = rng.uniform(0, frames)
        length = rng.uniform(0.05, 0.3) * frames
        ramp = np.clip((t - start) / max(length / 4, 1.0), 0.0, 1.0) * (t <= start + length)
        heading = rng.uniform(0.0, 2.0 * math.pi)
        pred = gt.copy()
        pred[:, 0] += rng.normal(0.0, jitter[s], frames) + drift[s] * ramp * math.cos(heading)
        pred[:, 1] += rng.normal(0.0, jitter[s], frames) + drift[s] * ramp * math.sin(heading)
        pred[:, 2:] *= np.exp(rng.normal(0.0, 0.08, (frames, 2)))
        corner_txt = s % 2 == 1
        if corner_txt:
            for boxes in (pred, gt):
                boxes[:, :2] -= boxes[:, 2:] / 2.0
        sequences.append(EvalSequence(f"seq{s:03d}", pred, gt, corner_txt))
    return sequences


def write_eval_sequence(pred_dir: Path, gt_dir: Path, seq: EvalSequence):
    for directory, boxes in ((pred_dir, seq.pred), (gt_dir, seq.gt)):
        if seq.corner_txt:
            text = "".join(f"{x!r}\t{y!r}\t{w!r}\t{h!r}\n" for x, y, w, h in boxes.tolist())
            (directory / f"{seq.name}.txt").write_text(text)
        else:
            text = "frame,cx,cy,w,h\n" + "".join(
                f"{i},{cx!r},{cy!r},{w!r},{h!r}\n"
                for i, (cx, cy, w, h) in enumerate(boxes.tolist(), start=1)
            )
            (directory / f"{seq.name}.csv").write_text(text)


def attribute_groups(rng, names: list[str]) -> dict[str, list[str]]:
    """Six attribute groups, each a random non-empty subset of sequences."""
    groups = {}
    for group in ATTRIBUTE_GROUPS:
        chosen = rng.random(len(names)) < 0.3
        chosen[rng.integers(len(names))] = True
        groups[group] = [n for n, keep in zip(names, chosen) if keep]
    return groups


def write_attribute_groups(path: Path, groups: dict[str, list[str]]):
    path.write_text("".join(f"{g} = {' '.join(m)}\n" for g, m in groups.items()))


@dataclass(frozen=True)
class HeadFrame:
    """One training frame: search and template features with the template
    cut from the search map at the target cell, and the target's box."""

    search: np.ndarray
    template: np.ndarray
    box: BoundingBox
    target_cell: tuple[int, int]


def head_frames(rng, count: int) -> list[HeadFrame]:
    out_size = HEAD_SEARCH - HEAD_TEMPLATE + 1
    frames = []
    for _ in range(count):
        search = rng.standard_normal((HEAD_CHANNELS, HEAD_SEARCH, HEAD_SEARCH))
        i, j = (int(v) for v in rng.integers(4, out_size - 4, 2))
        template = search[:, i : i + HEAD_TEMPLATE, j : j + HEAD_TEMPLATE].copy()
        template += rng.normal(0.0, 0.1, template.shape)
        offset_x, offset_y = rng.uniform(-3.0, 3.0, 2)
        width, height = rng.uniform(10.0, 48.0, 2)
        center = HEAD_STRIDE // 2
        box = BoundingBox(
            float(center + j * HEAD_STRIDE + offset_x),
            float(center + i * HEAD_STRIDE + offset_y),
            float(width),
            float(height),
        )
        frames.append(HeadFrame(search, template, box, (i, j)))
    return frames


def head_weights(seed: int):
    return init_projection_weights(HEAD_CHANNELS, 4, seed=seed, gamma=HEAD_GATE)
