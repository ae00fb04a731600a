"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs a
single-thread closed loop over them in ``run`` (one caller; the next call
starts when the previous one returns), and afterwards checks the outputs
against the references in :mod:`oracles` and scores tracking quality.  The
package is driven only through public entry points: ``sattrack.cli.main`` for
the CLI workloads and the public functions of ``motion``, ``attention`` and
``geometry`` for the per-frame workloads.  Calls look the function up on its
module each time, so the traced run's wrappers see them.

A loop always completes one full pass over its inputs, then continues until
the time is up.  Every operation's output is hashed, and an operation whose
digest differs from the first pass on the same input has failed: equal
seeds must give byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import time
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sattrack import attention, cli, geometry, motion, scenario
from sattrack.geometry import AspectRatioParams, GridGeometry
from sattrack.motion import MotionParams

import inputs
import oracles
import reference

clock = time.perf_counter_ns
TRACK_OUTPUTS = ("trajectory.csv", "ground_truth.csv", "trace.csv")
# Pool frames whose depthwise correlation is re-checked with the loop oracle.
XCORR_CHECKED = 8
# Throughput is taken per block of at least this much timed work.
BLOCK_NS = 100_000_000
# The reference kernel runs between operations at least this often.
PROBE_EVERY_NS = 20_000_000


@dataclass
class Timing:
    """One timed loop: per-operation start and end (ns), frames, the input
    it ran on, and whether it failed (raised, exited non-zero, or produced
    output that differs from the first pass on that input); and the
    reference-kernel probes taken between operations."""

    starts: np.ndarray
    ends: np.ndarray
    frames: np.ndarray
    keys: np.ndarray
    failed: np.ndarray
    ops_per_pass: int
    probe_ends: np.ndarray
    probe_ns: np.ndarray

    @property
    def wall_ns(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def reference_ns(self) -> np.ndarray:
        """Each operation's duration at the reference speed: scaled by
        ``REFERENCE_NS`` over the mean of the probes just before and just
        after it."""
        after = np.minimum(np.searchsorted(self.probe_ends, self.ends), len(self.probe_ns) - 1)
        before = np.maximum(np.searchsorted(self.probe_ends, self.starts) - 1, 0)
        around = (self.probe_ns[before] + self.probe_ns[after]) / 2.0
        return self.wall_ns * reference.REFERENCE_NS / around

    def frames_per_s(self, durations: np.ndarray) -> float:
        """Median throughput over blocks of consecutive operations holding at
        least ``BLOCK_NS`` of work each, so that a stall moves it less than
        a mean over the run would."""
        rates, frames, spent = [], 0, 0.0
        for f, d in zip(self.frames.tolist(), durations.tolist()):
            frames, spent = frames + f, spent + d
            if spent >= BLOCK_NS:
                rates.append(frames / spent * 1e9)
                frames, spent = 0, 0.0
        if not rates:  # the whole loop was shorter than one block
            rates = [frames / spent * 1e9]
        return float(np.median(rates))

    def frame_us(self, durations: np.ndarray) -> np.ndarray:
        """Per-frame latency of each operation: its duration over its frames."""
        return durations / self.frames / 1e3

    @property
    def tail_quantile(self) -> float:
        """The highest quantile, at most 0.99, with at least ten samples
        beyond it; the median when there are fewer than twenty samples."""
        return max(0.5, min(0.99, 1.0 - 10.0 / len(self.starts)))


class OpLog:
    """Per-operation records in typed arrays, compact enough that the log of
    a long per-frame loop does not show in the peak RSS.  The reference
    kernel runs when the log opens, whenever ``PROBE_EVERY_NS`` have passed
    since it last ran, and when the log closes."""

    def __init__(self):
        self.starts, self.ends = array("q"), array("q")
        self.frames, self.keys = array("q"), array("q")
        self.failed = bytearray()
        self.first_digest: dict[int, str] = {}
        self.probe_ends, self.probe_ns = array("q"), array("q")
        self._probe()

    def _probe(self):
        self.probe_ns.append(reference.kernel_ns())
        self.probe_ends.append(clock())

    def add(self, start, end, frames, key, failed, digest=None):
        if digest is not None and self.first_digest.setdefault(key, digest) != digest:
            failed = True
        self.starts.append(start)
        self.ends.append(end)
        self.frames.append(frames)
        self.keys.append(key)
        self.failed.append(failed)
        if clock() - self.probe_ends[-1] >= PROBE_EVERY_NS:
            self._probe()

    def timing(self, ops_per_pass: int) -> Timing:
        self._probe()
        def view(a):
            return np.frombuffer(a, dtype=np.int64)

        return Timing(
            view(self.starts), view(self.ends), view(self.frames), view(self.keys),
            np.frombuffer(self.failed, dtype=bool), ops_per_pass,
            view(self.probe_ends), view(self.probe_ns),
        )


def _report(what: str, detail: str):
    print(f"benchmark: {what}: {detail.strip()}", file=sys.stderr)


def call_cli(argv: list[str]) -> tuple[int, int, int]:
    """One in-process ``sattrack`` command; returns (start, end, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = -1
            err.write(traceback.format_exc())
        end = clock()
    if code != 0:
        _report(f"sattrack {argv[0]} exited {code}", err.getvalue())
    return start, end, code


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: inputs.Sizes, work_dir: Path):
        self.seed = seed
        self.sizes = sizes
        self.work_dir = work_dir

    def setup(self):
        """Generate the inputs; repeatable, and the same for a seed."""
        raise NotImplementedError

    def run(self, seconds: float) -> Timing:
        raise NotImplementedError

    def check(self) -> set[int]:
        """Keys of the inputs whose last outputs are wrong."""
        raise NotImplementedError

    def quality(self) -> oracles.Scores:
        raise NotImplementedError


class TrackSuite(Workload):
    """``sattrack track`` (refinement on) over seeded scenario files."""

    name = "track_suite"

    def setup(self):
        rng = inputs.rng_for(self.seed, self.name)
        self.configs = inputs.scenario_configs(
            rng, self.sizes.track_scenarios, self.sizes.track_frames
        )
        scenario_dir = self.work_dir / "scenarios"
        scenario_dir.mkdir(parents=True, exist_ok=True)
        self.cfg_paths = []
        for i, config in enumerate(self.configs):
            path = scenario_dir / f"scenario{i:02d}.cfg"
            inputs.write_scenario(path, config)
            self.cfg_paths.append(path)
        self.out_dirs = [self.work_dir / "track" / p.stem for p in self.cfg_paths]

    def run(self, seconds):
        log = OpLog()
        count = len(self.configs)
        deadline = clock() + seconds * 1e9
        op = 0
        while op < count or clock() < deadline:
            key = op % count
            out = self.out_dirs[key]
            start, end, code = call_cli(
                ["track", "--scenario", str(self.cfg_paths[key]), "--output", str(out)]
            )
            digest = oracles.digest_files(out / n for n in TRACK_OUTPUTS) if code == 0 else None
            log.add(start, end, self.configs[key].frame_count, key, code != 0, digest)
            op += 1
        return log.timing(count)

    def _read(self, key):
        out = self.out_dirs[key]
        return (
            oracles.read_center_csv(out / "trajectory.csv"),
            oracles.read_center_csv(out / "ground_truth.csv"),
        )

    def check(self):
        bad = set()
        params = MotionParams()
        for key, config in enumerate(self.configs):
            observations = scenario.generate_scenario(config)
            expected = scenario.run_tracking(observations, params, True)
            try:
                trajectory, truth = self._read(key)
            except (OSError, ValueError) as exc:
                _report(f"scenario {key}", str(exc))
                bad.add(key)
                continue
            frames = list(range(1, config.frame_count + 1))
            ok = (
                [f for f, _ in trajectory] == frames
                and [f for f, _ in truth] == frames
                and all(math.isfinite(v) for _, row in trajectory for v in row)
                and [row for _, row in trajectory] == [[b.cx, b.cy, b.w, b.h] for b in expected]
                and [row for _, row in truth]
                == [[o.gt_box.cx, o.gt_box.cy, o.gt_box.w, o.gt_box.h] for o in observations]
            )
            if not ok:
                _report(f"scenario {key}", "trajectory differs from the in-benchmark run_tracking")
                bad.add(key)
        return bad

    def quality(self):
        scores = []
        for key in range(len(self.configs)):
            trajectory, truth = self._read(key)
            scores.append(
                oracles.score_sequence([r for _, r in trajectory], [r for _, r in truth])
            )
        return oracles.mean_scores(scores)


class RefineStream(Workload):
    """Per-frame ``motion.refine_step`` over pre-generated scenario frames,
    a fresh tracker state per sequence, each call timed."""

    name = "refine_stream"

    def setup(self):
        rng = inputs.rng_for(self.seed, self.name)
        configs = inputs.scenario_configs(
            rng, self.sizes.refine_sequences, self.sizes.refine_frames
        )
        self.observations = None  # drop the previous set before building the next
        self.observations = [scenario.generate_scenario(c) for c in configs]
        self.outputs: dict[int, list] = {}

    def run(self, seconds):
        log = OpLog()
        params = MotionParams()
        count = len(self.observations)
        frames_per_pass = sum(len(obs) for obs in self.observations)
        deadline = clock() + seconds * 1e9
        key = passes = 0
        while passes == 0 or clock() < deadline:
            state = motion.TrackerState(params.n1)
            starts, ends, failures, boxes = array("q"), array("q"), bytearray(), []
            for obs in self.observations[key]:
                start = clock()
                try:
                    box = motion.refine_step(state, obs.raw_model_box, obs.response, params)
                    failed = False
                except Exception:
                    box, failed = None, True
                    _report(f"sequence {key} frame {obs.frame}", traceback.format_exc())
                end = clock()
                starts.append(start)
                ends.append(end)
                failures.append(failed)
                boxes.append(box)
            digest = hashlib.blake2b(repr(boxes).encode(), digest_size=16).hexdigest()
            if log.first_digest.setdefault(key, digest) != digest:
                failures = bytearray([True]) * len(failures)
            for start, end, failed in zip(starts, ends, failures):
                log.add(start, end, 1, key, failed)
            self.outputs[key] = boxes
            key += 1
            if key == count:
                key, passes = 0, passes + 1
        return log.timing(frames_per_pass)

    def check(self):
        bad = set()
        params = MotionParams()
        for key, observations in enumerate(self.observations):
            expected = scenario.run_tracking(observations, params, True)
            boxes = self.outputs.get(key)
            if boxes != expected or not all(
                math.isfinite(v) for b in boxes for v in (b.cx, b.cy, b.w, b.h)
            ):
                _report(f"sequence {key}", "refined boxes differ from run_tracking")
                bad.add(key)
        return bad

    def quality(self):
        return oracles.mean_scores([
            oracles.score_sequence(
                [[b.cx, b.cy, b.w, b.h] for b in self.outputs[key]],
                [[o.gt_box.cx, o.gt_box.cy, o.gt_box.w, o.gt_box.h] for o in observations],
            )
            for key, observations in enumerate(self.observations)
        ])


class EvaluateSuite(Workload):
    """Directory-mode ``sattrack evaluate --attributes`` over seeded
    trajectory files, half headered ``.csv`` and half corner-format ``.txt``."""

    name = "evaluate_suite"

    def setup(self):
        rng = inputs.rng_for(self.seed, self.name)
        self.sequences = inputs.eval_sequences(
            rng, self.sizes.eval_sequences, self.sizes.eval_frames
        )
        self.groups = inputs.attribute_groups(rng, [s.name for s in self.sequences])
        self.pred_dir = self.work_dir / "pred"
        self.gt_dir = self.work_dir / "gt"
        self.out_dir = self.work_dir / "evaluation"
        for directory in (self.pred_dir, self.gt_dir):
            directory.mkdir(parents=True, exist_ok=True)
        for seq in self.sequences:
            inputs.write_eval_sequence(self.pred_dir, self.gt_dir, seq)
        self.attributes = self.work_dir / "attributes.cfg"
        inputs.write_attribute_groups(self.attributes, self.groups)

    def run(self, seconds):
        log = OpLog()
        frames = sum(len(s.gt) for s in self.sequences)
        argv = [
            "evaluate", "--pred", str(self.pred_dir), "--gt", str(self.gt_dir),
            "--attributes", str(self.attributes), "--output", str(self.out_dir),
        ]
        deadline = clock() + seconds * 1e9
        op = 0
        while op == 0 or clock() < deadline:
            start, end, code = call_cli(argv)
            digest = oracles.digest_files(sorted(self.out_dir.iterdir())) if code == 0 else None
            log.add(start, end, frames, 0, code != 0, digest)
            op += 1
        return log.timing(1)

    def _summary(self) -> dict:
        return json.loads((self.out_dir / "summary.json").read_text())

    def check(self):
        try:
            summary = self._summary()
        except (OSError, ValueError) as exc:
            _report("summary.json", str(exc))
            return {0}
        expected = {
            s.name: oracles.score_sequence(s.as_read(s.pred), s.as_read(s.gt))
            for s in self.sequences
        }
        groups = {"overall": list(expected), **self.groups}
        reported_sequences = summary.get("sequences", {})
        reported_groups = summary.get("groups", {})
        ok = set(reported_sequences) == set(expected) and set(reported_groups) == set(groups)
        ok = ok and all(
            oracles.scores_match(reported_sequences[name], scores)
            and reported_sequences[name]["frame_count"] == len(seq.gt)
            for (name, scores), seq in zip(expected.items(), self.sequences)
        )
        ok = ok and all(
            oracles.scores_match(
                reported_groups[group],
                oracles.mean_scores([expected[m] for m in members]),
            )
            for group, members in groups.items()
        )
        if not ok:
            _report("summary.json", "scores differ from the brute-force per-frame reference")
            return {0}
        return set()

    def quality(self):
        overall = self._summary()["groups"]["overall"]
        return oracles.Scores(
            overall["p5"], overall["p20"], overall["np05"], overall["success_auc"]
        )


GRID = GridGeometry()
GRID_SHAPE = (GRID.height, GRID.width)
ASPECT = AspectRatioParams()


def _sigmoid_of_zscore(values: np.ndarray) -> np.ndarray:
    z = (values - values.mean()) / (values.std() + 1e-12)
    return 1.0 / (1.0 + np.exp(-z))


class HeadTrainStep(Workload):
    """Model-side numerics of one training frame: cross-frame attention,
    depthwise correlation, label maps and the three losses."""

    name = "head_train_step"

    def setup(self):
        rng = inputs.rng_for(self.seed, self.name)
        self.frames = inputs.head_frames(rng, self.sizes.head_pool)
        self.weights = inputs.head_weights(self.seed)
        self.point_x, self.point_y = np.meshgrid(GRID.point_xs(), GRID.point_ys())
        self.responses: dict[int, np.ndarray] = {}

    def _step(self, frame: inputs.HeadFrame):
        enhanced = attention.enhance_features(frame.search, frame.template, self.weights)
        correlation = attention.xcorr_depthwise(frame.template, enhanced)
        response = correlation.sum(axis=0)
        maps = geometry.build_label_maps(frame.box, GRID, ASPECT)
        cls = geometry.cls_loss(_sigmoid_of_zscore(response), maps.centerness)
        cen = geometry.centerness_loss(_sigmoid_of_zscore(correlation[0]), maps.centerness)
        positive = maps.labels.astype(bool)
        count = int(positive.sum())
        box = frame.box
        predicted = np.column_stack([
            self.point_x[positive], self.point_y[positive],
            np.full(count, box.w), np.full(count, box.h),
        ])
        truth = np.tile([box.cx, box.cy, box.w, box.h], (count, 1))
        reg = geometry.regression_loss(predicted, truth, maps.centerness[positive])
        return response, (cls, cen, reg)

    def run(self, seconds):
        log = OpLog()
        count = len(self.frames)
        deadline = clock() + seconds * 1e9
        op = 0
        while op < count or clock() < deadline:
            key = op % count
            start = clock()
            try:
                response, losses = self._step(self.frames[key])
                failed = False
            except Exception:
                response, losses, failed = None, None, True
                _report(f"head frame {key}", traceback.format_exc())
            end = clock()
            digest = None
            if not failed:
                digest = hashlib.blake2b(
                    response.tobytes() + repr(losses).encode(), digest_size=16
                ).hexdigest()
                self.responses[key] = response
            log.add(start, end, 1, key, failed, digest)
            op += 1
        return log.timing(count)

    def check(self):
        bad = set()
        for key, frame in enumerate(self.frames):
            response = self.responses.get(key)
            if response is None:
                bad.add(key)
                continue
            if key >= XCORR_CHECKED:
                continue
            enhanced = attention.enhance_features(frame.search, frame.template, self.weights)
            reference = oracles.xcorr_loop(frame.template, enhanced)
            ok = np.allclose(
                attention.xcorr_depthwise(frame.template, enhanced), reference,
                rtol=1e-9, atol=1e-9,
            ) and np.allclose(response, reference.sum(axis=0), rtol=1e-9, atol=1e-9)
            if not ok:
                _report(f"head frame {key}", "xcorr_depthwise differs from the loop reference")
                bad.add(key)
        return bad

    def quality(self):
        """The box at the response peak against the target box, the pool
        scored as one sequence."""
        decoded, truth = [], []
        for key, frame in enumerate(self.frames):
            i, j = np.unravel_index(int(np.argmax(self.responses[key])), GRID_SHAPE)
            center = inputs.HEAD_STRIDE // 2
            box = frame.box
            decoded.append([center + j * inputs.HEAD_STRIDE, center + i * inputs.HEAD_STRIDE, box.w, box.h])
            truth.append([box.cx, box.cy, box.w, box.h])
        return oracles.score_sequence(decoded, truth)


WORKLOADS = {w.name: w for w in (TrackSuite, RefineStream, EvaluateSuite, HeadTrainStep)}
