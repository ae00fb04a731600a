"""Spans around the calls into each layer of the package, for the traced run.

Wrappers replace the module attributes that callers look functions up by
(``sattrack.cli.run_tracking``, ``sattrack.motion.psr``, ...), so the package
itself is unchanged.  Each span records its name, start, end and parent span;
its sequence id (the timed operation it belongs to) is assigned from the
operation start times when the spans are written out.  A layer's self time is
its spans' durations minus the time covered by their child spans.

``BoundingBox.__post_init__`` runs hundreds of thousands of times per pass,
so the boxes layer is counted and timed in aggregate rather than with one
span per box; its time is taken out of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from sattrack import attention, cli, formats, geometry, motion, scenario
from sattrack.boxes import BoundingBox

LAYERS = ("cli", "formats", "scenario", "motion", "boxes", "metrics", "attention", "geometry")


def _branch(args, result):
    return args[0].last_branch


def _sequence_frames(args, result):
    return len(args[0])


def _positives(args, result):
    return result.positive_count


def enhance_flop(search_shape, template_shape, reduced: int) -> int:
    """Operation count of one ``enhance_features`` call, computed from the
    shapes: Q/K/V projections, scores, a 4-op softmax, aggregation and the
    gated residual (a multiply-add counts as two)."""
    channels, ns = search_shape[0], search_shape[1] * search_shape[2]
    nt = template_shape[1] * template_shape[2]
    return (
        2 * reduced * channels * (ns + nt)
        + 2 * channels * channels * nt
        + 2 * reduced * ns * nt
        + 4 * ns * nt
        + 2 * channels * nt * ns
        + 2 * channels * ns
    )


def xcorr_flop(template_shape, output_shape) -> int:
    """Operation count of one ``xcorr_depthwise`` call: a multiply-add per
    template cell per output cell per channel."""
    return 2 * int(np.prod(output_shape)) * template_shape[1] * template_shape[2]


def _enhance_tag(args, result):
    return enhance_flop(result.shape, np.shape(args[1]), args[2].w_q.shape[0])


def _xcorr_tag(args, result):
    return xcorr_flop(np.shape(args[0]), result.shape)


def _sites():
    """(owner, attribute, span name, tag) for every traced call site."""
    sites = [
        (cli, "main", "cli.main", None),
        (cli, "generate_scenario", "scenario.generate_scenario", None),
        (cli, "run_tracking", "scenario.run_tracking", None),
        (scenario, "refine_step", "motion.refine_step", _branch),
        (motion, "refine_step", "motion.refine_step", _branch),
        (motion, "psr", "motion.psr", None),
        (cli, "evaluate", "metrics.evaluate", _sequence_frames),
        (cli, "aggregate_results", "metrics.aggregate_results", None),
        (attention, "enhance_features", "attention.enhance_features", _enhance_tag),
        (attention, "xcorr_depthwise", "attention.xcorr_depthwise", _xcorr_tag),
        (geometry, "build_label_maps", "geometry.build_label_maps", _positives),
        (geometry, "cls_loss", "geometry.cls_loss", None),
        (geometry, "centerness_loss", "geometry.centerness_loss", None),
        (geometry, "regression_loss", "geometry.regression_loss", None),
    ]
    sites += [
        (formats, name, f"formats.{name}", None)
        for name, fn in vars(formats).items()
        if inspect.isfunction(fn) and fn.__module__ == formats.__name__ and not name.startswith("_")
    ]
    return sites


class Tracer:
    """Records spans while installed; ``uninstall`` restores every wrapped
    attribute."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # (name id, start ns, end ns, parent index)
        self.tags: dict[int, object] = {}
        self.stack: list[int] = []
        self.box_count = 0
        self.box_ns = 0
        self.box_ns_in: dict[int, int] = defaultdict(int)
        self._restore: list = []

    def install(self):
        for owner, attr, name, tag in _sites():
            self._wrap(owner, attr, name, tag)
        self._wrap_box_validation()

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, owner, attr, name, tag):
        fn = getattr(owner, attr)
        name_id = self._name_id(name)
        spans, stack, tags = self.spans, self.stack, self.tags
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if tag is not None:
                tags[index] = tag(args, result)
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def _wrap_box_validation(self):
        original = BoundingBox.__post_init__
        stack, box_ns_in = self.stack, self.box_ns_in
        clock = time.perf_counter_ns
        tracer = self

        def post_init(box):
            start = clock()
            original(box)
            elapsed = clock() - start
            tracer.box_count += 1
            tracer.box_ns += elapsed
            if stack:
                box_ns_in[stack[-1]] += elapsed

        BoundingBox.__post_init__ = post_init
        self._restore.append((BoundingBox, "__post_init__", original))

    def arrays(self, op_starts: np.ndarray) -> dict[str, np.ndarray]:
        """Spans as columns, with the sequence id of the operation each
        started in."""
        spans = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        name_id, start, end, parent = spans.T
        return {
            "name_id": name_id,
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "seq": np.searchsorted(op_starts, start, side="right") - 1,
        }

    def write(self, path: Path, op_starts: np.ndarray):
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.arrays(op_starts))


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, timing, untraced_fps: float) -> dict[str, float]:
    """Per-layer metrics of one traced timed loop.

    Counts marked "per pass" cover the first full pass over the workload's
    inputs, so they repeat exactly for a seed.  Layer self times plus the
    remainder (harness code between calls) add up to the traced wall time.
    """
    cols = tracer.arrays(timing.starts)
    name_id, seq = cols["name_id"], cols["seq"]
    dur = cols["end_ns"] - cols["start_ns"]
    parent = cols["parent"]
    child = np.zeros(len(dur), dtype=np.int64)
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    boxes_in = np.zeros(len(dur), dtype=np.int64)
    for index, ns in tracer.box_ns_in.items():
        boxes_in[index] = ns
    self_ns = dur - child - boxes_in

    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in tracer.names], dtype=int)
    layer_self = np.bincount(
        layer_of[name_id], weights=self_ns, minlength=len(LAYERS)
    ).astype(float)
    layer_self[LAYERS.index("boxes")] += tracer.box_ns
    wall_ns = float((timing.ends - timing.starts).sum())
    frames = float(timing.frames.sum())
    first_pass = seq < timing.ops_per_pass

    def select(name):
        if name not in tracer.names:
            return np.zeros(len(dur), dtype=bool)
        return name_id == tracer.names.index(name)

    def us_p50(name):
        return _pct(dur[select(name)] / 1e3, 50)

    def tagged(name, mask=None):
        mask = select(name) if mask is None else mask
        return [tracer.tags[i] for i in np.flatnonzero(mask)]

    refine = select("motion.refine_step")
    branches = np.array(tagged("motion.refine_step"), dtype=object)
    refine_us = dur[refine] / 1e3
    branch_pass = tagged("motion.refine_step", refine & first_pass)

    losses = np.zeros(len(dur), dtype=bool)
    for name in ("geometry.cls_loss", "geometry.centerness_loss", "geometry.regression_loss"):
        losses |= select(name)
    loss_us_per_frame = np.bincount(seq[losses], weights=dur[losses])
    loss_us_per_frame = loss_us_per_frame[loss_us_per_frame > 0] / 1e3

    enhance_us = us_p50("attention.enhance_features")
    xcorr_us = us_p50("attention.xcorr_depthwise")
    enhance_mflop = _pct(tagged("attention.enhance_features"), 50) / 1e6
    xcorr_mflop = _pct(tagged("attention.xcorr_depthwise"), 50) / 1e6
    evaluate = select("metrics.evaluate")

    out = {f"{layer}.self_us_per_frame": layer_self[i] / 1e3 / frames for i, layer in enumerate(LAYERS)}
    out.update({
        "trace.wall_us_per_frame": wall_ns / 1e3 / frames,
        "trace.remainder_us_per_frame": (wall_ns - layer_self.sum()) / 1e3 / frames,
        "trace.overhead_frac": timing.frames_per_s(timing.reference_ns) / untraced_fps,
        "scenario.generate_us_per_frame": dur[select("scenario.generate_scenario")].sum() / 1e3 / frames,
        "motion.refine_us_p50": _pct(refine_us, 50),
        "motion.refine_us_p99": _pct(refine_us, 99),
        "motion.psr_us_p50": us_p50("motion.psr"),
        "motion.psr_calls": int((select("motion.psr") & first_pass).sum()),
        "boxes.validations_per_frame": tracer.box_count / frames,
        "metrics.evaluate_us_per_frame": dur[evaluate].sum() / 1e3 / frames,
        "metrics.evaluate_calls": int((evaluate & first_pass).sum()),
        "metrics.aggregate_s": _pct(dur[select("metrics.aggregate_results")] / 1e9, 50),
        "attention.enhance_us_p50": enhance_us,
        "attention.xcorr_us_p50": xcorr_us,
        "attention.enhance_mflop": enhance_mflop,
        "attention.xcorr_mflop": xcorr_mflop,
        "attention.enhance_gflops": enhance_mflop / enhance_us * 1e3 if enhance_us else 0.0,
        "attention.xcorr_gflops": xcorr_mflop / xcorr_us * 1e3 if xcorr_us else 0.0,
        "geometry.label_maps_us_p50": us_p50("geometry.build_label_maps"),
        "geometry.losses_us_p50": _pct(loss_us_per_frame, 50),
        "geometry.positives_per_frame": float(np.mean(tagged("geometry.build_label_maps") or [0])),
    })
    for branch in ("warmup", "low", "high"):
        out[f"motion.refine_{branch}_us_p50"] = _pct(refine_us[branches == branch], 50)
        out[f"motion.branch_{branch}"] = sum(b == branch for b in branch_pass)
    return {k: v.item() if isinstance(v, np.generic) else v for k, v in out.items()}
