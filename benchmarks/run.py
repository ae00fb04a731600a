"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload track_suite --seed 1 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` of the checkout
this file sits in.  Inputs are generated from ``--seed`` into
``.bench_work/`` and removed afterwards.  The report goes to standard output,
and its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  End-to-end times are scaled to the reference speed that
``reference.py`` defines, and the report prints them unscaled as well.  A
traced run times half of ``--seconds`` untraced and half traced, and writes
its spans to ``.bench_traces/``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import os  # noqa: E402

# Pin the BLAS and OpenMP pools before numpy is imported: the bundled
# OpenBLAS is built for up to 64 threads, and every call here is meant to be
# single-thread.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="a few frames per workload (harness self-test)"
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def machine() -> dict:
    """Where the numbers were taken."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": THREAD_PINS,
    }


def end_to_end(timing, durations, setup_s: float, quality) -> dict:
    frame_us = timing.frame_us(durations)
    return {
        "setup_s": setup_s,
        "frames_per_s": timing.frames_per_s(durations),
        "frame_p50_us": float(np.percentile(frame_us, 50)),
        "frame_p99_us": float(np.quantile(frame_us, timing.tail_quantile)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality_p20": quality.p20,
        "quality_success_auc": quality.success_auc,
    }


def measure(args) -> tuple[dict, int, int, list[str]]:
    """Set up, time, check; returns (metrics, attempted, failed, notes)."""
    import inputs
    import reference
    import tracing
    import workloads

    import_s = time.perf_counter() - _PROCESS_T0
    import_scale = reference.REFERENCE_NS / reference.kernel_ns()
    sizes = inputs.TINY if args.tiny else inputs.FULL
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, work_dir)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            seconds = time.perf_counter() - start
            setups.append((seconds, seconds * reference.REFERENCE_NS / reference.kernel_ns()))
        setup_wall_s = import_s + statistics.median(s for s, _ in setups)
        setup_s = import_s * import_scale + statistics.median(s for _, s in setups)
        gc.collect()
        if args.trace:
            untraced = workload.run(args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                timing = workload.run(args.seconds / 2)
            finally:
                tracer.uninstall()
            trace_file = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.npz"
            tracer.write(trace_file, timing.starts)
            untraced_fps = untraced.frames_per_s(untraced.reference_ns)
            metrics = tracing.layer_metrics(tracer, timing, untraced_fps)
            runs = [untraced, timing]
        else:
            timing = workload.run(args.seconds)
            runs = [timing]
        bad = workload.check()
        quality = workload.quality()
        if not args.trace:
            metrics = end_to_end(timing, timing.reference_ns, setup_s, quality)
            wall = end_to_end(timing, timing.wall_ns, setup_wall_s, quality)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(int((r.failed | np.isin(r.keys, sorted(bad))).sum()) for r in runs)
    attempted = sum(len(r.starts) for r in runs)
    notes = [
        f"timed {len(timing.starts)} operations, {int(timing.frames.sum())} frames, "
        f"{timing.wall_ns.sum() / 1e9:.3f} s",
        f"frame latency samples: {len(timing.starts)} "
        f"({'per frame' if timing.frames.max() == 1 else 'per call, divided by its frames'}); "
        f"frame_p99_us is the {timing.tail_quantile:.4f} quantile",
        f"setup: import {import_s:.4f} s, input generation "
        + ", ".join(f"{s:.4f}" for s, _ in setups) + " s (wall clock)",
        f"reference kernel: {len(timing.probe_ns)} probes, median "
        f"{np.median(timing.probe_ns) / 1e3:.1f} us against {reference.REFERENCE_NS / 1e3:.0f} us",
        f"quality: p5 {quality.p5:.4f} p20 {quality.p20:.4f} "
        f"np05 {quality.np05:.4f} auc {quality.success_auc:.4f}",
    ]
    if args.trace:
        notes.append(f"spans: {len(tracer.spans)} written to {trace_file.relative_to(ROOT)}")
        notes.append("per-layer times are wall clock, not scaled to the reference speed")
    else:
        notes.append(
            "wall clock, unscaled: "
            + ", ".join(f"{k} {wall[k]:.6g}" for k in ("setup_s", "frames_per_s", "frame_p50_us", "frame_p99_us"))
        )
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}", file=sys.stderr)
        return 2
    package = ROOT / "src" / "sattrack"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("SATTRACK_")]:
        del os.environ[key]  # the package reads these; inputs come only from the seed
    sys.path.insert(0, str(ROOT / "src"))
    import sattrack

    if Path(sattrack.__file__).resolve().parent != package.resolve():
        print(f"error: imported sattrack from {sattrack.__file__}, not {package}", file=sys.stderr)
        return 2

    metrics, attempted, failed, notes = measure(args)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        differing = {m["name"] for m in wanted} ^ set(metrics)
        print(f"error: metrics disagree with BENCHMARK.json: {sorted(differing)}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    for note in notes:
        print(f"# {note}")
    for m in wanted:
        print(f"{m['name']:34s} {metrics[m['name']]!r:>24} {m['unit']}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
