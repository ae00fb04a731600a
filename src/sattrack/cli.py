"""Command-line front end.

Subcommands cover the main workflows: exporting centerness label maps,
simulating scenarios, running the refinement over a simulated sequence,
scoring trajectories, and a small attention demo.  Eight settings can also
be set by a variable, SATTRACK_<NAME>: SATTRACK_OUTPUT, SATTRACK_SEED,
SATTRACK_GAMMA, SATTRACK_OMMR, SATTRACK_N1, SATTRACK_N2, SATTRACK_THETA and
SATTRACK_LAMBDA_EMA.  A value comes from the flag, else the variable, else
the config file, else the default.  Every number, from a flag, a variable
or a config file, is read by one rule (:func:`formats._parse`: an int, or a
finite float).  A value that does not parse, or that its settings class
rejects, is an error opening with its source: ``--theta needs a float, got
'inf'``, ``SATTRACK_N1: n1 must exceed 2*n2 ...``.

Handlers compute and return their files' bytes; :func:`main` resolves the
output directory first and writes the files atomically once the handler
returns (see :mod:`sattrack.formats`), so an error leaves no output and a
killed run no partial file.  The exit code is 0 only when every output was
fully written, 1 on runtime or configuration errors, 2 on usage errors.

Directory-mode ``evaluate`` scores its sequences in worker processes, one
per CPU this process may run on (no more than there are sequences), forked
from this one; with one CPU, or where "fork" is not a start method, it
scores them in this process.  Both ways run :func:`_score_sequence` in
sorted sequence order and write the same bytes, and the first sequence
that fails in that order is the one reported.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import formats
from .attention import _attend, init_projection_weights, template_saliency
from .boxes import BoundingBox
from .formats import ConfigError
from .geometry import AspectRatioParams, GridGeometry, build_label_maps
from .metrics import aggregate_results
# ``evaluate`` here scores (N, 4) rows; benchmarks/tracing.py wraps this name
# and reports its time as ``metrics.evaluate``.
from .metrics import evaluate_rows as evaluate
from .motion import MotionParams, _psr_maps
# ``track`` and ``simulate`` run on rows; benchmarks/tracing.py wraps these
# two names and reports them as ``scenario.generate_scenario`` and
# ``scenario.run_tracking``.
from .motion import track_rows as run_tracking
from .scenario import generate_scenario_rows as generate_scenario


class UsageError(ConfigError):
    """A flag the other arguments rule out; exits 2, like argparse's errors."""


def _resolve(args, name: str, parse, fallback):
    """The setting ``name`` and its source: ``(value, source)`` from its
    flag ``--name`` (``_`` as ``-``), else from ``SATTRACK_<NAME>``, else
    ``(fallback, None)``.  ``parse(text, source)`` reads the value and
    raises a :class:`ConfigError` opening with the source for a text it
    rejects."""
    flag, env = "--" + name.replace("_", "-"), "SATTRACK_" + name.upper()
    for source, text in ((flag, getattr(args, name)), (env, os.environ.get(env))):
        if text is not None:
            return parse(text, source), source
    return fallback, None


def _number(kind):
    """The ``parse`` of :func:`_resolve` for one ``kind`` number: the rule
    of the config files, :func:`formats._parse`."""
    return lambda text, where: formats._parse(text, kind, where)


def _on_off(text: str, where: str) -> bool:
    word = text.strip().lower()
    if word not in ("on", "off"):
        raise ConfigError(f"invalid {where}={text!r}")
    return word == "on"


def _overridden(args, config, kinds: dict):
    """``config`` (read from a file, or the defaults) with each number in
    ``kinds`` that its flag or variable sets laid over it.  A value the
    config's class rejects is an error opening with those flags and
    variables, as a file's is with its path."""
    values, sources = {}, []
    for name, kind in kinds.items():
        value, source = _resolve(args, name, _number(kind), None)
        if source:
            values[name] = value
            sources.append(source)
    return formats._build(", ".join(sources), replace, config, **values) if values else config


def _read(flag: str, read, path):
    """``read(path)`` for the input ``flag`` names.  An ``OSError`` opening
    or reading it (no such file, a directory) is one ``OSError`` line,
    ``<flag>: cannot read <path>: <reason>``; an ``OSError`` still, so the
    handlers that add context to a file's ``ValueError`` leave it as it is."""
    try:
        return read(path)
    except OSError as exc:
        raise OSError(f"{flag}: cannot read {path}: {exc.strerror or exc}") from None


def _scenario_config(args):
    config = _read("--scenario", formats.scenario_from_file, args.scenario)
    return _overridden(args, config, {"seed": formats._SCENARIO_KEYS["seed"]})


def _motion_params(args) -> MotionParams:
    params = (
        _read("--params", formats.motion_params_from_file, args.params)
        if args.params else MotionParams()
    )
    return _overridden(args, params, formats._MOTION_KEYS)


# ---------------------------------------------------------------------------
# subcommands


def cmd_centerness_map(args, out: Path):
    box = formats._build(
        "--box", BoundingBox, *formats._parse_numbers(args.box, (float,) * 4, "--box")
    )
    grid_h, grid_w, stride = formats._parse_numbers(args.grid, (int,) * 3, "--grid")
    grid = formats._build("--grid", GridGeometry, stride=stride, height=grid_h, width=grid_w)
    params = _overridden(args, AspectRatioParams(), {"gamma": float})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        constrained = build_label_maps(box, grid, params)
        classic = build_label_maps(box, grid, None)
    for message in dict.fromkeys(str(warning.message) for warning in caught):  # say it once
        print(f"warning: {message}", file=sys.stderr)

    files = {
        "constrained.csv": formats.grid_csv(constrained.centerness),
        "classic.csv": formats.grid_csv(classic.centerness),
        "labels.csv": formats.grid_csv(constrained.labels),
        "constrained.pgm": formats.pgm(constrained.centerness),
        "classic.pgm": formats.pgm(classic.centerness),
    }
    return files, f"wrote label maps for {box} to {out} ({constrained.positive_count} positives)"


def cmd_simulate(args, out: Path):
    config = _scenario_config(args)
    gt, raw, maps, occluded = generate_scenario(config)
    flat = maps.reshape(len(maps), -1)
    peaks = flat.argmax(axis=1)
    peak_rows, peak_cols = np.divmod(peaks, maps.shape[2])
    peak_values = flat[np.arange(len(flat)), peaks]
    summary = [
        range(1, len(maps) + 1), occluded.astype(int), peak_rows, peak_cols,
        peak_values, _psr_maps(maps),
    ]

    files = {
        "ground_truth.csv": formats.trajectory_csv(gt),
        "raw_model.csv": formats.trajectory_csv(raw),
        "response_summary.csv": formats._table(
            "frame,occluded,peak_row,peak_col,peak_value,psr", summary
        ),
    }
    return files, f"simulated {len(maps)} frames (seed {config.seed}) into {out}"


def cmd_track(args, out: Path):
    config = _scenario_config(args)
    params = _motion_params(args)
    refine, _ = _resolve(args, "ommr", _on_off, True)
    if refine and params.n1 >= config.frame_count:
        # n1's source: its flag or variable, else the --params file that sets
        # it, else the scenario file, whose frame_count the default fails
        _, where = _resolve(args, "n1", _number(int), None)
        if where is None:
            keys = [key for _, key, _ in formats.read_kv_file(args.params)] if args.params else ()
            where = args.params if "n1" in keys else args.scenario
        raise ConfigError(
            f"{where}: n1 ({params.n1}) must be below frame_count ({config.frame_count}) "
            f"for refinement to activate; lower --n1 or use --ommr off"
        )
    gt, raw, maps, _ = generate_scenario(config)
    trajectory, *trace = run_tracking(raw, maps, params, refine)

    files = {
        "trajectory.csv": formats.trajectory_csv(trajectory),
        "ground_truth.csv": formats.trajectory_csv(gt),
        "trace.csv": formats.trace_csv(*trace),
    }
    mode = "refined" if refine else "raw"
    return files, f"tracked {len(trajectory)} frames ({mode}, seed {config.seed}) into {out}"


def _sequence_files(directory: Path) -> dict[str, Path]:
    """The .csv and .txt trajectories of a directory by sequence name (stem);
    two files of one sequence are an error, naming both."""
    by_stem: dict[str, Path] = {}
    for path in sorted(p for p in directory.iterdir() if p.suffix in (".csv", ".txt")):
        other = by_stem.setdefault(path.stem, path)
        if other is not path:
            raise ConfigError(
                f"{directory}: {other.name} and {path.name} are both sequence "
                f"{path.stem!r}; keep one"
            )
    return by_stem


def _discover_sequences(pred_dir: Path, gt_dir: Path) -> list[tuple[str, Path, Path]]:
    preds = _read("--pred", _sequence_files, pred_dir)
    if not preds:
        raise ConfigError(f"{pred_dir}: no .csv or .txt trajectories found")
    gts = _read("--gt", _sequence_files, gt_dir)
    missing = [stem for stem in preds if stem not in gts]
    if missing:
        raise ConfigError(f"no ground truth for sequence {missing[0]!r} in {gt_dir}")
    return [(stem, pred_file, gts[stem]) for stem, pred_file in preds.items()]


def _score_sequence(sequence: tuple[str, Path, Path]):
    """``(name, result)`` of one ``(name, pred_file, gt_file)`` sequence: the
    one scoring path of directory mode, in this process or in a worker."""
    name, pred_file, gt_file = sequence
    try:
        return name, evaluate(
            _read("--pred", formats.read_trajectory_rows, pred_file),
            _read("--gt", formats.read_trajectory_rows, gt_file),
        )
    except ValueError as exc:
        raise ConfigError(f"sequence {name!r}: {exc}") from exc


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _score_sequences(sequences: list[tuple[str, Path, Path]]) -> dict:
    """Every sequence's result by name, in the order given.  The sequences
    are independent, so they are scored in forked worker processes when
    there is more than one CPU and more than one sequence."""
    workers = min(_cpu_count(), len(sequences))
    if workers == 1 or not hasattr(os, "fork"):  # no "fork" start method
        return dict(map(_score_sequence, sequences))
    # imported here: they take about 25 ms, which no other path should pay
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    context = multiprocessing.get_context("fork")
    chunksize = -(-len(sequences) // (2 * workers))  # two chunks per worker
    try:
        with ProcessPoolExecutor(workers, mp_context=context) as pool:
            return dict(pool.map(_score_sequence, sequences, chunksize=chunksize))
    except BrokenProcessPool as exc:
        raise ConfigError(f"a worker process scoring the sequences died: {exc}") from None


def cmd_evaluate(args, out: Path):
    pred_path = Path(args.pred)
    gt_path = Path(args.gt)
    if pred_path.is_dir() != gt_path.is_dir():
        raise ConfigError("--pred and --gt must both be files or both be directories")
    if args.attributes and not pred_path.is_dir():
        raise UsageError(
            "--attributes needs directory mode (--pred and --gt directories); "
            "a single sequence has no attribute groups"
        )

    if not pred_path.is_dir():
        pred_rows = _read("--pred", formats.read_trajectory_rows, pred_path)
        gt_rows = _read("--gt", formats.read_trajectory_rows, gt_path)
        try:
            result = evaluate(pred_rows, gt_rows)
        except ValueError as exc:
            raise ConfigError(f"{pred_path} and {gt_path}: {exc}") from exc
        files = {
            "summary.json": formats.json_bytes(formats.result_summary(result)),
            "curves.csv": formats.curves_csv(result),
        }
        return files, (
            f"p5={result.p5:.4f} p20={result.p20:.4f} np05={result.np05:.4f} "
            f"auc={result.success_auc:.4f} ({result.frame_count} frames)"
        )

    results = _score_sequences(_discover_sequences(pred_path, gt_path))
    groups = {"overall": list(results)}
    if args.attributes:
        groups.update(_read("--attributes", formats.read_attribute_groups, args.attributes))
    aggregated = aggregate_results(results, groups)

    files = {"summary.json": formats.json_bytes({
        "sequences": {k: formats.result_summary(r) for k, r in results.items()},
        "groups": {k: formats.result_summary(r) for k, r in aggregated.items()},
    })}
    for name, result in aggregated.items():
        files[f"curves_{name}.csv"] = formats.curves_csv(result)
    overall = aggregated["overall"]
    return files, (
        f"{len(results)} sequences: p20={overall.p20:.4f} "
        f"np05={overall.np05:.4f} auc={overall.success_auc:.4f}"
    )


def cmd_attention_demo(args, out: Path):
    seed, source = _resolve(args, "seed", _number(int), 0)
    rng = np.random.Generator(formats._build(source, np.random.PCG64, seed))
    if args.search:
        search = _read("--search", formats.read_feature_map, args.search)
    else:
        c, h, w = formats._parse_numbers(args.search_size, (int,) * 3, "--search-size")
        search = rng.standard_normal((c, h, w))
    if args.template:
        template = _read("--template", formats.read_feature_map, args.template)
    else:
        h, w = formats._parse_numbers(args.template_size, (int,) * 2, "--template-size")
        template = rng.standard_normal((search.shape[0], h, w))

    if args.weights:
        weights = _read("--weights", formats.read_projection_weights, args.weights)
    else:
        weights = init_projection_weights(search.shape[0], seed=seed)
    weights = _overridden(args, weights, {"gamma": float})

    enhanced, attention = _attend(search, template, weights)
    if args.mask:
        top, left, mask_h, mask_w = formats._parse_numbers(args.mask, (int,) * 4, "--mask")
        if mask_h <= 0 or mask_w <= 0:
            raise ConfigError(
                f"--mask {args.mask}: height and width must be positive, "
                f"got {mask_h} and {mask_w}"
            )
        # checked before any index array is built, so a huge mask costs nothing
        if (top < 0 or top + mask_h > search.shape[1]
                or left < 0 or left + mask_w > search.shape[2]):
            raise ConfigError(f"--mask {args.mask} outside search grid {search.shape[1:]}")
        rows = np.arange(top, top + mask_h)
        cols = np.arange(left, left + mask_w)
        mask = (rows[:, None] * search.shape[2] + cols[None, :]).ravel()
    else:
        mask = np.arange(search.shape[1] * search.shape[2])
    saliency = template_saliency(attention.T, mask).reshape(template.shape[1:])

    # the features are search + gamma * mixed: a cell beyond float32 is
    # charged to what set gamma
    _, gamma_source = _resolve(args, "gamma", _number(float), None)
    peak = saliency.max()
    files = {
        "enhanced.bin": formats._feature_map_bytes(
            enhanced, gamma_source or args.weights or "enhanced features"
        ),
        "saliency.csv": formats.grid_csv(saliency),
        "saliency.pgm": formats.pgm(saliency / peak if peak > 0 else saliency),
    }
    return files, f"enhanced {search.shape} search features (gamma={weights.gamma}) into {out}"


# ---------------------------------------------------------------------------
# parser


def _add_output(parser):
    # an empty --output is unset, so SATTRACK_OUTPUT still applies
    parser.add_argument(
        "--output", type=lambda text: text or None, help="output directory (or SATTRACK_OUTPUT)"
    )


def _add_seed(parser):
    parser.add_argument("--seed", help="random seed override")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; handlers look up what they call at call time."""
    parser = argparse.ArgumentParser(
        prog="sattrack",
        description="satellite-video tracking toolkit: label maps, simulation, "
        "refinement, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("centerness-map", help="export centerness label maps for a box")
    p.add_argument("--box", required=True, help="ground-truth box as CX,CY,W,H")
    p.add_argument("--grid", default="25,25,8", help="grid as HEIGHT,WIDTH,STRIDE")
    p.add_argument("--gamma", help="aspect-ratio exponent tuning")
    _add_output(p)
    p.set_defaults(handler=cmd_centerness_map)

    p = sub.add_parser("simulate", help="generate a synthetic scenario")
    p.add_argument("--scenario", required=True, help="scenario config file")
    _add_seed(p)
    _add_output(p)
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("track", help="run (or skip) refinement over a scenario")
    p.add_argument("--scenario", required=True, help="scenario config file")
    p.add_argument("--params", help="motion parameter config file")
    p.add_argument("--ommr", help="refinement on|off (default on)")
    p.add_argument("--n1", help="history/warm-up length")
    p.add_argument("--n2", help="velocity half-window")
    p.add_argument("--theta", help="confidence threshold")
    p.add_argument("--lambda-ema", dest="lambda_ema", help="size blend weight")
    _add_seed(p)
    _add_output(p)
    p.set_defaults(handler=cmd_track)

    p = sub.add_parser("evaluate", help="score trajectories against ground truth")
    p.add_argument("--pred", required=True, help="trajectory file or directory")
    p.add_argument("--gt", required=True, help="ground-truth file or directory")
    p.add_argument("--attributes", help="attribute groups file (directory mode)")
    _add_output(p)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("attention-demo", help="run cross-frame attention once")
    p.add_argument("--search", help="search feature map (.bin)")
    p.add_argument("--template", help="template feature map (.bin)")
    p.add_argument("--search-size", default="8,25,25", help="random search C,H,W")
    p.add_argument("--template-size", default="5,5", help="random template H,W")
    p.add_argument("--weights", help="projection weights (.npz)")
    p.add_argument("--gamma", help="residual gate value")
    p.add_argument("--mask", help="saliency mask TOP,LEFT,HEIGHT,WIDTH in search cells")
    _add_seed(p)
    _add_output(p)
    p.set_defaults(handler=cmd_attention_demo)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out, source = _resolve(args, "output", lambda text, where: text, None)
        if not out:
            raise ConfigError("no output directory: pass --output or set SATTRACK_OUTPUT")
        files, line = args.handler(args, Path(out))
        formats.write_outputs(out, files, source)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
