"""Command-line front end.

Subcommands cover the main workflows: exporting centerness label maps,
simulating scenarios, running the refinement over a simulated sequence,
scoring trajectories, and a small attention demo.  Eight settings can also
be set by a variable, SATTRACK_<NAME>: SATTRACK_OUTPUT, SATTRACK_SEED,
SATTRACK_GAMMA, SATTRACK_OMMR, SATTRACK_N1, SATTRACK_N2, SATTRACK_THETA and
SATTRACK_LAMBDA_EMA.  A value comes from the flag, else the variable, else
the config file, else the default.  Every number, from a flag, a variable
or a config file, is read by one rule (:func:`formats._parse`: an int, or a
finite float).  One settings step, :func:`_settings`, lays the flags and
variables over the values a file set, else the defaults, and builds the
settings object once, so a flag overrides any value of the file's.  A
value that does not parse is an error opening with its source (``--theta
needs a float, got 'inf'``); an object its class rejects, with the file
when it set a value the object keeps, then each flag and variable that
set one: ``p.cfg, --n2: ...``.  Every other input a handler rejects is
attributed by one call, :func:`formats._build`: ``s.cfg: box field cx
must be finite``, ``--box: aspect ratio ...``.

Handlers compute and return their files' bytes; :func:`main` resolves the
output directory first and writes the files atomically once the handler
returns (see :mod:`sattrack.formats`), so an error leaves no output and a
killed run no partial file.  The exit code is 0 only when every output was
fully written, 1 on runtime or configuration errors, 2 on usage errors.

Directory-mode ``evaluate`` cuts its sorted sequences into contiguous
shares, one per CPU this process may run on (no more than there are
sequences).  It scores the first share itself and forks one child per other
share, which sends its results back as one pickle through a pipe; with one
CPU, or without ``os.fork``, there is one share and no child.  Every share
runs :func:`_score_sequence` in sorted sequence order, so any count of
shares writes the same bytes, and the first sequence that fails in that
order is the one reported.  An ``--attributes`` group is checked against
the discovered sequences before any is scored.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import pickle
import sys
import warnings
from pathlib import Path

import numpy as np

from . import formats
from .attention import ProjectionWeights, _attend, _window
from .attention import init_projection_weights, template_saliency
from .boxes import BoundingBox
from .formats import ConfigError
from .geometry import AspectRatioParams, GridGeometry, build_label_maps
from .metrics import _checked_groups, aggregate_results
# ``evaluate`` here scores (N, 4) rows; benchmarks/tracing.py wraps this name
# and reports its time as ``metrics.evaluate``.
from .metrics import evaluate_rows as evaluate
from .motion import MotionParams
# ``track`` and ``simulate`` run on rows and the scenario's PSR column;
# benchmarks/tracing.py wraps these two names and reports them as
# ``scenario.generate_scenario`` and ``scenario.run_tracking``.
from .motion import track_rows as run_tracking
from .scenario import ScenarioConfig
from .scenario import generate_scenario_rows as generate_scenario


class UsageError(ConfigError):
    """A flag the other arguments rule out; exits 2, like argparse's errors."""


def _resolve(args, name: str, fallback=None):
    """The setting ``name`` and its source: ``(value, source)`` from its
    flag ``--name`` (``_`` as ``-``), else from ``SATTRACK_<NAME>``, else
    ``(fallback, None)``.  The value is read as :data:`_KINDS` says, and a
    text it rejects is a :class:`ConfigError` opening with the source."""
    kind = _KINDS[name]
    flag, env = "--" + name.replace("_", "-"), "SATTRACK_" + name.upper()
    for source, text in ((flag, getattr(args, name)), (env, os.environ.get(env))):
        if text is not None:
            if kind in (int, float):
                return formats._parse(text, kind, source), source
            return kind(text, source), source
    return fallback, None


def _on_off(text: str, where: str) -> bool:
    word = text.strip().lower()
    if word not in ("on", "off"):
        raise ConfigError(f"invalid {where}={text!r}")
    return word == "on"


# How each setting a flag or variable sets is read: a number kind by the
# config files' rule (formats._parse), else a parse(text, source) of its own.
_KINDS = {"output": lambda text, where: text, "ommr": _on_off, "gamma": float,
          "seed": formats._SCENARIO_KEYS["seed"], **formats._MOTION_KEYS}


def _named(path) -> str | None:
    """An input file as every error line names it, the way the formats
    readers do: ``str(Path(path))``; ``None`` for no file."""
    return str(Path(path)) if path else None


def _settings(args, kind, path=None, fields=None):
    """``(settings, sources)``: the settings class ``kind`` built once from
    ``fields``, the values the file ``path`` set, with each field a flag or
    variable sets laid over them.  ``sources`` maps those fields to their
    flag or variable, else the file that set them, else ``None``.  A
    rejected value's error opens with the file, when it set a value the
    object keeps, then the flags and variables in field order."""
    path = _named(path)
    values = dict(fields or {})
    names = [field.name for field in dataclasses.fields(kind) if field.name in _KINDS]
    sources = {name: path if name in values else None for name in names}
    laid = {}  # field -> the flag or variable that set it, in field order
    for name in names:
        value, source = _resolve(args, name)
        if source:
            values[name], laid[name] = value, source
    sources.update(laid)
    kept = path and set(values) - set(laid)  # a value of the file's that no flag replaced
    where = ", ".join(([path] if kept else []) + list(laid.values()))
    return formats._build(where, kind, **values), sources


def _input_path(flag: str, text: str | None) -> Path | None:
    """The path an input flag gives, ``None`` for a flag not given.  An
    empty text, which ``Path`` reads as the current directory, is an error
    naming the flag."""
    if text is None:
        return None
    if not text:
        raise ConfigError(f"{flag}: empty path")
    return Path(text)


def _read(flag: str, read, path):
    """``read(path)`` for the input ``flag`` names.  An ``OSError`` opening
    or reading it (no such file, a directory) is one ``OSError`` line,
    ``<flag>: cannot read <path>: <reason>``; an ``OSError`` still, so the
    handlers that add context to a file's ``ValueError`` leave it as it is.
    ``read`` gets ``path`` as a ``Path``, so every line naming the file
    spells it one way."""
    path = Path(path)
    try:
        return read(path)
    except OSError as exc:
        raise OSError(f"{flag}: cannot read {path}: {exc.strerror or exc}") from None


def _sizes(text: str, count: int, flag: str) -> tuple:
    """The ``count`` sizes a size flag gives, each a positive int."""
    sizes = formats._parse_numbers(text, (int,) * count, flag)
    if min(sizes) < 1:
        raise ConfigError(f"{flag} {text}: sizes must be positive, got {sizes}")
    return sizes


def _scenario_config(args):
    path = _input_path("--scenario", args.scenario)
    fields = _read("--scenario", formats.read_scenario_fields, path)
    return _settings(args, ScenarioConfig, path, fields)


def _motion_params(args):
    read = functools.partial(formats._read_fields, kinds=formats._MOTION_KEYS, what="motion")
    path = _input_path("--params", args.params)
    fields = _read("--params", read, path) if path else {}
    return _settings(args, MotionParams, path, fields)


# ---------------------------------------------------------------------------
# subcommands


def cmd_centerness_map(args, out: Path):
    box = formats._build(
        "--box", BoundingBox, *formats._parse_numbers(args.box, (float,) * 4, "--box")
    )
    grid_h, grid_w, stride = formats._parse_numbers(args.grid, (int,) * 3, "--grid")
    grid = formats._build("--grid", GridGeometry, stride=stride, height=grid_h, width=grid_w)
    formats._check_bytes("--grid", 128 * grid_h * grid_w)  # 2 maps, labels, 3 CSV texts
    params, _ = _settings(args, AspectRatioParams)
    constrained = formats._build("--box", build_label_maps, box, grid, params)
    classic = build_label_maps(box, grid, None)  # the same labels: they do not use params
    if not constrained.positive_count:
        print("warning: ground-truth box covers no grid point; all cells are negative",
              file=sys.stderr)

    files = {
        "constrained.csv": formats.grid_csv(constrained.centerness),
        "classic.csv": formats.grid_csv(classic.centerness),
        "labels.csv": formats.grid_csv(constrained.labels),
        "constrained.pgm": formats.pgm(constrained.centerness),
        "classic.pgm": formats.pgm(classic.centerness),
    }
    return files, f"wrote label maps for {box} to {out} ({constrained.positive_count} positives)"


def cmd_simulate(args, out: Path):
    config, _ = _scenario_config(args)
    gt, raw, maps, occluded, psrs = formats._build(
        _named(args.scenario), generate_scenario, config
    )
    flat = maps.reshape(len(maps), -1)
    peaks = flat.argmax(axis=1)
    peak_rows, peak_cols = np.divmod(peaks, maps.shape[2])
    peak_values = flat[np.arange(len(flat)), peaks]
    summary = [
        range(1, len(maps) + 1), occluded.astype(int), peak_rows, peak_cols,
        peak_values, psrs,
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
    config, _ = _scenario_config(args)
    params, sources = _motion_params(args)
    refine, _ = _resolve(args, "ommr", True)
    scenario = _named(args.scenario)
    if refine and params.n1 >= config.frame_count:
        raise ConfigError(  # a default n1 fails on the scenario's frame_count
            f"{sources['n1'] or scenario}: n1 ({params.n1}) must be below frame_count "
            f"({config.frame_count}) for refinement to activate; lower --n1 or use --ommr off"
        )
    if config.frame_count < 2:  # track_rows needs two frames; simulate takes one
        raise ConfigError(
            f"{scenario}: scenario must have at least 2 frames, got {config.frame_count}"
        )
    gt, raw, _, _, psrs = formats._build(scenario, generate_scenario, config)
    trajectory, *trace = run_tracking(raw, psrs, params, refine)

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
    one scoring path of directory mode, in this process or in a forked child."""
    name, pred_file, gt_file = sequence
    return name, formats._build(f"sequence {name!r}", lambda: evaluate(
        _read("--pred", formats.read_trajectory_rows, pred_file),
        _read("--gt", formats.read_trajectory_rows, gt_file),
    ))


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_share(share: list, readers: list[int]) -> tuple[int, int]:
    """Fork a child that scores ``share`` and writes one pickle to a pipe,
    ``("ok", results)`` or ``("error", exc)`` at its first exception; the
    child's pid and the pipe's read end.  ``readers`` are the read ends of
    earlier children's pipes.  The child closes them, so that this process
    holds the only copy and closing it frees a child blocked on a full
    pipe."""
    reader, writer = os.pipe()
    try:
        with warnings.catch_warnings():
            # numpy's OpenBLAS keeps idle threads, which Python >= 3.12 counts
            # and warns about at a fork; OpenBLAS resets its pool in the child
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except OSError:
        os.close(reader)
        os.close(writer)
        raise
    if pid == 0:  # the child: leaves only through os._exit, whatever it raises
        code = 1
        try:
            for fd in (reader, *readers):
                os.close(fd)
            try:
                payload = ("ok", list(map(_score_sequence, share)))
            except Exception as exc:
                payload = ("error", exc)
            data = pickle.dumps(payload)  # in full before a byte is written
            with open(writer, "wb") as pipe:
                pipe.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(writer)
    return pid, reader


def _read_pipe(reader: int) -> bytes:
    """Everything a child writes to the pipe ``reader`` until it closes it."""
    chunks = []
    while chunk := os.read(reader, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _share_results(data: bytes, status: int) -> list:
    """The results a child's pipe held, or the exception it raised there; a
    child that wrote nothing or exited other than 0 is one error."""
    code = os.waitstatus_to_exitcode(status)
    if code or not data:
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise ConfigError(f"a worker process scoring the sequences died: {how}")
    outcome, value = pickle.loads(data)  # written by the child forked above
    if outcome == "error":
        raise value
    return value


def _score_sequences(sequences: list[tuple[str, Path, Path]]) -> dict:
    """Every sequence's result by name, in the order given.  The sequences
    are independent, so they are cut into one contiguous share per CPU (one
    share without ``os.fork``): this process scores the first and a forked
    child each other.  The first share's error wins, so the error raised is
    the first failing sequence's in the order given."""
    workers = min(_cpu_count(), len(sequences)) if hasattr(os, "fork") else 1
    cuts = [len(sequences) * k // workers for k in range(workers + 1)]
    shares = [sequences[start:stop] for start, stop in zip(cuts, cuts[1:])]
    children: list[tuple[int, int]] = []  # (pid, read end) per forked share
    try:
        for share in shares[1:]:
            children.append(_fork_share(share, [reader for _, reader in children]))
        results = list(map(_score_sequence, shares[0]))
        written = [_read_pipe(reader) for _, reader in children]
    finally:
        # every read end closed before any wait: a child still writing then
        # fails and exits rather than blocking on a full pipe
        for _, reader in children:
            os.close(reader)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    for data, status in zip(written, statuses):
        results += _share_results(data, status)
    return dict(results)


def cmd_evaluate(args, out: Path):
    pred_path = _input_path("--pred", args.pred)
    gt_path = _input_path("--gt", args.gt)
    attributes = _input_path("--attributes", args.attributes)
    for flag, path in (("--pred", pred_path), ("--gt", gt_path)):
        _read(flag, os.stat, path)  # a missing input is named before the modes are compared
    if pred_path.is_dir() != gt_path.is_dir():
        raise ConfigError("--pred and --gt must both be files or both be directories")
    if attributes and not pred_path.is_dir():
        raise UsageError(
            "--attributes needs directory mode (--pred and --gt directories); "
            "a single sequence has no attribute groups"
        )

    if not pred_path.is_dir():
        pred_rows = _read("--pred", formats.read_trajectory_rows, pred_path)
        gt_rows = _read("--gt", formats.read_trajectory_rows, gt_path)
        result = formats._build(f"{pred_path} and {gt_path}", evaluate, pred_rows, gt_rows)
        files = {
            "summary.json": formats.json_bytes(formats.result_summary(result)),
            "curves.csv": formats.curves_csv(result),
        }
        return files, (
            f"p5={result.p5:.4f} p20={result.p20:.4f} np05={result.np05:.4f} "
            f"auc={result.success_auc:.4f} ({result.frame_count} frames)"
        )

    sequences = _discover_sequences(pred_path, gt_path)
    groups = {"overall": [name for name, _, _ in sequences]}
    if attributes:
        groups.update(_read("--attributes", formats.read_attribute_groups, attributes))
        formats._build(attributes, _checked_groups, groups, set(groups["overall"]))
    results = _score_sequences(sequences)
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
    seed, source = _resolve(args, "seed", 0)
    rng = np.random.Generator(formats._build(source, np.random.PCG64, seed))
    search_path = _input_path("--search", args.search)
    template_path = _input_path("--template", args.template)
    weights_path = _input_path("--weights", args.weights)
    if search_path:
        search = _read("--search", formats.read_feature_map, search_path)
    else:
        channels, rows, cols = _sizes(args.search_size, 3, "--search-size")
        # five maps of its size (it, its values, mixed, enhanced, their file), C*C weights
        formats._check_bytes("--search-size", 8 * channels * (5 * rows * cols + 2 * channels))
        search = rng.standard_normal((channels, rows, cols))
    window = None
    if args.mask:  # checked against the search grid before the attention is built
        window = formats._parse_numbers(args.mask, (int,) * 4, "--mask")
        if min(window[2:]) <= 0:
            raise ConfigError(
                f"--mask {args.mask}: height and width must be positive, "
                f"got {window[2]} and {window[3]}"
            )
        formats._build(f"--mask {args.mask}", _window, window, search.shape[1:])
    if template_path:
        template = _read("--template", formats.read_feature_map, template_path)
    else:
        rows, cols = _sizes(args.template_size, 2, "--template-size")
        formats._check_bytes("--template-size", 16 * search.shape[0] * rows * cols)
        template = rng.standard_normal((search.shape[0], rows, cols))

    # what set the channel counts: a random template and weights take the search's
    channels_from = _named(search_path) or "--search-size"
    # the (Nt, Ns) attention matrix, and the copy of its rows the saliency sums
    sizes_from = f"{channels_from}, {_named(template_path) or '--template-size'}"
    formats._check_bytes(sizes_from, 16 * search[0].size * template[0].size)
    if weights_path:
        weights = _read("--weights", formats.read_projection_weights, weights_path)
    else:
        weights = formats._build(
            channels_from, init_projection_weights, search.shape[0], seed=seed
        )
    weights, sources = _settings(args, ProjectionWeights, weights_path, vars(weights))

    inputs = (channels_from, _named(template_path), _named(weights_path))
    where = ", ".join(dict.fromkeys(filter(None, inputs)))
    enhanced, attention = formats._build(where, _attend, search, template, weights)
    saliency = template_saliency(attention.reshape(-1, *search.shape[1:]), window)
    saliency = saliency.reshape(template.shape[1:])

    # the features are search + gamma * mixed: a cell beyond float32 is
    # charged to what set gamma
    peak = saliency.max()
    files = {
        "enhanced.bin": formats._feature_map_bytes(
            enhanced, sources["gamma"] or "enhanced features"
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
    p.add_argument("--box", required=True,
                   help="ground-truth box as CX,CY,W,H (a negative CX as --box=-5,10,40,40)")
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
        out, source = _resolve(args, "output")
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
