"""File formats and atomic output handling.

Every writer here goes through a temp-file-plus-rename so a crash mid-write
never leaves a truncated artifact behind.  Floats in CSV output use Python's
shortest round-trip representation: files are byte-stable across runs and
parse back to the exact values that were written.

Formats:

* trajectory CSV -- header ``frame,cx,cy,w,h``, center-format boxes with
  frames numbered 1..N in order; the reader also accepts the common
  headerless benchmark layout ``x,y,w,h`` (top-left corner, comma or tab
  separated)
* grid CSV -- one response/label map row per line
* PGM (binary P5) -- grayscale heatmap export, value*255 rounded
* feature tensor -- 12-byte header of C, H, W as little-endian uint32,
  then C*H*W float32 values, row-major per channel
* key = value config files -- ``#`` and ``;`` start comments; parse errors
  name the offending key and line
"""

from __future__ import annotations

import json
import math
import os
import re
import struct
import tokenize
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .attention import ProjectionWeights
from .boxes import BoundingBox
from .metrics import (
    NORM_PRECISION_THRESHOLDS,
    PRECISION_THRESHOLDS,
    SUCCESS_THRESHOLDS,
    SUMMARY_NAMES,
    EvalResult,
)
from .motion import MotionParams
from .scenario import ScenarioConfig, TraceRow


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


def _atomic_write(path, writer: Callable[[Path], None]):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_bytes(path, data: bytes):
    _atomic_write(path, lambda tmp: tmp.write_bytes(data))


def atomic_write_text(path, text: str):
    _atomic_write(path, lambda tmp: tmp.write_text(text))


def _fmt(value) -> str:
    """Shortest exact decimal form of a float (integers stay integers)."""
    return repr(float(value))


# ---------------------------------------------------------------------------
# trajectories

TRAJECTORY_HEADER = "frame,cx,cy,w,h"


def write_trajectory(path, boxes: Sequence[BoundingBox]):
    lines = [TRAJECTORY_HEADER]
    for index, box in enumerate(boxes, start=1):
        lines.append(
            f"{index},{_fmt(box.cx)},{_fmt(box.cy)},{_fmt(box.w)},{_fmt(box.h)}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def _split_row(line: str) -> list[str]:
    line = line.replace("\t", ",")
    return [part.strip() for part in line.split(",") if part.strip()]


def read_trajectory(path) -> list[BoundingBox]:
    """Read boxes from our trajectory CSV or a headerless x,y,w,h file.

    The frame column of a trajectory CSV must count 1..N in file order.
    """
    path = Path(path)
    rows = [
        (number, raw)
        for number, raw in enumerate(path.read_text().splitlines(), start=1)
        if raw.strip() and not raw.strip().startswith("#")
    ]
    if not rows:
        raise ConfigError(f"{path}: no box rows found")
    center_format = rows[0][1].strip().lower().startswith("frame")
    if center_format:
        rows = rows[1:]
        if not rows:
            raise ConfigError(f"{path}: header but no box rows")
    boxes = []
    for number, raw in rows:
        parts = _split_row(raw)
        try:
            values = [float(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"{path}:{number}: non-numeric box field") from exc
        if center_format:
            if len(values) != 5:
                raise ConfigError(
                    f"{path}:{number}: expected frame,cx,cy,w,h, got {len(values)} fields"
                )
            if values[0] != len(boxes) + 1:
                raise ConfigError(
                    f"{path}:{number}: frame {parts[0]} out of sequence, "
                    f"expected {len(boxes) + 1} (frames must be 1..N in order)"
                )
        elif len(values) != 4:
            raise ConfigError(
                f"{path}:{number}: expected x,y,w,h, got {len(values)} fields"
            )
        try:
            boxes.append(
                BoundingBox(*values[1:]) if center_format else BoundingBox.from_corner(*values)
            )
        except ValueError as exc:  # a non-finite field or a size <= 0
            if not center_format:
                # from_corner folds w into cx and h into cy, so name the
                # file's own field; any non-finite one fails the conversion
                for name, value in zip("xywh", values):
                    if not math.isfinite(value):
                        raise ConfigError(
                            f"{path}:{number}: box field {name} must be finite"
                        ) from None
            raise ConfigError(f"{path}:{number}: {exc}") from None
    return boxes


def write_trace(path, trace: Sequence[TraceRow]):
    lines = ["frame,psr,npsr,branch"]
    for row in trace:
        lines.append(f"{row.frame},{_fmt(row.psr)},{_fmt(row.npsr)},{row.branch}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# grids, heatmaps, tensors


def write_grid_csv(path, grid: np.ndarray):
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {grid.shape}")
    lines = [",".join(_fmt(v) for v in row) for row in grid]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_grid_csv(path) -> np.ndarray:
    rows = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for part in _split_row(line):
            try:
                row.append(float(part))
            except ValueError:
                raise ConfigError(f"{path}:{number}: non-numeric grid cell {part!r}") from None
        rows.append(row)
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ConfigError(f"{path}: ragged or empty grid")
    return np.array(rows)


def write_pgm(path, grid: np.ndarray):
    """Binary P5 heatmap of a [0, 1] map, one byte per cell."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {grid.shape}")
    pixels = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + pixels.tobytes())


def write_feature_map(path, tensor: np.ndarray):
    """C, H, W as little-endian uint32, then float32 data row-major per channel."""
    tensor = np.asarray(tensor)
    if tensor.ndim != 3:
        raise ValueError(f"feature map must be (C, H, W), got shape {tensor.shape}")
    header = struct.pack("<3I", *tensor.shape)
    atomic_write_bytes(path, header + tensor.astype("<f4").tobytes())


def read_feature_map(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 12:
        raise ConfigError(f"{path}: missing feature-map header")
    c, h, w = struct.unpack("<3I", data[:12])
    expected = 12 + 4 * c * h * w
    if c < 1 or h < 1 or w < 1 or len(data) != expected:
        raise ConfigError(
            f"{path}: header says {c}x{h}x{w} ({expected} bytes), file has {len(data)}"
        )
    tensor = np.frombuffer(data, dtype="<f4", offset=12).reshape(c, h, w).astype(float)
    if not np.isfinite(tensor).all():
        cell = np.argwhere(~np.isfinite(tensor))[0].tolist()
        raise ConfigError(f"{path}: feature-map cell {tuple(cell)} is not finite")
    return tensor


def write_projection_weights(path, weights: ProjectionWeights):
    arrays = {
        "w_q": weights.w_q,
        "w_k": weights.w_k,
        "w_v": weights.w_v,
        "gamma": np.array(weights.gamma),
    }
    for name in ("b_q", "b_k", "b_v"):
        bias = getattr(weights, name)
        if bias is not None:
            arrays[name] = bias

    def save(tmp: Path):
        # savez appends ".npz" to bare paths; an open handle is used as-is.
        with open(tmp, "wb") as fh:
            np.savez(fh, **arrays)

    _atomic_write(path, save)


_REQUIRED_WEIGHTS = ("w_q", "w_k", "w_v", "gamma")
_WEIGHT_ARRAYS = (*_REQUIRED_WEIGHTS, "b_q", "b_k", "b_v")
# What numpy and zipfile raise on an open file that is not an intact .npz
# archive (OSError: a corrupt offset can make zipfile seek before the start).
_ARCHIVE_ERRORS = (
    ValueError, EOFError, OSError, NotImplementedError,
    zipfile.BadZipFile, zlib.error, tokenize.TokenError,
)


def read_projection_weights(path) -> ProjectionWeights:
    """Load the ``.npz`` bundle :func:`write_projection_weights` writes.

    A file that is not such a bundle -- not an intact ``.npz`` archive, a
    missing or unknown array, a non-numeric or non-finite array, a
    ``gamma`` that is not one number, shapes that do not fit one attention
    block -- is a :class:`ConfigError` naming the file.
    """
    with open(path, "rb") as fh:
        try:
            bundle = np.load(fh, allow_pickle=False)
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise ValueError("a single array")
            with bundle:
                arrays = {name: np.asarray(bundle[name]) for name in bundle.files}
        except _ARCHIVE_ERRORS as exc:
            raise ConfigError(f"{path}: not a weights .npz archive ({exc})") from None
    for name in _REQUIRED_WEIGHTS:
        if name not in arrays:
            raise ConfigError(f"{path}: missing array {name!r}")
    for name, value in arrays.items():
        if name not in _WEIGHT_ARRAYS:
            raise ConfigError(f"{path}: unknown array {name!r}")
        if value.dtype.kind not in "iuf" or not np.isfinite(value).all():
            raise ConfigError(f"{path}: array {name!r} must hold finite real numbers")
    gamma = arrays.pop("gamma")
    if gamma.shape != ():
        raise ConfigError(f"{path}: gamma must be a single number, got shape {gamma.shape}")
    try:
        return ProjectionWeights(
            gamma=float(gamma), **{name: value.astype(float) for name, value in arrays.items()}
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# key = value configuration files


def read_kv_file(path) -> list[tuple[int, str, str]]:
    """Parse a key = value file into (line, key, value) entries."""
    path = Path(path)
    entries = []
    for number, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{number}: expected 'key = value', got {raw!r}")
        entries.append((number, key, value))
    return entries


def _parse(text: str, kind, where: str):
    """One int or finite float; ``where`` opens the error message."""
    try:
        value = kind(text)
        if kind is float and not math.isfinite(value):
            raise ValueError
        return value
    except ValueError as exc:
        raise ConfigError(f"{where} needs a {kind.__name__}, got {text!r}") from exc


def _parse_numbers(text: str, kinds: tuple, where: str) -> tuple:
    """Comma- or space-separated numbers, exactly one of each of ``kinds``.
    ``where`` opens every error message: a CLI flag such as ``--box``, or
    ``path:line: key 'name'`` for a config file entry."""
    parts = text.replace(",", " ").split()
    if len(parts) != len(kinds):
        raise ConfigError(f"{where} needs {len(kinds)} values, got {len(parts)} in {text!r}")
    return tuple(_parse(part, kind, where) for part, kind in zip(parts, kinds))


_SCENARIO_SCALARS = {
    "frame_count": int,
    "peak_sharpness": float,
    "distractor_count": int,
    "noise_sigma": float,
    "cell_scale": float,
    "seed": int,
}


def scenario_from_file(path) -> ScenarioConfig:
    """Build a scenario from a key = value file.

    ``waypoint = frame cx cy`` and ``occlusion = start end`` may repeat;
    everything else appears at most once.  Required: frame_count, waypoint,
    target_size.
    """
    path = Path(path)
    fields: dict = {}
    waypoints = []
    occlusions = []
    for number, key, value in read_kv_file(path):
        where = f"{path}:{number}: key {key!r}"
        if key == "waypoint":
            waypoints.append(_parse_numbers(value, (int, float, float), where))
        elif key == "occlusion":
            occlusions.append(_parse_numbers(value, (int, int), where))
        elif key in ("target_size", "map_size"):
            kinds = (float, float) if key == "target_size" else (int, int)
            if key in fields:
                raise ConfigError(f"{path}:{number}: duplicate key {key!r}")
            fields[key] = _parse_numbers(value, kinds, where)
        elif key in _SCENARIO_SCALARS:
            if key in fields:
                raise ConfigError(f"{path}:{number}: duplicate key {key!r}")
            fields[key] = _parse(value, _SCENARIO_SCALARS[key], where)
        else:
            raise ConfigError(f"{path}:{number}: unknown scenario key {key!r}")
    for required in ("frame_count", "target_size"):
        if required not in fields:
            raise ConfigError(f"{path}: missing required key {required!r}")
    if not waypoints:
        raise ConfigError(f"{path}: at least one 'waypoint' entry is required")
    try:
        return ScenarioConfig(
            waypoints=tuple(waypoints), occlusions=tuple(occlusions), **fields
        )
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


_MOTION_KEYS = {"n1": int, "n2": int, "theta": float, "lambda_ema": float}


def motion_params_from_file(path) -> MotionParams:
    """Load refinement settings from a key = value file."""
    path = Path(path)
    fields: dict = {}
    for number, key, value in read_kv_file(path):
        if key not in _MOTION_KEYS:
            raise ConfigError(f"{path}:{number}: unknown motion key {key!r}")
        if key in fields:
            raise ConfigError(f"{path}:{number}: duplicate key {key!r}")
        fields[key] = _parse(value, _MOTION_KEYS[key], f"{path}:{number}: key {key!r}")
    try:
        return MotionParams(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# Group names become part of output file names (curves_<group>.csv).
_GROUP_NAME = re.compile(r"[A-Za-z0-9_-]+")


def read_attribute_groups(path) -> dict[str, list[str]]:
    """Read ``group = id id ...`` lines mapping group names to sequence ids.

    Names are limited to ``[A-Za-z0-9_-]+`` so that they stay inside the
    output directory, and ``overall`` is reserved for the built-in group.
    """
    path = Path(path)
    groups: dict[str, list[str]] = {}
    for number, key, value in read_kv_file(path):
        if not _GROUP_NAME.fullmatch(key):
            raise ConfigError(
                f"{path}:{number}: group name {key!r} must use only letters, "
                f"digits, '_' and '-'"
            )
        if key == "overall":
            raise ConfigError(
                f"{path}:{number}: group name 'overall' is reserved for all sequences"
            )
        if key in groups:
            raise ConfigError(f"{path}:{number}: duplicate group {key!r}")
        members = value.replace(",", " ").split()
        if not members:
            raise ConfigError(f"{path}:{number}: group {key!r} has no members")
        groups[key] = members
    return groups


# ---------------------------------------------------------------------------
# evaluation output


def write_json(path, payload: dict):
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_curves_csv(path, result: EvalResult):
    lines = ["curve,threshold,value"]
    for name, thresholds, values in (
        ("precision", PRECISION_THRESHOLDS, result.precision),
        ("norm_precision", NORM_PRECISION_THRESHOLDS, result.norm_precision),
        ("success", SUCCESS_THRESHOLDS, result.success),
    ):
        for tau, value in zip(thresholds, values):
            lines.append(f"{name},{_fmt(tau)},{_fmt(value)}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def result_summary(result: EvalResult) -> dict:
    scalars = {name: getattr(result, name) for name in SUMMARY_NAMES}
    return {**scalars, "frame_count": result.frame_count}
