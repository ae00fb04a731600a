"""File formats and atomic output handling.

Each output format has an encoder that returns the file's bytes, and
:func:`write_outputs` writes a command's files by one writer,
:func:`atomic_write_bytes`: a temp file beside the target, then moved into
place, so a failed or killed run never leaves a truncated artifact behind:
while the machine stays up, the target names the complete old file or the
complete new one.  What is at the target is swapped with the temp file in
one ``renameat2(RENAME_EXCHANGE)`` call, and the temp file, which then
holds the old bytes, is unlinked.  A new target, or a platform or filesystem
without the swap, goes to ``os.replace``; so does a directory at the
target, swapped back first, for ``os.replace`` to refuse.

The writer does not call ``fsync``.  A rename over an existing file on ext4
(with its default ``auto_da_alloc``) flushes the new data, so that after a
power loss the target holds the old file or the new one; the swap skips
that flush to return sooner.  A power loss within the writeback window can
therefore leave a rewritten file empty, its old bytes already deleted, as
it could always leave a new one.

Every CSV file but a grid is built by one table encoder, :func:`_table`,
from equal-length columns; a grid is built line by grid row.  Their floats
are Python's shortest round-trip ``repr``, so files are byte-stable across
runs and parse back to the exact values that were written.  orjson
produces the digits, all of a file's floats in one :func:`_float_texts`
call; a value whose orjson notation is
not ``repr``'s (nan, +-inf, and any nonzero magnitude outside
``[1e-4, 1e16)``) is written by ``repr`` itself.  Every output is encoded
as ASCII.

Text files are read as UTF-8, whatever the locale: every text reader goes
through one decoder, which skips a leading byte-order mark and reports a
byte that is not UTF-8 as a :class:`ConfigError` naming the file and the
offset.

Formats:

* trajectory CSV -- header ``frame,cx,cy,w,h``, center-format boxes with
  frames numbered 1..N in order; the reader also accepts the common
  headerless benchmark layout ``x,y,w,h`` (top-left corner, comma or tab
  separated).  :func:`read_trajectory_rows` parses either straight into
  ``(N, 4)`` center-format rows: a well-formed file in one pass over its
  whole text, all of its fields by one ``orjson.loads`` call; any other
  file row by row with ``float``, so that the first bad line in file order
  is the one reported.  A field that JSON spells differently from
  ``float`` (``+1``, ``.5``, ``1_0``, ``nan``, ``-0`` and the like) sends
  its file to the row scan, which reads it as before.
  :func:`trajectory_csv` encodes such rows
* trace CSV -- ``frame,psr,npsr,branch``, written from the per-frame
  columns of :func:`~sattrack.motion.track_rows` by :func:`trace_csv`
* grid CSV -- one response/label map row per line
* PGM (binary P5) -- grayscale heatmap export, value*255 rounded
* feature tensor -- 12-byte header of C, H, W as little-endian uint32,
  then C*H*W finite float32 values, row-major per channel
* key = value config files -- ``#`` and ``;`` start comments; parse errors
  name the offending key and line
"""

from __future__ import annotations

import ctypes
import errno
import json
import math
import os
import re
import struct
import tokenize
import zipfile
import zlib
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np
import orjson

from .attention import ProjectionWeights
from .boxes import check_rows, valid_rows
from .metrics import (
    CURVE_NAMES,
    NORM_PRECISION_THRESHOLDS,
    PRECISION_THRESHOLDS,
    SUCCESS_THRESHOLDS,
    SUMMARY_NAMES,
    EvalResult,
)


class ConfigError(ValueError):
    """A configuration file could not be parsed or validated."""


def _build(where, build, *args, **fields):
    """``build(*args, **fields)``; a ``ValueError`` it raises is a
    :class:`ConfigError` opening with ``where``: the file the values came
    from, or the CLI flags and variables that set them."""
    try:
        return build(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _find_renameat2():
    """The C library's ``renameat2``, or ``None`` where it has none."""
    try:
        fn = ctypes.CDLL(None, use_errno=True).renameat2
    except (AttributeError, OSError, TypeError):  # no symbol; no process handle (Windows)
        return None
    fn.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    fn.restype = ctypes.c_int
    return fn


_RENAMEAT2 = _find_renameat2()
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2
# What renameat2 fails with on a kernel or filesystem without the swap, or
# when there is nothing at the target to swap with.
_NO_EXCHANGE = frozenset({errno.EINVAL, errno.ENOSYS, errno.EOPNOTSUPP, errno.ENOENT})


def _exchange(tmp: Path, path: Path) -> bool:
    """Swap the names ``tmp`` and ``path`` in one call: ``True`` if
    swapped, ``False`` where the swap is unavailable or nothing is at
    ``path``.  Any other failure is an ``OSError`` naming ``path``."""
    if _RENAMEAT2(_AT_FDCWD, os.fsencode(tmp), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE) == 0:
        return True
    code = ctypes.get_errno()
    if code in _NO_EXCHANGE:
        return False
    raise OSError(code, os.strerror(code), str(path))


def _swapped_in(tmp: Path, path: Path) -> bool:
    """Put ``tmp`` at ``path`` by swapping it with what is there and then
    deleting that, now at ``tmp``: ``True`` if done.  ``False`` leaves both
    names as they were, for ``os.replace``: where the swap is unavailable,
    nothing is at ``path``, or what was there cannot be deleted (a
    directory, which is swapped back so that ``os.replace`` refuses it).

    On ext4 with its default ``auto_da_alloc``, a rename over an existing
    file starts writeback of the new file's data inside the syscall; a swap
    and an unlink do not, so a rewrite returns sooner and the kernel writes
    the data back later."""
    if _RENAMEAT2 is None or not _exchange(tmp, path):
        return False
    try:
        os.unlink(tmp)
    except OSError:  # a directory: swap it back, for os.replace to refuse
        if not _exchange(tmp, path):
            raise
        return False
    return True


def atomic_write_bytes(path, data: bytes):
    """Write ``data`` to ``path``, in an existing directory, by a temp file
    beside it; on any failure ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        tmp.write_bytes(data)
        if not _swapped_in(tmp, path):
            os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_outputs(directory, files: dict[str, bytes], source: str):
    """Make ``directory`` and write ``files``, name -> bytes, into it in
    order.  An ``OSError`` is a :class:`ConfigError` opening with ``source``
    (what named ``directory``) and naming the target, not the temp file;
    the files before it stay written."""
    directory = target = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for name, data in files.items():
            target = directory / name
            atomic_write_bytes(target, data)
    except OSError as exc:
        raise ConfigError(f"{source}: cannot write {target}: {exc.strerror or exc}") from None


def _float_texts(values) -> list[str]:
    """The shortest round-trip ``repr`` of each of ``values``, widened to
    float64 first, so a float32 value is written as its float64 value.

    orjson writes the digits (Ryu) for the whole array in one call, several
    times faster than a ``repr`` per value.  Its notation is ``repr``'s for zero and for every magnitude in
    ``[1e-4, 1e16)``.  Every other value is written by ``repr``: nan and
    +-inf, which orjson writes as ``null``, and the magnitudes ``repr``
    writes with an exponent.  So is any token with an ``e`` in it, though
    orjson writes none inside that range."""
    values = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not values.size:
        return []
    text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode("ascii")
    texts = text.split(",")
    magnitude = np.abs(values)
    redo = ~(((magnitude >= 1e-4) & (magnitude < 1e16)) | (values == 0))
    if "e" in text:
        redo |= np.array(["e" in token for token in texts])
    for index in np.flatnonzero(redo).tolist():
        texts[index] = repr(values[index].item())
    return texts


def _table(header: str | None, columns: Sequence) -> bytes:
    """Equal-length ``columns`` as comma-separated lines under ``header``
    (none when it is ``None``): the one CSV line builder.  Every float
    array column is written as the shortest round-trip ``repr`` of each
    value, all of them by one :func:`_float_texts` call; any other column
    as ``str`` prints its items (an array's as Python values), so a Python
    float is its ``repr`` there too."""
    floats = [isinstance(c, np.ndarray) and c.dtype.kind == "f" for c in columns]
    texts = _float_texts(np.concatenate([c for c, f in zip(columns, floats) if f] or [[]]))
    cells, start = [], 0
    for column, is_float in zip(columns, floats):
        if is_float:
            cells.append(texts[start:start + len(column)])
            start += len(column)
        else:
            items = column.tolist() if isinstance(column, np.ndarray) else column
            cells.append(list(map(str, items)))
    if len({len(column) for column in cells}) > 1:
        raise ValueError(f"table columns must have equal lengths, got {[len(c) for c in cells]}")
    lines = [] if header is None else [header]
    lines += map(",".join, zip(*cells))
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# trajectories

TRAJECTORY_HEADER = "frame,cx,cy,w,h"


def trajectory_csv(rows: np.ndarray) -> bytes:
    """``(N, 4)`` ``(cx, cy, w, h)`` rows as a trajectory CSV with frames
    1..N; pass ``box_rows(boxes)`` for a list of boxes."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"trajectory rows must be (N, 4), got shape {rows.shape}")
    return _table(TRAJECTORY_HEADER, [range(1, len(rows) + 1), *rows.T])


def _read_text(path) -> str:
    """The text of a UTF-8 file, whatever the locale, without a leading
    byte-order mark; a byte that is not UTF-8 is a :class:`ConfigError`
    naming the file and its offset in the file."""
    data = Path(path).read_bytes()
    try:
        # "utf-8-sig" would count error offsets from after the mark
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: not UTF-8 text (byte 0x{data[exc.start]:02x} at offset {exc.start})"
        ) from None


def _split_row(line: str) -> list[str]:
    """The non-blank fields of one comma- or tab-separated row, stripped of
    what ``str.strip`` removes.  That includes U+001F, which ``float``
    alone rejects, so ``10\x1f`` is the field ``10`` as in every other
    reader here."""
    line = line.replace("\t", ",")
    return [part.strip() for part in line.split(",") if part.strip()]


def _raise_box_error(where: str, fields: list[float], row: np.ndarray, center_format: bool):
    """Raise the error :class:`BoundingBox` gives for the centre ``row`` that
    :func:`_center_rows` made of one parsed row's ``fields``, so the
    reader's box messages have one source.  A corner row first names the
    file's own field: the centre folds ``w`` into ``cx`` and ``h`` into
    ``cy``."""
    if not center_format:
        for name, value in zip("xywh", fields):
            if not math.isfinite(value):
                raise ConfigError(f"{where}: box field {name} must be finite")
    try:
        check_rows(row[None])
    except ValueError as exc:  # a non-finite field or a size <= 0
        raise ConfigError(f"{where}: {exc}") from None
    raise AssertionError(f"{where}: row flagged invalid but accepted: {fields}")


def _center_rows(table: np.ndarray, center_format: bool) -> tuple[np.ndarray, np.ndarray]:
    """Center ``(N, 4)`` rows of a parsed field table, and the mask of rows
    that make a valid :class:`BoundingBox` (finite, ``w, h > 0``).  Corner
    rows become centres as ``x + w / 2``, ``y + h / 2``."""
    if center_format:
        boxes = np.ascontiguousarray(table[:, 1:])
    else:
        boxes = table.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # flagged by the mask
            boxes[:, :2] += table[:, 2:] / 2.0
    return boxes, valid_rows(boxes)


# Body text that orjson reads, but not as ``float`` does: a JSON string,
# array or object, or true, false or null, which ``np.array`` would turn
# silently into a number; and the integer ``-0``, which orjson reads as 0.
_NON_NUMBER_CHARS = '"[]{}tfn'
_NEGATIVE_ZERO = re.compile(r"(?<![eE])-0(?![.eE\d])")  # not in an exponent: 1e-05


def _parse_whole(text: str) -> np.ndarray | None:
    """The rows of a well-formed file, parsed as one piece, or ``None`` when
    the file needs :func:`_scan_rows`.

    Well-formed means: a header line or none, then box rows only (no
    comment, blank line or blank field), each with ``width - 1`` separators,
    every field a JSON number, all read by one ``orjson.loads`` call,
    frames 1..N and every box valid.  Each of those is one operation over
    the whole file.  JSON's numbers are a subset of ``float``'s spellings,
    and orjson reads each to ``float``'s double but for the integer ``-0``.
    A file that fails any check, holds ``-0`` or a spelling only ``float``
    reads goes to the per-row scan, which reads it as ``float`` does and
    finds the first bad line."""
    lines = text.replace("\t", ",").splitlines()
    center_format = bool(lines) and lines[0].lstrip().lower().startswith("frame")
    body = lines[1:] if center_format else lines
    width = 5 if center_format else 4
    if not body or set(map(str.count, body, repeat(","))) != {width - 1}:
        return None
    joined = ",".join(body)
    if any(char in joined for char in _NON_NUMBER_CHARS):
        return None
    try:
        fields = np.array(orjson.loads("[" + joined + "]"), dtype=float)
    except orjson.JSONDecodeError:  # a blank field or a spelling JSON does not have
        return None
    if not fields.all() and _NEGATIVE_ZERO.search(joined):  # a zero that may be -0
        return None
    table = fields.reshape(-1, width)
    if center_format and not (table[:, 0] == np.arange(1, len(body) + 1)).all():
        return None
    boxes, valid = _center_rows(table, center_format)
    return boxes if valid.all() else None


def _scan_rows(path: Path, lines: list[str]) -> np.ndarray:
    """:func:`read_trajectory_rows` one row at a time: skips comments and
    blank lines and fields, and raises the error of the first bad line."""
    rows = [
        (number, raw)
        for number, raw in enumerate(lines, start=1)
        if (text := raw.strip()) and not text.startswith("#")
    ]
    if not rows:
        raise ConfigError(f"{path}: no box rows found")
    center_format = rows[0][1].strip().lower().startswith("frame")
    if center_format:
        rows = rows[1:]
        if not rows:
            raise ConfigError(f"{path}: header but no box rows")
    width = 5 if center_format else 4
    fields: list[float] = []
    error = None  # the first parse error, raised after the rows before it are checked
    for index, (number, raw) in enumerate(rows):
        parts = _split_row(raw)
        try:
            values = list(map(float, parts))
        except ValueError:
            error = f"{path}:{number}: non-numeric box field"
            break
        if len(values) != width:
            layout = "frame,cx,cy,w,h" if center_format else "x,y,w,h"
            error = f"{path}:{number}: expected {layout}, got {len(values)} fields"
            break
        if center_format and values[0] != index + 1:
            error = (
                f"{path}:{number}: frame {parts[0]} out of sequence, "
                f"expected {index + 1} (frames must be 1..N in order)"
            )
            break
        fields += values
    table = np.array(fields, dtype=float).reshape(-1, width)
    boxes, valid = _center_rows(table, center_format)
    if not valid.all():
        first = int(valid.argmin())
        _raise_box_error(
            f"{path}:{rows[first][0]}", table[first].tolist(), boxes[first], center_format
        )
    if error is not None:
        raise ConfigError(error)
    return boxes


def read_trajectory_rows(path) -> np.ndarray:
    """Read our trajectory CSV or a headerless x,y,w,h file as ``(N, 4)``
    float ``(cx, cy, w, h)`` rows.

    Fields are parsed with Python's ``float`` after stripping what
    ``str.strip`` removes (U+001F included).  The frame column of a
    trajectory CSV must count 1..N in file order.  Corner rows become
    centres as ``x + w / 2``, ``y + h / 2``.  Every row must make a valid
    :class:`BoundingBox` (finite fields, ``w, h > 0``).  A well-formed file
    whose fields are all JSON numbers is parsed in one pass over the whole
    text, by one ``orjson.loads`` call (:func:`_parse_whole`).  Any other
    file is scanned row by row with ``float`` (:func:`_scan_rows`), with the
    same rows as the result: one with comments, blank lines or fields, a
    bad row, or a field only ``float`` spells (``+1``, ``.5``, ``5.``,
    ``01``, ``1_0``, ``nan``, ``inf``, ``1e400``, the integer ``-0``, a
    non-ASCII space around a field).
    Errors name ``path:line``, and the first bad line in file order wins
    whatever the kind of error.
    """
    path = Path(path)
    text = _read_text(path)
    rows = _parse_whole(text)
    return rows if rows is not None else _scan_rows(path, text.splitlines())


def trace_csv(psr, npsr, branch: Sequence[str]) -> bytes:
    """The per-frame trace columns, frames 1..N, as ``frame,psr,npsr,branch``;
    the three columns must have equal lengths."""
    psr = np.asarray(psr, dtype=float)
    columns = [range(1, len(psr) + 1), psr, np.asarray(npsr, dtype=float), branch]
    return _table("frame,psr,npsr,branch", columns)


# ---------------------------------------------------------------------------
# grids, heatmaps, tensors


def grid_csv(grid: np.ndarray) -> bytes:
    """A 2-D grid as one line per grid row, its floats from one
    :func:`_float_texts` call."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError(f"grid must be 2-D, got shape {grid.shape}")
    if not grid.size:  # read_grid_csv rejects the file an empty grid would make
        raise ValueError(f"grid must have a row and a column, got shape {grid.shape}")
    rows = zip(*[iter(_float_texts(grid))] * grid.shape[1])  # the texts, one grid row at a time
    return ("\n".join(map(",".join, rows)) + "\n").encode("ascii")


def read_grid_csv(path) -> np.ndarray:
    rows = []
    for number, line in enumerate(_read_text(path).splitlines(), start=1):
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


def pgm(grid: np.ndarray) -> bytes:
    """Binary P5 heatmap of a [0, 1] map, one byte per cell."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ValueError(f"heatmap must be 2-D, got shape {grid.shape}")
    pixels = np.clip(np.rint(grid * 255.0), 0, 255).astype(np.uint8)
    header = f"P5\n{grid.shape[1]} {grid.shape[0]}\n255\n".encode("ascii")
    return header + pixels.tobytes()


def _feature_map_bytes(tensor: np.ndarray, where) -> bytes:
    """The feature-tensor file of ``tensor``: C, H, W as little-endian
    uint32, then float32 data row-major per channel.  A cell not finite in
    float32 (beyond its range too) is a ``ValueError`` opening with ``where``
    and naming the first such cell."""
    tensor = np.asarray(tensor)
    if tensor.ndim != 3:
        raise ValueError(f"feature map must be (C, H, W), got shape {tensor.shape}")
    with np.errstate(over="ignore"):  # an overflow is reported as its cell below
        data = tensor.astype("<f4")
    if not np.isfinite(data).all():
        cell = np.argwhere(~np.isfinite(data))[0].tolist()
        raise ValueError(f"{where}: feature-map cell {tuple(cell)} is not finite in float32")
    return struct.pack("<3I", *tensor.shape) + data.tobytes()


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


_REQUIRED_WEIGHTS = ("w_q", "w_k", "w_v", "gamma")
_WEIGHT_ARRAYS = (*_REQUIRED_WEIGHTS, "b_q", "b_k", "b_v")
# What numpy and zipfile raise on an open file that is not an intact .npz
# archive (OSError: a corrupt offset can make zipfile seek before the start).
_ARCHIVE_ERRORS = (
    ValueError, EOFError, OSError, NotImplementedError,
    zipfile.BadZipFile, zlib.error, tokenize.TokenError,
)


def read_projection_weights(path) -> ProjectionWeights:
    """Load a ``.npz`` bundle of ``w_q``, ``w_k``, ``w_v``, a scalar ``gamma``
    and optionally ``b_q``, ``b_k``, ``b_v``.

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
    return _build(
        path, ProjectionWeights,
        gamma=float(gamma), **{name: value.astype(float) for name, value in arrays.items()}
    )


# ---------------------------------------------------------------------------
# key = value configuration files


def read_kv_file(path) -> list[tuple[int, str, str]]:
    """Parse a key = value file into (line, key, value) entries."""
    path = Path(path)
    entries = []
    for number, raw in enumerate(_read_text(path).splitlines(), start=1):
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
    """One int or finite float, the rule for every number a user gives: a
    config file entry, a CLI flag or a ``SATTRACK_*`` variable.  The text is
    first stripped of what ``str.strip`` removes, as a file entry is;
    ``where`` opens the error message."""
    try:
        value = kind(text.strip())
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


def _read_fields(path, kinds: dict, what: str, repeatable=()) -> dict:
    """A key = value file's values by key, each parsed as its kind in
    ``kinds`` (int, float or a tuple of them).  A key in ``repeatable`` maps
    to the list of its values; any other key may appear once."""
    path = Path(path)
    fields: dict = {}
    for number, key, value in read_kv_file(path):
        if key not in kinds:
            raise ConfigError(f"{path}:{number}: unknown {what} key {key!r}")
        if key in fields and key not in repeatable:
            raise ConfigError(f"{path}:{number}: duplicate key {key!r}")
        kind, where = kinds[key], f"{path}:{number}: key {key!r}"
        parse = _parse_numbers if isinstance(kind, tuple) else _parse
        fields.setdefault(key, []).append(parse(value, kind, where))
    return {key: values if key in repeatable else values[0] for key, values in fields.items()}


_SCENARIO_KEYS = {
    "frame_count": int,
    "waypoint": (int, float, float),
    "occlusion": (int, int),
    "target_size": (float, float),
    "map_size": (int, int),
    "peak_sharpness": float,
    "distractor_count": int,
    "noise_sigma": float,
    "cell_scale": float,
    "seed": int,
}


def read_scenario_fields(path) -> dict:
    """The :class:`~sattrack.scenario.ScenarioConfig` fields a scenario
    file sets, by name: ``waypoints`` and ``occlusions`` as tuples, every
    other key as read.  The CLI builds the scenario from them, and takes
    the seed's source from whether they hold one.

    ``waypoint = frame cx cy`` and ``occlusion = start end`` may repeat;
    everything else appears at most once.  Required: frame_count, waypoint,
    target_size.
    """
    path = Path(path)
    fields = _read_fields(path, _SCENARIO_KEYS, "scenario", ("waypoint", "occlusion"))
    for required in ("frame_count", "target_size"):
        if required not in fields:
            raise ConfigError(f"{path}: missing required key {required!r}")
    if "waypoint" not in fields:
        raise ConfigError(f"{path}: at least one 'waypoint' entry is required")
    fields["waypoints"] = tuple(fields.pop("waypoint"))
    fields["occlusions"] = tuple(fields.pop("occlusion", ()))
    return fields


# The motion settings and their kinds, for a --params file and the CLI.
_MOTION_KEYS = {"n1": int, "n2": int, "theta": float, "lambda_ema": float}


# Group names become part of output file names (curves_<group>.csv).
_GROUP_NAME = re.compile(r"[A-Za-z0-9_-]+")


def read_attribute_groups(path) -> dict[str, list[str]]:
    """Read ``group = id id ...`` lines mapping group names to sequence ids.

    Names are limited to ``[A-Za-z0-9_-]+`` so that they stay inside the
    output directory, and ``overall`` is reserved for the built-in group.
    A group lists each member once, so no sequence weighs twice in it.
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
        seen = set()
        for member in members:
            if member in seen:
                raise ConfigError(f"{path}:{number}: group {key!r} lists {member!r} twice")
            seen.add(member)
        groups[key] = members
    return groups


# ---------------------------------------------------------------------------
# evaluation output


def json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("ascii")


def curves_csv(result: EvalResult) -> bytes:
    thresholds = (PRECISION_THRESHOLDS, NORM_PRECISION_THRESHOLDS, SUCCESS_THRESHOLDS)
    columns = [
        [name for name, taus in zip(CURVE_NAMES, thresholds) for _ in taus],
        np.concatenate(thresholds, dtype=float),
        np.concatenate([getattr(result, name) for name in CURVE_NAMES], dtype=float),
    ]
    return _table("curve,threshold,value", columns)


def result_summary(result: EvalResult) -> dict:
    scalars = {name: getattr(result, name) for name in SUMMARY_NAMES}
    return {**scalars, "frame_count": result.frame_count}
