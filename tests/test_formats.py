"""File format round-trips and configuration parsing errors."""

import ctypes
import errno
import io
import json
import os
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sattrack import (
    BoundingBox,
    MotionParams,
    ProjectionWeights,
    ScenarioConfig,
    evaluate,
    init_projection_weights,
)
from sattrack import formats
from sattrack.boxes import box_rows
from sattrack.formats import (
    ConfigError,
    _feature_map_bytes,
    _float_texts,
    _table,
    _parse_numbers,
    _parse_whole,
    _read_text,
    _scan_rows,
    _split_row,
    atomic_write_bytes,
    curves_csv,
    grid_csv,
    json_bytes,
    pgm,
    read_attribute_groups,
    read_feature_map,
    read_grid_csv,
    read_kv_file,
    read_projection_weights,
    read_trajectory_rows,
    result_summary,
    trace_csv,
    trajectory_csv,
)
from sattrack.metrics import (
    NORM_PRECISION_THRESHOLDS,
    PRECISION_THRESHOLDS,
    SUCCESS_THRESHOLDS,
    EvalResult,
)
from test_attention import with_biases


def write_feature_map(path, tensor):
    """Write ``tensor`` as a feature-tensor file through the encoder and the
    writer ``attention-demo`` uses: the round-trip helper of the tests.  A
    cell not finite in float32 is a ``ValueError`` naming ``path`` and the
    cell, and no file is written."""
    atomic_write_bytes(path, _feature_map_bytes(tensor, path))


def write_projection_weights(path, weights: ProjectionWeights):
    """Write ``weights`` as the ``.npz`` bundle ``--weights`` reads: ``w_q``,
    ``w_k``, ``w_v``, a scalar ``gamma`` and each bias that is set."""
    arrays = {"w_q": weights.w_q, "w_k": weights.w_k, "w_v": weights.w_v,
              "gamma": np.array(weights.gamma)}
    for name in ("b_q", "b_k", "b_v"):
        if getattr(weights, name) is not None:
            arrays[name] = getattr(weights, name)
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    atomic_write_bytes(path, buffer.getvalue())


def motion_params_from_file(path) -> MotionParams:
    """Refinement settings from a ``--params`` key = value file alone, over
    the defaults: the tests' reader of that layout (``track`` lays its flags
    and variables over the file's fields before it builds them)."""
    path = Path(path)
    fields = formats._read_fields(path, formats._MOTION_KEYS, "motion")
    return formats._build(path, MotionParams, **fields)


def scenario_from_file(path) -> ScenarioConfig:
    """The scenario a key = value file describes, validated alone: the
    tests' reader of that layout (``track`` and ``simulate`` read its
    fields, to tell which ones the file set)."""
    path = Path(path)
    return formats._build(path, ScenarioConfig, **formats.read_scenario_fields(path))


def feature_map_bytes(tensor) -> bytes:
    """A feature-map file built by hand, whatever its values: how a test
    makes a file holding a cell that ``write_feature_map`` refuses."""
    tensor = np.asarray(tensor, dtype="<f4")
    return struct.pack("<3I", *tensor.shape) + tensor.tobytes()


def read_trajectory(path) -> list[BoundingBox]:
    """:func:`read_trajectory_rows` as one BoundingBox per row."""
    return [BoundingBox(*row) for row in read_trajectory_rows(path).tolist()]


class TestTrajectoryIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        boxes = [
            BoundingBox(*rng.uniform(1, 300, 2), *rng.uniform(0.5, 60, 2))
            for _ in range(20)
        ]
        path = tmp_path / "traj.csv"
        path.write_bytes(trajectory_csv(box_rows(boxes)))
        assert read_trajectory(path) == boxes

    def test_output_is_byte_deterministic(self):
        boxes = [BoundingBox(1 / 3, 2 / 7, 9.25, np.pi)]
        a, b = trajectory_csv(box_rows(boxes)), trajectory_csv(box_rows(boxes))
        assert a == b
        assert a.decode().splitlines()[0] == "frame,cx,cy,w,h"

    def test_frames_are_one_based(self):
        lines = trajectory_csv([(1.0, 2.0, 3.0, 4.0)] * 2).decode().splitlines()
        assert lines[1].startswith("1,")
        assert lines[2].startswith("2,")

    def test_reads_headerless_corner_format(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("10,20,4,6\n30,40,8,2\n")
        boxes = read_trajectory(path)
        assert boxes[0] == BoundingBox(12.0, 23.0, 4.0, 6.0)
        assert boxes[1] == BoundingBox(34.0, 41.0, 8.0, 2.0)

    def test_reads_tab_separated(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("10\t20\t4\t6\n")
        assert read_trajectory(path) == [BoundingBox(12.0, 23.0, 4.0, 6.0)]

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("# header comment\n\n10,20,4,6\n")
        assert len(read_trajectory(path)) == 1

    def test_non_numeric_field_reports_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("10,20,4,6\n10,oops,4,6\n")
        with pytest.raises(ConfigError, match=r"gt\.txt:2"):
            read_trajectory(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("10,20,4\n")
        with pytest.raises(ConfigError, match="expected x,y,w,h"):
            read_trajectory(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("\n\n")
        with pytest.raises(ConfigError, match="no box rows"):
            read_trajectory(path)

    @pytest.mark.parametrize(
        "frames, bad_line",
        [((3, 1), 2), ((2, 3), 2), ((1, 3), 3), ((1, 1), 3), ((0, 1), 2), ((1, 2.5), 3)],
    )
    def test_center_format_frames_must_be_one_to_n(self, tmp_path, frames, bad_line):
        path = tmp_path / "pred.csv"
        path.write_text(
            "frame,cx,cy,w,h\n" + "".join(f"{f},10,20,4,6\n" for f in frames)
        )
        with pytest.raises(ConfigError, match=rf"pred\.csv:{bad_line}: frame"):
            read_trajectory(path)

    @pytest.mark.parametrize(
        "name, rows, message",
        [
            ("pred.csv", "frame,cx,cy,w,h\n1,10,20,4,6\n2,10,nan,4,6\n", "cy must be finite"),
            ("pred.csv", "frame,cx,cy,w,h\n1,inf,20,4,6\n", "cx must be finite"),
            ("pred.csv", "frame,cx,cy,w,h\n1,10,20,4,6\n2,10,20,0,6\n", "size must be positive"),
            ("gt.txt", "10,20,4,6\n10,20,4,-6\n", "size must be positive"),
            ("gt.txt", "10,20,4,6\n10,20,nan,6\n", "must be finite"),
        ],
    )
    def test_invalid_box_reports_path_and_line(self, tmp_path, name, rows, message):
        path = tmp_path / name
        path.write_text(rows)
        line = rows.count("\n")
        with pytest.raises(ConfigError, match=rf"{name.replace('.', r'[.]')}:{line}: .*{message}"):
            read_trajectory(path)

    @pytest.mark.parametrize(
        "row, field",
        [("10,20,inf,6", "w"), ("nan,20,4,6", "x"), ("10,-inf,4,6", "y"), ("10,20,4,nan", "h"),
         ("-inf,20,inf,6", "x")],
    )
    def test_corner_row_names_the_file_field(self, tmp_path, row, field):
        # the centre folds w into cx and h into cy; the error must name the
        # field as the file has it, not the derived centre
        path = tmp_path / "c.txt"
        path.write_text(f"10,20,4,6\n{row}\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: box field {field} must be finite$"):
            read_trajectory(path)

    def test_center_format_frame_numbers_skip_comment_lines(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("frame,cx,cy,w,h\n1,10,20,4,6\n# note\n\n2,11,20,4,6\n")
        assert [b.cx for b in read_trajectory(path)] == [10.0, 11.0]



def reference_read_trajectory(path) -> list[BoundingBox]:
    """The per-row reader that read_trajectory_rows replaced: one validated
    BoundingBox per row, checks in file order.  Kept as the oracle."""
    path = Path(path)
    rows = [
        (number, raw)
        for number, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
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
            if center_format:
                boxes.append(BoundingBox(*values[1:]))
            else:  # top-left corner to centre
                x, y, w, h = values
                boxes.append(BoundingBox(x + w / 2.0, y + h / 2.0, w, h))
        except ValueError as exc:
            if not center_format:
                for name, value in zip("xywh", values):
                    if not math.isfinite(value):
                        raise ConfigError(
                            f"{path}:{number}: box field {name} must be finite"
                        ) from None
            raise ConfigError(f"{path}:{number}: {exc}") from None
    return boxes


def read_outcome(reader, path):
    """Rows (as box rows) or the ConfigError message; any other exception
    propagates and fails the calling test."""
    try:
        result = reader(path)
    except ConfigError as exc:
        return str(exc)
    return result if isinstance(result, np.ndarray) else box_rows(result)


def scan_trajectory_rows(path):
    """read_trajectory_rows forced down the per-row scan."""
    return _scan_rows(Path(path), _read_text(path).splitlines())


def assert_same_outcome(path, reference=None):
    """read_trajectory_rows and its per-row scan both give the reference
    reader's rows, bitwise, or its ConfigError message.  ``reference`` is
    the reference outcome when it cannot be read from ``path`` itself."""
    if reference is None:
        reference = read_outcome(reference_read_trajectory, path)
    for reader in (read_trajectory_rows, scan_trajectory_rows):
        new = read_outcome(reader, path)
        if isinstance(reference, str) or isinstance(new, str):
            assert new == reference
        else:
            assert new.dtype == reference.dtype and new.shape == reference.shape
            assert new.tobytes() == reference.tobytes()  # bitwise, -0.0 included


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)
boxes_strategy = st.lists(st.builds(BoundingBox, finite, finite, positive, positive),
                          min_size=1, max_size=20)
# Where orjson and float() disagree, or JSON has no such number: spelling ->
# whether a file holding it as a field takes the one-pass parse.
JSON_EDGES = {
    "-0": False, " -0 ": False, "-0.0": True, "-0e5": True,
    "true": False, "null": False, '"1"': False, "[1": False, "{}": False,
    "01": False, "+1": False, ".5": False, "5.": False, "1e400": False,
    "9007199254740993": True, "18446744073709551617": True,
}
# Field spellings: float reprs (nan/inf included), integers, and texts that
# float() accepts or rejects in ways a reader must not change.
field_text = st.one_of(
    st.floats(width=64).map(repr),
    st.integers(-3, 40).map(str),
    st.sampled_from(["1_0", " 1e3 ", "0x1p3", "nan", "-inf", "inf", "x", "1e999", "-0.0",
                     "0", "-2", "1.7e308", "-1.7e308", "1e-320", "1__0", ".",
                     "10\x1f", "\x1f2", "\x1f", *JSON_EDGES]),
)
text_tokens = st.sampled_from(
    list("0123456789") + [",", " ", "\t", "\x1f", "#", ".", "-", "e", "\n", "nan", "inf", "frame",
                          *JSON_EDGES]
)


@st.composite
def trajectory_texts(draw):
    """Mostly well-formed trajectory files, header or corner, with a chance
    of a bad field, a wrong field count, a wrong frame number, comments and
    blank lines on every row."""
    header = draw(st.booleans())
    lines = ["frame,cx,cy,w,h"] if header else []
    frame = 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row", "row", "row", "comment", "blank"]))
        if kind == "comment":
            lines.append("# " + draw(field_text))
            continue
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x1f"])))
            continue
        count = draw(st.sampled_from([4, 4, 4, 3, 5, 6]))
        fields = [draw(st.one_of(
            st.floats(0.5, 300.0).map(repr), st.integers(1, 40).map(str), field_text,
        )) for _ in range(count)]
        if header:
            frame += 1
            fields.insert(0, str(frame) if draw(st.integers(0, 9)) else draw(field_text))
        lines.append(draw(st.sampled_from([",", "\t", ", ", " ,", ",\x1f"])).join(fields))
    newline = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\u2028"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline, "\r\n"]))


class TestTrajectoryRowsProperties:
    """read_trajectory_rows against the per-row reference reader."""

    @settings(max_examples=150, deadline=None)
    @given(boxes=boxes_strategy)
    def test_round_trip_rows_equal_box_rows(self, tmp_path_factory, boxes):
        path = tmp_path_factory.mktemp("round") / "traj.csv"
        path.write_bytes(trajectory_csv(box_rows(boxes)))
        rows = read_trajectory_rows(path)
        expected = box_rows(boxes)
        assert np.array_equal(rows, expected)
        assert rows.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(header=st.booleans(), tokens=st.lists(text_tokens, max_size=80))
    def test_any_token_text_matches_the_reference(self, tmp_path_factory, header, tokens):
        path = tmp_path_factory.mktemp("tokens") / "t.txt"
        path.write_bytes((("frame,cx,cy,w,h\n" if header else "") + "".join(tokens)).encode())
        assert_same_outcome(path)

    @settings(max_examples=300, deadline=None)
    @given(text=trajectory_texts())
    def test_structured_text_matches_the_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("rows") / "t.csv"
        path.write_bytes(text.encode())
        assert_same_outcome(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            # a box error before a parse error is reported first, whatever the kind
            ("10,20,-4,6\n10,oops,4,6\n", 1),
            ("10,20,4,6\n10,20,nan,6\n10,20,4\n", 2),
            ("frame,cx,cy,w,h\n1,10,20,0,6\n3,10,20,4,6\n", 2),
            ("frame,cx,cy,w,h\n1,10,20,4,6\n2,10,20,4\n3,1,1,-1,1\n", 3),
            # finite corner fields whose centre overflows
            ("10,20,4,6\n1.7e308,0,1.7e308,6\n", 2),
        ],
    )
    def test_first_bad_line_wins(self, tmp_path, text, line):
        path = tmp_path / "t.txt"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:{line}: "):
            read_trajectory_rows(path)
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", ["1_0,2,3,4\n", " 1e3 ,2,3,4\n", "nan,1,1,1\n",
                                      "inf,1,1,1\n", "0x1p3,1,1,1\n"])
    def test_spellings_follow_python_float(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", ["10\x1f,20,4,6\n", "frame,cx,cy,w,h\n1,\x1f12,23\x1f,4,6\n",
                                      "10,20,\x1f,4,6\n"])
    def test_unit_separator_is_whitespace(self, tmp_path, text):
        # str.strip removes U+001F and float alone rejects it: the field is
        # stripped first, so it reads as the number it pads, on both paths
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert _parse_whole(text) is None
        assert read_trajectory_rows(path)[0, 2:].tolist() == [4.0, 6.0]
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", ["10,,20, ,4,\t,6\n", "frame,cx,cy,w,h\n1, ,12,23,4,\t \t,6,\n"])
    def test_empty_and_blank_fields_are_skipped(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert read_trajectory_rows(path).tolist() == [[12.0, 23.0, 4.0, 6.0]]
        assert_same_outcome(path)

    def test_corner_centres_use_half_size_arithmetic(self, tmp_path):
        values = np.random.default_rng(53).uniform(-1e3, 1e3, (200, 4))
        values[:, 2:] = np.abs(values[:, 2:]) + 0.1
        path = tmp_path / "c.txt"
        path.write_text("".join("\t".join(map(repr, row)) + "\n" for row in values.tolist()))
        expected = box_rows(
            BoundingBox(x + w / 2.0, y + h / 2.0, w, h) for x, y, w, h in values.tolist()
        )
        assert read_trajectory_rows(path).tobytes() == expected.tobytes()

    def test_returns_float_rows_and_boxes_wrap_them(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("frame,cx,cy,w,h\n1,10,20,4,6\n2,11,21,5,7\n")
        rows = read_trajectory_rows(path)
        assert rows.dtype == float and rows.shape == (2, 4)
        assert read_trajectory(path) == [BoundingBox(*row) for row in rows.tolist()]


BOM = b"\xef\xbb\xbf"


def layout_text(rows: np.ndarray, layout: str) -> str:
    """A trajectory file of ``rows`` (frames or corner boxes) in one layout."""
    if layout == "header":
        return "frame,cx,cy,w,h\n" + "".join(
            f"{i},{cx!r},{cy!r},{w!r},{h!r}\n" for i, (cx, cy, w, h) in enumerate(rows.tolist(), 1)
        )
    separator = "\t" if layout == "corner-tab" else ","
    return "".join(separator.join(map(repr, row)) + "\n" for row in rows.tolist())


LAYOUTS = ["header", "corner-comma", "corner-tab"]
# JSON numbers of every shape: float reprs, long decimals with exponents
# (subnormal and overflowing ones included), halfway cases and big integers.
json_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}{}.{}e{}".format, st.sampled_from(["", "-"]), st.integers(0, 10**20),
              st.integers(0, 10**25), st.integers(-340, 310)),
    st.integers(-2**70, 2**70).map(str),
    st.sampled_from(["2.4703282292062327e-324", "2.4703282292062328e-324",
                     "2.2250738585072011e-308", "1.7976931348623158e308",
                     "1.7976931348623159e308", "9007199254740993", "-0.0", "-0e5"]),
)
ONE_PASS = [
    # line breaks other than \n, and no final one
    "frame,cx,cy,w,h\r\n1,10,20,4,6\r\n2,11,21,4,6\r\n",
    "10,20,4,6\r\n11,21,4,6",
    "10,20,4,6\x0b11,21,4,6\x0c12,22,4,6\u2028",
    "frame,cx,cy,w,h\u20281,10,20,4,6\r2,11,21,4,6\x85",
    # mixed tab and comma rows, whitespace around fields, a spelt-out header
    "10\t20,4\t6\n11,21\t4,6\n",
    "  FRAME\tcx\tcy\tw\th\n1\t10\t20\t4\t6\n",
]
PER_ROW = [
    # comments and blank lines
    "# gt\n10,20,4,6\n",
    "10,20,4,6\n\n11,21,4,6\n",
    "10,20,4,6\n \t \n",
    "\nframe,cx,cy,w,h\n1,10,20,4,6\n",
    # blank and whitespace-only fields
    "10,,20,4,6\n",
    "10, ,20,4,6\n",
    "10,20,4,6\n11,21\t\t4,6\n",
    "frame,cx,cy,w,h\n1,10,20,4,6,\n",
    # a header behind a tab, which the one-pass split turns into a field
    "\tframe,cx,cy,w,h\n1,10,20,4,6\n",
    # a non-ASCII space (NBSP) around a field, which float() strips and JSON has not
    " 10 ,\xa020\t 4 ,6 \n",
    # errors: count, non-number, frame, box; empty files
    "10,20,4\n",
    "10,20,4\n11,21,4,6,7\n",
    # separators shifted between lines, the file's total still 3 per line
    "10,20,4,6,7\n11,21,4\n",
    # a lone \r, which splitlines breaks at and JSON reads as whitespace
    "10,20,4\r,6\n",
    "10,20,4,6\r\n10,20,4,6,7\r\n",
    "10,20,4,6\u202810,x,4,6\u2028",
    "frame,cx,cy,w,h\x0b1,10,20,4,6\x0b3,10,20,4,6\x0b",
    "frame,cx,cy,w,h\n1,10,20,4,6\n2,10,20,0,6\n",
    "10,20,4,6\x0c10,20,nan,6\x0c",
    "",
    "frame,cx,cy,w,h\r\n",
]


class TestOnePassParse:
    """A well-formed file is parsed in one pass; any other goes to the
    per-row scan.  Both give the reference reader's rows or message."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_thousand_row_files_take_the_one_pass_parse(self, tmp_path, layout, newline):
        rows = np.random.default_rng(54).uniform(-500.0, 500.0, (1000, 4))
        rows[:, 2:] = np.abs(rows[:, 2:]) + 0.5
        rows[::97, 0] = -0.0
        text = layout_text(rows, layout).replace("\n", newline)
        path = tmp_path / "t.txt"
        path.write_text(text, newline="")
        assert _parse_whole(text) is not None
        assert read_trajectory_rows(path).shape == (1000, 4)
        assert_same_outcome(path)

    def test_integer_frames_and_exponent_fields_take_the_one_pass_parse(self, tmp_path):
        rows = np.random.default_rng(55).uniform(1.0, 9.0, (1000, 4))
        rows[::2] *= 1e-5  # repr writes these with an exponent: 1.234e-05
        rows[::97, :2] = 0.0  # so the -0 check reads the exponents too
        text = layout_text(rows, "header")
        assert "e-05," in text and "\n1000," in text
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert _parse_whole(text) is not None
        assert_same_outcome(path)

    @pytest.mark.parametrize("layout", ["frame,cx,cy,w,h\n1,{},20,4,6\n2,-1,21,4,6\n",
                                        "{}\t20\t4\t6\n-1\t21\t4\t6\n"])
    @pytest.mark.parametrize("spelling, one_pass", JSON_EDGES.items())
    def test_where_json_and_float_differ_the_reference_reads(
        self, tmp_path, layout, spelling, one_pass
    ):
        text = layout.format(spelling)
        path = tmp_path / "t.txt"
        path.write_text(text)
        assert (_parse_whole(text) is not None) == one_pass
        assert_same_outcome(path)

    @settings(max_examples=200, deadline=None)
    @given(numbers=st.lists(json_numbers, min_size=2, max_size=40))
    def test_json_numbers_read_as_float_reads_them(self, tmp_path_factory, numbers):
        pairs = zip(numbers[::2], numbers[1::2])
        text = "frame,cx,cy,w,h\n" + "".join(
            f"{frame},{cx},{cy},4,6\n" for frame, (cx, cy) in enumerate(pairs, start=1)
        )
        path = tmp_path_factory.mktemp("json") / "t.csv"
        path.write_text(text)
        if all(math.isfinite(float(number)) for number in numbers[:len(numbers) // 2 * 2]):
            assert _parse_whole(text) is not None
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", ONE_PASS)
    def test_well_formed_text_takes_the_one_pass_parse(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_text(text, newline="")
        assert _parse_whole(text) is not None
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", PER_ROW)
    def test_other_text_takes_the_per_row_scan(self, tmp_path, text):
        path = tmp_path / "t.txt"
        path.write_text(text, newline="")
        assert _parse_whole(text) is None
        assert_same_outcome(path)

    @pytest.mark.parametrize("text", ONE_PASS + PER_ROW + [layout_text(
        np.array([[10.0, 20.0, 4.0, 6.0], [11.0, 21.0, 5.0, 7.0]]), layout) for layout in LAYOUTS
    ])
    def test_byte_order_mark_changes_nothing(self, tmp_path, text):
        # the reference reader keeps the mark, so it reads the same path unmarked
        path = tmp_path / "t.txt"
        path.write_bytes(text.encode())
        reference = read_outcome(reference_read_trajectory, path)
        path.write_bytes(BOM + text.encode())
        assert_same_outcome(path, reference)


NOT_UTF8 = b"10,20,4,6\n10,20,4,6\n# abc\xff\n"  # 0xff at offset 25


class TestUtf8Text:
    def expected(self, path, offset=25):
        return rf"^{re.escape(str(path))}: not UTF-8 text \(byte 0xff at offset {offset}\)$"

    @pytest.mark.parametrize("reader", [read_trajectory_rows, read_grid_csv,
                                        read_kv_file, scenario_from_file,
                                        motion_params_from_file, read_attribute_groups])
    def test_undecodable_byte_is_config_error_naming_the_file(self, tmp_path, reader):
        path = tmp_path / "bad.txt"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(ConfigError, match=self.expected(path)):
            reader(path)
        # a byte-order mark is skipped, but the offset still counts its 3 bytes
        path.write_bytes(BOM + NOT_UTF8)
        with pytest.raises(ConfigError, match=self.expected(path, 28)):
            reader(path)

    @pytest.mark.parametrize("reader, text", [
        pytest.param(reader, text, id=reader.__name__) for reader, text in [
            (read_trajectory_rows, "frame,cx,cy,w,h\n1,10,20,4,6\n"),
            (read_grid_csv, "1,2\n3,4\n"),
            (read_kv_file, "n1 = 12\n"),
            (scenario_from_file,
             "frame_count = 5\nwaypoint = 1 1 1\nwaypoint = 5 9 1\ntarget_size = 4 4\n"),
            (motion_params_from_file, "n1 = 30\n"),
            (read_attribute_groups, "fast = a b\n"),
        ]
    ])
    def test_byte_order_mark_is_skipped(self, tmp_path, reader, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(BOM + text.encode("utf-8"))
        expected, result = reader(plain), reader(marked)
        if isinstance(expected, np.ndarray):
            assert result.tobytes() == expected.tobytes()
        else:
            assert result == expected

    def test_non_ascii_utf8_comment_is_read(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes("# caf\u00e9 \u2713\n10,20,4,6\n".encode("utf-8"))
        assert read_trajectory(path) == [BoundingBox(12.0, 23.0, 4.0, 6.0)]
        kv = tmp_path / "m.cfg"
        kv.write_bytes("; r\u00e9glage\nn1 = 12\n".encode("utf-8"))
        assert read_kv_file(kv) == [(2, "n1", "12")]


# Byte-level tokens for reader inputs: keys, headers, numbers, separators,
# comments, a byte-order mark, a lone continuation byte and 0xff.
input_tokens = st.sampled_from(
    [b"=", b" ", b",", b"\t", b"\n", b"\r\n", b"#", b";", b"-", b".", b"e", b"nan", b"inf"]
    + [b"n1", b"n2", b"theta", b"lambda_ema", b"frame_count", b"waypoint", b"occlusion"]
    + [b"target_size", b"map_size", b"seed", b"overall", b"fast", b"a/b", b"frame,cx,cy,w,h"]
    + [str(n).encode() for n in (0, 1, 2, 5, 12, 40, 10**30)]
    + [BOM, b"\x80", b"\xff", "\u00e9".encode()]
)
input_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(input_tokens, max_size=60).map(b"".join),
    st.text(max_size=60).map(lambda text: text.encode("utf-8")),
)


@pytest.mark.parametrize("reader", [read_trajectory_rows, read_grid_csv, read_kv_file,
                                    scenario_from_file, motion_params_from_file,
                                    read_attribute_groups, read_feature_map,
                                    read_projection_weights])
@settings(max_examples=150, deadline=None)
@given(data=input_bytes)
def test_any_bytes_parse_or_raise_config_error(tmp_path_factory, reader, data):
    path = tmp_path_factory.getbasetemp() / f"any_bytes_{reader.__name__}.bin"
    path.write_bytes(data)
    try:
        reader(path)
    except ConfigError:
        pass


class TestTraceAndGrids:
    def test_trace_format(self):
        data = trace_csv(np.array([9.25, 4.5]), [1.0, 0.5], ["warmup", "low"])
        lines = data.decode().splitlines()
        assert lines[0] == "frame,psr,npsr,branch"
        assert lines[1] == "1,9.25,1.0,warmup"
        assert lines[2] == "2,4.5,0.5,low"

    def test_trace_columns_must_have_equal_lengths(self):
        with pytest.raises(ValueError):
            trace_csv([9.25, 4.5], [1.0], ["warmup", "low"])

    @pytest.mark.parametrize("rows", [np.zeros((3, 5)), np.zeros(4), np.zeros((2, 2, 4))])
    def test_trajectory_rows_must_be_n_by_4(self, rows):
        with pytest.raises(ValueError, match=r"must be \(N, 4\)"):
            trajectory_csv(rows)

    def test_grid_round_trip_exact(self, tmp_path):
        grid = np.random.default_rng(52).normal(size=(7, 9))
        path = tmp_path / "grid.csv"
        path.write_bytes(grid_csv(grid))
        assert np.array_equal(read_grid_csv(path), grid)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
    def test_empty_grid_is_not_written(self, shape):
        with pytest.raises(ValueError, match=rf"got shape \({shape[0]}, {shape[1]}\)"):
            grid_csv(np.zeros(shape))

    def test_ragged_grid_rejected(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ConfigError, match="ragged"):
            read_grid_csv(path)

    def test_non_numeric_cell_reports_path_and_line(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("1,2,3\n\n4,x,6\n")
        with pytest.raises(ConfigError, match=r"grid\.csv:3: non-numeric grid cell 'x'"):
            read_grid_csv(path)

    def test_pgm_layout(self):
        data = pgm(np.array([[0.0, 1.0], [0.5, 0.25]]))
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n") :] == bytes([0, 255, 128, 64])

    def test_pgm_clips_out_of_range(self):
        assert pgm(np.array([[-0.5, 2.0]])).endswith(bytes([0, 255]))


# The line builders each CSV writer had of its own before they shared
# ``formats._table``: the oracles of the bytes the encoders return.


def oracle_trajectory_text(rows) -> str:
    lines = ["frame,cx,cy,w,h"]
    lines += [
        f"{frame},{cx!r},{cy!r},{w!r},{h!r}"
        for frame, (cx, cy, w, h) in enumerate(np.asarray(rows, dtype=float).tolist(), start=1)
    ]
    return "\n".join(lines) + "\n"


def oracle_trace_text(psr, npsr, branch) -> str:
    psr = np.asarray(psr, dtype=float).tolist()
    npsr = np.asarray(npsr, dtype=float).tolist()
    lines = ["frame,psr,npsr,branch"]
    lines += [
        f"{frame},{value!r},{normalized!r},{label}"
        for frame, (value, normalized, label) in enumerate(zip(psr, npsr, branch), start=1)
    ]
    return "\n".join(lines) + "\n"


def oracle_grid_text(grid) -> str:
    lines = [",".join(repr(float(v)) for v in row) for row in np.asarray(grid, dtype=float)]
    return "\n".join(lines) + "\n"


def oracle_curves_text(result) -> str:
    lines = ["curve,threshold,value"]
    for name, thresholds, values in (
        ("precision", PRECISION_THRESHOLDS, result.precision),
        ("norm_precision", NORM_PRECISION_THRESHOLDS, result.norm_precision),
        ("success", SUCCESS_THRESHOLDS, result.success),
    ):
        for tau, value in zip(thresholds, values):
            lines.append(f"{name},{float(tau)!r},{float(value)!r}")
    return "\n".join(lines) + "\n"


EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 3.0, -7.0, 1e16, 1e-5, 0.1)
any_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False))
finite_floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
sizes = st.one_of(  # a box's w and h: finite and > 0
    st.sampled_from((5e-324, 1e308, 3.0, 0.1)),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
BRANCHES = st.sampled_from(["warmup", "low", "high", "raw"])


def float_bytes(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


class TestTableWriters:
    """Each CSV encoder returns the bytes of its old line builder, and what
    it returns reads back bitwise; columns of unequal lengths are an error."""

    @settings(max_examples=100, deadline=None)
    @example(rows=[])
    @example(rows=[(-0.0, 1e308, 5e-324, 3.0), (1e16, -5e-324, 1e308, 0.1)])
    @given(rows=st.lists(st.tuples(finite_floats, finite_floats, sizes, sizes), max_size=8))
    def test_trajectory_bytes_match_the_oracle(self, tmp_path_factory, rows):
        rows = np.array(rows, dtype=float).reshape(-1, 4)
        data = trajectory_csv(rows)
        assert data == oracle_trajectory_text(rows).encode()
        if len(rows):  # a file of no rows is not a trajectory
            path = tmp_path_factory.mktemp("traj") / "t.csv"
            path.write_bytes(data)
            assert read_trajectory_rows(path).tobytes() == rows.tobytes()

    @settings(max_examples=100, deadline=None)
    @example(trace=[])
    @example(trace=[(-0.0, 5e-324, "warmup"), (1e308, 3.0, "high")])
    @given(trace=st.lists(st.tuples(any_floats, any_floats, BRANCHES), max_size=8))
    def test_trace_bytes_match_the_oracle(self, trace):
        psr, npsr, branch = ([row[k] for row in trace] for k in range(3))
        data = trace_csv(psr, npsr, branch)
        assert data == oracle_trace_text(psr, npsr, branch).encode()
        header, *lines = data.decode().splitlines()
        fields = [line.split(",") for line in lines]
        assert header == "frame,psr,npsr,branch"
        assert [f[0] for f in fields] == [str(k) for k in range(1, len(trace) + 1)]
        assert float_bytes([float(f[1]) for f in fields]) == float_bytes(psr)
        assert float_bytes([float(f[2]) for f in fields]) == float_bytes(npsr)
        assert [f[3] for f in fields] == branch

    @settings(max_examples=50, deadline=None)
    @given(curves=st.tuples(*(hnp.arrays(float, n, elements=any_floats) for n in (51, 51, 21))))
    def test_curves_bytes_match_the_oracle(self, curves):
        result = EvalResult(*curves, p5=0.0, p20=0.0, np05=0.0, success_auc=0.0, frame_count=1)
        data = curves_csv(result)
        assert data == oracle_curves_text(result).encode()
        fields = [line.split(",") for line in data.decode().splitlines()[1:]]
        thresholds = np.concatenate(
            (PRECISION_THRESHOLDS, NORM_PRECISION_THRESHOLDS, SUCCESS_THRESHOLDS)
        )
        assert float_bytes([float(f[1]) for f in fields]) == float_bytes(thresholds)
        assert float_bytes([float(f[2]) for f in fields]) == float_bytes(np.concatenate(curves))

    @pytest.mark.parametrize("shape", [(3, 20000), (20000, 3), (1, 5000), (5000, 1), (1, 1)])
    def test_wide_and_tall_grid_bytes_match_the_oracle(self, shape):
        grid = np.random.default_rng(57).standard_normal(shape)
        grid.flat[::11] = np.resize(EDGE_FLOATS + (np.inf, -np.inf, np.nan), grid.flat[::11].size)
        assert grid_csv(grid) == oracle_grid_text(grid).encode()

    @pytest.mark.parametrize(
        "encode",
        [
            lambda: _table(None, [[1.0, 2.0], [3.0]]),
            lambda: _table("a,b", [range(3), np.zeros(2)]),
            lambda: trace_csv([9.25, 4.5], [1.0, 0.5], ["warmup"]),
            lambda: curves_csv(  # a 50-point precision curve
                EvalResult(np.zeros(50), np.zeros(51), np.zeros(21), 0.0, 0.0, 0.0, 0.0, 1)
            ),
        ],
    )
    def test_unequal_columns_raise_and_write_nothing(self, encode):
        with pytest.raises(ValueError, match="equal lengths"):
            encode()

    def test_float_arrays_as_repr_other_columns_as_str(self):
        columns = [np.arange(2), np.array([3.0, -0.0]), [5e-324, 1e16], ["a", "b"]]
        data = _table("i,x,y,label", columns)
        assert data == b"i,x,y,label\n0,3.0,5e-324,a\n1,-0.0,1e+16,b\n"


# Where the encoder's notation switches: the ends of [1e-4, 1e16), their
# neighbours, zeros, subnormals, the extremes and the non-finite values.
ENCODER_EDGES = (
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, 9.999999999999999e-05, 1e-4, 1.0000000000000002e-4, -1e-4, 0.1, 1.0, -1.5,
    1e15, 1e16, -1e16, 9999999999999998.0, -9999999999999998.0, 1.0000000000000002e16,
    123456789012345.67, 0.30000000000000004,
)


def repr_texts(values) -> list[str]:
    """The oracle: Python's shortest round-trip ``repr`` of each value."""
    return list(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def from_bits(bits) -> np.ndarray:
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


class TestFloatTexts:
    """``_float_texts`` writes each value as ``repr`` does, whatever its bits."""

    @settings(max_examples=200, deadline=None)
    @example(bits=[])
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=40))
    def test_any_bit_pattern_is_its_repr(self, bits):
        values = from_bits(bits)
        assert _float_texts(values) == repr_texts(values)

    def test_a_seeded_sweep_is_repr(self):
        rng = np.random.default_rng(24)
        # random bit patterns are mostly far outside [1e-4, 1e16); the
        # log-uniform magnitudes put most values inside it
        bits = from_bits(rng.integers(0, 2**64 - 1, 200_000, dtype=np.uint64, endpoint=True))
        scaled = 10.0 ** rng.uniform(-6.0, 18.0, 200_000) * rng.choice([-1.0, 1.0], 200_000)
        for values in (bits, scaled, np.round(scaled, 3)):
            assert _float_texts(values) == repr_texts(values)

    def test_edges_are_repr(self):
        values = np.array(ENCODER_EDGES)
        assert _float_texts(values) == repr_texts(values)
        assert _float_texts(values[::-1]) == repr_texts(values[::-1])
        for value in ENCODER_EDGES:  # alone, and beside an in-range value
            assert _float_texts(np.array([value])) == [repr(value)]
            assert _float_texts(np.array([value, 0.5])) == [repr(value), "0.5"]

    def test_float32_is_written_as_its_float64_value(self):
        values = np.array([0.1, 1e-5, 3.4028235e38, -0.0], dtype=np.float32)
        assert _float_texts(values) == repr_texts(values.astype(np.float64))
        assert _float_texts(values)[0] == "0.10000000149011612"

    def test_a_non_contiguous_view_is_read_as_its_values(self):
        grid = np.arange(12, dtype=float).reshape(3, 4) / 7.0
        for view in (grid[:, 1], grid.T[2], grid[::2, ::-1].ravel(), grid.T):
            assert _float_texts(view) == repr_texts(np.ravel(view))

    def test_table_of_mixed_columns_is_the_repr_oracle(self):
        rng = np.random.default_rng(7)
        columns = [
            range(1, 7),
            from_bits(rng.integers(0, 2**64 - 1, 6, dtype=np.uint64, endpoint=True)),
            ["a", "b", "c", "d", "e", "f"],
            np.array(ENCODER_EDGES[:6], dtype=np.float32),
            np.arange(6, dtype=np.int64),
            [0.5, -0.0, 1e-7, 2.0, math.nan, 1e17],  # a list of floats: str is repr
            rng.uniform(0, 500, (6, 2))[:, 1],  # a non-contiguous view
            np.array(ENCODER_EDGES[-6:]),
        ]
        cells = [
            repr_texts(c) if isinstance(c, np.ndarray) and c.dtype.kind == "f"
            else [str(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
            for c in columns
        ]
        expected = "".join(",".join(row) + "\n" for row in zip(*cells))
        assert _table(None, columns) == expected.encode()
        assert _table("h", [np.array([], dtype=float), []]) == b"h\n"
        assert _table("h", [range(2), ["x", "y"]]) == b"h\n0,x\n1,y\n"


class TestRoundTripProperties:
    """Exact round trips: what a writer writes, its reader gives back bitwise."""

    @settings(max_examples=150, deadline=None)
    @example(grid=np.array([[-0.0, 0.0, -np.inf], [np.inf, -5e-324, 1.7976931348623157e308]]))
    @given(grid=hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                           elements=st.floats(allow_nan=False)))
    def test_grid_csv_round_trip_is_bitwise(self, tmp_path_factory, grid):
        data = grid_csv(grid)
        assert data == oracle_grid_text(grid).encode()
        path = tmp_path_factory.mktemp("grid") / "grid.csv"
        path.write_bytes(data)
        loaded = read_grid_csv(path)
        assert loaded.dtype == float and loaded.shape == grid.shape
        assert loaded.tobytes() == grid.tobytes()  # -0.0 and inf included

    @settings(max_examples=150, deadline=None)
    @example(tensor=np.array([[[-0.0, 0.0, -1e-45]], [[1e-45, 3.4028235e38, -3.4028235e38]]],
                             dtype=np.float32))
    @given(tensor=hnp.arrays(np.float32, hnp.array_shapes(min_dims=3, max_dims=3, max_side=6),
                             elements=st.floats(allow_nan=False, allow_infinity=False, width=32)))
    def test_feature_map_round_trip_is_bitwise(self, tmp_path_factory, tensor):
        path = tmp_path_factory.mktemp("feat") / "feat.bin"
        values = tensor.astype(float)  # float32-representable float64 values
        write_feature_map(path, values)
        loaded = read_feature_map(path)
        assert loaded.dtype == float and loaded.shape == values.shape
        assert loaded.tobytes() == values.tobytes()  # -0.0 and subnormals included


def scenario_text(config: ScenarioConfig) -> str:
    """A scenario as a key = value file, every float in its repr."""
    lines = [f"frame_count = {config.frame_count}"]
    lines += [f"waypoint = {frame} {cx!r} {cy!r}" for frame, cx, cy in config.waypoints]
    lines += [f"occlusion = {start} {end}" for start, end in config.occlusions]
    lines += [
        "target_size = {!r} {!r}".format(*config.target_size),
        "map_size = {} {}".format(*config.map_size),
        f"peak_sharpness = {config.peak_sharpness!r}",
        f"distractor_count = {config.distractor_count}",
        f"noise_sigma = {config.noise_sigma!r}",
        f"cell_scale = {config.cell_scale!r}",
        f"seed = {config.seed}",
    ]
    return "\n".join(lines) + "\n"


finite_or_zero = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def scenario_configs(draw):
    frames = draw(st.integers(1, 10_000))
    inner = draw(st.lists(st.integers(1, frames), max_size=4))
    coordinates = st.tuples(finite_or_zero, finite_or_zero)
    waypoints = tuple((f, *draw(coordinates)) for f in sorted({1, frames, *inner}))
    cuts = sorted(draw(st.lists(st.integers(1, frames), unique=True, max_size=6)))
    return ScenarioConfig(
        frame_count=frames,
        waypoints=waypoints,
        target_size=(draw(positive), draw(positive)),
        occlusions=tuple(zip(cuts[::2], cuts[1::2])),
        # a config rejects a sharpness whose 2 * s * s, the profiles' divisor, is 0
        peak_sharpness=draw(positive.filter(lambda s: 2.0 * s * s > 0)),
        distractor_count=draw(st.integers(0, 10**6)),
        noise_sigma=draw(st.floats(min_value=0.0, allow_infinity=False)),
        # a config rejects 3x3: a centre peak leaves no PSR sidelobe
        map_size=draw(
            st.tuples(st.integers(3, 10**6), st.integers(3, 10**6)).filter(lambda s: s != (3, 3))
        ),
        cell_scale=draw(positive),
        seed=draw(st.integers(0, 2**64)),
    )


@st.composite
def motion_params(draw):
    n2 = draw(st.integers(1, 10**6))
    return MotionParams(
        n1=2 * n2 + draw(st.integers(1, 10**6)),
        n2=n2,
        theta=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        lambda_ema=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def projection_weights(draw):
    reduced = draw(st.integers(1, 3))
    channels = reduced * draw(st.integers(1, 3))

    def array(*shape):
        return draw(hnp.arrays(float, shape, elements=finite_or_zero))

    def bias(size):
        return draw(st.none() | st.just(size).map(array))

    return ProjectionWeights(
        w_q=array(reduced, channels), w_k=array(reduced, channels),
        w_v=array(channels, channels), gamma=draw(finite_or_zero),
        b_q=bias(reduced), b_k=bias(reduced), b_v=bias(channels),
    )


class TestConfigRoundTrips:
    """Exact round trips of the key = value files and the weights bundle."""

    @settings(max_examples=150, deadline=None)
    @given(config=scenario_configs())
    def test_scenario_file_round_trip(self, tmp_path_factory, config):
        path = tmp_path_factory.mktemp("scenario") / "s.cfg"
        path.write_text(scenario_text(config))
        loaded = scenario_from_file(path)
        assert loaded == config
        assert repr(loaded) == repr(config)  # -0.0 and the int/float kinds included

    @settings(max_examples=150, deadline=None)
    @given(params=motion_params())
    def test_motion_file_round_trip(self, tmp_path_factory, params):
        path = tmp_path_factory.mktemp("motion") / "m.cfg"
        path.write_text(
            f"n1 = {params.n1}\nn2 = {params.n2}\n"
            f"theta = {params.theta!r}\nlambda_ema = {params.lambda_ema!r}\n"
        )
        loaded = motion_params_from_file(path)
        assert loaded == params and repr(loaded) == repr(params)

    @settings(max_examples=100, deadline=None)
    @example(weights=ProjectionWeights(
        w_q=np.array([[-0.0, 5e-324]]), w_k=np.array([[1.7976931348623157e308, 0.0]]),
        w_v=np.array([[-1.0, -0.0], [2.0, 3.0]]), gamma=-0.0, b_v=np.array([-0.0, 1.0]),
    ))
    @given(weights=projection_weights())
    def test_weights_round_trip_is_bitwise(self, tmp_path_factory, weights):
        path = tmp_path_factory.mktemp("weights") / "w.npz"
        write_projection_weights(path, weights)
        loaded = read_projection_weights(path)
        assert type(loaded.gamma) is float
        assert np.float64(loaded.gamma).tobytes() == np.float64(weights.gamma).tobytes()
        for name in ("w_q", "w_k", "w_v", "b_q", "b_k", "b_v"):
            ours, theirs = getattr(loaded, name), getattr(weights, name)
            if theirs is None:
                assert ours is None
            else:
                assert ours.dtype == float and ours.shape == theirs.shape
                assert ours.tobytes() == theirs.tobytes()


class TestTensorIO:
    def test_round_trip(self, tmp_path):
        tensor = np.random.default_rng(53).normal(size=(3, 4, 5)).astype(np.float32)
        path = tmp_path / "feat.bin"
        write_feature_map(path, tensor)
        loaded = read_feature_map(path)
        assert loaded.shape == (3, 4, 5)
        assert np.array_equal(loaded, tensor.astype(float))

    def test_header_is_little_endian_u32(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_feature_map(path, np.zeros((2, 3, 4)))
        header = path.read_bytes()[:12]
        assert header == (2).to_bytes(4, "little") + (3).to_bytes(4, "little") + (
            4
        ).to_bytes(4, "little")

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "feat.bin"
        write_feature_map(path, np.zeros((2, 3, 4)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ConfigError, match="header says"):
            read_feature_map(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "feat.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ConfigError, match="header"):
            read_feature_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell_rejected(self, tmp_path, bad):
        tensor = np.zeros((2, 3, 4), dtype=np.float32)
        tensor[1, 2, 0] = bad
        path = tmp_path / "feat.bin"
        path.write_bytes(feature_map_bytes(tensor))
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*\(1, 2, 0\).* not finite"):
            read_feature_map(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -3.5e38])
    def test_writer_refuses_a_cell_not_finite_in_float32(self, tmp_path, bad):
        tensor = np.zeros((2, 3, 4))
        tensor[1, 2, 0] = bad
        path = tmp_path / "feat.bin"
        message = rf"^{re.escape(str(path))}: feature-map cell \(1, 2, 0\) is not finite in float32"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy cast warning either
            with pytest.raises(ValueError, match=message):
                write_feature_map(path, tensor)
        assert list(tmp_path.iterdir()) == []

    def test_weights_round_trip_with_bias(self, tmp_path):
        weights = with_biases(init_projection_weights(8, seed=5, gamma=0.75), seed=5)
        path = tmp_path / "weights.npz"
        write_projection_weights(path, weights)
        loaded = read_projection_weights(path)
        assert np.array_equal(loaded.w_q, weights.w_q)
        assert np.array_equal(loaded.w_k, weights.w_k)
        assert np.array_equal(loaded.w_v, weights.w_v)
        assert np.array_equal(loaded.b_q, weights.b_q)
        assert loaded.gamma == 0.75

    def test_weights_round_trip_without_bias(self, tmp_path):
        weights = init_projection_weights(4, seed=6)
        path = tmp_path / "weights.npz"
        write_projection_weights(path, weights)
        loaded = read_projection_weights(path)
        assert loaded.b_q is None and loaded.b_k is None and loaded.b_v is None


class TestWeightsValidation:
    @pytest.fixture
    def arrays(self):
        weights = with_biases(init_projection_weights(8, seed=5, gamma=0.75), seed=5)
        return {
            "w_q": weights.w_q, "w_k": weights.w_k, "w_v": weights.w_v,
            "gamma": np.array(0.75), "b_q": weights.b_q, "b_k": weights.b_k, "b_v": weights.b_v,
        }

    def write(self, tmp_path, arrays):
        path = tmp_path / "weights.npz"
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        return path

    def test_complete_bundle_loads(self, tmp_path, arrays):
        assert read_projection_weights(self.write(tmp_path, arrays)).gamma == 0.75

    @pytest.mark.parametrize("key", ["w_q", "w_k", "w_v", "gamma"])
    def test_missing_array_rejected(self, tmp_path, arrays, key):
        del arrays[key]
        with pytest.raises(ConfigError, match=rf"weights\.npz: missing array '{key}'"):
            read_projection_weights(self.write(tmp_path, arrays))

    def test_unknown_array_rejected(self, tmp_path, arrays):
        arrays["w_x"] = np.zeros(3)
        with pytest.raises(ConfigError, match=r"weights\.npz: unknown array 'w_x'"):
            read_projection_weights(self.write(tmp_path, arrays))

    @pytest.mark.parametrize("gamma", [np.zeros(2), np.zeros((1, 1)), np.array(np.nan)])
    def test_gamma_must_be_one_finite_number(self, tmp_path, arrays, gamma):
        arrays["gamma"] = gamma
        with pytest.raises(ConfigError, match=r"weights\.npz: .*gamma"):
            read_projection_weights(self.write(tmp_path, arrays))

    @pytest.mark.parametrize(
        "key, value",
        [("w_k", np.zeros((3, 8))), ("w_v", np.zeros((8, 4))), ("b_v", np.zeros(3)),
         ("w_q", np.array([["a"] * 8] * 2)), ("w_v", np.full((8, 8), np.inf))],
    )
    def test_bad_array_rejected(self, tmp_path, arrays, key, value):
        arrays[key] = value
        with pytest.raises(ConfigError, match=r"weights\.npz: "):
            read_projection_weights(self.write(tmp_path, arrays))

    @pytest.mark.parametrize(
        "data", [b"", b"not a zip archive", b"PK\x03\x04 truncated", b"\x93NUMPY\x01\x00"]
    )
    def test_non_npz_file_rejected(self, tmp_path, data):
        path = tmp_path / "weights.npz"
        path.write_bytes(data)
        with pytest.raises(ConfigError, match=r"weights\.npz: not a weights \.npz"):
            read_projection_weights(path)

    def test_every_single_byte_corruption_loads_or_is_config_error(self, tmp_path):
        weights = with_biases(init_projection_weights(4, seed=2, gamma=0.5), seed=2)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, w_q=weights.w_q, w_k=weights.w_k, w_v=weights.w_v,
                            gamma=np.array(0.5), b_v=weights.b_v)
        intact = buffer.getvalue()
        path = tmp_path / "weights.npz"
        for offset in range(len(intact)):
            corrupted = bytearray(intact)
            corrupted[offset] ^= 0xFF
            path.write_bytes(bytes(corrupted))
            try:
                read_projection_weights(path)
            except ConfigError as exc:
                assert str(exc).startswith(f"{path}: ")

    def test_plain_npy_array_rejected(self, tmp_path):
        path = tmp_path / "weights.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        with pytest.raises(ConfigError, match=r"weights\.npz: not a weights \.npz"):
            read_projection_weights(path)


class TestScenarioConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "scenario.cfg"
        path.write_text(text)
        return path

    def test_full_config(self, tmp_path):
        path = self.write(
            tmp_path,
            """
            # synthetic pass over the parking lot
            frame_count = 400
            waypoint = 1 30 40
            waypoint = 400 150 120
            target_size = 12 8
            occlusion = 240 275
            peak_sharpness = 1.0
            distractor_count = 3
            noise_sigma = 0.02
            map_size = 25 25
            cell_scale = 8
            seed = 7
            """,
        )
        config = scenario_from_file(path)
        assert config.frame_count == 400
        assert config.waypoints == ((1, 30.0, 40.0), (400, 150.0, 120.0))
        assert config.occlusions == ((240, 275),)
        assert config.target_size == (12.0, 8.0)
        assert config.seed == 7

    def test_defaults_fill_optional_keys(self, tmp_path):
        path = self.write(
            tmp_path,
            "frame_count = 10\nwaypoint = 1 0 0\nwaypoint = 10 5 5\ntarget_size = 4 4\n",
        )
        config = scenario_from_file(path)
        assert config.distractor_count == 3
        assert config.map_size == (25, 25)
        assert config.occlusions == ()

    def test_missing_required_key(self, tmp_path):
        path = self.write(tmp_path, "frame_count = 10\nwaypoint = 1 0 0\n")
        with pytest.raises(ConfigError, match="target_size"):
            scenario_from_file(path)

    def test_unknown_key_reports_location(self, tmp_path):
        path = self.write(tmp_path, "frame_count = 10\nwobble = 3\n")
        with pytest.raises(ConfigError, match=r"scenario\.cfg:2: unknown"):
            scenario_from_file(path)

    def test_duplicate_scalar_rejected(self, tmp_path):
        path = self.write(
            tmp_path,
            "frame_count = 10\nframe_count = 20\nwaypoint = 1 0 0\ntarget_size = 4 4\n",
        )
        with pytest.raises(ConfigError, match="duplicate"):
            scenario_from_file(path)

    def test_bad_number_reports_key(self, tmp_path):
        path = self.write(tmp_path, "frame_count = soon\n")
        with pytest.raises(ConfigError, match="'frame_count' needs a int"):
            scenario_from_file(path)

    def test_semantic_error_wrapped(self, tmp_path):
        # waypoints not reaching frame_count: caught by ScenarioConfig itself
        path = self.write(
            tmp_path,
            "frame_count = 10\nwaypoint = 1 0 0\nwaypoint = 5 2 2\ntarget_size = 4 4\n",
        )
        with pytest.raises(ConfigError, match="end at frame"):
            scenario_from_file(path)

    def test_missing_equals_sign(self, tmp_path):
        path = self.write(tmp_path, "frame_count 10\n")
        with pytest.raises(ConfigError, match="key = value"):
            scenario_from_file(path)


class TestNumberLists:
    # number-like fragments, so the parser's success path is reached too
    fragments = st.one_of(
        st.integers(-10**6, 10**6).map(str),
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["nan", "inf", "-inf", "1_000", "1e400", "9" * 5000, "0x10", ""]),
        st.text(max_size=8),
    )
    texts = st.one_of(
        st.text(), st.lists(fragments, max_size=6).map(lambda parts: ", ".join(parts))
    )

    @settings(max_examples=400, deadline=None)
    @given(text=texts, kinds=st.lists(st.sampled_from([int, float]), max_size=5).map(tuple))
    def test_returns_the_kinds_or_raises_config_error(self, text, kinds):
        try:
            values = _parse_numbers(text, kinds, "--flag")
        except ConfigError as exc:
            assert str(exc).startswith("--flag ")
            return
        assert len(values) == len(kinds)
        for value, kind in zip(values, kinds):
            assert type(value) is kind
            assert math.isfinite(value)

    def test_mixed_kinds_and_separators(self):
        assert _parse_numbers(" 3, 4.5 6", (int, float, float), "w") == (3, 4.5, 6.0)

    @pytest.mark.parametrize(
        "text, message",
        [("1 2", "--x needs 3 values, got 2"), ("1 x 3", "--x needs a int, got 'x'"),
         ("1 2 nan", "--x needs a int, got 'nan'")],
    )
    def test_errors_start_with_the_source(self, text, message):
        with pytest.raises(ConfigError) as info:
            _parse_numbers(text, (int,) * 3, "--x")
        assert str(info.value).startswith(message)


class TestMotionParamsFile:
    def test_overrides_and_defaults(self, tmp_path):
        path = tmp_path / "motion.cfg"
        path.write_text("n1 = 30\ntheta = 0.4\n; comment\n")
        params = motion_params_from_file(path)
        assert params.n1 == 30
        assert params.theta == 0.4
        assert params.n2 == 10
        assert params.lambda_ema == 0.7

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "motion.cfg"
        path.write_text("n3 = 5\n")
        with pytest.raises(ConfigError, match="unknown motion key"):
            motion_params_from_file(path)

    def test_constraint_violation_wrapped(self, tmp_path):
        path = tmp_path / "motion.cfg"
        path.write_text("n1 = 10\nn2 = 10\n")
        with pytest.raises(ConfigError, match="n1"):
            motion_params_from_file(path)


class TestAttributeGroups:
    def test_parses_comma_or_space(self, tmp_path):
        path = tmp_path / "groups.cfg"
        path.write_text("occlusion = car-01, car-02\nclean = car-03 car-04\n")
        groups = read_attribute_groups(path)
        assert groups == {
            "occlusion": ["car-01", "car-02"],
            "clean": ["car-03", "car-04"],
        }

    def test_duplicate_group_rejected(self, tmp_path):
        path = tmp_path / "groups.cfg"
        path.write_text("g = a\ng = b\n")
        with pytest.raises(ConfigError, match="duplicate group"):
            read_attribute_groups(path)

    def test_empty_group_rejected(self, tmp_path):
        path = tmp_path / "groups.cfg"
        path.write_text("g =\n")
        with pytest.raises(ConfigError, match="no members"):
            read_attribute_groups(path)

    @pytest.mark.parametrize("members", ["a a b", "a, b, a", "b a,a"])
    def test_repeated_member_rejected(self, tmp_path, members):
        path = tmp_path / "groups.cfg"
        path.write_text(f"ok = a b\ngrp = {members}\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: group 'grp' lists 'a' twice$"):
            read_attribute_groups(path)

    def test_overall_rejected(self, tmp_path):
        path = tmp_path / "groups.cfg"
        path.write_text("# groups\noverall = a b\n")
        with pytest.raises(ConfigError, match=r"groups\.cfg:2: .*'overall'"):
            read_attribute_groups(path)

    @pytest.mark.parametrize("name", ["../../escaped", "x/y", "a.b", "a b", "a\\b", "\u00e9t\u00e9"])
    def test_unsafe_names_rejected(self, tmp_path, name):
        path = tmp_path / "groups.cfg"
        path.write_text(f"{name} = a\n")
        with pytest.raises(ConfigError, match=r"groups\.cfg:1: "):
            read_attribute_groups(path)

    def test_safe_charset_accepted(self, tmp_path):
        path = tmp_path / "groups.cfg"
        path.write_text("Fast_Motion-2 = a\n")
        assert read_attribute_groups(path) == {"Fast_Motion-2": ["a"]}


class TestEvalOutputs:
    def result(self):
        gt = [BoundingBox(10.0 + k, 20.0, 6.0, 6.0) for k in range(10)]
        pred = [BoundingBox(12.0 + k, 20.0, 6.0, 6.0) for k in range(10)]
        return evaluate(pred, gt)

    def test_summary_keys(self):
        summary = result_summary(self.result())
        assert sorted(summary) == ["frame_count", "np05", "p20", "p5", "success_auc"]

    def test_json_is_sorted_and_parseable(self):
        loaded = json.loads(json_bytes(result_summary(self.result())))
        assert list(loaded) == sorted(loaded)
        assert loaded["p5"] == 1.0

    def test_curves_csv_has_all_rows(self):
        lines = curves_csv(self.result()).decode().splitlines()
        assert lines[0] == "curve,threshold,value"
        assert len(lines) == 1 + 51 + 51 + 21
        assert lines[1].startswith("precision,0.0,")
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"precision", "norm_precision", "success"}


@pytest.fixture(params=["swap", "replace"])
def replace_way(request, monkeypatch):
    """Run a test with both ways of replacing an existing file: the
    ``renameat2`` swap (skipped where the C library has none), and
    ``os.replace`` alone, with the handle set to ``None``."""
    if request.param == "replace":
        monkeypatch.setattr(formats, "_RENAMEAT2", None)
    elif formats._RENAMEAT2 is None:
        pytest.skip("the C library has no renameat2")
    return request.param


def failing_renameat2(code):
    """A stand-in for the ``renameat2`` handle that fails with ``code``."""
    def renameat2(*args):
        ctypes.set_errno(code)
        return -1
    return renameat2


class TestAtomicWrites:
    def test_overwrite_gives_new_bytes_and_no_temp(self, tmp_path, replace_way):
        path = tmp_path / "out.bin"
        atomic_write_bytes(path, b"first, and longer\n")
        atomic_write_bytes(path, b"second\n")
        assert path.read_bytes() == b"second\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_directory_target_is_refused_and_kept(self, tmp_path, replace_way):
        path = tmp_path / "out"
        path.mkdir()
        (path / "inside.txt").write_text("keep\n")
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_bytes(path, b"new\n")
        assert info.value.errno == errno.EISDIR
        assert (path / "inside.txt").read_text() == "keep\n"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_symlink_target_is_replaced_not_followed(self, tmp_path, replace_way):
        target = tmp_path / "target.txt"
        target.write_text("pointed to\n")
        path = tmp_path / "out.txt"
        path.symlink_to(target)
        atomic_write_bytes(path, b"new\n")
        assert not path.is_symlink() and path.read_text() == "new\n"
        assert target.read_text() == "pointed to\n"
        assert sorted(tmp_path.iterdir()) == [path, target]

    def test_failed_swap_raises_naming_the_path_and_keeps_original(self, tmp_path, monkeypatch):
        path = tmp_path / "out.txt"
        path.write_text("keep me\n")
        monkeypatch.setattr(formats, "_RENAMEAT2", failing_renameat2(errno.EACCES))
        with pytest.raises(PermissionError) as info:
            atomic_write_bytes(path, b"new\n")
        assert info.value.errno == errno.EACCES and info.value.filename == str(path)
        assert path.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("code", ["EINVAL", "ENOSYS", "EOPNOTSUPP", "ENOENT"])
    def test_unavailable_swap_falls_back_to_replace(self, tmp_path, monkeypatch, code):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        monkeypatch.setattr(formats, "_RENAMEAT2", failing_renameat2(getattr(errno, code)))
        atomic_write_bytes(path, b"new\n")
        assert path.read_text() == "new\n"
        assert list(tmp_path.iterdir()) == [path]

    @staticmethod
    def spy_on_renameat2(monkeypatch):
        """The calls to the real ``renameat2`` handle, recorded from now on
        as (old, new, flags, result)."""
        real, calls = formats._RENAMEAT2, []

        def spy(*args):
            result = real(*args)
            calls.append((os.fsdecode(args[1]), os.fsdecode(args[3]), args[4], result))
            return result

        monkeypatch.setattr(formats, "_RENAMEAT2", spy)
        return calls

    @pytest.mark.skipif(formats._RENAMEAT2 is None, reason="the C library has no renameat2")
    def test_existing_regular_file_is_swapped(self, tmp_path, monkeypatch):
        calls = self.spy_on_renameat2(monkeypatch)
        path = tmp_path / "out.txt"
        tmp = str(path.with_name(f".out.txt.tmp{os.getpid()}"))
        atomic_write_bytes(path, b"first\n")
        swap = (tmp, str(path), formats._RENAME_EXCHANGE)
        assert calls == [(*swap, -1)]  # nothing to swap with: os.replace moves it
        atomic_write_bytes(path, b"second\n")
        assert calls[1:] == [(*swap, 0)]
        assert path.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.skipif(formats._RENAMEAT2 is None, reason="the C library has no renameat2")
    def test_swapped_directory_is_swapped_back_before_the_refusal(self, tmp_path, monkeypatch):
        calls = self.spy_on_renameat2(monkeypatch)
        path = tmp_path / "out"
        path.mkdir()
        (path / "inside.txt").write_text("keep\n")
        with pytest.raises(IsADirectoryError) as info:
            atomic_write_bytes(path, b"new\n")
        tmp = str(path.with_name(f".out.tmp{os.getpid()}"))
        assert info.value.errno == errno.EISDIR and info.value.filename2 == str(path)
        assert calls == [(tmp, str(path), formats._RENAME_EXCHANGE, 0)] * 2
        assert (path / "inside.txt").read_text() == "keep\n"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_no_temp_residue(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_bytes(path, b"hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_bytes(path, b"first\n")
        atomic_write_bytes(path, b"second\n")
        assert path.read_text() == "second\n"

    def test_failed_write_keeps_original(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_bytes(path, b"keep me\n")
        with pytest.raises(ValueError):
            atomic_write_bytes(path, grid_csv(np.zeros((2, 2, 2))))  # 3-D grid is invalid
        assert path.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [path]