"""File format round-trips and configuration parsing errors."""

import io
import json
import re

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattrack import BoundingBox, evaluate, init_projection_weights
from sattrack.formats import (
    ConfigError,
    _parse_numbers,
    atomic_write_text,
    motion_params_from_file,
    read_attribute_groups,
    read_feature_map,
    read_grid_csv,
    read_projection_weights,
    read_trajectory,
    result_summary,
    scenario_from_file,
    write_curves_csv,
    write_feature_map,
    write_grid_csv,
    write_json,
    write_pgm,
    write_projection_weights,
    write_trace,
    write_trajectory,
)
from sattrack.scenario import TraceRow


class TestTrajectoryIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(51)
        boxes = [
            BoundingBox(*rng.uniform(1, 300, 2), *rng.uniform(0.5, 60, 2))
            for _ in range(20)
        ]
        path = tmp_path / "traj.csv"
        write_trajectory(path, boxes)
        assert read_trajectory(path) == boxes

    def test_output_is_byte_deterministic(self, tmp_path):
        boxes = [BoundingBox(1 / 3, 2 / 7, 9.25, np.pi)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trajectory(a, boxes)
        write_trajectory(b, boxes)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "frame,cx,cy,w,h"

    def test_frames_are_one_based(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(path, [BoundingBox(1.0, 2.0, 3.0, 4.0)] * 2)
        lines = path.read_text().splitlines()
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
        # from_corner folds w into cx and h into cy; the error must name the
        # field as the file has it, not the derived centre
        path = tmp_path / "c.txt"
        path.write_text(f"10,20,4,6\n{row}\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: box field {field} must be finite$"):
            read_trajectory(path)

    def test_center_format_frame_numbers_skip_comment_lines(self, tmp_path):
        path = tmp_path / "pred.csv"
        path.write_text("frame,cx,cy,w,h\n1,10,20,4,6\n# note\n\n2,11,20,4,6\n")
        assert [b.cx for b in read_trajectory(path)] == [10.0, 11.0]


class TestTraceAndGrids:
    def test_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace(path, [TraceRow(1, 9.25, 1.0, "warmup"), TraceRow(2, 4.5, 0.5, "low")])
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,psr,npsr,branch"
        assert lines[1] == "1,9.25,1.0,warmup"
        assert lines[2] == "2,4.5,0.5,low"

    def test_grid_round_trip_exact(self, tmp_path):
        grid = np.random.default_rng(52).normal(size=(7, 9))
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        assert np.array_equal(read_grid_csv(path), grid)

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

    def test_pgm_layout(self, tmp_path):
        grid = np.array([[0.0, 1.0], [0.5, 0.25]])
        path = tmp_path / "map.pgm"
        write_pgm(path, grid)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        assert data[len(b"P5\n2 2\n255\n") :] == bytes([0, 255, 128, 64])

    def test_pgm_clips_out_of_range(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_pgm(path, np.array([[-0.5, 2.0]]))
        assert path.read_bytes().endswith(bytes([0, 255]))


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
        write_feature_map(path, tensor)
        with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}: .*\(1, 2, 0\).* not finite"):
            read_feature_map(path)

    def test_weights_round_trip_with_bias(self, tmp_path):
        weights = init_projection_weights(8, seed=5, use_bias=True, gamma=0.75)
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
        weights = init_projection_weights(8, seed=5, use_bias=True, gamma=0.75)
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
        weights = init_projection_weights(4, seed=2, use_bias=True, gamma=0.5)
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

    def test_json_is_sorted_and_parseable(self, tmp_path):
        path = tmp_path / "summary.json"
        write_json(path, result_summary(self.result()))
        loaded = json.loads(path.read_text())
        assert list(loaded) == sorted(loaded)
        assert loaded["p5"] == 1.0

    def test_curves_csv_has_all_rows(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(path, self.result())
        lines = path.read_text().splitlines()
        assert lines[0] == "curve,threshold,value"
        assert len(lines) == 1 + 51 + 51 + 21
        assert lines[1].startswith("precision,0.0,")
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"precision", "norm_precision", "success"}


class TestAtomicWrites:
    def test_no_temp_residue(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_overwrite_replaces_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first\n")
        atomic_write_text(path, "second\n")
        assert path.read_text() == "second\n"

    def test_failed_write_keeps_original(self, tmp_path):
        path = tmp_path / "out.csv"
        atomic_write_text(path, "keep me\n")
        with pytest.raises(ValueError):
            write_grid_csv(path, np.zeros((2, 2, 2)))  # 3-D grid is invalid
        assert path.read_text() == "keep me\n"
        assert list(tmp_path.iterdir()) == [path]