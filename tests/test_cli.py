"""End-to-end command-line tests, run in-process through main(argv)."""

import contextlib
import io
import json
import os
import pickle
import shutil
import signal
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sattrack import cli, formats
from sattrack.cli import main
from sattrack.formats import ConfigError, read_feature_map, read_grid_csv
from sattrack import (
    attention_weights,
    enhance_features,
    init_projection_weights,
    project_qkv,
    template_saliency,
)
from sattrack import AspectRatioParams, BoundingBox, MotionParams, ScenarioConfig, TrackerState
from sattrack import generate_scenario, motion, normalized_psr, psr
from sattrack.motion import _branch_weights
from test_attention import with_biases
from test_formats import (
    feature_map_bytes, read_trajectory, scenario_from_file, scenario_text, write_feature_map,
    write_projection_weights,
)
from test_scenario import PIN_CONFIGS

CLEAN_SCENARIO = """\
frame_count = 120
waypoint = 1 30 40
waypoint = 120 150 120
target_size = 12 8
distractor_count = 0
noise_sigma = 0
seed = 0
"""

# fast constant-velocity pass with a long full occlusion; the target leaves
# the lost tracker's search window well before the occlusion lifts
OCCLUSION_SCENARIO = """\
frame_count = 400
waypoint = 1 40 50
waypoint = 400 1636 848
target_size = 12 8
occlusion = 240 275
seed = 0
"""


@pytest.fixture(autouse=True)
def isolated_env(monkeypatch):
    for name in ("GAMMA", "N1", "N2", "THETA", "LAMBDA_EMA", "SEED", "OMMR", "OUTPUT"):
        monkeypatch.delenv("SATTRACK_" + name, raising=False)


@pytest.fixture
def scenario_file(tmp_path):
    def write(text, name="scenario.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run_capturing_stderr(argv):
    """(exit code, stderr) of one in-process command, for tests under
    hypothesis, which cannot take the function-scoped capsys fixture."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def read_trace(path):
    rows = []
    for line in path.read_text().splitlines()[1:]:
        frame, psr_value, npsr, branch = line.split(",")
        rows.append((int(frame), float(psr_value), float(npsr), branch))
    return rows


# ---------------------------------------------------------------------------
# centerness-map


def test_centerness_square_box_maps_identical(tmp_path):
    out = tmp_path / "out"
    assert main(["centerness-map", "--box", "124,124,60,60", "--output", str(out)]) == 0
    constrained = read_grid_csv(out / "constrained.csv")
    classic = read_grid_csv(out / "classic.csv")
    assert np.array_equal(constrained, classic)
    labels = read_grid_csv(out / "labels.csv")
    assert set(np.unique(labels)) <= {0.0, 1.0}


def test_centerness_wide_box_concentrates_on_long_axis(tmp_path):
    out = tmp_path / "out"
    assert main(["centerness-map", "--box", "124,124,192,32", "--output", str(out)]) == 0
    constrained = read_grid_csv(out / "constrained.csv")
    classic = read_grid_csv(out / "classic.csv")
    # row 15 is the grid row through the box center (y = 4 + 15*8 = 124)
    assert constrained[15].sum() > classic[15].sum()


def test_centerness_gamma_monotone_on_principal_axis(tmp_path):
    rows = {}
    for gamma in ("0.25", "0.75"):
        out = tmp_path / f"g{gamma}"
        code = main(
            [
                "centerness-map",
                "--box",
                "124,124,192,32",
                "--gamma",
                gamma,
                "--output",
                str(out),
            ]
        )
        assert code == 0
        rows[gamma] = read_grid_csv(out / "constrained.csv")[15]
    assert (rows["0.75"] >= rows["0.25"] - 1e-15).all()


def test_centerness_writes_pgm_heatmaps(tmp_path):
    out = tmp_path / "out"
    main(["centerness-map", "--box", "100,100,40,40", "--output", str(out)])
    for name in ("constrained.pgm", "classic.pgm"):
        assert (out / name).read_bytes().startswith(b"P5\n25 25\n255\n")


def test_centerness_bad_box_is_config_error(tmp_path, capsys):
    code = main(["centerness-map", "--box", "1,2,3", "--output", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_centerness_box_off_the_grid_warns_once(tmp_path, capsys):
    for _ in range(2):  # the second run in one process warns as well
        argv = ["centerness-map", "--box", "1000,1000,10,10", "--output", str(tmp_path / "o")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            "warning: ground-truth box covers no grid point; all cells are negative\n"
        )
    assert not read_grid_csv(tmp_path / "o" / "labels.csv").any()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["centerness-map", "--box", "1,2,nan,4"], "--box needs a float, got 'nan'"),
        (["centerness-map", "--box", "1,2,3,inf"], "--box needs a float, got 'inf'"),
        (["centerness-map", "--box", "1,2,3,4", "--grid", "25,25"], "--grid needs 3 values"),
        (["attention-demo", "--search-size", "4,5,5.5"], "--search-size needs a int"),
        (["attention-demo", "--template-size", "3"], "--template-size needs 2 values"),
        (["attention-demo", "--mask", "1,2,x,3"], "--mask needs a int, got 'x'"),
    ],
)
def test_number_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    assert main(argv + ["--output", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_output_flag_required_without_env(scenario_file, capsys):
    code = main(["simulate", "--scenario", scenario_file(CLEAN_SCENARIO)])
    assert code == 1
    assert "SATTRACK_OUTPUT" in capsys.readouterr().err


@pytest.mark.parametrize("flag, env", [("", None), (None, ""), ("", "")])
def test_empty_output_is_unset_not_the_current_directory(
    scenario_file, tmp_path, monkeypatch, capsys, flag, env
):
    config = scenario_file(CLEAN_SCENARIO)
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    if env is not None:
        monkeypatch.setenv("SATTRACK_OUTPUT", env)
    argv = ["simulate", "--scenario", config] + ([] if flag is None else ["--output", flag])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: no output directory")
    assert list(work.iterdir()) == []


def test_empty_output_flag_falls_back_to_the_environment(scenario_file, tmp_path, monkeypatch):
    out = tmp_path / "env-out"
    monkeypatch.setenv("SATTRACK_OUTPUT", str(out))
    assert main(["simulate", "--scenario", scenario_file(CLEAN_SCENARIO), "--output", ""]) == 0
    assert (out / "ground_truth.csv").exists()


def test_output_env_variable_used(scenario_file, tmp_path, monkeypatch):
    out = tmp_path / "env-out"
    monkeypatch.setenv("SATTRACK_OUTPUT", str(out))
    assert main(["simulate", "--scenario", scenario_file(CLEAN_SCENARIO)]) == 0
    assert (out / "ground_truth.csv").exists()


# ---------------------------------------------------------------------------
# the output step

# Per subcommand, the first file it writes and a later one that a test puts
# a directory at.
OUTPUTS = {
    "centerness-map": ("constrained.csv", "classic.csv"),
    "simulate": ("ground_truth.csv", "raw_model.csv"),
    "track": ("trajectory.csv", "trace.csv"),
    "evaluate": ("summary.json", "curves.csv"),
    "attention-demo": ("enhanced.bin", "saliency.csv"),
}
COMMANDS = sorted(OUTPUTS)


@pytest.fixture
def commands(tmp_path, scenario_file):
    """Per subcommand, its arguments but ``--output``: ``(succeeds, fails on
    an input)``."""
    config, missing = scenario_file(CLEAN_SCENARIO), str(tmp_path / "missing.cfg")
    truth = tmp_path / "truth.csv"
    truth.write_bytes(formats.trajectory_csv([(30.0, 40.0, 12.0, 8.0)] * 3))
    return {
        "centerness-map": (["--box", "100,100,24,8"], ["--box", "1,2,3"]),
        "simulate": (["--scenario", config], ["--scenario", missing]),
        "track": (["--scenario", config], ["--scenario", config, "--n1", "500"]),
        "evaluate": (["--pred", str(truth), "--gt", str(truth)],
                     ["--pred", str(truth), "--gt", missing]),
        "attention-demo": (["--seed", "3"], ["--mask", "1,1,0,2"]),
    }


def assert_one_error_line(capsys, opening: str):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(opening) and captured.err.count("\n") == 1, captured.err
    assert ".tmp" not in captured.err


@pytest.mark.parametrize("source", ["--output", "SATTRACK_OUTPUT"])
@pytest.mark.parametrize("command", COMMANDS)
def test_an_output_at_or_under_a_regular_file_is_one_error_line(
    commands, tmp_path, monkeypatch, capsys, command, source
):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    argv = [command, *commands[command][0]]
    if source == "--output":
        out = afile
        argv += ["--output", str(out)]
    else:
        out = afile / "sub"
        monkeypatch.setenv("SATTRACK_OUTPUT", str(out))
    assert main(argv) == 1
    assert_one_error_line(capsys, f"error: {source}: cannot write {out}: ")
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_a_directory_at_an_output_name_is_one_error_line(commands, tmp_path, capsys, command):
    out = tmp_path / "out"
    written, target = OUTPUTS[command]
    (out / target).mkdir(parents=True)
    (out / target / "inside.txt").write_text("keep\n")
    assert main([command, *commands[command][0], "--output", str(out)]) == 1
    assert_one_error_line(capsys, f"error: --output: cannot write {out / target}: ")
    assert (out / target / "inside.txt").read_text() == "keep\n"
    assert (out / written).is_file()  # the files before the failed one stay written
    assert [path.name for path in out.iterdir() if ".tmp" in path.name] == []


@pytest.mark.skipif(
    hasattr(os, "geteuid") and os.geteuid() == 0, reason="permission bits do not stop root"
)
@pytest.mark.parametrize("command", COMMANDS)
def test_an_unwritable_output_directory_is_one_error_line(commands, tmp_path, capsys, command):
    out = tmp_path / "out"
    out.mkdir()
    out.chmod(0o500)
    try:
        assert main([command, *commands[command][0], "--output", str(out)]) == 1
        first = out / OUTPUTS[command][0]
        assert_one_error_line(capsys, f"error: --output: cannot write {first}: ")
        assert list(out.iterdir()) == []
    finally:
        out.chmod(0o700)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_failing_input_leaves_no_output_directory(commands, tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, *commands[command][1], "--output", str(out)]) == 1
    assert_one_error_line(capsys, "error: ")
    assert not out.exists()


INPUT_FLAGS = ["--scenario", "--params", "--pred", "--gt", "--attributes", "--search",
               "--template", "--weights"]


@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize("flag", INPUT_FLAGS)
def test_an_unreadable_input_is_one_error_line_naming_its_flag(
    tmp_path, scenario_file, capsys, flag, kind
):
    config = scenario_file(CLEAN_SCENARIO)
    truth = formats.trajectory_csv([(30.0, 40.0, 12.0, 8.0)] * 3)
    (tmp_path / "truth.csv").write_bytes(truth)
    suite = {}
    for name in ("pred", "gt"):
        suite[name] = tmp_path / name
        suite[name].mkdir()
        (suite[name] / "c.csv").write_bytes(truth)
    bad = tmp_path / "unreadable.cfg"
    argv = {
        "--scenario": ["track"],
        "--params": ["track", "--scenario", config],
        "--pred": ["evaluate", "--gt", str(tmp_path / "truth.csv")],
        "--gt": ["evaluate", "--pred", str(tmp_path / "truth.csv")],
        "--attributes": ["evaluate", "--pred", str(suite["pred"]), "--gt", str(suite["gt"])],
        "--search": ["attention-demo"],
        "--template": ["attention-demo"],
        "--weights": ["attention-demo"],
    }[flag] + [flag, str(bad)]
    if kind == "directory" and flag in ("--pred", "--gt"):
        # directory mode: a directory where one sequence's file should be
        bad = suite[flag[2:]] / "c.csv"
        bad.unlink()
        argv = ["evaluate", "--pred", str(suite["pred"]), "--gt", str(suite["gt"])]
    if kind == "directory":
        bad.mkdir()
    out = tmp_path / "out"
    assert main([*argv, "--output", str(out)]) == 1
    reason = "No such file or directory" if kind == "missing" else "Is a directory"
    assert capsys.readouterr().err == f"error: {flag}: cannot read {bad}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    ["--scenario", "--pred", "--gt", "--params", "--attributes", "--search", "--template",
     "--weights"],
)
def test_an_empty_input_path_is_an_error_naming_its_flag(
    scenario_file, tmp_path, monkeypatch, capsys, flag
):
    # Path("") is ".": the working directory must not be read in its place,
    # and an optional input given as "" is not the same as no input
    truth = tmp_path / "truth.csv"
    truth.write_bytes(formats.trajectory_csv([(30.0, 40.0, 12.0, 8.0)] * 3))
    work = tmp_path / "cwd"
    work.mkdir()
    (work / "c.csv").write_bytes(truth.read_bytes())
    monkeypatch.chdir(work)
    argv = {
        "--scenario": ["track"],
        "--pred": ["evaluate", "--gt", str(truth)],
        "--gt": ["evaluate", "--pred", str(truth)],
        "--params": ["track", "--scenario", scenario_file(CLEAN_SCENARIO)],
        "--attributes": ["evaluate", "--pred", str(truth), "--gt", str(truth)],
        "--search": ["attention-demo"],
        "--template": ["attention-demo"],
        "--weights": ["attention-demo"],
    }[flag]
    assert main([*argv, flag, "", "--output", "out"]) == 1
    assert capsys.readouterr() == ("", f"error: {flag}: empty path\n")
    assert [path.name for path in work.iterdir()] == ["c.csv"]


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_no_output_directory_fails_before_synthesis(commands, monkeypatch, capsys, command):
    calls = []
    monkeypatch.setattr(cli, "generate_scenario", calls.append)
    assert main([command, *commands[command][0]]) == 1
    assert_one_error_line(capsys, "error: no output directory: ")
    assert calls == []


# ---------------------------------------------------------------------------
# simulate


def test_simulate_two_frame_scenario(scenario_file, tmp_path):
    config = scenario_file(
        "frame_count = 2\nwaypoint = 1 10 10\nwaypoint = 2 12 10\ntarget_size = 6 6\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", config, "--output", str(out)]) == 0
    assert len(read_trajectory(out / "ground_truth.csv")) == 2
    assert len(read_trajectory(out / "raw_model.csv")) == 2
    summary = (out / "response_summary.csv").read_text().splitlines()
    assert summary[0] == "frame,occluded,peak_row,peak_col,peak_value,psr"
    assert len(summary) == 3


def test_simulate_summary_fields_are_plain_numbers(scenario_file, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", scenario_file(CLEAN_SCENARIO), "--output", str(out)]) == 0
    header, *rows = (out / "response_summary.csv").read_text().splitlines()
    kinds = (int, int, int, int, float, float)
    assert len(header.split(",")) == len(kinds)
    assert len(rows) == 120
    for row in rows:
        fields = row.split(",")
        assert len(fields) == len(kinds)
        for kind, field in zip(kinds, fields):
            kind(field)


def test_simulate_deterministic_outputs(scenario_file, tmp_path):
    config = scenario_file(CLEAN_SCENARIO)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["simulate", "--scenario", config, "--output", str(out)]) == 0
        outs.append(out)
    for filename in ("ground_truth.csv", "raw_model.csv", "response_summary.csv"):
        assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()


def test_the_noise_block_size_changes_no_byte(scenario_file, tmp_path, monkeypatch):
    # the noise is drawn block by block on the calling thread; simulate and
    # track (refinement on and off) write the same bytes whatever the block
    # size, and start no thread
    config = scenario_file(OCCLUSION_SCENARIO)  # 400 frames: seven noise blocks
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recorded)
    before = threading.active_count()
    outputs = {}
    for frames in (1, 64):
        monkeypatch.setattr("sattrack.scenario.BLOCK_FRAMES", frames)
        for name, argv in (("simulate", ["simulate"]), ("on", ["track"]),
                           ("off", ["track", "--ommr", "off"])):
            out = tmp_path / f"{name}-{frames}"
            assert main([*argv, "--scenario", config, "--output", str(out)]) == 0
            outputs[name, frames] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert threading.active_count() == before and not started
    for name in ("simulate", "on", "off"):
        assert outputs[name, 1] == outputs[name, 64]


def test_simulate_seed_flag_and_env_agree(scenario_file, tmp_path, monkeypatch):
    config = scenario_file(CLEAN_SCENARIO)
    flag_out, env_out, base_out = (tmp_path / n for n in ("flag", "env", "base"))
    assert main(["simulate", "--scenario", config, "--seed", "5", "--output", str(flag_out)]) == 0
    monkeypatch.setenv("SATTRACK_SEED", "5")
    assert main(["simulate", "--scenario", config, "--output", str(env_out)]) == 0
    monkeypatch.delenv("SATTRACK_SEED")
    assert main(["simulate", "--scenario", config, "--output", str(base_out)]) == 0
    assert (flag_out / "raw_model.csv").read_bytes() == (env_out / "raw_model.csv").read_bytes()
    assert (flag_out / "raw_model.csv").read_bytes() != (base_out / "raw_model.csv").read_bytes()


@pytest.mark.parametrize("cell_scale", ["1e-20", "1e-310"])
def test_tiny_cell_scale_loses_the_target_after_frame_one(scenario_file, tmp_path, cell_scale):
    # every offset but frame 1's is more cells than the map holds (1e-310:
    # an infinite number), so the window loses the target at once
    config = scenario_file(
        "frame_count = 20\nwaypoint = 1 10 10\nwaypoint = 20 30 10\ntarget_size = 6 6\n"
        f"distractor_count = 0\nnoise_sigma = 0\ncell_scale = {cell_scale}\n"
    )
    sim, track = tmp_path / "sim", tmp_path / "track"
    assert main(["simulate", "--scenario", config, "--output", str(sim)]) == 0
    _, *rows = (sim / "response_summary.csv").read_text().splitlines()
    peaks = [row.split(",") for row in rows]
    assert peaks[0][:5] == ["1", "0", "12", "12", "1.0"]
    assert len(peaks) == 20 and max(float(p[4]) for p in peaks[1:]) < 0.5
    argv = ["track", "--scenario", config, "--n1", "12", "--n2", "4", "--output", str(track)]
    assert main(argv) == 0
    assert len(read_trajectory(track / "trajectory.csv")) == 20


@pytest.mark.parametrize("command", ["simulate", "track"])
@pytest.mark.parametrize("line, message", [
    ("noise_sigma = 1e308", "noise_sigma 1e+308 overflows the response maps"),
    ("peak_sharpness = 1e-162", "peak_sharpness must be > 0 with 2 * s * s > 0, got 1e-162"),
])
def test_a_value_that_breaks_the_maps_is_one_error_line(
    scenario_file, tmp_path, capsys, command, line, message
):
    # finite values the synthesis cannot use: one line opening with the
    # file, naming the key, with no numpy warning and no output directory
    config = scenario_file(
        f"frame_count = 20\nwaypoint = 1 30 40\nwaypoint = 20 60 50\ntarget_size = 12 8\n{line}\n"
    )
    argv = [command, "--scenario", config, "--output", str(tmp_path / "o")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + (["--n1", "12", "--n2", "4"] if command == "track" else [])) == 1
    assert capsys.readouterr().err == f"error: {config}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "track"])
def test_overflowing_waypoint_path_is_the_box_error(scenario_file, tmp_path, capsys, command):
    # both waypoints are finite, but the path between them is not
    config = scenario_file(
        "frame_count = 5\nwaypoint = 1 1.7e308 0\nwaypoint = 5 -1.7e308 0\ntarget_size = 6 6\n"
    )
    argv = [command, "--scenario", config, "--output", str(tmp_path / "o")]
    assert main(argv + (["--n1", "3", "--n2", "1"] if command == "track" else [])) == 1
    assert capsys.readouterr().err == "error: box field cx must be finite\n"
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_simulate_rejects_overlapping_occlusions(scenario_file, tmp_path, capsys):
    config = scenario_file(
        "frame_count = 50\nwaypoint = 1 0 0\nwaypoint = 50 10 10\n"
        "target_size = 4 4\nocclusion = 5 20\nocclusion = 15 30\n"
    )
    out = tmp_path / "out"
    assert main(["simulate", "--scenario", config, "--output", str(out)]) == 1
    assert "disjoint" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_env_value_reported(scenario_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SATTRACK_SEED", "soon")
    code = main(
        ["simulate", "--scenario", scenario_file(CLEAN_SCENARIO), "--output", str(tmp_path / "o")]
    )
    assert code == 1
    assert "SATTRACK_SEED" in capsys.readouterr().err


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**63), command=st.sampled_from(["simulate", "track"]))
def test_three_by_three_map_is_rejected_for_every_seed(seed, command):
    with tempfile.TemporaryDirectory() as work:
        config = Path(work) / "scenario.cfg"
        config.write_text(CLEAN_SCENARIO.replace("seed = 0", f"seed = {seed}\nmap_size = 3 3"))
        out = Path(work) / "out"
        code, err = run_capturing_stderr([command, "--scenario", str(config), "--output", str(out)])
        assert code == 1
        assert err == (
            f"error: {config}: map_size must be larger than 3x3, got (3, 3): a peak at "
            f"the centre cell would leave no sidelobe for PSR\n"
        )
        assert not out.exists()


# one setting's value from each source; every mix of them is a valid config
ROUTED_SETTINGS = {
    "n1": st.integers(21, 1000),
    "n2": st.integers(1, 10),
    "theta": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    "lambda_ema": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2**63),
}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_each_setting_resolves_flag_then_env_then_file_then_default(data):
    sources = {
        name: {
            source: data.draw(st.none() | values, label=f"{name} {source}")
            for source in ("file", "env", "flag")
        }
        for name, values in ROUTED_SETTINGS.items()
    }
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as env:
        scenario = Path(work) / "scenario.cfg"
        params = Path(work) / "motion.cfg"
        seed_line = "" if sources["seed"]["file"] is None else f"seed = {sources['seed']['file']}\n"
        scenario.write_text(CLEAN_SCENARIO.replace("seed = 0\n", seed_line))
        params.write_text("".join(
            f"{name} = {by['file']!r}\n"
            for name, by in sources.items() if name != "seed" and by["file"] is not None
        ))
        argv = ["track", "--scenario", str(scenario), "--params", str(params)]
        for name, by in sources.items():
            if by["env"] is not None:
                env.setenv("SATTRACK_" + name.upper(), repr(by["env"]))
            if by["flag"] is not None:
                argv.append(f"--{name.replace('_', '-')}={by['flag']!r}")
        args = cli.build_parser().parse_args(argv)
        resolved = vars(cli._motion_params(args)[0])
        resolved["seed"] = cli._scenario_config(args)[0].seed
    defaults = {**vars(MotionParams()), "seed": 0}
    for name, by in sources.items():
        expected = next(
            (by[source] for source in ("flag", "env", "file") if by[source] is not None),
            defaults[name],
        )
        assert resolved[name] == expected and type(resolved[name]) is type(expected), name


WINDOW_RULE = "n1 must exceed 2*n2 so the velocity window fits the history"


@settings(max_examples=60, deadline=None)
@given(
    n1=st.integers(3, 20), n2=st.integers(1, 12),
    source=st.sampled_from(["--n2", "SATTRACK_N2"]),
)
def test_a_params_file_is_validated_once_with_the_flags_and_variables(n1, n2, source):
    # n1 <= 20 fails against the default n2 = 10: only the layered n2 decides
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as env:
        params = Path(work) / "p.cfg"
        params.write_text(f"n1 = {n1}\n")
        argv = ["track", "--scenario", "s.cfg", "--params", str(params)]
        if source == "--n2":
            argv.append(f"--n2={n2}")
        else:
            env.setenv("SATTRACK_N2", str(n2))
        parse = cli.build_parser().parse_args
        flags = ["track", "--scenario", "s.cfg", f"--n1={n1}", f"--n2={n2}"]
        if n1 > 2 * n2:
            mixed, sources = cli._motion_params(parse(argv))
            assert mixed == cli._motion_params(parse(flags))[0] == MotionParams(n1=n1, n2=n2)
            assert sources == {"n1": str(params), "n2": source, "theta": None, "lambda_ema": None}
        else:
            with pytest.raises(ConfigError) as info:
                cli._motion_params(parse(argv))
            assert str(info.value) == f"{params}, {source}: {WINDOW_RULE}, got n1={n1}, n2={n2}"


def test_a_mixed_settings_error_opens_with_the_file_then_the_flags(
    scenario_file, tmp_path, monkeypatch, capsys
):
    params = scenario_file("n1 = 15\n", name="p.cfg")
    monkeypatch.setenv("SATTRACK_THETA", "0.4")
    argv = ["track", "--scenario", scenario_file(CLEAN_SCENARIO), "--params", params]
    out = tmp_path / "o"
    assert main([*argv, "--n2", "8", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {params}, --n2, SATTRACK_THETA: {WINDOW_RULE}, got n1=15, n2=8\n"
    )
    assert not out.exists()


def test_params_file_and_flag_give_the_all_flags_bytes(scenario_file, tmp_path):
    scenario = scenario_file(CLEAN_SCENARIO)
    params = scenario_file("n1 = 15\n", name="p.cfg")
    mixed, flags = tmp_path / "mixed", tmp_path / "flags"
    assert main(["track", "--scenario", scenario, "--params", params, "--n2", "5",
                 "--output", str(mixed)]) == 0
    assert main(["track", "--scenario", scenario, "--n1", "15", "--n2", "5",
                 "--output", str(flags)]) == 0
    for name in TRACK_FILES:
        assert (mixed / name).read_bytes() == (flags / name).read_bytes()


@pytest.mark.parametrize("frames", ["120", "12"])  # 12: n1 = 15 fails the warm-up check
def test_track_reads_the_params_file_once(scenario_file, tmp_path, monkeypatch, capsys, frames):
    scenario = scenario_file(CLEAN_SCENARIO.replace("120", frames))
    params = scenario_file("n1 = 15\nn2 = 5\n", name="p.cfg")
    reads, real = [], formats._read_text
    monkeypatch.setattr(formats, "_read_text", lambda path: reads.append(str(path)) or real(path))
    argv = ["track", "--scenario", scenario, "--params", params, "--output", str(tmp_path / "o")]
    assert main(argv) == (0 if frames == "120" else 1)
    assert reads.count(params) == 1 and reads.count(scenario) == 1
    if frames == "12":
        assert capsys.readouterr().err.startswith(f"error: {params}: n1 (15) must be below")


def test_settings_come_back_as_read_when_nothing_is_laid_over(scenario_file):
    scenario = scenario_file(CLEAN_SCENARIO)
    args = cli.build_parser().parse_args(["track", "--scenario", scenario])
    config = scenario_from_file(scenario)
    assert cli._settings(args, config, scenario) == (config, {"seed": scenario})
    assert cli._settings(args, config, scenario)[0] is config
    defaults = AspectRatioParams()
    args = cli.build_parser().parse_args(["centerness-map", "--box", "1,2,3,4"])
    assert cli._settings(args, defaults)[0] is defaults


@pytest.mark.parametrize("seed_line, flags, env, expected", [
    ("", [], {}, None),  # the default seed
    ("seed = 4\n", [], {}, "scenario.cfg"),
    ("", ["--seed", "3"], {}, "--seed"),
    ("seed = 4\n", ["--seed", "3"], {}, "--seed"),
    ("", [], {"SATTRACK_SEED": "3"}, "SATTRACK_SEED"),
])
def test_the_seed_comes_from_the_file_only_where_it_has_a_seed_line(
    scenario_file, monkeypatch, seed_line, flags, env, expected
):
    scenario = scenario_file(CLEAN_SCENARIO.replace("seed = 0\n", seed_line))
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    args = cli.build_parser().parse_args(["simulate", "--scenario", scenario, *flags])
    config, sources = cli._scenario_config(args)
    assert sources == {"seed": scenario if expected == "scenario.cfg" else expected}
    assert config.seed == {None: 0, "scenario.cfg": 4}.get(expected, 3)


SHORT_SCENARIO = "frame_count = 1\nwaypoint = 1 30 40\ntarget_size = 12 8\n"


@pytest.mark.parametrize("command, files, flags, line", [
    ("track", {}, ["--params", "./n3.cfg"], "n3.cfg:1: unknown motion key 'n3'"),
    ("track", {}, ["--params", "./bad.cfg"], f"bad.cfg: {WINDOW_RULE}, got n1=3, n2=10"),
    ("track", {}, ["--params", "./sub/../missing.cfg"],
     "--params: cannot read sub/../missing.cfg: No such file or directory"),
    ("track", {"s.cfg": SHORT_SCENARIO}, ["--ommr", "off"],
     "s.cfg: scenario must have at least 2 frames, got 1"),
    ("track", {"s.cfg": SHORT_SCENARIO}, [],
     "s.cfg: n1 (50) must be below frame_count (1) for refinement to activate; "
     "lower --n1 or use --ommr off"),
    ("track", {"s.cfg": "frame_count = 0\n"}, [], "s.cfg: missing required key 'target_size'"),
    ("simulate", {"s.cfg": CLEAN_SCENARIO + "cell_scale = 0\n"}, [],
     "s.cfg: cell_scale must be > 0, got 0.0"),
    ("simulate", {"s.cfg": CLEAN_SCENARIO}, ["--seed", "-1"],
     "--seed: seed must be >= 0, got -1"),
    ("simulate", {}, ["--scenario", ".//missing.cfg"],
     "--scenario: cannot read missing.cfg: No such file or directory"),
])
def test_an_error_line_names_an_input_file_as_the_readers_do(
    tmp_path, monkeypatch, capsys, command, files, flags, line
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.cfg").write_text(CLEAN_SCENARIO)
    (tmp_path / "n3.cfg").write_text("n3 = 3\n")
    (tmp_path / "bad.cfg").write_text("n1 = 3\n")
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    scenario = ["--scenario", "./" + next(iter(files), "scenario.cfg")]
    argv = [command, *scenario, *flags, "--output", "out"]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "out").exists()


def on_off_spellings():
    """``on`` or ``off`` in any letter case, padded with whitespace."""
    word = st.sampled_from(["on", "off"]).flatmap(
        lambda word: st.tuples(*(st.sampled_from([c, c.upper()]) for c in word)).map("".join)
    )
    pad = st.sampled_from(["", " ", "\t"])
    return st.tuples(pad, word, pad).map("".join)


def track_with_ommr(work: Path, value: str, source: str):
    """(exit code, stderr) of ``track`` on CLEAN_SCENARIO into ``work / "o"``,
    with ``value`` given as ``--ommr`` or as SATTRACK_OMMR."""
    config = work / "scenario.cfg"
    config.write_text(CLEAN_SCENARIO)
    argv = ["track", "--scenario", str(config), "--output", str(work / "o")]
    with pytest.MonkeyPatch.context() as env:
        if source == "--ommr":
            argv.append(f"--ommr={value}")
        else:
            env.setenv("SATTRACK_OMMR", value)
        return run_capturing_stderr(argv)


@settings(max_examples=30, deadline=None)
@given(spelling=on_off_spellings(), source=st.sampled_from(["--ommr", "SATTRACK_OMMR"]))
def test_ommr_flag_and_env_share_one_on_off_parse(spelling, source):
    with tempfile.TemporaryDirectory() as work:
        assert track_with_ommr(Path(work), spelling, source) == (0, "")
        branches = {row[3] for row in read_trace(Path(work) / "o" / "trace.csv")}
    assert (branches == {"raw"}) == (spelling.strip().lower() == "off")


@settings(max_examples=40, deadline=None)
@given(
    value=st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"))
    .filter(lambda text: text.strip().lower() not in ("on", "off")),
    source=st.sampled_from(["--ommr", "SATTRACK_OMMR"]),
)
def test_ommr_rejects_any_other_value_naming_its_source(value, source):
    with tempfile.TemporaryDirectory() as work:
        assert track_with_ommr(Path(work), value, source) == (
            1, f"error: invalid {source}={value!r}\n"
        )
        assert not (Path(work) / "o").exists()


# Characters str.splitlines breaks a line at: a config file entry cannot hold them.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

TINY_SCENARIO = """\
frame_count = 4
waypoint = 1 30 40
waypoint = 4 36 44
target_size = 12 8
map_size = 5 5
"""

# Each numeric setting by the command that reads it.  The motion settings are
# read by ``track`` with refinement off, whose output does not show them, so
# their resolved values are compared as well.
NUMBER_SETTINGS = [
    ("track", "n1"), ("track", "n2"), ("track", "theta"), ("track", "lambda_ema"),
    ("simulate", "seed"), ("centerness-map", "gamma"),
    ("attention-demo", "gamma"), ("attention-demo", "seed"),
]
COMMAND_ARGS = {
    "track": ["--ommr", "off"],
    "simulate": [],
    "centerness-map": ["--box", "124,124,192,32"],
    "attention-demo": ["--search-size", "4,5,5", "--template-size", "2,2"],
}


def number_texts():
    """What a user might give for a number: int and float reprs, padded or
    not, and texts that some reader or other takes for a number."""
    odd = st.sampled_from([
        "", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "0x10", "1_0", "_1", "+3",
        "-0", "-0.0", "1e-3", "0.5", "1,5", "ten", "\u0663",
    ])
    numbers = st.one_of(
        st.integers().map(str), st.integers(-3, 60).map(str),
        st.floats().map(repr), st.floats(0.0, 1.0).map(repr),
    )
    words = st.text(
        st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS + "\x00"),
        max_size=6,
    )
    pad = st.sampled_from(["", " ", "\t", "\x1f"])
    return st.tuples(pad, st.one_of(odd, numbers, words), pad).map("".join)


def run_with_setting(work: Path, command: str, name: str, text: str, source: str):
    """Run ``command`` with ``name`` given the text ``text`` as its flag
    (``source`` "flag"), its variable ("env") or its config file entry
    ("file").  Returns the source's name as an error opens with it, the
    exit code, stderr, and what a run that succeeds gives: stdout, the output
    files (None when nothing was written) and the resolved motion setting
    (``track`` only)."""
    out, scenario = work / "out", work / "scenario.cfg"
    shutil.rmtree(out, ignore_errors=True)
    seed_line = f"seed = {text}\n" if (source, name) == ("file", "seed") else ""
    scenario.write_text(TINY_SCENARIO + seed_line, encoding="utf-8")
    argv = [command, *COMMAND_ARGS[command], "--output", str(out)]
    if command in ("track", "simulate"):
        argv += ["--scenario", str(scenario)]
    named = {"flag": "--" + name.replace("_", "-"), "env": "SATTRACK_" + name.upper()}
    named["file"] = str(scenario)
    if command == "track" and source == "file":
        named["file"] = str(work / "motion.cfg")
        (work / "motion.cfg").write_text(f"{name} = {text}\n", encoding="utf-8")
        argv += ["--params", named["file"]]
    if source == "flag":
        argv.append(f"{named['flag']}={text}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as env:
        if source == "env":
            env.setenv(named["env"], text)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        value = None
        if command == "track" and code == 0:
            value = getattr(cli._motion_params(cli.build_parser().parse_args(argv))[0], name)
    outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else None
    result = stdout.getvalue(), outputs, (value, type(value))
    return named[source], code, stderr.getvalue(), result


@settings(max_examples=200, deadline=None)
@given(setting=st.sampled_from(NUMBER_SETTINGS), text=number_texts())
def test_a_number_reads_alike_from_flag_variable_and_file(setting, text):
    command, name = setting
    # gamma has no text file entry: attention-demo's --weights holds an array
    sources = ["flag", "env", "file"] if command in ("track", "simulate") else ["flag", "env"]
    with tempfile.TemporaryDirectory() as work:
        runs = [run_with_setting(Path(work), command, name, text, source) for source in sources]
    assert {code for _, code, _, _ in runs} in ({0}, {1}), runs
    for named, code, err, result in runs:
        if code == 0:
            assert result == runs[0][3]
        else:
            assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
            assert err.endswith("\n") and result[1] is None


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["track"], {"SATTRACK_THETA": "nan"}, "SATTRACK_THETA needs a float, got 'nan'"),
        (["track", "--theta", "inf"], {}, "--theta needs a float, got 'inf'"),
        (["track", "--n1", "abc"], {}, "--n1 needs a int, got 'abc'"),
        (["track", "--n1", "10"], {},
         "--n1: n1 must exceed 2*n2 so the velocity window fits the history, got n1=10, n2=10"),
        (["track", "--n1", "30"], {"SATTRACK_N2": "15"}, "--n1, SATTRACK_N2: n1 must exceed"),
        (["simulate", "--seed", "-1"], {}, "--seed: seed must be >= 0, got -1"),
        (["centerness-map", "--box", "1,2,3,4", "--gamma", "-0.0"], {},
         "--gamma: gamma must be > 0, got -0.0"),
        (["attention-demo", "--gamma", "inf"], {}, "--gamma needs a float, got 'inf'"),
        (["attention-demo", "--seed", "-1"], {}, "--seed: "),  # then numpy's own words
        (["centerness-map", "--box", "1,2,3,4", "--grid", "25,25,0"], {},
         "--grid: grid stride and shape must be positive"),
        (["centerness-map", "--box", "1,2,0,4"], {},
         "--box: box size must be positive, got w=0.0, h=4.0"),
    ],
)
def test_a_rejected_value_is_one_error_line_naming_its_source(
    scenario_file, tmp_path, monkeypatch, capsys, argv, env, message
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if argv[0] in ("track", "simulate"):
        argv = argv + ["--scenario", scenario_file(CLEAN_SCENARIO)]
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
    assert not out.exists()


def test_parser_is_built_once_and_sees_wrapped_functions(scenario_file, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    calls = []
    real = cli.generate_scenario
    monkeypatch.setattr(cli, "generate_scenario", lambda config: calls.append(config) or real(config))
    argv = ["simulate", "--scenario", scenario_file(CLEAN_SCENARIO), "--output", str(tmp_path)]
    assert main(argv) == 0
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# track


def test_track_raw_mode_copies_model_boxes(scenario_file, tmp_path):
    config = scenario_file(CLEAN_SCENARIO)
    sim_out, track_out = tmp_path / "sim", tmp_path / "track"
    assert main(["simulate", "--scenario", config, "--output", str(sim_out)]) == 0
    assert main(
        ["track", "--scenario", config, "--ommr", "off", "--output", str(track_out)]
    ) == 0
    raw = read_trajectory(sim_out / "raw_model.csv")
    assert read_trajectory(track_out / "trajectory.csv") == raw
    branches = {row[3] for row in read_trace(track_out / "trace.csv")}
    assert branches == {"raw"}


def test_track_clean_scenario_goes_high_after_warmup(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["track", "--scenario", scenario_file(CLEAN_SCENARIO), "--output", str(out)]
    )
    assert code == 0
    for frame, _, npsr, branch in read_trace(out / "trace.csv"):
        if frame <= 50:
            assert branch == "warmup"
        else:
            assert branch == "high"
        assert 0.0 < npsr <= 1.0


def test_track_occlusion_takes_low_branch(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["track", "--scenario", scenario_file(OCCLUSION_SCENARIO), "--output", str(out)]
    )
    assert code == 0
    occluded = [row for row in read_trace(out / "trace.csv") if 240 <= row[0] <= 275]
    low = sum(row[3] == "low" for row in occluded)
    assert low / len(occluded) >= 0.8


def test_track_refinement_stays_near_truth_through_occlusion(scenario_file, tmp_path):
    out = tmp_path / "out"
    main(["track", "--scenario", scenario_file(OCCLUSION_SCENARIO), "--output", str(out)])
    trajectory = read_trajectory(out / "trajectory.csv")
    gt = read_trajectory(out / "ground_truth.csv")
    errors = [
        np.hypot(p.cx - g.cx, p.cy - g.cy) for p, g in zip(trajectory, gt)
    ]
    assert np.mean(errors[275:300]) < 10.0


def test_track_param_overrides_change_warmup(scenario_file, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "track",
            "--scenario",
            scenario_file(CLEAN_SCENARIO),
            "--n1",
            "60",
            "--n2",
            "20",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    trace = read_trace(out / "trace.csv")
    assert trace[59][3] == "warmup"
    assert trace[60][3] == "high"


def test_track_params_file_with_flag_override(scenario_file, tmp_path):
    params = tmp_path / "motion.cfg"
    params.write_text("n1 = 80\nn2 = 30\n")
    out = tmp_path / "out"
    code = main(
        [
            "track",
            "--scenario",
            scenario_file(CLEAN_SCENARIO),
            "--params",
            str(params),
            "--n2",
            "10",  # flag beats file
            "--output",
            str(out),
        ]
    )
    assert code == 0
    trace = read_trace(out / "trace.csv")
    assert trace[79][3] == "warmup"
    assert trace[80][3] == "high"


def test_track_ommr_env_with_flag_override(scenario_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SATTRACK_OMMR", "off")
    env_out, flag_out = tmp_path / "env", tmp_path / "flag"
    config = scenario_file(CLEAN_SCENARIO)
    assert main(["track", "--scenario", config, "--output", str(env_out)]) == 0
    assert {r[3] for r in read_trace(env_out / "trace.csv")} == {"raw"}
    assert main(
        ["track", "--scenario", config, "--ommr", "on", "--output", str(flag_out)]
    ) == 0
    assert "warmup" in {r[3] for r in read_trace(flag_out / "trace.csv")}


def test_track_raw_mode_keeps_no_history(scenario_file, tmp_path):
    # refinement off reads no history, so a huge n1 allocates nothing
    config = scenario_file(CLEAN_SCENARIO)
    default, huge = tmp_path / "default", tmp_path / "huge"
    base = ["track", "--scenario", config, "--ommr", "off", "--output"]
    assert main(base + [str(default)]) == 0
    assert main(base + [str(huge), "--n1", "1000000000000"]) == 0
    for name in TRACK_FILES:
        assert (huge / name).read_bytes() == (default / name).read_bytes()


def test_track_invalid_ommr_value(scenario_file, tmp_path, capsys):
    code = main(
        [
            "track",
            "--scenario",
            scenario_file(CLEAN_SCENARIO),
            "--ommr",
            "maybe",
            "--output",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "--ommr" in capsys.readouterr().err


def test_track_rejects_warmup_longer_than_scenario(scenario_file, tmp_path, capsys):
    config = scenario_file(
        "frame_count = 40\nwaypoint = 1 0 0\nwaypoint = 40 10 10\ntarget_size = 6 6\n"
    )
    code = main(
        ["track", "--scenario", config, "--n1", "45", "--n2", "20", "--output", str(tmp_path / "o")]
    )
    assert code == 1
    assert "frame_count" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, env, params, n1, where",
    [
        (["--n1", "45"], {}, None, 45, "--n1"),
        ([], {"SATTRACK_N1": "200"}, None, 200, "SATTRACK_N1"),
        ([], {}, "n1 = 60\n", 60, "params"),
        ([], {}, "n2 = 5\n", 50, "scenario"),  # the file leaves n1 at its default
        ([], {}, None, 50, "scenario"),
    ],
)
def test_warmup_error_opens_with_the_source_of_n1(
    scenario_file, tmp_path, monkeypatch, capsys, flags, env, params, n1, where
):
    scenario = scenario_file(
        "frame_count = 40\nwaypoint = 1 0 0\nwaypoint = 40 10 10\ntarget_size = 6 6\n"
    )
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if params is not None:
        flags = flags + ["--params", scenario_file(params, name="motion.cfg")]
    where = {"params": str(tmp_path / "motion.cfg"), "scenario": scenario}.get(where, where)
    out = tmp_path / "o"
    assert main(["track", "--scenario", scenario, *flags, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {where}: n1 ({n1}) must be below frame_count (40) for refinement to "
        f"activate; lower --n1 or use --ommr off\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("ommr", ["off", "on"])
def test_a_one_frame_scenario_is_an_error_naming_the_scenario_file(
    scenario_file, tmp_path, capsys, ommr
):
    scenario = scenario_file("frame_count = 1\nwaypoint = 1 30 40\ntarget_size = 12 8\n")
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", scenario, "--output", str(tmp_path / "sim")]) == 0
    capsys.readouterr()
    assert main(["track", "--scenario", scenario, "--ommr", ommr, "--output", str(out)]) == 1
    if ommr == "off":
        message = "scenario must have at least 2 frames, got 1"
    else:  # n1 >= 3 > 1 frame: the warm-up check comes first
        message = ("n1 (50) must be below frame_count (1) for refinement to activate; "
                   "lower --n1 or use --ommr off")
    assert capsys.readouterr().err == f"error: {scenario}: {message}\n"
    assert not out.exists()


def test_track_rejects_inconsistent_windows(scenario_file, tmp_path, capsys):
    code = main(
        [
            "track",
            "--scenario",
            scenario_file(CLEAN_SCENARIO),
            "--n1",
            "15",  # violates n1 > 2*n2 with default n2=10
            "--output",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "n1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# track and simulate against the object path they replaced


TRACK_FILES = ("trajectory.csv", "ground_truth.csv", "trace.csv")
SIMULATE_FILES = ("ground_truth.csv", "raw_model.csv", "response_summary.csv")


def reference_refine_step(state, model_box, response, params):
    """refine_step as it was written on BoundingBox objects, before the float
    kernel: the same window, weights and arithmetic, the refined box built
    (and validated) as a BoundingBox.  Kept as the oracle of the row path."""
    value, npsr = psr(response), normalized_psr(response, state)
    state.frame_index += 1
    if state.frame_index <= params.n1:
        refined, branch = model_box, "warmup"
    else:
        window = state._window()
        low, high = _branch_weights(params.n1, params.n2)
        lam = params.lambda_ema
        prev_cx, prev_cy, prev_w, prev_h = window[-1].tolist()
        if npsr < params.theta:
            cx, cy, fit_w, fit_h = (low @ window).tolist()
            w = lam * fit_w + (1.0 - lam) * prev_w
            h = lam * fit_h + (1.0 - lam) * prev_h
            branch = "low"
        else:
            vx, vy, _, _ = (high @ window).tolist()
            alpha = npsr * npsr
            cx = prev_cx + alpha * (model_box.cx - prev_cx) + (1.0 - alpha) * vx
            cy = prev_cy + alpha * (model_box.cy - prev_cy) + (1.0 - alpha) * vy
            w = lam * model_box.w + (1.0 - lam) * prev_w
            h = lam * model_box.h + (1.0 - lam) * prev_h
            branch = "high"
        refined = BoundingBox(cx, cy, max(w, 1.0), max(h, 1.0))
    state._push((refined.cx, refined.cy, refined.w, refined.h))
    state.last_psr, state.last_npsr, state.last_branch = value, npsr, branch
    return refined


def _fmt(value) -> str:
    """A number as the writers print a float: its shortest round-trip repr."""
    return repr(float(value))


def reference_trajectory_text(boxes):
    lines = ["frame,cx,cy,w,h"]
    for index, box in enumerate(boxes, start=1):
        lines.append(f"{index},{_fmt(box.cx)},{_fmt(box.cy)},{_fmt(box.w)},{_fmt(box.h)}")
    return "\n".join(lines) + "\n"


def reference_track_files(config, params, refine):
    """The files ``track`` wrote from one FrameObservation and BoundingBox
    per frame, each trace line written from the tracker state."""
    observations = generate_scenario(config)
    state = TrackerState(params.n1)
    trajectory, trace_lines = [], ["frame,psr,npsr,branch"]
    for obs in observations:
        if refine:
            trajectory.append(reference_refine_step(state, obs.raw_model_box, obs.response, params))
            value, npsr, branch = state.last_psr, state.last_npsr, state.last_branch
        else:
            trajectory.append(obs.raw_model_box)
            value, npsr = psr(obs.response), normalized_psr(obs.response, state)
            branch = "raw"
        trace_lines.append(f"{obs.frame},{_fmt(value)},{_fmt(npsr)},{branch}")
    return {
        "trajectory.csv": reference_trajectory_text(trajectory),
        "ground_truth.csv": reference_trajectory_text(o.gt_box for o in observations),
        "trace.csv": "\n".join(trace_lines) + "\n",
    }


def reference_simulate_files(config):
    """The files ``simulate`` wrote from one FrameObservation per frame."""
    observations = generate_scenario(config)
    summary = ["frame,occluded,peak_row,peak_col,peak_value,psr"]
    for obs in observations:
        peak = np.unravel_index(int(np.argmax(obs.response)), obs.response.shape)
        summary.append(
            f"{obs.frame},{int(obs.occluded)},{peak[0]},{peak[1]},"
            f"{_fmt(obs.response[peak])},{_fmt(psr(obs.response))}"
        )
    return {
        "ground_truth.csv": reference_trajectory_text(o.gt_box for o in observations),
        "raw_model.csv": reference_trajectory_text(o.raw_model_box for o in observations),
        "response_summary.csv": "\n".join(summary) + "\n",
    }


@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
@pytest.mark.parametrize("flags", [[], ["--n1", "12", "--n2", "4", "--theta", "0.7"],
                                   ["--ommr", "off"]])
def test_track_writes_the_object_path_bytes(scenario_file, tmp_path, name, flags):
    config = ScenarioConfig(**PIN_CONFIGS[name])
    params = MotionParams(n1=12, n2=4, theta=0.7) if "--n1" in flags else MotionParams()
    expected = reference_track_files(config, params, "off" not in flags)
    out = tmp_path / "out"
    argv = ["track", "--scenario", scenario_file(scenario_text(config)), "--output", str(out)]
    assert main(argv + flags) == 0
    assert {file: (out / file).read_text() for file in TRACK_FILES} == expected


@pytest.mark.parametrize("name", sorted(PIN_CONFIGS))
def test_simulate_writes_the_object_path_bytes(scenario_file, tmp_path, name):
    config = ScenarioConfig(**PIN_CONFIGS[name])
    expected = reference_simulate_files(config)
    out = tmp_path / "out"
    argv = ["simulate", "--scenario", scenario_file(scenario_text(config)), "--output", str(out)]
    assert main(argv) == 0
    assert {file: (out / file).read_text() for file in SIMULATE_FILES} == expected


def test_track_rejects_a_nan_refined_centre(scenario_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(motion, "_branch_weights", lambda n1, n2: (np.full(n1, np.nan),) * 2)
    out = tmp_path / "out"
    argv = ["track", "--scenario", scenario_file(CLEAN_SCENARIO), "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: box field cx must be finite\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# evaluate


def write_corner_file(path, rows):
    path.write_text("".join(f"{x},{y},{w},{h}\n" for x, y, w, h in rows))


def test_evaluate_perfect_file_pair(tmp_path):
    gt = tmp_path / "gt.txt"
    write_corner_file(gt, [(10 + k, 20, 8, 8) for k in range(12)])
    out = tmp_path / "out"
    code = main(["evaluate", "--pred", str(gt), "--gt", str(gt), "--output", str(out)])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p5"] == 1.0
    assert summary["np05"] == 1.0
    assert summary["frame_count"] == 12
    curves = (out / "curves.csv").read_text().splitlines()
    assert len(curves) == 1 + 51 + 51 + 21


@pytest.mark.parametrize("attributes", ["groups.cfg", "does-not-exist.cfg"])
def test_evaluate_rejects_attributes_in_file_mode(tmp_path, capsys, attributes):
    gt = tmp_path / "gt.txt"
    write_corner_file(gt, [(10 + k, 20, 8, 8) for k in range(12)])
    (tmp_path / "groups.cfg").write_text("fast = gt\n")
    out = tmp_path / "out"
    code = main(["evaluate", "--pred", str(gt), "--gt", str(gt),
                 "--attributes", str(tmp_path / attributes), "--output", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --attributes needs directory mode")
    assert not out.exists()


def test_evaluate_counting_fixture(tmp_path):
    gt = tmp_path / "gt.txt"
    pred = tmp_path / "pred.txt"
    write_corner_file(gt, [(0, 0, 30, 30)] * 10)
    write_corner_file(pred, [(3, 0, 30, 30)] * 4 + [(12, 0, 30, 30)] * 6)
    out = tmp_path / "out"
    assert main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--output", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["p5"] == pytest.approx(0.4)
    assert summary["p20"] == pytest.approx(1.0)


def test_evaluate_directory_mode_with_attributes(tmp_path):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    write_corner_file(gt_dir / "seq1.txt", [(10, 10, 10, 10)] * 5)
    write_corner_file(pred_dir / "seq1.txt", [(10, 10, 10, 10)] * 5)  # perfect
    write_corner_file(gt_dir / "seq2.txt", [(10, 10, 10, 10)] * 5)
    write_corner_file(pred_dir / "seq2.txt", [(90, 10, 10, 10)] * 5)  # hopeless
    attrs = tmp_path / "groups.cfg"
    attrs.write_text("good = seq1\nbad = seq2\n")
    out = tmp_path / "out"
    code = main(
        [
            "evaluate",
            "--pred",
            str(pred_dir),
            "--gt",
            str(gt_dir),
            "--attributes",
            str(attrs),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["sequences"]["seq1"]["p5"] == 1.0
    assert summary["sequences"]["seq2"]["p5"] == 0.0
    assert summary["groups"]["overall"]["p5"] == pytest.approx(0.5)
    assert summary["groups"]["good"]["p5"] == 1.0
    assert summary["groups"]["bad"]["p5"] == 0.0
    for group in ("overall", "good", "bad"):
        assert (out / f"curves_{group}.csv").exists()


@pytest.mark.parametrize("suffixes", [(".csv", ".txt"), (".txt", ".csv")])
def test_evaluate_rejects_pred_files_sharing_a_stem(tmp_path, capsys, suffixes):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    write_corner_file(gt_dir / "a.txt", [(10, 10, 10, 10)] * 5)
    # "a.d" sorts between "a.csv" and "a.txt"
    for name in ("b.txt", "a.d.txt"):
        write_corner_file(pred_dir / name, [(10, 10, 10, 10)] * 5)
        write_corner_file(gt_dir / name, [(10, 10, 10, 10)] * 5)
    for suffix in suffixes:
        write_corner_file(pred_dir / f"a{suffix}", [(10, 10, 10, 10)] * 5)
    out = tmp_path / "out"
    code = main(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "a.csv" in err and "a.txt" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("suffixes", [(".csv", ".txt"), (".txt", ".csv")])
def test_evaluate_rejects_gt_files_sharing_a_stem(tmp_path, capsys, suffixes):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    write_corner_file(pred_dir / "a.txt", [(10, 10, 10, 10)] * 5)
    # a perfect gt file and a hopeless one for the same sequence
    write_corner_file(gt_dir / f"a{suffixes[0]}", [(10, 10, 10, 10)] * 5)
    write_corner_file(gt_dir / f"a{suffixes[1]}", [(90, 90, 10, 10)] * 5)
    out = tmp_path / "out"
    code = main(["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(gt_dir) in err and "a.csv" in err and "a.txt" in err
    assert not (out / "summary.json").exists()


def run_evaluate_with_groups(tmp_path, groups_text):
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    for directory in (pred_dir, gt_dir):
        write_corner_file(directory / "seq1.txt", [(10, 10, 10, 10)] * 5)
    attrs = tmp_path / "groups.cfg"
    attrs.write_text(groups_text)
    out = tmp_path / "run" / "out"
    code = main(
        ["evaluate", "--pred", str(pred_dir), "--gt", str(gt_dir),
         "--attributes", str(attrs), "--output", str(out)]
    )
    return code, attrs, out


def test_evaluate_checks_groups_before_scoring_any_sequence(tmp_path, monkeypatch, capsys):
    scored = []
    monkeypatch.setattr(cli, "_score_sequence", scored.append)
    code, attrs, out = run_evaluate_with_groups(tmp_path, "good = seq1\ngrp = seq1 nope\n")
    assert (code, scored) == (1, [])
    err = capsys.readouterr().err
    assert err == f"error: {attrs}: group 'grp' names unknown sequences: ['nope']\n"
    assert not out.parent.exists()


def test_evaluate_rejects_group_named_overall(tmp_path, capsys):
    code, attrs, out = run_evaluate_with_groups(tmp_path, "good = seq1\noverall = seq1\n")
    assert code == 1
    err = capsys.readouterr().err
    assert f"{attrs}:2:" in err and "'overall'" in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("name", ["../../escaped", "a/b", "dots.csv", "two words", "caf\u00e9"])
def test_evaluate_rejects_unsafe_group_names(tmp_path, capsys, name):
    code, attrs, out = run_evaluate_with_groups(tmp_path, f"ok_group-1 = seq1\n{name} = seq1\n")
    assert code == 1
    err = capsys.readouterr().err
    assert f"{attrs}:2:" in err and repr(name) in err
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*") if p.is_file())
    assert all(p.parts[0] in ("pred", "gt", "groups.cfg") for p in written)


def test_evaluate_length_mismatch_names_counts(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    write_corner_file(gt, [(0, 0, 5, 5)] * 3)
    write_corner_file(pred, [(0, 0, 5, 5)] * 2)
    code = main(
        ["evaluate", "--pred", str(pred), "--gt", str(gt), "--output", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "2" in err and "3" in err



def test_evaluate_file_mode_length_mismatch_names_both_files(tmp_path, capsys):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    write_corner_file(gt, [(0, 0, 5, 5)] * 1)
    write_corner_file(pred, [(0, 0, 5, 5)] * 2)
    out = tmp_path / "o"
    code = main(["evaluate", "--pred", str(pred), "--gt", str(gt), "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {pred} and {gt}: trajectories must have equal nonzero length, got 2 and 1\n"
    )
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("command", ["evaluate", "track", "simulate"])
def test_undecodable_input_file_names_it(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"10,20,4,6\n10,20,4,6\n# abc\xff\n")  # 0xff at offset 25
    good = tmp_path / "good.txt"
    write_corner_file(good, [(0, 0, 5, 5)] * 2)
    argv = (["evaluate", "--pred", str(bad), "--gt", str(good)] if command == "evaluate"
            else [command, "--scenario", str(bad)])
    out = tmp_path / "o"
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte 0xff at offset 25)\n"
    assert not out.exists()


def test_evaluate_missing_gt_no_partial_output(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    write_corner_file(pred, [(0, 0, 5, 5)] * 2)
    out = tmp_path / "out"
    code = main(
        ["evaluate", "--pred", str(pred), "--gt", str(tmp_path / "nope.txt"), "--output", str(out)]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["--pred", "--gt"])
def test_evaluate_names_a_missing_input_before_the_mode(tmp_path, capsys, missing):
    (tmp_path / "dir").mkdir()
    paths = {"--pred": str(tmp_path / "dir"), "--gt": str(tmp_path / "dir")}
    paths[missing] = str(tmp_path / "missing.csv")
    out = tmp_path / "o"
    argv = ["evaluate", "--pred", paths["--pred"], "--gt", paths["--gt"], "--output", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {missing}: cannot read {paths[missing]}: No such file or directory\n"
    )
    assert not out.exists()


def test_evaluate_mixed_file_and_directory(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    write_corner_file(pred, [(0, 0, 5, 5)])
    code = main(
        ["evaluate", "--pred", str(pred), "--gt", str(tmp_path), "--output", str(tmp_path / "o")]
    )
    assert code == 1
    assert "both" in capsys.readouterr().err


def write_mixed_suite(root: Path):
    """Five sequences of different lengths under ``root/pred`` and
    ``root/gt``, trajectory CSVs and corner .txt files mixed, and an
    attribute groups file ``root/groups.cfg``."""
    pred_dir, gt_dir = root / "pred", root / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    rng = np.random.default_rng(16)
    for k, name in enumerate("abcde"):
        frames = 20 + 7 * k
        gt = np.column_stack([
            40 + 2.5 * np.arange(frames), 30 + 0.5 * np.arange(frames),
            np.full(frames, 12.0), np.full(frames, 8.0),
        ])
        pred = gt + rng.normal(scale=4.0, size=gt.shape) * [1, 1, 0.1, 0.1]
        for directory, rows in ((pred_dir, pred), (gt_dir, gt)):
            if k % 2:
                (directory / f"{name}.csv").write_bytes(formats.trajectory_csv(rows))
            else:
                corners = np.column_stack([rows[:, :2] - rows[:, 2:] / 2, rows[:, 2:]])
                write_corner_file(directory / f"{name}.txt", corners.tolist())
    (root / "groups.cfg").write_text("odd = b d\neven = a c e\n")


def run_evaluate_suite(root: Path, workers: int, monkeypatch, capsys, *flags):
    """(exit code, stdout, stderr, output directory) of directory-mode
    evaluate over ``root``, with the CPU count set to ``workers``."""
    monkeypatch.setattr(cli, "_cpu_count", lambda: workers)
    out = root / f"out-{workers}"
    code = main(["evaluate", "--pred", str(root / "pred"), "--gt", str(root / "gt"),
                 *flags, "--output", str(out)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out


@pytest.mark.parametrize("workers", [2, 3])
def test_evaluate_workers_write_the_in_process_bytes(tmp_path, monkeypatch, capsys, workers):
    write_mixed_suite(tmp_path)
    parent, fork, forks = os.getpid(), os.fork, []

    def counted_fork():
        if os.getpid() == parent:
            forks.append(None)
            # what Python >= 3.12 says at a fork beside numpy's BLAS threads
            warnings.warn(f"This process (pid={parent}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    flags = ("--attributes", str(tmp_path / "groups.cfg"))
    code, stdout, err, serial = run_evaluate_suite(tmp_path, 1, monkeypatch, capsys, *flags)
    assert (code, err, forks) == (0, "", [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = run_evaluate_suite(tmp_path, workers, monkeypatch, capsys, *flags)
    assert run[:3] == (0, stdout, "")
    assert len(forks) == workers - 1  # this process scores the first share
    names = sorted(path.name for path in serial.iterdir())
    assert names == [
        "curves_even.csv", "curves_odd.csv", "curves_overall.csv", "summary.json"
    ]
    for name in names:
        assert (run[3] / name).read_bytes() == (serial / name).read_bytes()
    assert list(json.loads((serial / "summary.json").read_text())["sequences"]) == list("abcde")
    # without os.fork every CPU count is one share, scored here
    monkeypatch.delattr(os, "fork")
    shutil.rmtree(run[3])
    assert run_evaluate_suite(tmp_path, workers, monkeypatch, capsys, *flags)[:3] == run[:3]
    assert len(forks) == workers - 1
    for name in names:
        assert (run[3] / name).read_bytes() == (serial / name).read_bytes()
    with pytest.raises(ChildProcessError):  # every child reaped
        os.waitpid(-1, os.WNOHANG)


def _break_sequences(pred_dir: Path):
    (pred_dir / "b.csv").write_text("frame,cx,cy,w,h\n1,x,2,3,4\n")  # non-numeric field
    lines = (pred_dir / "d.csv").read_text().splitlines(keepends=True)
    (pred_dir / "d.csv").write_text("".join(lines[:-1]))  # one frame short


def _directory_named_like_a_sequence(pred_dir: Path):
    (pred_dir / "c.txt").unlink()
    (pred_dir / "c.txt").mkdir()


@pytest.mark.parametrize("damage, opening", [
    (_break_sequences, "error: sequence 'b': "),
    (_directory_named_like_a_sequence, "error: --pred: cannot read "),
])
def test_evaluate_workers_report_the_in_process_error(
    tmp_path, monkeypatch, capsys, damage, opening
):
    write_mixed_suite(tmp_path)
    damage(tmp_path / "pred")
    # three shares, a | b c | d e: b and d fail in two children, b is reported
    runs = [run_evaluate_suite(tmp_path, workers, monkeypatch, capsys) for workers in (1, 2, 3)]
    for code, stdout, err, out in runs:
        assert (code, stdout, err) == runs[0][:3]
        assert not out.exists()
    code, _, err, _ = runs[0]
    assert code == 1 and err.startswith(opening) and err.count("\n") == 1


@pytest.mark.parametrize("die, detail", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {signal.SIGKILL.value}"),
])
def test_evaluate_worker_death_is_one_error_line(tmp_path, monkeypatch, capfd, die, detail):
    write_mixed_suite(tmp_path)
    parent, read = os.getpid(), formats.read_trajectory_rows

    def read_or_die(path):
        if os.getpid() != parent:
            die()
        return read(path)

    monkeypatch.setattr(formats, "read_trajectory_rows", read_or_die)
    code, stdout, err, out = run_evaluate_suite(tmp_path, 2, monkeypatch, capfd)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: a worker process scoring the sequences died: ")
    assert err == f"error: a worker process scoring the sequences died: {detail}\n"
    assert not out.exists()


class SequenceCrash(Exception):
    """An exception no handler expects, raised only in a child."""


def test_evaluate_child_exception_comes_back_as_its_type(tmp_path, monkeypatch, capsys):
    write_mixed_suite(tmp_path)
    parent, read = os.getpid(), formats.read_trajectory_rows

    def read_or_crash(path):
        if os.getpid() != parent:
            raise SequenceCrash(f"no reading {Path(path).name} here")
        return read(path)

    monkeypatch.setattr(formats, "read_trajectory_rows", read_or_crash)
    with pytest.raises(SequenceCrash, match=r"^no reading c\.(csv|txt) here$"):
        run_evaluate_suite(tmp_path, 2, monkeypatch, capsys)  # shares a b | c d e
    assert not (tmp_path / "out-2").exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_evaluate_own_share_error_frees_a_child_on_a_full_pipe(tmp_path, monkeypatch, capsys):
    # 160 short sequences: this process scores the first 80, a child the
    # other 80, whose results fill more than a 64 KiB pipe; the first fails
    pred_dir, gt_dir = tmp_path / "pred", tmp_path / "gt"
    pred_dir.mkdir(), gt_dir.mkdir()
    rows = np.column_stack([np.arange(1.0, 9.0), np.ones(8), np.full(8, 4.0), np.full(8, 3.0)])
    for k in range(160):
        for directory in (pred_dir, gt_dir):
            (directory / f"s{k:03}.csv").write_bytes(formats.trajectory_csv(rows + k))
    child_share = cli._discover_sequences(pred_dir, gt_dir)[80:]
    results = list(map(cli._score_sequence, child_share))
    assert len(pickle.dumps(("ok", results))) > 65536
    (pred_dir / "s000.csv").write_text("frame,cx,cy,w,h\n1,x,2,3,4\n")

    def stuck(*_):
        pytest.fail("evaluate is still waiting for a child blocked on its pipe")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        code, stdout, err, out = run_evaluate_suite(tmp_path, 2, monkeypatch, capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: sequence 's000': ") and err.count("\n") == 1
    assert not out.exists()
    with pytest.raises(ChildProcessError):  # the child was freed and reaped
        os.waitpid(-1, os.WNOHANG)


# ---------------------------------------------------------------------------
# attention-demo


def test_attention_demo_gamma_zero_identity(tmp_path):
    rng = np.random.default_rng(61)
    search_path = tmp_path / "search.bin"
    template_path = tmp_path / "template.bin"
    write_feature_map(search_path, rng.normal(size=(4, 6, 6)).astype(np.float32))
    write_feature_map(template_path, rng.normal(size=(4, 3, 3)).astype(np.float32))
    out = tmp_path / "out"
    code = main(
        [
            "attention-demo",
            "--search",
            str(search_path),
            "--template",
            str(template_path),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "enhanced.bin").read_bytes() == search_path.read_bytes()


def test_attention_demo_single_point_template_saliency(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "attention-demo",
            "--search-size",
            "4,5,5",
            "--template-size",
            "1,1",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    saliency = read_grid_csv(out / "saliency.csv")
    assert saliency.shape == (1, 1)
    assert saliency[0, 0] == pytest.approx(25.0, abs=1e-6)


def test_attention_demo_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(
            ["attention-demo", "--seed", "9", "--gamma", "0.5", "--output", str(out)]
        ) == 0
        outs.append(out)
    for filename in ("enhanced.bin", "saliency.csv", "saliency.pgm"):
        assert (outs[0] / filename).read_bytes() == (outs[1] / filename).read_bytes()


def test_attention_demo_mask_saliency_total(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "attention-demo",
            "--search-size",
            "8,25,25",
            "--template-size",
            "5,5",
            "--mask",
            "3,4,2,3",
            "--gamma",
            "0.2",
            "--output",
            str(out),
        ]
    )
    assert code == 0
    saliency = read_grid_csv(out / "saliency.csv")
    assert saliency.shape == (5, 5)
    assert saliency.sum() == pytest.approx(6.0, abs=1e-6)


@pytest.mark.parametrize("mask", [None, "3,4,2,3"])
def test_attention_demo_outputs_match_library_calls(tmp_path, mask):
    rng = np.random.default_rng(63)
    search = rng.normal(size=(8, 9, 7)).astype(np.float32).astype(float)
    template = rng.normal(size=(8, 3, 4)).astype(np.float32).astype(float)
    search_path, template_path = tmp_path / "search.bin", tmp_path / "template.bin"
    write_feature_map(search_path, search)
    write_feature_map(template_path, template)
    weights = with_biases(init_projection_weights(8, seed=5, gamma=0.7), seed=5)
    weights_path = tmp_path / "weights.npz"
    write_projection_weights(weights_path, weights)
    out = tmp_path / "out"
    argv = ["attention-demo", "--search", str(search_path), "--template", str(template_path),
            "--weights", str(weights_path), "--output", str(out)]
    assert main(argv + (["--mask", mask] if mask else [])) == 0

    expected = enhance_features(search, template, weights)
    assert read_feature_map(out / "enhanced.bin").tobytes() == (
        expected.astype(np.float32).astype(float).tobytes()
    )
    if mask:
        cells = [r * 7 + c for r in range(3, 5) for c in range(4, 7)]
    else:
        cells = range(9 * 7)
    attn = attention_weights(*project_qkv(search, template, weights)[:2])
    saliency = template_saliency(attn, cells).reshape(3, 4)
    assert np.array_equal(read_grid_csv(out / "saliency.csv"), saliency)


def test_attention_demo_mask_out_of_bounds(tmp_path, capsys):
    code = main(
        [
            "attention-demo",
            "--search-size",
            "4,5,5",
            "--mask",
            "4,4,3,3",
            "--output",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert "--mask" in capsys.readouterr().err


def test_attention_demo_huge_mask_is_outside_the_grid(tmp_path, capsys):
    # checked before any index array is built: a 10**12-row mask allocates nothing
    out = tmp_path / "o"
    argv = ["attention-demo", "--search-size", "4,5,5", "--mask", "0,0,1000000000000,1"]
    assert main(argv + ["--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --mask 0,0,1000000000000,1 outside search grid (5, 5)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("source", ["--gamma", "SATTRACK_GAMMA", "weights"])
def test_attention_demo_float32_overflow_is_one_error_line(tmp_path, monkeypatch, capsys, source):
    out = tmp_path / "o"
    argv = ["attention-demo", "--search-size", "4,5,5", "--output", str(out)]
    if source == "--gamma":
        argv += ["--gamma", "1e40"]
    elif source == "SATTRACK_GAMMA":
        monkeypatch.setenv("SATTRACK_GAMMA", "1e40")
    else:  # no flag or variable sets gamma: the weights file that does is named
        write_projection_weights(
            tmp_path / "w.npz", init_projection_weights(4, seed=0, gamma=1e40)
        )
        argv += ["--weights", str(tmp_path / "w.npz")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's cast warning would raise here
        code = main(argv)
    assert code == 1
    err = capsys.readouterr().err
    where = tmp_path / "w.npz" if source == "weights" else source
    assert err.startswith(f"error: {where}: feature-map cell (")
    assert err.endswith(") is not finite in float32\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("mask", ["1,1,0,2", "1,1,2,0", "1,1,-1,2", "1,1,2,-3"])
def test_attention_demo_mask_needs_positive_extent(tmp_path, capsys, mask):
    code = main(
        ["attention-demo", "--search-size", "4,5,5", "--mask", mask,
         "--output", str(tmp_path / "o")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "--mask" in err and "positive" in err
    assert not (tmp_path / "o" / "saliency.csv").exists()


def test_attention_demo_weights_file_and_gamma_override(tmp_path):
    rng = np.random.default_rng(62)
    search_path = tmp_path / "search.bin"
    template_path = tmp_path / "template.bin"
    write_feature_map(search_path, rng.normal(size=(4, 6, 6)).astype(np.float32))
    write_feature_map(template_path, rng.normal(size=(4, 2, 2)).astype(np.float32))
    weights_path = tmp_path / "weights.npz"
    write_projection_weights(weights_path, init_projection_weights(4, seed=3, gamma=0.9))
    base = ["attention-demo", "--search", str(search_path), "--template", str(template_path),
            "--weights", str(weights_path)]
    stored_out, zeroed_out = tmp_path / "stored", tmp_path / "zeroed"
    assert main(base + ["--output", str(stored_out)]) == 0
    assert main(base + ["--gamma", "0", "--output", str(zeroed_out)]) == 0
    # gamma from the file perturbs the features; the flag override restores identity
    assert (stored_out / "enhanced.bin").read_bytes() != search_path.read_bytes()
    assert (zeroed_out / "enhanced.bin").read_bytes() == search_path.read_bytes()


@pytest.mark.parametrize("flag", ["--search", "--template"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_attention_demo_rejects_non_finite_feature_map(tmp_path, capsys, flag, bad):
    search = np.zeros((4, 6, 6), dtype=np.float32)
    template = np.zeros((4, 2, 2), dtype=np.float32)
    (search if flag == "--search" else template)[0, 1, 1] = bad
    paths = {"--search": tmp_path / "search.bin", "--template": tmp_path / "template.bin"}
    paths["--search"].write_bytes(feature_map_bytes(search))
    paths["--template"].write_bytes(feature_map_bytes(template))
    out = tmp_path / "o"
    code = main(["attention-demo", "--search", str(paths["--search"]),
                 "--template", str(paths["--template"]), "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {paths[flag]}: ") and "not finite" in err
    assert not out.exists()


def _weights_without_w_k(path):
    weights = init_projection_weights(4, seed=3)
    with open(path, "wb") as fh:
        np.savez(fh, w_q=weights.w_q, w_v=weights.w_v, gamma=np.array(0.5))


def _weights_with_vector_gamma(path):
    weights = init_projection_weights(4, seed=3)
    with open(path, "wb") as fh:
        np.savez(fh, w_q=weights.w_q, w_k=weights.w_k, w_v=weights.w_v, gamma=np.zeros(2))


@pytest.mark.parametrize(
    "write, message",
    [
        (_weights_without_w_k, "missing array 'w_k'"),
        (lambda path: path.write_text("not a zip archive\n"), "not a weights .npz"),
        (_weights_with_vector_gamma, "gamma must be a single number"),
    ],
)
def test_attention_demo_rejects_bad_weights_file(tmp_path, capsys, write, message):
    weights_path = tmp_path / "weights.npz"
    write(weights_path)
    out = tmp_path / "o"
    code = main(["attention-demo", "--search-size", "4,5,5", "--weights", str(weights_path),
                 "--output", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {weights_path}: ") and message in err
    assert not out.exists()


def test_attention_demo_channel_mismatch(tmp_path, capsys):
    search_path = tmp_path / "search.bin"
    template_path = tmp_path / "template.bin"
    write_feature_map(search_path, np.zeros((4, 6, 6)))
    write_feature_map(template_path, np.zeros((8, 2, 2)))
    code = main(
        [
            "attention-demo",
            "--search",
            str(search_path),
            "--template",
            str(template_path),
            "--output",
            str(tmp_path / "o"),
        ]
    )
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {search_path}, {template_path}: feature maps must have 4 channels, "
        f"got 4 and 8\n"
    )


def test_attention_demo_channel_errors_open_with_what_set_the_counts(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["attention-demo", "--search-size", "6,4,4", "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: --search-size: channels must be a positive multiple of reduction, got C=6, r=4\n"
    )
    weights = tmp_path / "w.npz"
    write_projection_weights(weights, init_projection_weights(8, seed=1))
    argv = ["attention-demo", "--search-size", "6,5,5", "--weights", str(weights)]
    assert main([*argv, "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --search-size, {weights}: feature maps must have 8 channels, got 6 and 6\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("flag, text", [
    ("--search-size", "4,0,5"), ("--search-size", "0,5,5"), ("--search-size", "4,-1,5"),
    ("--template-size", "0,5"), ("--template-size", "5,-2"),
])
def test_attention_demo_sizes_must_be_positive(tmp_path, capsys, flag, text):
    out = tmp_path / "o"
    assert main(["attention-demo", flag, text, "--output", str(out)]) == 1
    sizes = tuple(int(size) for size in text.split(","))
    assert capsys.readouterr().err == (
        f"error: {flag} {text}: sizes must be positive, got {sizes}\n"
    )
    assert not out.exists()


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["track"])  # --scenario is required
    assert excinfo.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2