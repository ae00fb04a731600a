"""The ``compare`` and ``summarize`` steps and the run guard of tools/bench_pairs.py."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
# the committed benchmark files in numeric order (BENCH_10 after BENCH_9)
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.split("_")[1]))


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def summary(fps_median, machine="box", workloads=("refine_stream",), wall=None):
    """A summary whose change side reads ``fps_median`` frames/s and parent
    side 1, with each side's wall-clock median ``wall`` (no wall clock for
    ``None``)."""
    def side(median):
        entry = {
            "machine": machine,
            "runs": 5,
            "failed": 0,
            "end_to_end": {
                "frames_per_s": {"median": median, "q1": median - 1.0, "q3": median + 1.0,
                                 "iqr": 2.0},
            },
        }
        if wall is not None:
            entry["wall_clock"] = {"frames_per_s": {"median": wall, "q1": wall, "q3": wall,
                                                    "iqr": 0.0}}
        return entry

    return {
        "source": "tools/bench_pairs.py",
        "workloads": {name: {"parent": side(1.0), "change": side(fps_median)} for name in workloads},
    }


def test_compare_lines_give_medians_quartiles_and_ratio(bench_pairs):
    lines = bench_pairs.compare_lines(summary(40.0), summary(60.0))
    assert lines[0] == "refine_stream: 5 -> 5 runs, failed 0 -> 0"
    assert lines[1].split() == ["frames_per_s", "40", "[39-41]", "->", "60", "[59-61]", "1.500x"]
    assert len(lines) == 2


def test_compare_lines_flag_machines_and_unmatched_workloads(bench_pairs):
    before = summary(40.0, machine="a", workloads=("refine_stream", "evaluate_suite"))
    after = summary(60.0, machine="b", workloads=("refine_stream", "track_suite"))
    lines = bench_pairs.compare_lines(before, after)
    assert "  machines differ: a vs b" in lines
    assert "track_suite: only in the second file" in lines
    assert "evaluate_suite: only in the first file" in lines


def test_compare_command_prints_the_table(bench_pairs, tmp_path, capsys):
    before, after = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    before.write_text(json.dumps(summary(40.0)))
    after.write_text(json.dumps(summary(50.0)))
    bench_pairs.main(["compare", str(before), str(after)])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{before} -> {after}"
    assert out[2].split()[-1] == "1.250x"


def test_next_pair_continues_the_log(bench_pairs, tmp_path):
    log = tmp_path / "runs.jsonl"
    assert bench_pairs.next_pair(log, "refine_stream", 0) == 0
    records = [
        {"workload": "refine_stream", "trace": 0, "pair": 0},
        {"workload": "refine_stream", "trace": 0, "pair": 1},
        {"workload": "refine_stream", "trace": 1, "pair": 0},
        {"workload": "track_suite", "trace": 0, "pair": 4},
    ]
    log.write_text("".join(json.dumps(r) + "\n" for r in records) + "\n")
    assert bench_pairs.next_pair(log, "refine_stream", 0) == 2
    assert bench_pairs.next_pair(log, "refine_stream", 1) == 1
    assert bench_pairs.next_pair(log, "track_suite", 0) == 5
    assert bench_pairs.next_pair(log, "evaluate_suite", 0) == 0


def test_compare_lines_show_each_files_in_file_verdict(bench_pairs):
    before, after = summary(40.0), summary(60.0)
    before["workloads"]["refine_stream"]["change_wins"] = {"frames_per_s": "3/5"}
    after["workloads"]["refine_stream"]["change_wins"] = {"frames_per_s": "10/10"}
    after["workloads"]["refine_stream"]["parent"]["end_to_end"]["frames_per_s"]["median"] = 42.0
    lines = bench_pairs.compare_lines(before, after)
    assert lines[1].split()[-1] == "1.500x"
    assert lines[2] == "    in-file parent -> change: 1 -> 40 (wins 3/5) | 42 -> 60 (wins 10/10)"
    # files without a wall clock have no ratio to show
    assert lines[3] == "    scaled/wall: parent -, change - | parent -, change -"
    assert len(lines) == 4


def test_compare_lines_show_each_sides_scaled_to_wall_ratio(bench_pairs):
    before, after = summary(40.0, wall=32.0), summary(60.0, wall=50.0)
    for entry in (before, after):
        entry["workloads"]["refine_stream"]["change_wins"] = {"frames_per_s": "5/5"}
    lines = bench_pairs.compare_lines(before, after)
    assert lines[3] == ("    scaled/wall: parent 0.031, change 1.250 | "
                        "parent 0.020, change 1.200")


@pytest.mark.parametrize("before, after", [
    pytest.param(before, after, id=f"{before.stem}-{after.stem}")
    for before, after in zip(BENCH_FILES, BENCH_FILES[1:])
])
def test_compare_reads_each_consecutive_committed_pair(bench_pairs, capsys, before, after):
    bench_pairs.main(["compare", str(before), str(after)])
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{before} -> {after}"
    workloads = [json.loads(path.read_text())["workloads"].keys() for path in (before, after)]
    shared = workloads[0] & workloads[1]
    assert shared
    for workload in shared:
        header = re.compile(rf"{workload}: \d+ -> \d+ runs, failed \d+ -> \d+")
        assert any(header.fullmatch(line) for line in out)
    ratios = [line.split()[-1] for line in out if line.split()[:1] == ["frames_per_s"]]
    assert len(ratios) == len(shared) and all(ratio.endswith("x") for ratio in ratios)


@pytest.mark.parametrize("cached_side", ["parent", "change"])
def test_run_refuses_one_sided_bytecode(bench_pairs, tmp_path, cached_side):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "src" / "sattrack").mkdir(parents=True)
    ((parent if cached_side == "parent" else change) / bench_pairs.BYTECODE).mkdir()
    log = tmp_path / "runs.jsonl"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "run", "--parent", str(parent), "--change", str(change),
         "--workload", "track_suite", "--pairs", "1", "--log", str(log)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    message = proc.stderr.strip()
    assert message.startswith("bench_pairs: bytecode state differs")
    assert f"parent {parent} " in message and f"change {change} " in message
    assert f"{cached_side} {tmp_path / cached_side} has src/sattrack/__pycache__" in message
    assert not log.exists()


@pytest.mark.parametrize("cached", [False, True])
def test_equal_bytecode_states_pass_the_guard(bench_pairs, tmp_path, cached):
    checkouts = {side: tmp_path / side for side in ("parent", "change")}
    for checkout in checkouts.values():
        (checkout / "src" / "sattrack").mkdir(parents=True)
        if cached:
            (checkout / bench_pairs.BYTECODE).mkdir()
    assert bench_pairs.bytecode_mismatch(checkouts) is None


# verdict(parent runs, change runs, pairs won, pairs, direction, bound)
@pytest.mark.parametrize("parent, change, wins, pairs, better, expected", [
    # 10/10 pairs and a median gap (10) over the parent's IQR (4.5)
    pytest.param(list(range(100, 110)), list(range(110, 120)), 10, 10, "higher", "gain",
                 id="gain"),
    # 9/10, the tenth pair a tie, still a gain; lower is better here
    pytest.param(list(range(100, 110)), list(range(90, 100)), 9, 10, "lower", "gain",
                 id="gain-lower-with-a-tie"),
    # 8/10 pairs is no gain, however large the gap
    pytest.param(list(range(100, 110)), list(range(110, 120)), 8, 10, "higher", "no worse",
                 id="too-few-wins"),
    # nor is 9/9: a gain needs ten pairs at least
    pytest.param(list(range(100, 109)), list(range(110, 119)), 9, 9, "higher", "no worse",
                 id="too-few-pairs"),
    # every pair won, but a gap (5) inside the parent's IQR (10)
    pytest.param(list(range(90, 111, 2)), list(range(95, 116, 2)), 11, 11, "higher",
                 "no worse", id="gap-inside-iqr"),
    # the change's median 30% below the parent's, bound 25%
    pytest.param([100.0] * 5, [70.0] * 5, 0, 5, "higher", "worse", id="worse-higher"),
    # a time 30% above the parent's, bound 25%
    pytest.param([10.0] * 5, [13.0] * 5, 0, 5, "lower", "worse", id="worse-lower"),
    # the parent's own IQR (41) is wider than the bound (25): no verdict
    pytest.param([50, 60, 100, 101, 102], [99, 103, 103, 103, 103], 3, 5, "higher",
                 "unresolved", id="unresolved"),
    # the same spread, but every change run beats every parent run
    pytest.param([50, 60, 100, 101, 102], [103] * 5, 5, 5, "higher", "no worse",
                 id="wide-but-all-better"),
    # a wide change side is unresolved too
    pytest.param([100.0] * 5, [60, 70, 100, 130, 140], 2, 5, "higher", "unresolved",
                 id="unresolved-change-spread"),
    pytest.param([100, 101, 102, 103, 104], [99, 100, 101, 102, 103], 0, 5, "higher",
                 "no worse", id="no-worse"),
])
def test_verdicts(bench_pairs, parent, change, wins, pairs, better, expected):
    assert bench_pairs.verdict(parent, change, wins, pairs, better, 0.25) == expected


def run_record(side, pair, fps, workload="refine_stream", seed=9001, seconds=10.0, wall=None):
    """One ``run`` log record: each higher-is-better end-to-end metric reads
    ``fps``, each lower-is-better one ``1 / fps``; the wall clock reads
    ``wall`` frames/s (``fps`` when not given) and its inverse as the p50."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": fps if m["better"] == "higher" else 1.0 / fps}
               for m in spec["end_to_end"]}
    wall = fps if wall is None else wall
    return {"side": side, "pair": pair, "workload": workload, "seed": seed,
            "seconds": seconds, "trace": 0, "machine": "box", "failed": 0,
            "wall": {"frames_per_s": wall, "frame_p50_us": 1.0 / wall}, "metrics": metrics}


def summarize_records(bench_pairs, tmp_path, records) -> dict:
    """The refine_stream entry ``summarize`` writes for a log of ``records``."""
    log, out = tmp_path / "runs.jsonl", tmp_path / "BENCH_1.json"
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    bench_pairs.main(["summarize", "--log", str(log), "--out", str(out)])
    return json.loads(out.read_text())["workloads"]["refine_stream"]


def test_summarize_judges_the_wall_clock_and_flags_a_scaling_that_moved(bench_pairs, tmp_path,
                                                                       capsys):
    # scaled, the change gains 20 frames/s on every pair; on the wall clock
    # it loses 30: the reference probe read the two sides differently
    records = [record for pair in range(10) for record in (
        run_record("parent", pair, 100.0 + pair),
        run_record("change", pair, 120.0 + pair, wall=70.0 + pair),
    )]
    entry = summarize_records(bench_pairs, tmp_path, records)
    assert entry["verdicts"]["frames_per_s"] == entry["verdicts"]["frame_p50_us"] == "gain"
    assert entry["wall_verdicts"] == {"frames_per_s": "worse", "frame_p50_us": "worse"}
    assert entry["wall_change_wins"] == {"frames_per_s": "0/10", "frame_p50_us": "0/10"}
    assert entry["parent"]["scaled_to_wall"]["median"] == 1.0
    assert entry["change"]["scaled_to_wall"]["median"] == pytest.approx(124.5 / 74.5, rel=1e-3)
    assert entry["scaling_differs"] is True
    table = capsys.readouterr().out
    assert "  wall frames_per_s " in table and "wins 0/10, worse" in table
    assert table.rstrip().endswith("scaled and wall-clock verdicts differ")


def test_summarize_leaves_a_moved_scaling_unflagged_where_the_verdicts_agree(bench_pairs,
                                                                            tmp_path, capsys):
    # unchanged code, as refine_stream in BENCH_36.json: the scaled-to-wall
    # ratios read 0.73 on the parent and 0.70 on the change, 0.03 apart
    # against IQRs of 0.004, yet both verdicts are "no worse"
    records = []
    for pair in range(5):
        spread = 0.002 * pair
        records.append(run_record("parent", pair, 73.0 + pair, wall=(73.0 + pair) / (0.726 + spread)))
        records.append(run_record("change", pair, 73.0 + pair, wall=(73.0 + pair) / (0.696 + spread)))
    entry = summarize_records(bench_pairs, tmp_path, records)
    p, c = (entry[side]["scaled_to_wall"] for side in ("parent", "change"))
    assert c["median"] - p["median"] == pytest.approx(-0.03)
    assert max(p["iqr"], c["iqr"]) == pytest.approx(0.004)
    assert entry["verdicts"]["frames_per_s"] == entry["wall_verdicts"]["frames_per_s"] == "no worse"
    assert entry["scaling_differs"] is False
    table = capsys.readouterr().out
    assert "scaled/wall frames_per_s 0.73 [0.728-0.732] -> 0.7 [0.698-0.702]\n" in table


def test_summarize_leaves_an_unresolved_wall_clock_unflagged(bench_pairs, tmp_path, capsys):
    # as head_train_step in BENCH_39.json: scaled, the change gains 20
    # frames/s on every pair, while the box's speed swings so far between
    # runs (the change's wall clock 70..160) that the wall clock gives no
    # verdict; a verdict that cannot be read does not differ from one
    records = [record for pair in range(10) for record in (
        run_record("parent", pair, 100.0 + pair),
        run_record("change", pair, 120.0 + pair, wall=70.0 + 10.0 * pair),
    )]
    entry = summarize_records(bench_pairs, tmp_path, records)
    assert entry["verdicts"]["frames_per_s"] == "gain"
    assert entry["wall_verdicts"]["frames_per_s"] == "unresolved"
    assert entry["scaling_differs"] is False
    assert "verdicts differ" not in capsys.readouterr().out


def test_summarize_leaves_a_scaling_within_the_spread_unflagged(bench_pairs, tmp_path, capsys):
    # scaled-to-wall ratios 0.90..1.10 on the parent (IQR 0.1) and
    # 0.95..1.15 on the change: medians 0.05 apart, inside the spread
    records = []
    for pair, ratio in enumerate([0.90, 0.95, 1.00, 1.05, 1.10]):
        records.append(run_record("parent", pair, 100.0, wall=100.0 / ratio))
        records.append(run_record("change", pair, 100.0, wall=100.0 / (ratio + 0.05)))
    entry = summarize_records(bench_pairs, tmp_path, records)
    assert entry["change"]["scaled_to_wall"]["median"] == pytest.approx(1.05)
    assert entry["parent"]["scaled_to_wall"]["iqr"] == pytest.approx(0.1)
    assert entry["scaling_differs"] is False
    # the change's wall clock is slower by 5% at the median, inside the 25% bound
    assert entry["wall_verdicts"] == {"frames_per_s": "no worse", "frame_p50_us": "no worse"}
    assert "verdicts differ" not in capsys.readouterr().out


def test_summarize_records_each_metrics_verdict(bench_pairs, tmp_path, capsys):
    log, out = tmp_path / "runs.jsonl", tmp_path / "BENCH_1.json"
    records = [run_record(side, pair, 100.0 + pair + (20.0 if side == "change" else 0.0))
               for pair in range(10) for side in ("parent", "change")]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    bench_pairs.main(["summarize", "--log", str(log), "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["refine_stream"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert entry["verdicts"] == {m["name"]: "gain" for m in spec["end_to_end"]}
    assert "wins 10/10, gain" in capsys.readouterr().out
    before = summary(40.0)
    before["workloads"]["refine_stream"]["change_wins"] = {"frames_per_s": "3/5"}
    lines = bench_pairs.compare_lines(before, json.loads(out.read_text()))
    assert lines[2].endswith("| 104.5 -> 124.5 (wins 10/10, gain)")


def test_summarize_records_each_workloads_own_settings(bench_pairs, tmp_path, capsys):
    log, out = tmp_path / "runs.jsonl", tmp_path / "BENCH_1.json"
    records = [run_record(side, 0, 100.0, "track_suite", 9001, 10.0) for side in ("parent", "change")]
    records += [run_record(side, 0, 100.0, "refine_stream", 7, 3.0) for side in ("parent", "change")]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    bench_pairs.main(["summarize", "--log", str(log), "--out", str(out)])
    workloads = json.loads(out.read_text())["workloads"]
    settings = {name: (entry["seed"], entry["seconds"]) for name, entry in workloads.items()}
    assert settings == {"track_suite": (9001, 10.0), "refine_stream": (7, 3.0)}
    # pairs from different settings cannot be compared: no file is written
    records.append(run_record("parent", 1, 100.0, "refine_stream", 7, 10.0))
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    mixed = tmp_path / "BENCH_2.json"
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main(["summarize", "--log", str(log), "--out", str(mixed)])
    assert exit_info.value.code == (
        "bench_pairs: refine_stream runs differ in their settings "
        "(seed 7 for 3.0 s, seed 7 for 10.0 s); pairs from different settings cannot be compared"
    )
    assert not mixed.exists()


def test_summarize_writes_the_file_before_the_table(bench_pairs, tmp_path, monkeypatch):
    # stdout piped into a reader that has exited, such as `| head -1`
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    log, out = tmp_path / "runs.jsonl", tmp_path / "BENCH_1.json"
    records = [run_record(side, 0, 100.0) for side in ("parent", "change")]
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    out.write_text("an older summary\n")
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        bench_pairs.main(["summarize", "--log", str(log), "--out", str(out)])
    monkeypatch.undo()
    entry = json.loads(out.read_text())["workloads"]["refine_stream"]
    assert entry["parent"]["runs"] == entry["change"]["runs"] == 1


def test_summarize_takes_the_median_of_every_traced_run(bench_pairs, tmp_path, capsys):
    log, out = tmp_path / "runs.jsonl", tmp_path / "BENCH_1.json"
    records = [run_record(side, 0, 100.0) for side in ("parent", "change")]
    # two traced pairs; the change's second run lacks one metric
    layers = {("parent", 0): (3.0, 10.0), ("parent", 1): (5.0, 20.0),
              ("change", 0): (1.0, 7.0), ("change", 1): (2.0, None)}
    for (side, pair), (self_us, calls) in layers.items():
        record = run_record(side, pair, 90.0)
        record["trace"] = 1
        record["metrics"] = {"formats.self_us_per_frame": {"value": self_us}}
        if calls is not None:
            record["metrics"]["metrics.evaluate_calls"] = {"value": calls}
        records.append(record)
    log.write_text("".join(json.dumps(r) + "\n" for r in records))
    bench_pairs.main(["summarize", "--log", str(log), "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["refine_stream"]
    assert entry["parent"]["per_layer"] == {"formats.self_us_per_frame": 4.0,
                                            "metrics.evaluate_calls": 15.0}
    assert entry["change"]["per_layer"] == {"formats.self_us_per_frame": 1.5,
                                            "metrics.evaluate_calls": 7.0}
    # traced runs count neither as runs nor as pairs
    assert entry["parent"]["runs"] == entry["change"]["runs"] == 1
    assert entry["change_wins"]["frames_per_s"] == "0/1"
