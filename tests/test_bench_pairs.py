"""The ``compare`` step and the run guard of tools/bench_pairs.py."""

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


def summary(fps_median, machine="box", workloads=("refine_stream",)):
    def side(median):
        return {
            "machine": machine,
            "runs": 5,
            "failed": 0,
            "end_to_end": {
                "frames_per_s": {"median": median, "q1": median - 1.0, "q3": median + 1.0,
                                 "iqr": 2.0},
            },
        }

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
    assert len(lines) == 3


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
