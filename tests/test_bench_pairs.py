"""The ``compare`` step of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


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
