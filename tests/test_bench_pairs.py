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


def run_record(side, pair, fps):
    """One ``run`` log record: each higher-is-better end-to-end metric reads
    ``fps``, each lower-is-better one ``1 / fps``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": fps if m["better"] == "higher" else 1.0 / fps}
               for m in spec["end_to_end"]}
    return {"side": side, "pair": pair, "workload": "refine_stream", "seed": 9001,
            "seconds": 10.0, "trace": 0, "machine": "box", "failed": 0,
            "wall": {"frames_per_s": fps}, "metrics": metrics}


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
