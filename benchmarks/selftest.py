"""Self-test of the benchmark harness at a few frames per workload.

    python3 benchmarks/selftest.py

Runs every workload of BENCHMARK.json with ``--tiny`` in both modes and
checks the result line: every named metric is printed with its unit as a
finite number, and no operation failed.  It also checks that a copy of the
benchmark without the package source exits non-zero without a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["benchmarks/run.py"]
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *RUN, "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def problems_in(proc: subprocess.CompletedProcess, wanted: list[dict]) -> list[str]:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return ["last line is not a JSON object"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(
            f"correct={result['correct']} failed={result['failed']} attempted={result['attempted']}"
        )
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r}, expected {m['unit']!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r} is not a finite number")
    return problems


def bare_copy_fails() -> list[str]:
    """The benchmark alone, without src/, must refuse to run."""
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = run(bare, "track_suite", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["a copy without src/ did not fail cleanly"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            problems = problems_in(run(ROOT, workload, trace), spec[section])
            status = "ok" if not problems else "FAIL"
            print(f"{status:4s} {workload} --trace {trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)
    problems = bare_copy_fails()
    print(f"{'ok' if not problems else 'FAIL':4s} refuses to run without the package source")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
