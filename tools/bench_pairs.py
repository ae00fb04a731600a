"""Run the benchmark on two checkouts in alternating pairs and summarise.

    python3 tools/bench_pairs.py run --parent ../parent --change . \\
        --workload track_suite --pairs 10 --seed 9001 --seconds 10 --log runs.jsonl
    python3 tools/bench_pairs.py run ... --trace 1 --pairs 1      # per-layer metrics
    python3 tools/bench_pairs.py summarize --log runs.jsonl --out BENCH_6.json
    python3 tools/bench_pairs.py compare BENCH_6.json BENCH_7.json

``run`` calls ``benchmarks/run.py`` of each checkout in a fresh process,
parent first in even pairs and change first in odd ones, and appends one JSON
record per run to the log: the side, the ``# machine`` line, the final JSON
object and the unscaled wall-clock values.  It refuses to start when only
one checkout has ``src/sattrack/__pycache__``.  ``summarize`` turns a log into
the committed ``BENCH_<n>.json``: per workload and side, the number of runs
and the median and quartiles of every end-to-end metric (scaled and wall
clock), the pairs the change won on each metric, and the per-layer metrics
of the traced runs; it also prints a table of the medians.  ``compare``
prints the before/after table of two committed files: for every workload in
both, the median and quartiles of each end-to-end metric on the ``change``
side (the code each file was written for) and the ratio of the medians,
followed for frames_per_s by each file's own parent -> change medians and
pair wins.  Scaling to the reference kernel makes files from different
days comparable, but not exactly: a change is judged by the pairs inside one
file.  Nothing under ``benchmarks/`` is changed or imported.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    lines = subprocess.run(
        command, cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    record = {"machine": None, "wall": {}, **json.loads(lines[-1])}
    for line in lines:
        if line.startswith("# machine "):
            record["machine"] = json.loads(line[len("# machine "):])
        elif line.startswith("# wall clock, unscaled: "):
            for item in line[len("# wall clock, unscaled: "):].split(", "):
                name, value = item.rsplit(" ", 1)
                record["wall"][name] = float(value)
    return record


def next_pair(log_path: Path, workload: str, trace: int) -> int:
    """The first pair number not yet used in the log for this workload and
    trace setting, so a second ``run`` into one log adds pairs instead of
    overwriting the first ones when ``summarize`` matches them up."""
    if not log_path.exists():
        return 0
    used = [r["pair"] for r in map(json.loads, filter(str.strip, log_path.read_text().splitlines()))
            if r["workload"] == workload and r["trace"] == trace]
    return max(used, default=-1) + 1


BYTECODE = Path("src") / "sattrack" / "__pycache__"


def bytecode_mismatch(checkouts: dict[str, Path]) -> str | None:
    """Why the checkouts cannot be compared, when exactly one of them holds
    compiled bytecode of the package: loading it skips compiling every
    module, which moves ``setup_s`` on that side alone."""
    cached = {side: (path / BYTECODE).is_dir() for side, path in checkouts.items()}
    if len(set(cached.values())) == 1:
        return None
    listing = ", ".join(
        f"{side} {path} {'has' if cached[side] else 'lacks'} {BYTECODE}"
        for side, path in checkouts.items()
    )
    return f"bytecode state differs ({listing}); remove it or build it on both sides"


def cmd_run(args):
    checkouts = {"parent": Path(args.parent), "change": Path(args.change)}
    problem = bytecode_mismatch(checkouts)
    if problem:
        sys.exit(f"bench_pairs: {problem}")
    first = next_pair(Path(args.log), args.workload, args.trace)
    with open(args.log, "a") as log:
        for pair in range(first, first + args.pairs):
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                record = run_once(checkouts[side], args.workload, args.seed, args.seconds, args.trace)
                record.update(side=side, pair=pair, workload=args.workload, seed=args.seed,
                              seconds=args.seconds, trace=args.trace)
                log.write(json.dumps(record) + "\n")
                log.flush()
                fps = record["metrics"].get("frames_per_s", {}).get("value")
                print(f"{args.workload} pair {pair} {side}: failed {record['failed']}, frames_per_s {fps}")


def stats(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def cmd_summarize(args):
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    records = [json.loads(line) for line in open(args.log) if line.strip()]
    summary = {"source": "tools/bench_pairs.py", "workloads": {}}
    for workload in dict.fromkeys(r["workload"] for r in records):
        untraced = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry = {"seed": records[0]["seed"], "seconds": records[0]["seconds"]}
        by_side = {s: [r for r in untraced if r["side"] == s] for s in SIDES}
        for side, runs in by_side.items():
            entry[side] = {
                "machine": runs[0]["machine"] if runs else None,
                "runs": len(runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": {
                    name: stats([r["metrics"][name]["value"] for r in runs]) for name in better
                } if runs else {},
                "wall_clock": {
                    name: stats([r["wall"][name] for r in runs]) for name in runs[0]["wall"]
                } if runs else {},
                "per_layer": {
                    name: m["value"]
                    for r in traced if r["side"] == side for name, m in r["metrics"].items()
                },
            }
        pairs = {}
        for r in untraced:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        wins = {}
        for name, direction in better.items():
            sign = 1 if direction == "higher" else -1
            diffs = [sign * (p["change"][name]["value"] - p["parent"][name]["value"])
                     for p in pairs.values() if len(p) == 2]
            wins[name] = f"{sum(d > 0 for d in diffs)}/{len(diffs)}"
        entry["change_wins"] = wins
        summary["workloads"][workload] = entry
        print(f"{workload}: parent {len(by_side['parent'])} runs, change {len(by_side['change'])} runs")
        for name in better:
            if by_side["parent"] and by_side["change"]:
                p, c = entry["parent"]["end_to_end"][name], entry["change"]["end_to_end"][name]
                print(f"  {name:22s} {p['median']:12.6g} [{p['q1']:.6g}-{p['q3']:.6g}] -> "
                      f"{c['median']:12.6g} [{c['q1']:.6g}-{c['q3']:.6g}]  wins {wins[name]}")
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


def _cell(entry) -> str:
    return f"{entry['median']:.6g} [{entry['q1']:.6g}-{entry['q3']:.6g}]"


def _in_file(entry) -> str:
    """One file's own verdict on frames_per_s: parent -> change medians and
    the pairs the change won."""
    medians = [entry[side]["end_to_end"]["frames_per_s"]["median"] for side in SIDES]
    return f"{medians[0]:.6g} -> {medians[1]:.6g} (wins {entry['change_wins']['frames_per_s']})"


def compare_lines(before: dict, after: dict) -> list[str]:
    """The before/after table of two summaries' change sides, one line per
    workload metric.  Under frames_per_s, when both files hold pair
    verdicts, each file's in-file parent -> change result follows the
    cross-file ratio, since only the in-file pairs judge a change."""
    lines = []
    for workload, new_entry in after["workloads"].items():
        old_entry = before["workloads"].get(workload)
        if old_entry is None:
            lines.append(f"{workload}: only in the second file")
            continue
        old, new = old_entry["change"], new_entry["change"]
        lines.append(f"{workload}: {old['runs']} -> {new['runs']} runs, "
                     f"failed {old['failed']} -> {new['failed']}")
        if old["machine"] != new["machine"]:
            lines.append(f"  machines differ: {old['machine']} vs {new['machine']}")
        for name, now in new["end_to_end"].items():
            then = old["end_to_end"].get(name)
            if then is None:
                continue
            ratio = f"{now['median'] / then['median']:.3f}x" if then["median"] else "-"
            lines.append(f"  {name:22s} {_cell(then):>40s} -> {_cell(now):40s} {ratio}")
            if name == "frames_per_s" and "change_wins" in old_entry and "change_wins" in new_entry:
                lines.append(f"    in-file parent -> change: {_in_file(old_entry)} | "
                             f"{_in_file(new_entry)}")
    lines.extend(f"{w}: only in the first file"
                 for w in before["workloads"] if w not in after["workloads"])
    return lines


def cmd_compare(args):
    before, after = (json.loads(Path(path).read_text()) for path in (args.before, args.after))
    print(f"{args.before} -> {args.after}")
    print("\n".join(compare_lines(before, after)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--parent", required=True, help="checkout of the parent commit")
    p.add_argument("--change", required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=9001)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--log", required=True, help="JSON-lines file the runs are appended to")
    p.set_defaults(handler=cmd_run)
    p = sub.add_parser("summarize")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_summarize)
    p = sub.add_parser("compare", help="before/after table of two BENCH_*.json files")
    p.add_argument("before")
    p.add_argument("after")
    p.set_defaults(handler=cmd_compare)
    args = parser.parse_args(argv)
    args.handler(args)


if __name__ == "__main__":
    main()
