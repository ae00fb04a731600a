"""Time the atomic writer on one filesystem, with and without the swap.

    PYTHONPATH=src python3 tools/replace_cost.py --dir . --files 200 --rounds 5

Each round writes ``--files`` files of ``--size`` bytes through
``formats.atomic_write_bytes`` into a fresh directory made under ``--dir``,
then writes them again over themselves, once with the ``renameat2`` swap
and once with ``os.replace`` alone (the handle set to ``None``); the two
ways alternate which goes first.  It prints, per way and case (``fresh``
names, ``rewrite`` of existing files), the median time of one write, and
the median of one write followed by an ``fsync`` of the written file.  The
second figure counts the data writeback that a rewrite by swap leaves to
the kernel, so a gain there would be more than moved out of the call.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import tempfile
import time
from pathlib import Path

from sattrack import formats

CASES = ("fresh", "rewrite")


def write_all(directory: Path, data: bytes, count: int, sync: bool) -> list[float]:
    """Microseconds per write (plus fsync when ``sync``) of ``count`` files."""
    times = []
    for index in range(count):
        path = directory / f"out{index}.csv"
        start = time.perf_counter_ns()
        formats.atomic_write_bytes(path, data)
        if sync:
            fd = os.open(path, os.O_RDONLY)
            os.fsync(fd)
            os.close(fd)
        times.append((time.perf_counter_ns() - start) / 1e3)
    return times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--dir", type=Path, default=Path("."), help="filesystem to measure on")
    parser.add_argument("--size", type=int, default=20_000, help="bytes per file")
    parser.add_argument("--files", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)

    swap = formats._RENAMEAT2
    ways = {"swap": swap, "os.replace": None} if swap is not None else {"os.replace": None}
    data = bytes(range(256)) * (args.size // 256) + bytes(args.size % 256)
    times = {(way, case, sync): [] for way in ways for case in CASES for sync in (False, True)}
    for round_ in range(args.rounds):
        order = list(ways) if round_ % 2 == 0 else list(ways)[::-1]
        for way in order:
            formats._RENAMEAT2 = ways[way]
            for sync in (False, True):
                directory = Path(tempfile.mkdtemp(prefix="replace_cost.", dir=args.dir))
                try:
                    for case in CASES:
                        times[way, case, sync] += write_all(directory, data, args.files, sync)
                finally:
                    shutil.rmtree(directory)
    formats._RENAMEAT2 = swap

    print(f"# {args.files} files x {args.rounds} rounds of {args.size} bytes in {args.dir.resolve()}")
    print(f"{'way':<12}{'case':<9}{'write us':>10}{'write+fsync us':>16}")
    for way in ways:
        for case in CASES:
            plain, synced = (statistics.median(times[way, case, sync]) for sync in (False, True))
            print(f"{way:<12}{case:<9}{plain:>10.1f}{synced:>16.1f}")


if __name__ == "__main__":
    main()
