"""The reference kernel that defines the benchmark's reference speed.

The shared machines the benchmark runs on change speed by up to 1.75x from
one second to the next (turbo and neighbours on the same cores), which no
amount of repetition inside one run averages away.  So the timed loops run
this fixed kernel about every 20 ms, and every reported time is scaled to
the speed at which the kernel takes ``REFERENCE_NS``:

    reported = measured * REFERENCE_NS / (kernel time around the measurement)

The kernel mixes what the workloads spend their time on: interpreter
arithmetic, small numpy reductions, frozen-dataclass construction with a
validating ``__post_init__`` and float text round trips, then a
sliding-window correlation and a small matmul-softmax like the head step's.
It never calls the package.  Do not change it or ``REFERENCE_NS``: either
change rescales every reported time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

# The kernel's typical time on the 2-core Xeon machine the benchmark was
# defined on, so reported times there read close to wall-clock times.
REFERENCE_NS = 2_000_000
ITERATIONS = 75
ARRAY_ITERATIONS = 2

_GRID = np.random.Generator(np.random.PCG64(0)).random((25, 25))
_FEATURES = np.random.Generator(np.random.PCG64(1)).random((8, 29, 29))
_KERNEL = np.random.Generator(np.random.PCG64(2)).random((8, 5, 5))


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("point must be finite")


def kernel_ns() -> int:
    """Run the kernel once; its duration in nanoseconds."""
    start = time.perf_counter_ns()
    acc = 0.0
    for i in range(ITERATIONS):
        peak = int(np.argmax(_GRID))
        mean = float(_GRID.sum() - _GRID[0:3, 0:3].sum())
        centered = _GRID - mean
        acc += float((centered * centered).sum()) + peak
        point = _Point(i * 0.5, acc)
        acc += float(f"{i},{point.x!r},{point.y!r}".split(",")[1])
    for _ in range(ARRAY_ITERATIONS):
        windows = np.lib.stride_tricks.sliding_window_view(_FEATURES, (5, 5), axis=(1, 2))
        response = np.einsum("cijhw,chw->cij", windows, _KERNEL)
        flat = _FEATURES.reshape(8, -1)
        scores = flat.T @ flat[:, :25]
        acc += float(response.sum() + np.exp(scores - scores.max()).sum())
    return time.perf_counter_ns() - start
