"""Speed probe: fixed work that tracks how fast the machine runs at the moment.

The machine this benchmark was written on is shared: its speed drifts by
20-40% over minutes, the same for every op, so run-to-run spread of raw
timings is mostly the machine's. Between ops the benchmark times three
fixed kernels that have nothing to do with ``wstategen`` (a pure-Python
loop, small numpy calls from Python, building and serializing small dicts)
and reports its timings scaled to a machine on which the geometric mean of
the kernels' medians is ``REFERENCE_MS``. The kernels allocate under 1 MB,
so they never set the peak memory the benchmark reports. A
change to the program moves its timings and not the kernels', so the
scaled timings keep every change the program makes and drop most of the
machine's drift.
"""
from __future__ import annotations

import json
import math
import statistics
import time

import numpy as np

REFERENCE_MS = 4.5
EVERY_S = 0.5


def _python_loop() -> None:
    s = 0
    for j in range(60_000):
        s += j * j


def _numpy_small_calls() -> None:
    a = np.arange(8, dtype=complex)
    s = 0j
    for i in range(400):
        s += np.prod(a + i)


def _dicts_to_json() -> None:
    json.dumps([{"port": i, "amp": [i * 0.5, -i * 0.25]} for i in range(3000)])


KERNELS = (_python_loop, _numpy_small_calls, _dicts_to_json)


class SpeedProbe:
    """Kernel timings taken at most every ``EVERY_S`` seconds."""

    def __init__(self):
        self.samples_ms: dict[str, list[float]] = {k.__name__: [] for k in KERNELS}
        self._last = -math.inf

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last < EVERY_S:
            return
        for kernel in KERNELS:
            t0 = time.perf_counter()
            kernel()
            self.samples_ms[kernel.__name__].append((time.perf_counter() - t0) * 1e3)
        self._last = time.perf_counter()

    def speed_ms(self) -> float:
        """Geometric mean over the kernels of each kernel's median time."""
        medians = [statistics.median(v) for v in self.samples_ms.values()]
        return math.exp(sum(map(math.log, medians)) / len(medians))

    def scale(self) -> float:
        """Factor that turns a timing on this run into one at the reference speed."""
        return REFERENCE_MS / self.speed_ms()
