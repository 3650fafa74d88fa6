"""Host speed, sampled while an untraced command runs.

The benchmark was built on a shared VM whose single-thread speed moves
by up to 2x over seconds to minutes, with CPU time moving with wall time
and no steal time reported: the same work then takes twice as long. A
pass of the workload spans several such swings, so its wall time says
as much about the host as about the program.

``SpeedSampler`` interrupts the command every ``PERIOD_S`` seconds of
wall time (``SIGALRM`` from an interval timer) and times a fixed,
benchmark-owned kernel. Each stretch of the command's own
time between two kernel runs is then scaled by how long the kernel took
around it: ``REFERENCE_S / kernel seconds``. The sum is the command's
time in reference seconds, the time it would take on a host that runs
the kernel in ``REFERENCE_S``. The kernel runs themselves are left out.
The kernel does not depend on the program, so a change to the program
cannot move the scale, only the time being scaled.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
from time import perf_counter

import numpy

PERIOD_S = 0.02
# About the kernel's median time on the VM the recorded figures come
# from; any constant would do, it only fixes the unit.
REFERENCE_S = 0.0004
# A stretch is scaled by the median kernel time of the samples taken
# within this distance of it: single samples are noisy, while the
# host's speed holds for a second or more.
SMOOTH_S = 0.15

_rng = random.Random(0)
_KEYS = ["".join(_rng.choice("abcdefghij") for _ in range(_rng.randint(3, 9)))
         for _ in range(800)]
_ROWS = numpy.random.default_rng(0).random((60, 27))


def kernel() -> float:
    """Dict updates, a sort and per-row numpy calls: the mix of work in
    the program's own loops. Of the kernels tried, this one's time moved
    most nearly in step with the program's as the host's speed changed;
    a pure-Python edit distance moved more than the program did."""
    counts: dict[str, float] = {}
    for i, key in enumerate(_KEYS):
        counts[key] = counts.get(key, 0.0) + i * 0.5
    total = sum(sorted(counts.values())[:10])
    for row in _ROWS:
        total += float(row.max()) + math.log(row[3] + 1e-9)
        row.argmax()
    return total


class SpeedSampler:
    """Context manager: samples the kernel from entry to exit."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # wall time at each kernel run's start
        self.seconds: list[float] = []  # its duration
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.seconds.append(perf_counter() - t0)

    def _kernel_s(self, lo: float, hi: float) -> float:
        i = bisect.bisect_left(self.starts, lo - SMOOTH_S)
        j = bisect.bisect_right(self.starts, hi + SMOOTH_S)
        return statistics.median(self.seconds[i:j])

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the program's own time
        between wall times ``a`` and ``b``, kernel runs left out.

        ``a`` and ``b`` must lie inside the ``with`` block.
        """
        wall = ref = 0.0
        for k in range(len(self.starts) - 1):
            lo = max(a, self.starts[k] + self.seconds[k])
            hi = min(b, self.starts[k + 1])
            if hi > lo:
                wall += hi - lo
                ref += (hi - lo) * REFERENCE_S / self._kernel_s(lo, hi)
        return wall, ref
