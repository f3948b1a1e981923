"""Seconds at a reference machine speed.

On a shared cloud VM (2 vCPUs, Intel Xeon), core speed changes by up
to 1.7x within seconds as other tenants load the host.
The same operation's wall time then drifts by 20-35% between runs,
wider than a useful regression bound.

While a block runs, `ReferenceClock` interrupts it every `INTERVAL_S`
with SIGALRM and times a fixed pure-Python loop that does not use
netcode.  The loop's mean duration over the block measures the core's
speed during that block.  `seconds` is the block's wall time, minus the
time spent in the loop, scaled by `NOMINAL_S` over that mean: the time
the block would take on a core where the loop takes `NOMINAL_S`.
`pin_to_one_core` keeps the process and its children on one core, so the
loop samples the core the work runs on.
"""

from __future__ import annotations

import os
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.025
# The loop's typical duration on an unloaded core of that VM under
# Python 3.11.  It only fixes the unit.
NOMINAL_S = 0.0004


def _reference_loop() -> int:
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(1500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += key[0]
    return acc


def pin_to_one_core() -> None:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class ReferenceClock:
    """Context manager: afterwards `wall` holds the wall seconds of the
    block, `speed` the factor NOMINAL_S / mean loop time, and `seconds`
    the block's own time (loop excluded) times `speed`."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        _reference_loop()
        self.samples.append(perf_counter() - start)

    def __enter__(self) -> "ReferenceClock":
        self.samples.clear()
        self._sample()  # one sample before the block, one after
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = perf_counter() - self._start
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        inside = sum(self.samples[1:])
        self._sample()
        self.speed = NOMINAL_S / statistics.fmean(self.samples)
        self.seconds = (self.wall - inside) * self.speed
        return False
