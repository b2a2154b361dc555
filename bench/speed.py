"""Timing at a reference speed, on a host whose speed drifts.

The shared two-core host this benchmark was built on changes speed by
about 20% every few seconds, and at times runs the same code twice as
slow for a minute or more.  Raw medians of runs a minute apart then
differ by more than any useful bound.  `timed` therefore samples the
host's speed while the body runs, with a fixed pure-Python kernel: from
a SIGALRM handler every INTERVAL_S, and a few times just before and
after.  The handler's time is taken out of the body's time, and the
rest is scaled to the speed at which the kernel takes NOMINAL_KERNEL_S.
The kernel runs with the collector off, so the program's heap cannot
change its time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter
from typing import Callable

NOMINAL_KERNEL_S = 0.001
INTERVAL_S = 0.05
BRACKET = 5  # kernel samples before and after the body
_TABLE = {i: i % 7 + 1 for i in range(64)}


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        out: dict = {}
        for a, x in _TABLE.items():
            for b, y in _TABLE.items():
                key = (a + b, a - b)
                out[key] = out.get(key, 0) + x * y
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def timed(body: Callable) -> tuple:
    """Run body(); return (its result, measured seconds, seconds at the reference speed)."""
    samples = [kernel_s() for _ in range(BRACKET)]
    in_handler = 0.0

    def tick(signum, frame):
        nonlocal in_handler
        seconds = kernel_s()
        samples.append(seconds)
        in_handler += seconds

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = perf_counter()
    try:
        result = body()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    seconds = elapsed - in_handler
    samples += [kernel_s() for _ in range(BRACKET)]
    # The handler's samples are evenly spaced in time, so over a long body
    # their mean speed is the body's; a short body gets few or none and
    # leans on the samples around it.
    speed = statistics.fmean(NOMINAL_KERNEL_S / k for k in samples)
    return result, seconds, seconds * speed
