"""Calibration loop: fixed pure-Python work that measures how fast the CPU runs right now.

On the 2-vCPU machine this benchmark was sized on, all code runs up to
1.9x slower at times, because the host is shared.  The slow state comes
and goes within milliseconds, and how much of the time it holds drifts
over minutes, so a run that falls in a busy stretch reads slower as a
whole; no estimator over the run's own timings removes that.  So every
timed request is bracketed by this loop, run a few times just before
and just after it in the process that serves it (for a CLI process, in
its launcher) on the same CPU, and its times are reported in reference
seconds:

    reference = measured * REF_S / mean(loop times around it)

that is, the seconds it would take on a CPU that runs this loop in
``REF_S``.  The mean of short loop tries samples the slow state as often
as the request did.  The loop does not touch vcmatch, so a change to the
program moves the reference time as it moves the measured one.
"""

from __future__ import annotations

import time

REF_S = 0.0005  # about the loop's fastest time on the machine the benchmark was sized on
REPS = 10


def loop() -> int:
    """Dictionary updates and integer arithmetic, about 0.5 ms of interpreter work."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
        total += (i * 7) % 13
    return total + len(counts)


def samples_ns(reps: int = REPS) -> list[int]:
    """The loop's time in each of ``reps`` tries, in nanoseconds."""
    out = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        loop()
        out.append(time.perf_counter_ns() - start)
    return out


def scale(cal_ns: list[int]) -> float:
    """Factor from measured to reference time, given the loop's times around the
    measurement; 1 where there are none, as after a process died."""
    return REF_S * 1e9 * len(cal_ns) / sum(cal_ns) if cal_ns else 1.0
