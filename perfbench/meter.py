"""Reference-speed meter for the benchmark's gated timings.

The machine this benchmark was built on changes speed by up to 1.8x for
minutes at a time (cores shared with other tenants), which no statistic over
a 20-second run removes.
So every job times a fixed pure-Python reference work at most every
``INTERVAL`` seconds, between operations, and expresses each stretch of its
own time in multiples of the reference's current duration ("ref" units).
A stretch is divided by the mean of the reference durations measured at its
two ends.  Raw seconds are kept alongside; the reference work itself is
excluded from both.  A call whose work runs in worker processes is timed
with :meth:`Meter.around`, which measures the reference on every CPU.
"""

from __future__ import annotations

import os
import statistics
import time

INTERVAL = 0.25  # seconds between reference measurements
REPEATS = 2  # reference runs per measurement
WINDOW = 6  # the current duration is the median of the last WINDOW runs

_now = time.perf_counter


def reference_work() -> int:
    """Fixed work shaped like piregular's inner loops: small-integer
    arithmetic, tuples and dict lookups.  Takes about a millisecond."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i % 97, i % 89)
        value = table.get(key, 0) + (i * i) % 12
        table[key] = value
        acc += value
    return acc


class Meter:
    """One job's clock: its total time and each stretch, in seconds and refs."""

    def __init__(self):
        self._runs = []
        for _ in range(WINDOW):  # warm-up: a fresh interpreter's first runs are slow
            reference_work()
        for _ in range(WINDOW // REPEATS):
            self.current = self._measure()
        self._last_measured = self._mark = _now()
        self.seconds = 0.0
        self.refs = 0.0

    def _measure(self) -> float:
        for _ in range(REPEATS):
            start = _now()
            reference_work()
            self._runs.append(_now() - start)
        del self._runs[:-WINDOW]
        return statistics.median(self._runs)

    def tick(self) -> tuple:
        """Close the stretch since the previous tick; return its length in
        seconds and in ref units, and add both to the job's totals."""
        now = _now()
        seconds = now - self._mark
        before = self.current
        if now - self._last_measured >= INTERVAL:
            self.current = self._measure()
            self._last_measured = _now()
        refs = seconds / ((before + self.current) / 2)
        self.seconds += seconds
        self.refs += refs
        self._mark = _now()
        return seconds, refs

    def around(self, call) -> tuple:
        """Run ``call`` as one stretch and divide it by the reference
        duration averaged over every CPU this process may use, measured
        just before and just after.  For a call whose work runs in worker
        processes spread over those CPUs, each of which changes speed on
        its own."""
        self.tick()
        before = _per_cpu_reference()
        start = _now()
        result = call()
        seconds = _now() - start
        after = _per_cpu_reference()
        refs = seconds / ((before + after) / 2)
        self.seconds += seconds
        self.refs += refs
        self._last_measured = self._mark = _now()
        return result, seconds, refs


def _per_cpu_reference() -> float:
    """Mean over this process's CPUs of the median of three reference runs
    pinned to that CPU; the CPU set is restored before returning, so worker
    processes started later inherit it unchanged."""
    cpus = os.sched_getaffinity(0)
    durations = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            runs = []
            for _ in range(3):
                start = _now()
                reference_work()
                runs.append(_now() - start)
            durations.append(statistics.median(runs))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(durations)
