"""Wall-clock timing scaled to a reference machine speed.

On a shared host the same Python work can take twice as long for tens of
seconds at a time, depending on what the neighbours run; no amount of
repetition inside one run removes that from a run's median.  The clock
therefore times a short reference kernel between timed calls and, for
in-process work, from a timer signal every TICK_S during them.  A call's
time is its wall time, less the time spent in the kernel, times the mean of
nominal kernel time / kernel time over the samples taken during the call or
within the kernel's window around it.  The kernels are benchmark code, so a
change to coneext moves the call's time but not the speed it is divided by.

Two kernels, matched to the work they scale:

* ``fraction``: exact Fraction additions, the kind of work coneext does
  in-process;
* ``interpreter``: a child interpreter that imports the standard modules
  the CLI uses and adds Fractions, for the CLI workload, whose calls are
  mostly interpreter start and import.

The process and its children are pinned to one CPU (``pin``), so that the
kernel measures the CPU the work runs on.
"""

from __future__ import annotations

import bisect
import gc
import os
import signal
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

TICK_S = 0.05


def pin():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def fraction_kernel():
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(1, i % 97 + 1)
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


# a child interpreter that imports the standard modules coneext's CLI uses and
# does a little Fraction arithmetic: start-up, import and compute, none of it
# coneext's own code
_CHILD = """import argparse, dataclasses, fractions, itertools, json, re
acc = fractions.Fraction(0)
for i in range(1, 3000):
    acc += fractions.Fraction(1, i % 97 + 1)
"""


def interpreter_kernel():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONOPTIMIZE"}
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", _CHILD], env=env, check=True, timeout=60)
    return perf_counter() - t0


# kernel, its time on an unloaded 2 GHz core of the reference host, the
# window around a call whose samples give its speed (long enough to hold
# several samples, short against the host's slow and fast phases), and
# whether it may run from a timer signal during the call
KERNELS = {
    "fraction": (fraction_kernel, 0.0007, 0.25, True),
    "interpreter": (interpreter_kernel, 0.115, 1.0, False),
}


class Clock:
    """Times calls against one kernel.  ``ticks`` False samples the speed
    only between calls, for code the timer must not interrupt (a traced
    run, whose spans would absorb the kernel's time)."""

    def __init__(self, kernel, ticks=True):
        self.kernel, self.nominal, self.window, tickable = KERNELS[kernel]
        self.ticks = ticks and tickable
        self._times = []     # start of each kernel sample, ascending
        self._refs = []      # its duration
        self._handler = []   # time the timer handler took, per tick
        self._sample()

    def _sample(self):
        self._times.append(perf_counter())
        self._refs.append(self.kernel())

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self._sample()
        self._handler.append((t0, perf_counter() - t0))

    def run(self, call):
        """Run ``call()``; return (result, error text or None, (t0, t1, wall s)).
        Pass the last item to ``scaled`` once the speed samples after the
        call are in, that is after the next call or ``finish``."""
        self._handler = []
        gc.collect()  # garbage of earlier calls must not be collected on this call's time
        if self.ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            out, err = _attempt(call)
            t1 = perf_counter()
        finally:
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = t1 - t0 - sum(d for start, d in self._handler if start < t1)
        self._sample()
        return out, err, (t0, t1, raw)

    def finish(self):
        """Take the speed samples that close the window of the last call."""
        end = perf_counter() + self.window
        while perf_counter() < end:
            self._sample()

    def scaled(self, timing):
        t0, t1, raw = timing
        lo = bisect.bisect_left(self._times, t0 - self.window)
        hi = bisect.bisect_right(self._times, t1 + self.window)
        refs = self._refs[max(lo - 1, 0):hi + 1]
        # the samples are spread evenly in time and work done is speed summed
        # over time, so the mean of nominal / kernel time scales the call
        return raw * self.nominal * sum(1 / r for r in refs) / len(refs)


def _attempt(call):
    try:
        return call(), None
    except Exception as e:  # a raising decision is a failed verdict, not a crash
        return None, f"{type(e).__name__}: {e}"
