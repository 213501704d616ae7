"""Machine-speed probe: times reported at a fixed reference speed.

On a shared virtual machine the speed of a core changes from one second to
the next by up to half (another tenant on the same physical core), and how
much of a run falls in slow spells changes from minute to minute.  Raw run
times of the same code on the same inputs then spread by a quarter between
runs, more than any bound a regression check could use.

The probe measures that speed while the workload runs.  An interval timer
(SIGALRM) runs a fixed pure-Python kernel in the main thread every
PERIOD_S seconds, twice, and records how long the second run took: the
first run brings the kernel's code and data back into the caches, so that
the sample depends on the machine and not on how much of the cache the
workload used.
The garbage collector is off meanwhile, for the same reason: a collection
would walk the workload's objects.  The kernel mixes what the workloads
spend their time on: small-int loops, `Fraction` arithmetic and big-int
multiplication.  Contention slows each of these by a different amount, and
a kernel of one kind alone tracks some workloads well and others badly.
It keeps no data beyond a few kilobytes: the speed of reads spread over
megabytes depends on where each process's pages happen to land and
differed twofold between fresh processes.  The kernel never touches the
library, so no change to the library can move it; only the machine does.

A call timed with `timed` is reported twice: its raw wall time, and its
time at the reference speed

    (raw time - probe time inside it) * REF_S / mean(probe samples)

over the samples taken during the call, or the last MIN_SAMPLES of them
when the call was too short to hold that many.  At the reference speed
both are the same.

A fresh process that lives well under a second (the set-up probe) is too
short for the timer; `sample` is called just before and just after the
timed part instead, and `at_reference` scales by the mean of those
samples.
"""

import gc
import signal
import statistics
import time
from fractions import Fraction

# Duration of one sample at the reference speed, chosen so that on the
# machine that sized the benchmark (2 vCPUs of an Intel Xeon at 2.1 GHz,
# CPython 3.11.7) a run with no slow spell reads about its wall time.
REF_S = 0.0021
PERIOD_S = 0.1
MIN_SAMPLES = 5

_BIG_A, _BIG_M = 3 ** 400, 7 ** 390 + 1


def kernel():
    s = 0
    for i in range(8_000):
        s += i * i % 7
    a = Fraction(1, 3)
    for i in range(1, 120):
        a = a * Fraction(i, i + 1) + Fraction(1, i)
    x = _BIG_A
    for _ in range(150):
        x = x * _BIG_M % _BIG_A + 17
    return s, a, x


class SpeedProbe:
    """Context manager: samples the kernel while it is active."""

    def __init__(self):
        self.samples = []  # duration of each timed kernel run
        self.spent = []  # time in the probe per sample, the warm-up included
        self._busy = False
        self._old = None

    def sample(self, n=1):
        for _ in range(n):
            enabled = gc.isenabled()
            gc.disable()
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            kernel()
            t2 = time.perf_counter()
            if enabled:
                gc.enable()
            self.samples.append(t2 - t1)
            self.spent.append(t2 - t0)

    def _tick(self, signum, frame):
        if not self._busy:  # a tick that arrives during a sample is dropped
            self._busy = True
            self.sample()
            self._busy = False

    def __enter__(self):
        self.sample(MIN_SAMPLES)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scaled(self, first, raw):
        """Time at the reference speed of an interval `raw` seconds long
        during which the samples from index `first` on were taken."""
        inside = self.samples[first:]
        recent = inside if len(inside) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        return (raw - sum(self.spent[first:])) * REF_S / statistics.fmean(recent)

    def timed(self, fn, *args):
        """(fn(*args), raw seconds, seconds at the reference speed)"""
        first = len(self.samples)
        t = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t
        return out, raw, self.scaled(first, raw)

    def at_reference(self, raw):
        """`raw` seconds scaled by the mean of all samples taken so far."""
        return raw * REF_S / statistics.fmean(self.samples)

    def speed_factor(self):
        """Mean probe duration over REF_S: 1.0 at the reference speed,
        above 1 on a slower machine or in a slow spell."""
        return statistics.fmean(self.samples) / REF_S
