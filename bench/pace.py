"""Scale measured times by the host's speed at the moment they were taken.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
a factor of up to two within seconds: the same 150 membership decisions,
timed again and again in one process, gave throughputs whose quartile
distance was 0.23 of their median.  A fixed reference kernel, timed in
between, slows down with the host.  So every measured interval is
multiplied by NOMINAL_S / (the mean kernel time around it), and reads as
on a host where one kernel run takes NOMINAL_S.  On the same repeated
decisions the scaled throughputs had a quartile distance of 0.024 of
their median.  Pacer spreads the samples evenly over the workload's own
time, so that each operation is scaled by samples taken within
milliseconds of it.

The kernel multiplies two fixed polynomials with Fraction coefficients,
the kind of work meshpoly spends its time on.  It calls nothing in
meshpoly, so a change to the package moves the scaled times exactly as
it moves its own running time.  It tracks the host better than a kernel
of machine integers: in one process, 12 runs of the same three search
cycles, each scaled by the mean of samples interleaved between trials,
spread by a quartile distance of 0.033 of their median with this
kernel, 0.12 with a big-integer gcd loop, and 0.23 unscaled.

The slowdown is not shared between vCPUs: a kernel timed in this
process does not predict the speed of a subprocess, which may run on the
other one.  So a subprocess samples a kernel itself (cli_paced.py).
"""

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

NOMINAL_S = 1e-3   # one reference kernel on the nominal host
EVERY_S = 4e-3     # workload time between two samples: a quarter more time
WINDOW = 12        # samples on each side of an interval that scale it
KERNEL_POLY = [Fraction((-1) ** i * (7 * i + 3), 3 * i + 11) for i in range(13)]


def reference_kernel():
    product = [Fraction(0)] * (2 * len(KERNEL_POLY) - 1)
    for i, a in enumerate(KERNEL_POLY):
        for j, b in enumerate(KERNEL_POLY):
            product[i + j] += a * b
    return product


class Pacer:
    """Reference samples spread evenly over the workload's own time.

    now() is a clock that stops while a sample runs, so intervals taken
    with it hold only workload time.  tick(), called between operations
    (or inside one, at a point where a pause does not matter), runs one
    sample for every EVERY_S of workload time since the last.  factor()
    scales an interval by the mean of the samples inside it and the
    WINDOW samples on either side.  WINDOW samples run on creation and
    in finish().
    """

    def __init__(self):
        self.paused = 0.0     # wall time spent in samples
        self.at = []          # now() at each sample
        self.sums = [0.0]     # prefix sums of sample durations
        for _ in range(WINDOW):
            self._sample()
        self.due = self.now() + EVERY_S

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def tick(self):
        while self.due <= self.now():
            self._sample()
            self.due += EVERY_S

    def finish(self):
        self.tick()
        for _ in range(WINDOW):
            self._sample()

    def _sample(self):
        self.at.append(self.now())
        start = time.perf_counter()
        reference_kernel()
        spent = time.perf_counter() - start
        self.paused += spent
        self.sums.append(self.sums[-1] + spent)

    def factor(self, start: float, end: float) -> float:
        lo = max(0, bisect_left(self.at, start) - WINDOW)
        hi = min(len(self.at), bisect_right(self.at, end) + WINDOW)
        return NOMINAL_S * (hi - lo) / (self.sums[hi] - self.sums[lo])


def scaled_call(fn):
    """fn() among reference samples: (result, scaled seconds, raw seconds)."""
    pacer = Pacer()
    start = pacer.now()
    result = fn()
    end = pacer.now()
    pacer.finish()
    return result, (end - start) * pacer.factor(start, end), end - start
