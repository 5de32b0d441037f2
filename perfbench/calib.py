"""Host-speed calibration: timings in reference seconds.

The benchmark runs on small shared hosts whose speed drifts by up to a
quarter in phases of tens of seconds (another tenant's load). A raw wall
time then tells more about the phase a run fell in than about the
program. So each process samples a fixed pure-Python loop next to its
timed operations, and reports each operation's time scaled to the
reference loop time:

    reported = measured wall time * REFERENCE_S / (loop time around it)

The loop time around an operation is the median of the samples taken
within WINDOW_S of it: one at most every SAMPLE_EVERY_S between
operations, and one after each operation longer than LONG_OP_S. A program
change moves the measured time and leaves the loop alone, so it shows in
full; a host slowdown moves both, and cancels. Counts and memory are not
scaled. Each run's record
keeps the raw wall times and the loop samples.
"""

import statistics
import time

# Median loop time on the reference host (2 vCPU, Python 3.11, quiet).
REFERENCE_S = 0.006
LOOP_N = 100_000
SAMPLE_EVERY_S = 0.5
LONG_OP_S = 0.2
WINDOW_S = 2.0
TIME_UNITS = {"s", "ms", "us", "ns"}


def loop_s() -> float:
    """Mean time of three runs of the calibration loop."""
    t0 = time.perf_counter()
    for _ in range(3):
        total = 0
        for i in range(LOOP_N):
            total += i * i
    return (time.perf_counter() - t0) / 3


class Calibrator:
    """Loop samples next to timed operations, and the reference times they give."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, loop seconds)

    def sample(self):
        self.samples.append((time.perf_counter(), loop_s()))

    def timed(self, call):
        """Run call() -> (result, (start, end)); exceptions pass through."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY_S:
            self.sample()
        t0 = time.perf_counter()
        result = call()
        t1 = time.perf_counter()
        if t1 - t0 >= LONG_OP_S:
            self.sample()
        return result, (t0, t1)

    def reference(self, span) -> float:
        """Reference seconds of a (start, end) span timed by this calibrator."""
        t0, t1 = span
        near = [v for t, v in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:  # no sample close by: the nearest one
            near = [min(self.samples, key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))[1]]
        return (t1 - t0) * REFERENCE_S / statistics.median(near)

    def factor(self) -> float:
        """REFERENCE_S over the median loop time of the whole process."""
        if not self.samples:
            self.sample()
        return REFERENCE_S / statistics.median(v for _, v in self.samples)


def scale(metrics: dict, units: dict, factor: float) -> dict:
    """Times multiply by the factor, rates per second divide by it."""
    out = {}
    for name, value in metrics.items():
        unit = units.get(name, "")
        if unit in TIME_UNITS:
            value = value * factor
        elif unit.endswith("/s"):
            value = value / factor
        out[name] = value
    return out
