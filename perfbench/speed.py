"""The machine's speed, sampled while a sample runs.

The CPU this benchmark runs on is shared: the same work takes anywhere from
1x to 2x as long depending on neighbouring load, in phases lasting from
under a second to minutes.  A calibration pass is a fixed pure-Python
kernel (Fraction arithmetic, tuple hashing, dict updates: what demtensor
spends its time on) that never touches the package, so its duration moves
with the machine and never with the code under test.

`SpeedProbe` runs one pass every INTERVAL_S seconds of wall time from a
timer signal while the timed loop runs, and keeps a clock that leaves the
passes out.  Work done at speed s(t) over a wall time T is T * mean(s), and
s(t) is proportional to 1 / pass(t), so T * REFERENCE_PASS_S * mean(1 / pass)
is the time the same work takes on a machine whose pass takes
REFERENCE_PASS_S: the reference seconds the end-to-end metrics report.
"""

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.1
# One pass on the reference machine: about the fastest pass seen on a 2-vCPU
# Intel Xeon VM whose CPU is shared with other tenants.
REFERENCE_PASS_S = 0.0025


def one_pass():
    """Seconds taken by one calibration pass."""
    start = perf_counter()
    seen, acc = {}, Fraction(0)
    for i in range(1, 600):
        q = Fraction(i % 89 + 1, i % 13 + 1)
        acc += q
        key = (i % 251, q)
        seen[key] = seen.get(key, 0) + 1
    return perf_counter() - start


def to_reference(passes):
    """Factor from measured seconds to reference seconds over the passes."""
    return REFERENCE_PASS_S * sum(1.0 / p for p in passes) / len(passes)


class SpeedProbe:
    """Periodic calibration passes during the timed loop."""

    def __init__(self):
        self.passes = []
        self.spent_s = 0.0

    def _tick(self, signum, frame):
        took = one_pass()
        self.passes.append(took)
        self.spent_s += took

    def clock(self):
        """perf_counter without the time spent in calibration passes."""
        return perf_counter() - self.spent_s

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
