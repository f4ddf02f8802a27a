"""Machine-speed reference for scaling wall times.

The benchmark shares its machine with other tenants, and on a shared 2-vCPU
box the same Python code runs up to about 1.75x slower for stretches of
seconds to minutes.  Raw wall times then differ between runs by more than
any useful regression bound.  So the speed of the machine is sampled with a
fixed pure-Python kernel just before, during and just after every timed
unit, and the unit's wall time is scaled by ``REFERENCE_S / (kernel time)``
(see :func:`scale`): the result is seconds on a machine where one kernel call
takes ``REFERENCE_S``.  The kernel is benchmark code,
identical on both sides of any comparison, so a change to cantorlab's own
speed still shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time

# Median kernel time on the 2-vCPU Xeon box (Python 3.11) the baseline was
# measured on; it only fixes the unit, any constant would do.
REFERENCE_S = 0.005
SAMPLES = 3
# While a unit runs, a SIGALRM handler samples the kernel this often.
PERIOD_S = 0.1
# A unit sampled at least this often while it ran (one second or more) is
# scaled by its time-averaged speed: such units span several speed phases,
# and averaging speed over time is the only estimate that weights them right.
# Shorter units use the median of the samples around them, which resists the
# jitter of single samples.
AVERAGE_MIN_SAMPLES = 10


def kernel() -> float:
    """Wall seconds of one call of the reference kernel: string formatting,
    dict lookups, slicing and a keyed sort, as in cantorlab's hot loops."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    for i in range(5000):
        key = format(i, "b")
        table[key] = table.get(key[:-1], 0) + len(key)
    sorted(table, key=lambda s: (len(s), s))
    return time.perf_counter() - start


def sample() -> list[float]:
    return [kernel() for _ in range(SAMPLES)]


class Sampling:
    """Context manager sampling the kernel every ``PERIOD_S`` of wall time.

    ``samples`` holds the kernel times taken and ``spent`` the wall time the
    handler took, which the caller subtracts from the unit's wall time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel())
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "Sampling":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(around: list[float], during: list[float]) -> float:
    """Factor turning a unit's wall time into seconds at reference speed,
    given kernel samples taken around the unit and while it ran."""
    if len(during) >= AVERAGE_MIN_SAMPLES:
        return statistics.fmean(REFERENCE_S / k for k in during)
    return REFERENCE_S / statistics.median(around + during)
