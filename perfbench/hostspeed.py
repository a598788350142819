"""Host-speed sampling, so that timings can be scaled to a fixed host speed.

The benchmark host is a few cores of a shared machine; its speed drifts by up
to twofold in phases of seconds to minutes, and CPU time drifts with it (the
neighbours compete for caches and cores, not only for time slices).  A
`Sampler` runs a fixed pure-Python reference computation, `reference_work`,
every ``period`` seconds from a SIGALRM handler, so that the host's speed is
sampled all through the measured code, in the same process.  Its `clock`
leaves out the time spent in the handler, so a job timed with it costs only
its own work.

A time ``t`` taken while reference samples averaged ``r`` seconds is
reported as ``t * REFERENCE_S / r``: seconds at the host speed at which one
`reference_work` call takes ``REFERENCE_S``.  An optimisation of logfiber
lowers ``t`` and leaves ``r`` alone, so it shows in full; a host slowdown
raises both.

Set-up time is spent starting an interpreter and loading modules, mostly
numpy's extension modules, which the pure-Python reference does not track
(nor does the start of an interpreter that loads only standard-library
modules, measured 4x less well).  So set-up is scaled the same way by
`startup_sample`: the time to start an interpreter that imports numpy and
nothing else, with ``STARTUP_REFERENCE_S`` as its scale.  A change to what
logfiber itself imports or parses, numpy included, shows in full.
"""

from __future__ import annotations

import gc
import signal
import subprocess
import sys
from time import perf_counter

# Seconds of one reference_work call, and of one startup_sample, in a fast
# phase of a 2-vCPU share of an Intel Xeon host under CPython 3: the scales
# of every host-scaled time.
REFERENCE_S = 0.0018
STARTUP_REFERENCE_S = 0.16
PERIOD_S = 0.02  # one reference sample per 20 ms of measured code: ~8 % overhead
STARTUP_CODE = "import numpy"


def reference_work(depth: int = 0, path: tuple = ()) -> int:
    """A fixed search tree in the style of logfiber's searches: recursive
    calls that extend tuples and key small dicts by them.  Of the pure-Python
    references tried (this one, a breadth-first search of a small and of a
    large grid graph), it tracked the pass times of flat-search and
    lot-scale best."""
    if depth == 10:
        return len(path)
    placed = {}
    total = 0
    for i in range(3):
        placed[(depth, i)] = path + (i,)
        if i < 2:
            total += reference_work(depth + 1, placed[(depth, i)])
    return total


def reference_sample() -> float:
    """Seconds of one reference_work call.  The garbage collector is held
    off meanwhile: a collection the measured code's allocations have made
    due belongs to that code, not to the sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def startup_sample(env: dict[str, str]) -> float:
    """Seconds to start an interpreter that runs STARTUP_CODE, and exit."""
    start = perf_counter()
    # no timeout: it would make run() poll the child at growing intervals
    subprocess.run([sys.executable, "-c", STARTUP_CODE], env=env, check=True,
                   stdin=subprocess.DEVNULL)
    return perf_counter() - start


class Sampler:
    """Samples host speed from a SIGALRM interval timer while started."""

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler since construction

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(reference_sample())
        self.spent += perf_counter() - start

    def clock(self) -> float:
        """perf_counter without the time spent sampling."""
        return perf_counter() - self.spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self) -> list[float]:
        """The samples since the last take."""
        samples, self.samples = self.samples, []
        return samples
