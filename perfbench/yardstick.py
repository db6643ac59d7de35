"""Host-speed yardstick: a fixed pure-Python loop sampled beside each unit.

On a shared 2-CPU host the interpreter's speed drifts by 30-40% within
minutes.  Measured on such a host (x86_64 VM, Python 3.11): 30 s window
medians of the 16-ary 2-cube engine moved 2950 -> 3850 cycles/s while
this loop moved 13.1 -> 19.0 rounds/s, and their ratio stayed within
±3%.  Between two sets of ten benchmark runs on the same seeds, raw
medians moved +36% (Fig-5 campaign) and +42% (cube overload) while the
normalized ones moved +16% and +14%.  The drift is not always shared
(memory-bound slowdowns can pass the loop by), so normalizing narrows
the spread rather than removing it.  Host times are reported at
:data:`NOMINAL` yardstick speed: rates ``* NOMINAL / speed``, durations
``* speed / NOMINAL``.  The loop uses none of the simulator's code, so
a change to the simulator moves the normalized figure exactly as it
moves the raw one.

:class:`Sampler` samples the speed *during* a unit from a thread: every
:data:`SAMPLE_INTERVAL` seconds it takes the GIL for one short spin
(~2 ms, below the interpreter's 5 ms switch interval, so the timed spin
is never interrupted by the measured thread) and records its duration.
"""

from __future__ import annotations

import statistics
import threading
import time

#: yardstick rounds per second the figures are normalized to (the
#: reference host's usual speed: x86_64, Python 3.11)
NOMINAL = 15.0

#: loop iterations in one round
ROUND = 1_000_000

#: seconds between the sampler's spins, and loop iterations in one spin
SAMPLE_INTERVAL = 0.1
SAMPLE_ITERATIONS = 30_000


def _spin(iterations: int) -> int:
    total = 0
    for i in range(iterations):
        total += i & 7
    return total


def speed() -> float:
    """Yardstick rounds per second, from one round."""
    t0 = time.perf_counter()
    _spin(ROUND)
    return 1.0 / (time.perf_counter() - t0)


class Sampler:
    """Context manager sampling yardstick speed on a thread.

    ``speed()`` after exit is the median rate over the samples, in
    rounds per second.  A median, because a spin that the host stalls
    past the switch interval also waits out a slice of the measured
    thread, and one such sample would drag a mean far from the speed
    the unit saw.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="yardstick", daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(SAMPLE_INTERVAL):
            t0 = time.perf_counter()
            _spin(SAMPLE_ITERATIONS)
            self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> float:
        if not self.samples:
            return speed()
        return SAMPLE_ITERATIONS / ROUND / statistics.median(self.samples)
