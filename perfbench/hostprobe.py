"""Host speed probe: converts host seconds to reference seconds.

A shared host's cores run at two speeds that alternate many times a second:
fast when nothing runs on the other hardware thread of the core, up to
about 1.5x slower when a neighbour does.  How much of a pass falls in the
slow phase varies from run to run, and a run's median pass drifts with it
by tens of percent.

While a timed interval runs, a timer signal interrupts it every
``INTERVAL_S`` seconds to time a fixed kernel that shares no code with the
program.  The interval's own work (its host seconds minus the kernel's)
is scaled by the kernel's reference time over its mean time in the
interval, so it reads as seconds on the reference host with its cores to
itself.  A sample over three times the interval's median caught a stall
(the process descheduled, a page fault) rather than a phase; it counts at
that cap, so one stall cannot swing a pass.  Everything runs in the
calling thread.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds the kernel takes in its fast phase on the reference host, a
# shared 2-core Intel Xeon VM at 2.1 GHz running CPython 3.11.7.
REFERENCE_S = 25e-6

# Seconds between samples.
INTERVAL_S = 0.005


def _kernel() -> int:
    total = 0
    for i in range(400):
        total += i * i % 7
    return total


class HostProbe:
    """``with HostProbe() as probe:`` samples the host while the body runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> HostProbe:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self) -> float:
        """Reference seconds per host second of the sampled interval."""
        if not self.samples:
            return 1.0
        cap = 3 * statistics.median(self.samples)
        return REFERENCE_S / statistics.fmean(min(s, cap) for s in self.samples)

    def reference_seconds(self, host_seconds: float) -> float:
        """The interval's work, without the probe's, in reference seconds."""
        return (host_seconds - sum(self.samples)) * self.factor()
