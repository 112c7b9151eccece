"""Machine-speed calibration for the eqhilb benchmark.

The benchmark runs on a shared machine.  There the same pass of the same
code ran 1.7 times slower for minutes at a time, in process CPU time as
much as in wall time, so no choice of clock removes it.  Every timed
pass is therefore scaled to a fixed reference speed.

While a pass runs, a timer signal interrupts it every ``INTERVAL_S``
seconds of wall time, and the handler times ``probe()``, a fixed piece
of pure-Python work that does not touch eqhilb.  The mean probe time
over ``REFERENCE_PROBE_S`` is the machine's slowdown during the pass.
The probe time is taken out of the pass time (``Speedometer.clock``),
and the rest is divided by the slowdown.  A change to eqhilb does not
change the probe, so it shows in full in the scaled time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: wall-clock seconds between two probes while a pass runs
INTERVAL_S = 0.01
#: mean probe time on the machine the benchmark was tuned on (a 2-vCPU
#: Xeon VM) when it ran at full speed; scaled times are seconds at that speed
REFERENCE_PROBE_S = 0.0012
#: probes taken after a pass too short to have been interrupted often enough
MIN_PROBES = 20


def _partitions(m: int, top: int):
    if m == 0:
        yield ()
        return
    for k in range(min(m, top), 0, -1):
        for rest in _partitions(m - k, k):
            yield (k,) + rest


def probe() -> int:
    """Fixed work like eqhilb's: partitions of 16, their 3-residue counts, a dict."""
    seen: dict[tuple[int, ...], int] = {}
    for lam in _partitions(16, 16):
        counts = [0, 0, 0]
        for i, part in enumerate(lam):
            for j in range(part):
                counts[(j - i) % 3] += 1
        key = tuple(counts)
        seen[key] = seen.get(key, 0) + 1
    return len(seen)


class Speedometer:
    """Probes the machine's speed while the code inside ``with`` runs.

    ``clock()`` is ``perf_counter()`` less the time spent in probes, so
    intervals read from it hold only the measured code.  A probe that
    fires between the two reads inside ``clock()`` is missed by that one
    reading; it is rare and costs about a millisecond.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.paused = 0.0

    def _probe(self, *_) -> None:
        start = perf_counter()
        probe()
        spent = perf_counter() - start
        self.probes.append(spent)
        self.paused += spent

    def clock(self) -> float:
        return perf_counter() - self.paused

    def __enter__(self) -> Speedometer:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample(MIN_PROBES - len(self.probes))

    def sample(self, count: int) -> None:
        """Take ``count`` probes in a row."""
        for _ in range(count):
            self._probe()

    def slowdown(self) -> float:
        """Mean probe time over the reference probe time."""
        return statistics.fmean(self.probes) / REFERENCE_PROBE_S

