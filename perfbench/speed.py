"""Host-speed probe: rescale measured times to a fixed reference speed.

The benchmark runs on shared virtual machines whose per-core speed drifts:
on the 2-vCPU Xeon VM it was tuned on, a fixed pure-Python loop took
anywhere from 22 to 37 ms, switching between the two every few seconds and
staying slow for minutes at a time.  Plain wall times of the same code then
spread by 20-30% across runs, far more than a speed-up worth measuring.

``Meter`` samples the host's speed *while* a region runs: a SIGPROF handler
runs ``probe`` -- a fixed, allocation-free loop of dict lookups on tuple
keys, the operation fibcat's tables are made of -- every ``INTERVAL_S`` of
CPU time.  The region's time is its wall time minus the time spent in
probes, divided by the host slowdown: the mean probe time over
``PROBE_REF_S``, the probe's time on an uncontended core of the reference
machine.  A region too short for ``MIN_SAMPLES`` probes is topped up with
probes run right after it.  Probes cost about 2% of the region.

The probe is the benchmark's own code, so a change to fibcat moves the
region's time but never the probe's.  Only the standard library is used:
``worker.py`` starts a meter before it imports fibcat.
"""

import signal
import time

# Probe time on an uncontended core of the reference machine (Xeon
# 2.1 GHz, CPython 3.11).  It only fixes the scale of rescaled times.
PROBE_REF_S = 0.00044
INTERVAL_S = 0.02
MIN_SAMPLES = 5

_IDS = tuple("m%d" % i for i in range(128))
_KEYS = [(f, g) for f in _IDS for g in _IDS[::4]]
_TABLE = {k: i % 7 for i, k in enumerate(_KEYS)}


def probe() -> float:
    """Seconds one fixed round of lookups takes now."""
    t = time.perf_counter()
    table = _TABLE
    n = 0
    for k in _KEYS:
        n += table[k]
    for k in _KEYS:
        if k in table:
            n -= 1
    return time.perf_counter() - t


class Meter:
    """Times one region at a time and samples the host speed during it."""

    def __init__(self):
        self.samples = []
        self._t0 = None

    def _on_prof(self, signum, frame):
        self.samples.append(probe())

    def start(self, t0=None) -> None:
        """Start a region; ``t0`` backdates its start (a perf_counter value)."""
        del self.samples[:]
        signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter() if t0 is None else t0

    def stop(self):
        """(wall seconds, rescaled seconds, slowdown) of the region."""
        wall = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_PROF, 0)
        own = wall - sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(probe())
        slowdown = sum(self.samples) / len(self.samples) / PROBE_REF_S
        return own, own / slowdown, slowdown
