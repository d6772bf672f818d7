"""Host-speed probe: a fixed piece of work run from a timer signal.

The shared host this benchmark runs on changes speed in stretches of
seconds to minutes: a fixed Python loop takes anywhere from 20 to 36 ms
within a minute, in CPU time as well as wall time. Repetition within a
30 s run cannot take out a slowdown that lasts the whole run, so the
timed work is scaled by the speed the host had while it ran.

``Probe.start`` arms a real-time interval timer. Every ``INTERVAL_S`` the
signal handler runs ``probe_work`` twice on the main thread, between two
bytecodes of whatever the program is doing, and records the thread CPU
time of the second run. The first run puts the probe's code and data
back into the caches: after the program's work evicted them, an unwarmed
probe takes about twice as long, and by how much would depend on the
program's memory traffic, not on the host. Thread CPU time leaves out
time spent waiting for a core. It still feels what other threads do to
the core the probe runs on, so the probe must not run while the
program's own threads keep the cores busy. ``Probe.scaled(t0, t1)``
is the wall time t1 - t0 multiplied by ``REFERENCE_S`` over the mean of
the probes that started in [t0, t1]: the time the interval would have
taken on a host where one probe takes ``REFERENCE_S``. A program change
leaves the probe's work unchanged, so it moves the scaled time as it
moves the wall time.
"""

from __future__ import annotations

import array
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# Probe CPU time taken as the reference speed: a round figure near the
# mean on the 2-core VM the benchmark was tuned on (Xeon, Python 3.11,
# numpy 2), where the probe took 240-310 us during wrapper-tree runs.
REFERENCE_S = 300e-6

_RNG = np.random.default_rng(0)
_X = _RNG.random(150)
_Y = (_RNG.random(150) < 0.5).astype(np.int64)


class _Node:
    __slots__ = ("attack", "rows", "children")

    def __init__(self, attack, rows, children):
        self.attack, self.rows, self.children = attack, rows, children


def probe_work(rows=None, depth: int = 0) -> _Node:
    """The probe: a small recursive entropy split of fixed random data.

    It has the make-up of the program's hot paths (interpreted recursion,
    object creation and small numpy calls) but none of the program's code,
    so a change to the program leaves it as it is. Of the probes tried
    (this one, an arithmetic loop with argsort and cumsum calls, and a
    1 MiB gather), this one followed the wrapper search's slowdowns best.
    """
    if rows is None:
        rows = np.arange(_X.size)
    y = _Y[rows]
    attack = int(np.count_nonzero(y))
    n = rows.size
    if attack in (0, n) or n < 4 or depth > 5:
        return _Node(attack, n, ())
    values = _X[rows]
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    left = np.arange(1, n, dtype=np.float64)
    share = np.clip(np.cumsum(y[order])[:-1] / left, 1e-9, 1 - 1e-9)
    entropy = -(share * np.log2(share) + (1 - share) * np.log2(1 - share)) * left / n
    best = int(np.argmin(entropy))
    mask = values <= (ordered[best] + ordered[best + 1]) / 2
    return _Node(attack, n, (probe_work(rows[mask], depth + 1),
                             probe_work(rows[~mask], depth + 1)))


class Probe:
    """Probes run from SIGALRM while started; scaled times come from them."""

    def __init__(self):
        # Raw doubles, not lists of floats: a float kept from each probe
        # would pin the allocator's pools that the program's short-lived
        # objects filled, and raise the peak RSS of the run by hundreds of MB.
        self.starts = array.array("d")
        self.cpu = array.array("d")

    def _on_alarm(self, signum, frame) -> None:
        started = time.perf_counter()
        probe_work()  # warms the caches the program's work has just evicted
        cpu = time.thread_time()
        probe_work()
        self.cpu.append(time.thread_time() - cpu)
        self.starts.append(started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)  # a late alarm must not end the run

    def mean_probe(self, t0: float, t1: float) -> float:
        """Mean probe CPU time in [t0, t1]; that of all probes if none fell in it."""
        inside = [c for s, c in zip(self.starts, self.cpu) if t0 <= s <= t1]
        return statistics.fmean(inside or self.cpu)

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * REFERENCE_S / self.mean_probe(t0, t1)
