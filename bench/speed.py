"""Gauging how fast the machine runs while a pass runs.

On a shared host the speed of a guest can swing by up to 1.8x within
tens of seconds as other tenants load it (measured on a 2-vCPU Intel
Xeon guest).  Process CPU time swings as much as wall time, so the cause
is contention below the guest (shared cores and caches), not preemption,
and no setting of the guest removes it.  A median over passes cannot
average it out: a run lasts seconds, the swings last minutes.

So a pass runs under a SpeedMeter: every interval a timer signal
interrupts the program between two bytecodes and times one unit loop, a
fixed piece of work like the program's that uses nothing from the
program.
run.py reports each time scaled to reference speed, measured seconds x
UNIT_S / (mean unit-loop time while it was measured); at reference speed
the unit loop takes UNIT_S and scaled and measured times agree.  The
meter's own time is taken out of every time it reports.

Only gc, signal, time and fractions (which the program imports anyway)
are imported here, so that loading this module barely shortens the
import the setup probe times.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

UNIT_S = 0.0065
INTERVAL_S = 0.15


def unit_loop() -> float:
    """Seconds taken by one fixed piece of the kind of work the program does:
    small Fractions, dict inserts, string formatting and integer arithmetic."""
    enabled = gc.isenabled()
    gc.disable()  # so that no collection of the program's objects lands here
    try:
        start = time.perf_counter()
        table: dict[int, str] = {}
        total = Fraction(0)
        for j in range(1000):
            table[j] = f"{j * j},{j}"
            total += Fraction(j % 7 + 1, j % 5 + 1)
        acc = 0
        for j in range(10000):
            acc += j * j % 11
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total <= 0 or acc < 0:  # keeps the results live
        raise ArithmeticError("unit loop miscounted")
    return elapsed


class SpeedMeter:
    """Samples unit_loop() on a timer while it runs."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[int, float]] = []  # (work_ns() when taken, unit-loop seconds)
        self.paused_ns = 0
        self._sampling = False

    def _sample(self, signum, frame) -> None:
        if self._sampling:  # a slow sample outlasted the interval: skip, never nest
            return
        self._sampling = True
        start = time.perf_counter_ns()
        try:
            self.samples.append((start - self.paused_ns, unit_loop()))
        finally:
            self.paused_ns += time.perf_counter_ns() - start
            self._sampling = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # ran for less than one interval
            self._sample(signal.SIGALRM, None)

    def work_ns(self) -> int:
        """perf_counter_ns() without the time spent sampling."""
        while True:
            paused = self.paused_ns
            now = time.perf_counter_ns()
            if paused == self.paused_ns:
                return now - paused

    def scale(self, start_ns: int | None = None, end_ns: int | None = None, margin_s: float | None = None) -> float:
        """UNIT_S / mean unit-loop time, over the samples taken from margin_s
        (default: one interval) before start_ns to margin_s after end_ns
        (work_ns() values), or over all samples when none fall there."""
        margin = (self.interval_s if margin_s is None else margin_s) * 1e9
        near = [
            s for t, s in self.samples
            if (start_ns is None or t >= start_ns - margin) and (end_ns is None or t <= end_ns + margin)
        ]
        chosen = near or [s for _, s in self.samples]
        return UNIT_S * len(chosen) / sum(chosen)
