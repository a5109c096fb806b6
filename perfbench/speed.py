"""Speed normalization for a shared host.

On the host this benchmark was tuned on (a 2-vCPU KVM guest), the CPU speed
seen by one process swings by up to 2x over a few hundred milliseconds, and
by a quarter between runs minutes apart.  A wall time alone therefore says
little about the code.  ``SpeedSampler`` times a fixed pure-Python loop from
a SIGALRM handler every SAMPLE_EVERY_S of wall time, so that the speed is
sampled during the measured work and not only between ops, or between ops
when the work runs in child processes, and converts a wall time into seconds
at the reference speed.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

CAL_LOOPS = 8000
# What the loop takes at the reference speed (2-vCPU Xeon KVM guest, Python
# 3.11); it only sets the scale of normalized seconds.
CAL_REF_S = 0.0025
SAMPLE_EVERY_S = 0.05
# Loops per sample taken between ops, when the timer is off.
BETWEEN_LOOPS = 4


def calibrate() -> float:
    """Seconds a fixed loop takes: bit tricks on ints, dict and list traffic,
    the package's staple.  The collector is off so that the heap the package
    leaves behind cannot change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict[int, int] = {}
        items = []
        for i in range(1, CAL_LOOPS + 1):
            low = i & -i
            table[low.bit_length()] = table.get(low.bit_length(), 0) + 1
            items.append(i ^ low)
        items.sort(reverse=True)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Samples this process's speed relative to the reference while active.

    With ``timer`` the samples come from SIGALRM and land inside the work this
    process does.  Without it the caller samples between ops: a sample taken
    while a child process works would compete with that child for the CPU.
    """

    def __init__(self, timer: bool) -> None:
        self.timer = timer
        self.speeds: list[float] = []
        self.cost = 0.0  # seconds the samples took

    def sample(self, loops: int = 1) -> None:
        start = perf_counter()
        for _ in range(loops):
            self.speeds.append(CAL_REF_S / calibrate())
        self.cost += perf_counter() - start

    def _tick(self, signum: int, frame: object) -> None:
        self.sample()

    def __enter__(self) -> "SpeedSampler":
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        if not self.speeds:
            self.speeds.append(CAL_REF_S / calibrate())

    @property
    def speed(self) -> float:
        return statistics.fmean(self.speeds)

    def normalize(self, wall: float) -> float:
        """Seconds at the reference speed of a wall time that included every sample."""
        return (wall - self.cost) * self.speed
