"""The machine's speed, sampled while the program runs.

On a shared host the CPU's speed drifts by tens of percent within seconds,
so wall and CPU times of identical work spread too widely to compare two
versions of the program.  A `SpeedProbe` interrupts the program every
`INTERVAL_S` (SIGALRM) and times a fixed pure-Python kernel.  A span's time
is then reported twice: as measured, and scaled to the reference speed,
that is, multiplied by the mean over the span's samples of
`KERNEL_REF_S / kernel time`.  The scaled time is the time the span's work
would take at the speed at which the kernel takes `KERNEL_REF_S`.

The probe's own time is taken out of every clock it hands out, so spans
measure the program alone.
"""
from __future__ import annotations

import signal
import time

# Median kernel time (wall and CPU) on the shared 2-core x86-64 machine the
# benchmark was written on; it sets the unit of the scaled times.
KERNEL_REF_S = 0.008
INTERVAL_S = 0.1


def _queens(n: int) -> int:
    """Count the placements of n non-attacking queens by backtracking."""
    cols: set[int] = set()
    up: set[int] = set()
    down: set[int] = set()

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for c in range(n):
            if c in cols or row - c in up or row + c in down:
                continue
            cols.add(c), up.add(row - c), down.add(row + c)
            found += place(row + 1)
            cols.discard(c), up.discard(row - c), down.discard(row + c)
        return found

    return place(0)


def kernel() -> tuple[float, float]:
    """Wall and CPU time of one run of the fixed kernel."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(2):
        if _queens(8) != 92:
            raise AssertionError("speed kernel miscounted")
    return time.perf_counter() - wall0, time.process_time() - cpu0


class SpeedProbe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._spent_wall = 0.0
        self._spent_cpu = 0.0

    def _sample(self, signum, frame) -> None:
        wall, cpu = kernel()
        self.samples.append((wall, cpu))
        self._spent_wall += wall
        self._spent_cpu += cpu
        # Re-armed only now, so the program always runs INTERVAL_S between samples.
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def wall(self) -> float:
        """A wall clock that stands still while the probe runs."""
        return time.perf_counter() - self._spent_wall

    def cpu(self) -> float:
        """A process CPU clock that stands still while the probe runs."""
        return time.process_time() - self._spent_cpu

    def mark(self) -> tuple[float, float, int]:
        return self.wall(), self.cpu(), len(self.samples)

    def since(self, mark: tuple[float, float, int]) -> dict[str, float]:
        """Wall and CPU time since `mark`, as measured and scaled."""
        wall0, cpu0, first = mark
        taken = self.samples[first:] or self.samples[-1:]
        if not taken:
            raise RuntimeError("no speed sample was taken in the span")
        wall, cpu = self.wall() - wall0, self.cpu() - cpu0
        return {
            "wall": wall * sum(KERNEL_REF_S / w for w, _ in taken) / len(taken),
            "cpu": cpu * sum(KERNEL_REF_S / c for _, c in taken) / len(taken),
            "raw_wall": wall,
            "raw_cpu": cpu,
        }
