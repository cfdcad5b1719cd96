"""The machine's current speed, measured by a fixed pure-Python reference kernel.

On a shared host the same interpreter code runs up to twice as fast in one
half-minute as in the next, and the slow spells last long enough to move the
median of a whole run; hypervisor steal time stays at zero through them.  The
benchmark therefore runs this kernel next to the work it times and reports
times at reference speed: ``t * REFERENCE_S / k``, where ``k`` is the kernel's
duration measured beside the work.  On a quiet machine of the class the
benchmark was set up on, the corrected time equals the wall time.

The kernel does what ``cubal`` does most: look up string-named elements in
tuple-keyed tables inside nested loops (here, the associativity check of the
group table of Z/30).  It never calls ``cubal``, so a change to the program
cannot move the reference.  Changing the kernel or ``REFERENCE_S`` changes the
unit of every time the benchmark reports.
"""
from __future__ import annotations

import bisect
import signal
import time

# Duration of kernel_s() on a quiet 2.0 GHz Xeon vCPU under CPython 3.11.
REFERENCE_S = 0.007
_N = 30


def _associativity_failures(n: int) -> int:
    names = [f"g{i}" for i in range(n)]
    table = {(names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)}
    failures = 0
    for a in names:
        for b in names:
            ab = table[(a, b)]
            for c in names:
                if table[(ab, c)] != table[(a, table[(b, c)])]:
                    failures += 1
    return failures


def kernel_s() -> float:
    """Seconds the reference kernel takes now."""
    start = time.perf_counter()
    if _associativity_failures(_N):
        raise RuntimeError("reference kernel computed a wrong answer")
    return time.perf_counter() - start


def at_reference(seconds: float, kernels: list[float]) -> float:
    """``seconds`` of work at reference speed, given kernel durations measured beside it."""
    return seconds * REFERENCE_S * len(kernels) / sum(kernels)


class Sampler:
    """Runs the kernel on entry, on exit and every PERIOD_S of wall time between.

    The periodic runs come from a SIGALRM handler, which the interpreter runs
    between bytecodes of the main thread, so a call that lasts seconds is
    sampled while it runs.  A kernel run never straddles a timestamp taken
    by the code it interrupts.
    """

    PERIOD_S = 0.5

    def __init__(self):
        self.runs: list[tuple[float, float]] = []  # (start, end) of each kernel run

    def _run(self, *_):
        start = time.perf_counter()
        kernel_s()
        self.runs.append((start, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._run()
        signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._run()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Wall time of [start, end] less the kernel runs inside it, and that time at reference speed.

        The speed is the mean of the kernel runs inside the interval and the
        last one before and first one after it.
        """
        starts = [s for s, _ in self.runs]
        lo, hi = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        wall = end - start - sum(e - s for s, e in self.runs[lo:hi])
        return wall, at_reference(wall, [e - s for s, e in self.runs[lo - 1:hi + 1]])
