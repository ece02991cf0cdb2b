"""Host speed, measured in-run, to scale wall times by.

The shared host this benchmark was written on changes speed by up to
a factor of two over seconds to minutes (a fixed pure-Python loop ran
80 to 134 passes a second), which moves every wall time of a run with
it.  A fixed pure-Python kernel, independent of the code under test,
is timed between operations; a wall time measured while the kernel
took ``k`` seconds is reported as ``wall * REFERENCE_KERNEL_S / k``,
the time it would have taken on a host where the kernel takes
REFERENCE_KERNEL_S.  A change to the engine moves the scaled times as
it moves the raw ones; a change of host speed moves both the kernel
and the engine and largely cancels out (not wholly: writes speed up
less than the kernel when the host is fast).  The raw times are kept
next to the scaled ones.
"""

from __future__ import annotations

import gc
import signal
import time

#: About the median kernel time on the host the benchmark was written
#: on (2-vCPU KVM guest, Intel Xeon CPU model 143, CPython 3.11), over
#: 80 s of kernels interleaved with other interpreter work.  Only a
#: scale: any fixed value gives the same ratios between runs.
REFERENCE_KERNEL_S = 0.0025

#: Kernel passes per measurement; the fastest counts (interrupts only
#: ever add time, a speed change lasts longer than the passes).
PASSES = 3


def _kernel() -> int:
    """Interpreter work of the kinds the engine does: small dicts and
    tuples, string formatting and splitting, sorting, set algebra."""
    rows = [
        {"id": i, "name": f"item{i % 97}", "price": (i * 7919) % 10007}
        for i in range(1500)
    ]
    rows.sort(key=lambda row: (row["price"], row["name"]))
    index: dict[str, list[int]] = {}
    for row in rows:
        index.setdefault(row["name"], []).append(row["id"])
    words = " ".join(row["name"] for row in rows[:750]).split()
    cheap = {row["id"] for row in rows if row["price"] < 5000}
    even = set(range(0, 1500, 2))
    return sum(len(index[word]) for word in words) + len(cheap & even)


def kernel_seconds() -> float:
    """Seconds one kernel pass takes now (fastest of PASSES, GC held off)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PASSES):
            started = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - started)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(kernel_s: float) -> float:
    """Factor that takes a wall time measured at *kernel_s* to the reference host."""
    return REFERENCE_KERNEL_S / kernel_s


class Sampler:
    """Times one long stretch of work (a build) at the host speed during it.

    Inside ``with Sampler(every):`` a SIGALRM handler times the kernel
    every *every* seconds, between two bytecodes of the work.  ``raw``
    is the wall time of the block without the kernel passes, ``scaled``
    the same with each interval scaled by the kernel times at its ends.
    (Timing the kernel only before and after a build missed the speed
    changes inside it: over twelve builds of the same system the spread
    was 0.18 of the median that way, 0.05 sampled every quarter second.)
    """

    def __init__(self, every: float) -> None:
        self.every = every
        self.raw = 0.0
        self.scaled = 0.0

    def __enter__(self) -> "Sampler":
        self._kernel = kernel_seconds()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def _tick(self, *_signal) -> None:
        now = time.perf_counter()
        kernel = kernel_seconds()
        self.raw += now - self._last
        self.scaled += (now - self._last) * scale((self._kernel + kernel) / 2)
        self._kernel = kernel
        self._last = time.perf_counter()

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
