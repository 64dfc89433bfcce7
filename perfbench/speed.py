"""Host-speed sampling, to scale measured times to one reference speed.

On a shared two-vCPU virtual machine (Intel Xeon, Python 3.11) the same
pure-Python loop has taken anywhere from 1x to 1.85x its fastest time, the
host switching between fast and slow phases within seconds and drifting
over minutes; five 40-second runs of one workload gave raw pass times
from 13 to 24 seconds.  Raw wall times therefore spread more than any
useful regression bound.

``SpeedSampler`` interrupts the measured process every ``TICK_S`` seconds
(SIGALRM) and times a fixed reference chunk of exact rational arithmetic.
Work done in an interval is proportional to the interval divided by the
current slowdown, so a measured time ``t`` corresponds to
``t * REFERENCE_CHUNK_S * mean(1 / chunk time)`` seconds at the reference
speed, the speed at which one chunk takes ``REFERENCE_CHUNK_S``.  Time
spent in the chunks is excluded from ``t``.  Of the chunks tried (integer
loops, dict walks over tens of megabytes, sparse-row updates), this one
tracked all three workloads best: over a dozen 2-4 second slices of each,
workload time divided by chunk time varied by 2-3% where the raw time
varied by 15%, for the numpy-bound orbit checks too.

Only the standard library is used, so the sampler can run before numpy and
the package are imported.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

TICK_S = 0.025
REFERENCE_CHUNK_S = 0.0003

POOL = tuple(Fraction(i * 7919 % 999983 + 1, i * 104729 % 999979 + 1)
             for i in range(64))


def reference_chunk(table: dict) -> Fraction:
    """Sums of products of six-digit fractions, so big-integer gcds and
    object churn dominate, as in the exact layers; the same work on every
    call."""
    acc = Fraction(0)
    for i in range(32):
        a, b = POOL[i], POOL[(i * 7 + 13) % 64]
        acc += a * b - b
        table[i, i % 7] = acc
    return acc


class SpeedSampler:
    """Context manager that samples host speed while the body runs."""

    def __init__(self):
        self.chunks: list[float] = []
        self._table: dict = {}
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        reference_chunk(self._table)
        self.chunks.append(perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self) -> float:
        """Seconds spent in reference chunks."""
        return sum(self.chunks)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        if not self.chunks:
            raise ValueError("no speed samples; the measured span was "
                             f"shorter than {TICK_S} s")
        return REFERENCE_CHUNK_S * sum(1 / c for c in self.chunks) / len(
            self.chunks)
