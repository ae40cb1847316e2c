"""The machine's speed, measured with a fixed reference kernel.

The benchmark runs on a shared machine that switches between a fast and a
slow state every few seconds, and CPU time moves with wall time.  So every
worker times a fixed piece of pure-Python exact arithmetic, ``kernel()``:
nine calls after set-up, and one call every ``INTERVAL_S`` of the timed loop,
from a timer signal in the loop's own thread.  run.py subtracts the samples'
time from the spans they interrupt and reports each time scaled to the
reference speed: the speed at which one ``kernel()`` call takes
``REF_KERNEL_S``.  A change to periodrel cannot change the kernel's time,
since the kernel uses none of periodrel's code and runs with the garbage
collector off.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REF_KERNEL_S = 0.004  # one kernel() call at the reference speed
INTERVAL_S = 0.1  # wall time between two samples in the timed loop
REACH_S = 0.1  # samples this close to an op's span scale it
MIN_SAMPLES = 3  # fewer than this within reach: take the nearest ones


def kernel() -> int:
    """Fixed exact work in the mix periodrel spends its time on: Fraction
    elimination, a dict polynomial product with tuple keys, and a big-integer
    series product."""
    n = 6
    m = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4) + (9 if i == j else 0) for j in range(n)]
         for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    p = {(i, j, (i + j) % 3): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    q: dict = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in p.items():
            key = (a + d, b + e, c + f)
            q[key] = q.get(key, 0) + x * y
    s = [3 ** k - 2 ** k for k in range(40)]
    t = [sum(s[i] * s[k - i] for i in range(k + 1)) for k in range(40)]
    return det.numerator % 97 + len(q) + t[-1] % 97


def sample() -> float:
    """Seconds one kernel() call takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def median_sample(n: int) -> float:
    return statistics.median(sample() for _ in range(n))


class Sampler:
    """Samples kernel() every INTERVAL_S of wall time from a SIGALRM handler,
    which runs in the thread it interrupts, between two bytecodes of
    whatever that thread is doing.  ``samples`` holds [start, kernel
    seconds, pause seconds] per sample, with start in perf_counter seconds;
    the pause is the whole time the handler took."""

    def __init__(self) -> None:
        self.samples: list = []

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        k = sample()
        self.samples.append([t0, k, perf_counter() - t0])

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)


def latencies(spans: list, samples: list) -> tuple[list, list]:
    """For each op span (start, end), in perf_counter seconds: its latency
    without the samples that interrupted it, and that latency at the
    reference speed.  The factor is the mean of REF_KERNEL_S / k over the
    samples within REACH_S of the span, at least MIN_SAMPLES of them; the
    samples fall evenly in time, so a long op is scaled by the machine's
    mean speed over its span."""
    samples = sorted(samples)
    starts = [s[0] for s in samples]
    raw, ref = [], []
    for t0, t1 in spans:
        i, j = bisect.bisect_left(starts, t0), bisect.bisect_right(starts, t1)
        latency = t1 - t0 - sum(s[2] for s in samples[i:j])
        i, j = bisect.bisect_left(starts, t0 - REACH_S), bisect.bisect_right(starts, t1 + REACH_S)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(samples)):
            i, j = max(0, i - 1), min(len(samples), j + 1)
        raw.append(latency)
        ref.append(latency * statistics.mean(REF_KERNEL_S / s[1] for s in samples[i:j]))
    return raw, ref
