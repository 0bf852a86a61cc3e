"""Timing helpers shared by the workloads: a speed gauge and percentiles.

The benchmark runs on small shared machines whose cores change speed by up
to 2x within seconds (a busy neighbour on the sibling hyperthread, or
frequency scaling). Raw medians of identical code then move by more than
any useful regression bound. Every wall time the benchmark reports is
therefore scaled to a nominal machine speed: a fixed reference kernel is
timed next to the measured work, and each measured interval is multiplied
by ``NOMINAL_REF_S / reference time``. A value reads as "the time this would
take on a machine where the reference kernel takes exactly 1 ms". Raw wall
times are printed next to the scaled ones in every result.

The gauge shares the process with the work it scales, so a change that adds
background threads to the library would slow the gauge as well and hide
part of its own cost; the raw figures still show it.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import time

import numpy as np

NOMINAL_REF_S = 0.001  # the reference kernel's duration at nominal speed
GAUGE_EVERY_S = 0.1  # re-time the reference kernel at most this often
TICK_RUNS = 3  # kernel runs per reading during a timed phase
TIMED_RUNS = 5  # kernel runs per reading around a single long call

_A3 = np.arange(3.0)
_B3 = np.ones(3)


def _reference_kernel() -> int:
    """Fixed work in the mix the library spends its time in.

    An interpreted loop with dict traffic (the CF kernel and the parsers),
    float updates on lists (incremental SVD) and small-array numpy calls
    (the kNN box distances). It must never change: every scaled figure of
    every commit depends on it.
    """
    acc = 0
    table: dict[int, int] = {}
    for i in range(1200):
        table[i & 63] = table.get(i & 63, 0) + i * i
        acc += table[i & 31]
    xs, ys = [0.1] * 64, [0.2] * 64
    for i in range(600):
        j = i & 63
        err = 1.0 - xs[j] * ys[j]
        xs[j] += 0.001 * err * ys[j]
        ys[j] += 0.001 * err * xs[j]
    for _ in range(60):
        d = np.maximum(np.abs(_A3 - _B3), np.abs(_B3 - _A3))
        acc += int(d @ d)
    return acc


class SpeedGauge:
    """Tracks the speed of the shared CPU by timing the reference kernel."""

    def __init__(self):
        self.starts: list[float] = []
        self.readings: list[float] = []  # kernel durations, in start order

    def sample(self, runs: int = TICK_RUNS) -> float:
        """Time the reference kernel now, the fastest of ``runs`` runs; returns seconds.

        The fastest run is the one least disturbed by interrupts and cold caches.
        """
        start = time.perf_counter()
        durations = []
        for _ in range(runs):
            a = time.perf_counter()
            _reference_kernel()
            durations.append(time.perf_counter() - a)
        duration = min(durations)
        self.starts.append(start)
        self.readings.append(duration)
        return duration

    def tick(self) -> None:
        """Sample unless the last reading is younger than ``GAUGE_EVERY_S``."""
        if not self.starts or time.perf_counter() - self.starts[-1] >= GAUGE_EVERY_S:
            self.sample()

    def factor_over(self, a: float, b: float) -> float:
        """Multiplier from raw to nominal seconds for work from time a to b.

        Uses the mean of the readings taken during the work and of those
        just before and just after it, so the speed on both sides counts;
        call it once the run is over.
        """
        i = bisect.bisect_right(self.starts, a)
        j = bisect.bisect_right(self.starts, b)
        near = self.readings[max(i - 1, 0): j + 1]
        return NOMINAL_REF_S / (sum(near) / len(near))

    def timed(self, fn, *args, **kwargs):
        """Run fn between two readings; returns (result, raw s, scaled s).

        Meant for single long calls, so each reading takes the fastest of
        ``TIMED_RUNS`` kernel runs: one reading scales the whole call.
        """
        self.sample(TIMED_RUNS)
        a = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - a
        self.sample(TIMED_RUNS)
        return result, raw, raw * self.factor_over(a, a + raw)


def percentile(values, p: float) -> float:
    """The p-th percentile (linear interpolation, as numpy computes it)."""
    if not values:
        raise ValueError("no samples")
    return float(np.percentile(np.asarray(values, dtype=float), p))


def median(values) -> float:
    return percentile(values, 50)


def digest(payload) -> str:
    """Short stable digest of a value's repr."""
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size of this process, or of its largest child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def environment(seed: int) -> dict:
    """The facts a reader needs to compare this result with another."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "seed": seed,
        "nominal_ref_ms": NOMINAL_REF_S * 1000,
    }
