"""Contention-normalised timing for CPU-bound operations.

On a shared host a vCPU runs at full speed or, while another tenant uses
its hyperthread sibling, up to ~2x slower, switching within seconds and
independently of the other vCPU.  Wall times of CPU-bound work then spread
by 10-40% from run to run, more than any regression bound.

`SpeedSampler` times a fixed calibration snippet (one numpy generator
construction plus a short dict loop, like the library's own hot paths) on
the main thread: at most every PERIOD_S between operations, when the
workload calls `tick`; between blocks of operations, when it calls
`sample`; or, for operations that last seconds, from a SIGALRM handler,
which skips the sample while other threads run because it would then time
the GIL too.  Each sample runs the snippet twice and times the second run,
so caches the operations evicted do not count.  One sample is noisy (an
interrupt, a cache miss), so the speed at a sample is the mean over the
SMOOTHING samples around it, and between samples it is taken as constant.

`normalise` rescales an operation to the time it would have taken at the
speed where one calibration costs REFERENCE_US,
``integral of REFERENCE_US / cost(t) dt``, less the samples taken inside
it.  `block_rates` instead rescales the operations of a block that lies
between two samples by those two samples alone, unsmoothed: where the
samples are that close, smoothing only blurs the switches between speeds.
Overhead: 120-260 us per 20 ms, about 1%.  The snippet runs no package code,
so a change that makes the package faster or slower moves normalised times
as it moves wall times.
"""

from __future__ import annotations

import signal
import threading
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
REFERENCE_US = 60.0
SMOOTHING = 50  # samples: one second


def _calibration(count: int) -> None:
    np.random.default_rng(np.random.SeedSequence(count, spawn_key=(7,))).random()
    acc: dict[int, float] = {}
    for i in range(200):
        acc[i % 31] = acc.get(i % 31, 0.0) + i * 0.5


def calibration_cost(samples: int = 25) -> float:
    """Median seconds of one calibration on this thread, timed as `SpeedSampler.sample` does."""
    sampler = SpeedSampler(timer=False)
    for _ in range(samples):
        sampler.sample()
    return float(np.median(sampler.costs))


class SpeedSampler:
    """Context manager; with ``timer`` it must be entered on the main thread."""

    def __init__(self, timer: bool) -> None:
        self.timer = timer
        self.times: list[float] = []
        self.costs: list[float] = []
        self._previous = None

    def sample(self) -> None:
        started = perf_counter()
        _calibration(len(self.times))  # warms the caches the operations evicted
        timed = perf_counter()
        _calibration(len(self.times))
        self.times.append(started)
        self.costs.append(perf_counter() - timed)

    def tick(self) -> None:
        """Sample if PERIOD_S has passed since the last sample; call between operations."""
        if perf_counter() - self.times[-1] >= PERIOD_S:
            self.sample()

    def _on_alarm(self, signum, frame) -> None:
        if threading.active_count() == 1:
            self.sample()

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)

    def normalise(self, starts, walls) -> np.ndarray:
        """Reference-speed durations (s) of the operations that began at starts."""
        starts = np.asarray(starts, dtype=float)
        ends = starts + np.asarray(walls, dtype=float)
        times = np.asarray(self.times)
        rate = REFERENCE_US * 1e-6 / np.asarray(self.costs)
        window = np.ones(min(SMOOTHING, len(rate)))
        rate = np.convolve(rate, window, "same") / np.convolve(np.ones_like(rate), window, "same")
        # Reference-speed time elapsed from the first sample to each sample.
        at_sample = np.concatenate([[0.0], np.cumsum(rate[:-1] * np.diff(times))])

        def elapsed(t):
            i = np.clip(np.searchsorted(times, t, side="right") - 1, 0, len(times) - 1)
            return at_sample[i] + rate[i] * (t - times[i])

        # Each sample inside an operation ran the snippet twice, about
        # REFERENCE_US apiece at reference speed; that time is not the operation's.
        inside = np.searchsorted(times, ends) - np.searchsorted(times, starts)
        return elapsed(ends) - elapsed(starts) - inside * 2 * REFERENCE_US * 1e-6

    def block_rates(self, starts, ends) -> np.ndarray:
        """Reference-speed seconds per wall second of each block, from the samples around it."""
        times = np.asarray(self.times)
        costs = np.asarray(self.costs)
        before = np.searchsorted(times, starts, side="right") - 1
        after = np.minimum(np.searchsorted(times, ends), len(times) - 1)
        return REFERENCE_US * 1e-6 / np.sqrt(costs[before] * costs[after])

    def slowdown(self) -> float:
        """Median calibration cost over REFERENCE_US."""
        return float(np.median(self.costs)) / (REFERENCE_US * 1e-6)
