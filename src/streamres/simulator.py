"""Seeded Monte Carlo experiments over the reservoir and the acquisition scan.

Four experiment families: depletion horizons under slot failure (with and
without refill), quality convergence under lazy refill from providers of
unequal availability, switch-thrash counting under persistent standbys, and
the mean rounds to a first viable probe of a batched and a concurrent scan
(the speedup estimate).  A depletion run and the speedup estimate each draw
from one substream, a monotonicity trial from its own.  Depletion and
monotonicity read their substream through one reader, _uniform_rows: rows
of one uniform per slot or provider, drawn in blocks of whole rows, so the
values are those of one long draw whatever the block size.  Depletion
samples each trial from the exact law of its depletion time, one antithetic
pair per row.  A monotonicity step takes one up/down row and, when a slot
is vacant, one latency row; it reads a trial's rows as Python lists and
compares or scales only the values it uses.  Its refill round passes only
the eligible providers that are up and whose id holds no slot, since
refill drops every non-viable or held result, and a vacant step with no
such provider skips the round; its latency row is read either way, so the
draws stay the same.
A config stores only its fields: each trial builds its candidates from them
and takes its vacancies from its health cycles, so no state is kept.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .probe import ProbeResult, StreamCandidate, _result
from .reservoir import Reservoir, Slot
from .analytics import SpeedupScenario
from .viability import Rng

# Uniforms _uniform_rows draws per generator call, rounded down to whole rows
# (at least one row).  random() spends one 64-bit output per double, so the
# values are those of one long call whatever this is.
_UNIFORM_CHUNK = 1024

# Geometric round counts explode as the per-probe failure probability
# approaches 1; the speedup estimate rejects anything at or beyond this.
MAX_FAILURE_PROB = 0.999

__all__ = [
    "DepletionConfig",
    "MonotonicityConfig",
    "TrialSummary",
    "DepletionResult",
    "run_depletion",
    "run_monotonicity",
    "run_thrash",
    "run_speedup_empirical",
]


@dataclass(frozen=True, slots=True)
class DepletionConfig:
    """Depletion experiment: one slot per failure rate.

    With refill=True each step is a fresh Bernoulli draw per slot (failed
    standbys are restored between steps), so the reservoir dies only when
    every slot fails within one step.  With refill=False slots draw
    continuous exponential lifetimes and the reservoir dies with the last
    one.  Both are censored at the horizon.
    """

    failure_rates: tuple[float, ...]
    horizon: int = 100
    trials: int = 5000
    refill: bool = True

    def __post_init__(self) -> None:
        # Kept as a tuple, so a caller's list cannot change after it was
        # checked.
        object.__setattr__(self, "failure_rates", tuple(self.failure_rates))
        if len(self.failure_rates) < 1:
            raise ValueError("at least one failure rate is required")
        if not all(math.isfinite(rate) for rate in self.failure_rates):
            raise ValueError("failure rates must be finite")
        if any(rate <= 0.0 for rate in self.failure_rates):
            raise ValueError("failure rates must be positive")
        if self.refill and any(rate > 1.0 for rate in self.failure_rates):
            raise ValueError("per-step failure probabilities must lie in (0, 1]")
        # Counts are integers (TypeError otherwise), checked here rather than
        # deep inside numpy when the experiment runs.
        if operator.index(self.horizon) < 1:
            raise ValueError("horizon must be >= 1")
        if operator.index(self.trials) < 1:
            raise ValueError("trials must be >= 1")


@dataclass(frozen=True, slots=True)
class MonotonicityConfig:
    """Lazy-refill experiment over providers of paired (quality, availability).

    Each step every provider is independently up with its availability.
    Standbys of down providers fail their health check and are dropped;
    refill may admit any provider that is up this step and whose
    availability clears the admission threshold tau.
    """

    providers: tuple[tuple[int, float], ...]
    steps: int = 100
    tau: float = 0.3
    slot_count: int = 3

    def __post_init__(self) -> None:
        # Kept as a tuple of pairs, so a caller's list cannot change after
        # it was checked.
        object.__setattr__(self, "providers", tuple((q, a) for q, a in self.providers))
        if not self.providers:
            raise ValueError("at least one provider is required")
        for quality, availability in self.providers:
            # A trial's StreamCandidate would refuse it; NaN fails too.
            if not 0 < quality <= sys.float_info.max:
                raise ValueError("quality must be positive and at most the largest float")
            if not 0.0 <= availability <= 1.0:
                raise ValueError("availability must lie in [0, 1]")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must lie in [0, 1]")
        # Integers (TypeError otherwise); slot_count is the reservoir's
        # capacity, an integer as Reservoir requires.
        if operator.index(self.steps) < 1:
            raise ValueError("steps must be >= 1")
        if operator.index(self.slot_count) < 1:
            raise ValueError("slot_count must be >= 1")


@dataclass(frozen=True, slots=True)
class TrialSummary:
    """Per-trial outcome of a reservoir experiment."""

    monotone_violations: int
    final_quality: int
    convergence_step: int
    switch_count: int


@dataclass(frozen=True, slots=True)
class DepletionResult:
    mean: float
    stderr: float
    trials: int


def run_depletion(config: DepletionConfig, rng: Rng) -> DepletionResult:
    """Mean depletion time (with standard error) over seeded trials.

    Each trial is drawn from the exact law of its depletion time by
    inversion: refilled, min(Geometric(q), horizon) with q = prod(rates),
    the first step at which every slot fails; drained, the longest of the
    slots' exponential lifetimes, censored at the horizon.  The run draws
    from substream(refill, slots), slots being the number of failure rates,
    so configs of another shape never share draws.  Trials 2j and 2j+1 form
    an antithetic pair: they invert row j of uniforms, u and 1 - u, and
    every map is monotone in u, so a pair's two times are negatively
    correlated.

    stderr is the standard error of the mean over independent units, the
    pairs and, for an odd trial count, the lone last trial; it is 0.0 below
    two pairs.
    """
    times = _depletion_times(config, rng)
    return DepletionResult(
        mean=float(times.mean()), stderr=_pair_stderr(times), trials=config.trials
    )


def _depletion_times(config: DepletionConfig, rng: Rng) -> np.ndarray:
    """The depletion time of every trial, in trial order."""
    rates = np.array(config.failure_rates)
    slots = len(config.failure_rates)
    q = math.prod(config.failure_rates)
    width = 1 if config.refill else slots
    gen = rng.substream(int(config.refill), slots)
    times = np.empty(config.trials)
    lo = 0
    for half in _uniform_rows(gen, width, (config.trials + 1) // 2):
        # Each row and its antithetic partner, in trial order; an odd count
        # drops the last partner.
        uniforms = np.stack([half, 1.0 - half], axis=1).reshape(-1, width)
        uniforms = uniforms[: config.trials - lo]
        hi = lo + len(uniforms)
        # u == 1 (the partner of u == 0) gives an infinite exponential, which
        # the horizon censors.
        with np.errstate(divide="ignore", over="ignore"):
            exponentials = -np.log1p(-uniforms)
            if not config.refill:
                times[lo:hi] = (exponentials / rates).max(axis=1)
            elif q < 1.0:
                times[lo:hi] = np.floor(exponentials[:, 0] / -math.log1p(-q)) + 1.0
            else:
                times[lo:hi] = 1.0  # every slot fails at the first step
        lo = hi
    return np.minimum(times, config.horizon, out=times)


def _pair_stderr(times: np.ndarray) -> float:
    """Standard error of times.mean() over antithetic pairs and a lone tail."""
    count = len(times)
    pairs = count // 2
    if pairs < 2:
        return 0.0
    pair_sums = times[: 2 * pairs].reshape(pairs, 2).sum(axis=1)
    variance = pairs * pair_sums.var(ddof=1)
    if count % 2:
        # The lone trial is one more independent unit with a single trial's
        # variance.
        variance += times.var(ddof=1)
    return float(math.sqrt(variance) / count)


def _candidates(prefix: str, qualities: Iterable[int]) -> list[StreamCandidate]:
    """One simulated stream per quality, the i-th from provider prefix + i."""
    return [
        StreamCandidate(
            id=f"{prefix}{index}-{quality}p",
            provider_id=f"{prefix}{index}",
            quality=quality,
            locator=f"sim://{prefix}{index}/{quality}",
        )
        for index, quality in enumerate(qualities)
    ]


def _uniform_rows(gen: np.random.Generator, width: int, rows: int) -> Iterator[np.ndarray]:
    """Draw rows rows of width uniforms from gen, yielded in blocks of whole rows.

    A block holds max(1, _UNIFORM_CHUNK // width) rows and the last one is
    shorter, so no block is larger than what is left to read.
    """
    block = max(1, _UNIFORM_CHUNK // width)
    for lo in range(0, rows, block):
        yield gen.random((min(block, rows - lo), width))


def _summary(switches: list[tuple[int, int]]) -> TrialSummary:
    """Trial statistics from (step, active quality) switch points.

    The first point is where the trial starts and each later one a switch;
    each quality holds from its point until the next one."""
    final = switches[-1][1]
    return TrialSummary(
        monotone_violations=sum(
            1 for (_, prev), (_, cur) in zip(switches, switches[1:]) if cur < prev
        ),
        final_quality=final,
        convergence_step=next(step for step, quality in switches if quality == final),
        switch_count=len(switches) - 1,
    )


def run_monotonicity(
    config: MonotonicityConfig,
    rng: Rng,
    trial: int = 0,
    trace_sink: list[str] | None = None,
) -> TrialSummary:
    """One lazy-refill trial; reports quality trajectory statistics.

    The active stream is consumed, not probed, so it never fails here; the
    experiment isolates the upgrade path.  Quality can therefore only move
    when a refill admission and a positive switch score agree, which is
    exactly the claim under test: the trajectory never steps down, and it
    ends at the best quality whose availability clears tau.

    The trial builds its candidates from config.providers.  Each step reads
    an up/down row.  Acquisition probes every provider, with a latency row,
    until sprint_fill returns a reservoir; then each step runs a health
    cycle, a refill round when the cycle reports an open slot, and an
    upgrade evaluation.  A refill step reads a latency row and passes the
    round the eligible providers that are up and whose id holds no slot;
    when there are none it skips the round, which would change nothing.  A
    switch point (step, active quality) is recorded at acquisition and at
    each upgrade.
    """
    candidates = _candidates("p", (q for q, _ in config.providers))
    index_of = {c.id: i for i, c in enumerate(candidates)}
    availabilities = [float(a) for _, a in config.providers]
    eligible = [i for i, a in enumerate(availabilities) if a >= config.tau]
    # Every row the trial can read, an up/down row and a latency row per
    # step; provider i is up when up[i] < availabilities[i], and its latency
    # is latency[i] * 1000.0 ms.
    rows = chain.from_iterable(
        block.tolist()
        for block in _uniform_rows(
            rng.substream(trial), len(candidates), 2 * (config.steps + 1)
        )
    )

    # The providers of the standbys that passed the current health cycle,
    # which drops exactly those that fail: with the active stream's, the
    # providers holding a slot after the cycle.
    kept: list[int] = []

    def healthy(slot: Slot) -> bool:
        # Reads the current step's up row.
        i = index_of[slot.candidate.id]
        if up[i] < availabilities[i]:
            kept.append(i)
            return True
        return False

    # A round draws a latency for every provider, probed or not.
    for step in range(config.steps + 1):
        up = next(rows)
        reservoir = Reservoir.sprint_fill(
            [
                ProbeResult(candidate, u < a, ms * 1000.0)
                for candidate, u, a, ms in zip(candidates, up, availabilities, next(rows))
            ],
            capacity=config.slot_count,
            now=float(step),
        )
        if reservoir is not None:
            break
    else:
        return _summary([(config.steps, 0)])
    # Only acquisition and an upgrade change the active stream.
    switches = [(step, reservoir.active.quality)]
    for step in range(step + 1, config.steps + 1):
        now = float(step)
        up = next(rows)
        kept.clear()
        if reservoir.run_health_cycle(healthy, now):
            # Refill drops non-viable and held results before anything else,
            # so a round with none left would admit and log nothing, and the
            # health cycle has already moved the clock to now.
            latency = next(rows)
            kept.append(index_of[reservoir.active.candidate.id])
            fresh = [
                _result((candidates[i], True, latency[i] * 1000.0, False, None))
                for i in eligible
                if up[i] < availabilities[i] and i not in kept
            ]
            if fresh:
                reservoir.refill(fresh, now)
        if reservoir.evaluate_upgrade(now) is not None:
            switches.append((step, reservoir.active.quality))

    if trace_sink is not None:
        trace_sink.extend(reservoir.trace_lines())
    return _summary(switches)


def run_thrash(
    qualities: Sequence[int],
    steps: int = 100,
    trace_sink: list[str] | None = None,
) -> TrialSummary:
    """Count switches with every stream persistently viable.

    Worst-case churn setup: the lowest quality starts active with every
    other level sitting as a fresh standby, and each step is one health
    cycle (verification counts grow) followed by one upgrade evaluation.
    The switch score's flat cost keeps nearby levels inside a dead zone, so
    the count stays small no matter how long this runs.
    """
    if not qualities:
        raise ValueError("at least one quality level is required")
    if operator.index(steps) < 1:
        raise ValueError("steps must be >= 1")
    candidates = _candidates("s", qualities)
    worst = min(candidates, key=lambda c: c.quality)
    rest = [c for c in candidates if c.id != worst.id]
    reservoir = Reservoir.sprint_fill(
        [ProbeResult(candidate=worst, viable=True, latency_ms=0.0)],
        capacity=len(candidates),
        now=0.0,
    )
    assert reservoir is not None
    reservoir.refill(
        [ProbeResult(candidate=c, viable=True, latency_ms=0.0) for c in rest],
        now=0.0,
    )

    switches = [(0, reservoir.active.quality)]
    for step in range(1, steps + 1):
        reservoir.run_health_cycle(lambda slot: True, now=float(step))
        if reservoir.evaluate_upgrade(now=float(step)) is not None:
            switches.append((step, reservoir.active.quality))

    if trace_sink is not None:
        trace_sink.extend(reservoir.trace_lines())
    return _summary(switches)


def run_speedup_empirical(
    scenario: SpeedupScenario, trials: int, rng: Rng
) -> tuple[float, float]:
    """Monte Carlo mean time to first success: (batched, concurrent).

    Each round of the batched scan probes batch_size candidates and the scan
    walks n/b batches, so a trial costs (n/b) * rounds-to-first-success; the
    concurrent scan probes everything at once and costs just its round count.
    A scan whose rounds all fail with probability q takes G rounds, drawn by
    inversion from a uniform U as G = max(1, ceil(log(1 - U) / log(q))), or 1
    when q is 0; random() is stable across numpy versions, unlike
    geometric().  Every trial draws from substream(0), all batched counts
    before all concurrent ones, so the estimate depends only on the seed and
    the trial count.  The scenario has checked n, b and the failure
    probability's [0, 1) range; the estimate also needs it below
    MAX_FAILURE_PROB.
    """
    n, b, failure_prob = scenario.n_candidates, scenario.batch_size, scenario.failure_prob
    if not failure_prob < MAX_FAILURE_PROB:
        raise ValueError(f"failure_prob must lie in [0, {MAX_FAILURE_PROB})")
    if operator.index(trials) < 1:
        raise ValueError("trials must be >= 1")
    gen = rng.substream(0)
    # One buffer holds each scan's round counts in turn.
    rounds = np.empty(trials)
    means = []
    for q in (failure_prob**b, failure_prob**n):
        gen.random(out=rounds)
        if q > 0.0:
            np.log1p(np.negative(rounds, out=rounds), out=rounds)
            np.divide(rounds, math.log(q), out=rounds)
            np.ceil(rounds, out=rounds)
            np.maximum(rounds, 1.0, out=rounds)  # U = 0 gives 0 rounds
        else:
            rounds.fill(1.0)
        means.append(float(rounds.mean()))
    batched, concurrent = means
    return n / b * batched, concurrent
