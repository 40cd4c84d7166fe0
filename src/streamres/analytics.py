"""Closed-form reliability results for a k-slot standby reservoir.

Everything here is exact arithmetic: interruption probability with warm
standbys, expected depletion horizons, and batched-vs-concurrent acquisition
speedup.  The Monte Carlo counterparts live in streamres.simulator; these
functions are the oracles they are checked against.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Sequence

__all__ = [
    "SpeedupScenario",
    "interruption_probability",
    "harmonic_number",
    "expected_max_exponential",
    "expected_time_concurrent",
    "expected_time_batched",
    "batched_speedup",
    "censored_depletion_mean",
    "utility_estimate",
]

# Inclusion-exclusion enumerates all non-empty rate subsets; 2**20 terms is
# the largest fleet that stays comfortably sub-second.
MAX_EXACT_SLOTS = 20
# Subset sums are built for the last _TAIL_RATES rates under one subset of
# the others at a time, so at most 2**_TAIL_RATES are held at once.
_TAIL_RATES = 10


@dataclass(frozen=True, slots=True)
class SpeedupScenario:
    """Acquisition scan over n_candidates with per-probe failure_prob.

    batch_size is how many probes a batched scanner issues per round; the
    concurrent scanner always issues all n_candidates at once.
    """

    n_candidates: int
    batch_size: int
    failure_prob: float

    def __post_init__(self) -> None:
        if operator.index(self.n_candidates) < 1:  # TypeError if not an integer
            raise ValueError("n_candidates must be >= 1")
        if not 1 <= operator.index(self.batch_size) <= self.n_candidates:
            raise ValueError("batch_size must lie in [1, n_candidates]")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError("failure_prob must lie in [0, 1)")


def interruption_probability(failure_rates: Sequence[float], horizon: float) -> float:
    """Probability that every slot fails at least once within the horizon.

    Independent exponential failure times; the session is interrupted only
    if all k slots die, so each extra slot multiplies by another factor < 1.
    """
    if len(failure_rates) == 0:
        raise ValueError("at least one failure rate is required")
    if any(not rate >= 0.0 for rate in failure_rates):  # NaN fails too
        raise ValueError("failure rates must be non-negative")
    if not horizon >= 0.0:
        raise ValueError("horizon must be non-negative")
    if horizon == 0.0 or 0.0 in failure_rates:
        # No time to fail in, or a slot that never fails: rate * horizon
        # would be 0 * inf, NaN, where the other factor is infinite.
        return 0.0
    prob = 1.0
    for rate in failure_rates:
        prob *= 1.0 - math.exp(-rate * horizon)
    return prob


def harmonic_number(k: int) -> float:
    """H_k = 1 + 1/2 + ... + 1/k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sum(1.0 / j for j in range(1, k + 1))


def expected_max_exponential(failure_rates: Sequence[float]) -> float:
    """Expected maximum of independent exponentials by inclusion-exclusion.

    E[max] = sum over non-empty subsets S of (-1)**(|S|+1) / sum(rates in S).
    For equal rates this collapses to H_k / rate.  Capped at MAX_EXACT_SLOTS
    slots because the subset count doubles per slot.
    """
    k = len(failure_rates)
    if k == 0:
        raise ValueError("at least one failure rate is required")
    if k > MAX_EXACT_SLOTS:
        raise ValueError(f"exact evaluation is capped at {MAX_EXACT_SLOTS} slots")
    if any(not rate > 0.0 for rate in failure_rates):  # NaN fails too
        raise ValueError("failure rates must be positive")
    # The alternating series cancels heavily at large k; fsum keeps the
    # result exact to the last unit instead of drifting by ~1e-8 relative.
    # Being exactly rounded, it does not depend on the order of the terms.
    return math.fsum(chain.from_iterable(_inclusion_exclusion_terms(tuple(failure_rates))))


def _inclusion_exclusion_terms(rates: tuple[float, ...]) -> Iterator[list[float]]:
    """(-1)**(|S|+1) / sum(S) for every non-empty subset S of rates, in lists.

    Each sum adds S's rates left to right in index order, as sum() over an
    itertools.combinations subset does, so every term is that form's.
    """
    split = max(0, len(rates) - _TAIL_RATES)
    tail = rates[split:]
    head_even, head_odd = _subset_sums(0.0, rates[:split])
    for heads, sign in ((head_even, 1.0), (head_odd, -1.0)):
        for head in heads:
            even, odd = _subset_sums(head, tail)
            yield [sign / total for total in odd]
            # Only the empty subset sums to 0.0: every rate is positive.
            yield [-sign / total for total in even if total]


def _subset_sums(start: float, rates: Sequence[float]) -> tuple[list[float], list[float]]:
    """start plus the sum of each subset of rates, by subset size: even, odd.

    Doubling in index order adds each subset's rates left to right.
    """
    even, odd = [start], []
    for rate in rates:
        even, odd = (
            even + [total + rate for total in odd],
            odd + [total + rate for total in even],
        )
    return even, odd


def expected_time_concurrent(scenario: SpeedupScenario) -> float:
    """Expected rounds to first success probing all candidates at once."""
    return 1.0 / (1.0 - scenario.failure_prob**scenario.n_candidates)


def expected_time_batched(scenario: SpeedupScenario) -> float:
    """Expected time to first success probing batch_size candidates per round.

    Each round costs one probe time and the scan walks n/b batches, so the
    expected total is (n/b) / (1 - F**b).
    """
    n, b, f = scenario.n_candidates, scenario.batch_size, scenario.failure_prob
    return (n / b) / (1.0 - f**b)


def batched_speedup(scenario: SpeedupScenario) -> float:
    """How much slower batched scanning is than concurrent: E[T_bat] / E[T_con].

    Equals (n/b) * (1 - F**n) / (1 - F**b): strictly above 1 for every F in
    [0, 1) once the batch is smaller than the fleet (n/b > 1 and
    F**n <= F**b), and exactly 1 when it is the whole fleet.
    """
    return expected_time_batched(scenario) / expected_time_concurrent(scenario)


def censored_depletion_mean(step_fail_prob: float, horizon: int) -> float:
    """Mean of min(G, horizon) where G ~ Geometric(step_fail_prob), G >= 1.

    Closed-form companion of the refilled-reservoir depletion run: the
    reservoir dies the first step all slots fail together, and runs that
    survive the horizon are censored at it.  Equals (1 - (1-p)**T) / p.
    """
    if not 0.0 < step_fail_prob <= 1.0:
        raise ValueError("step failure probability must lie in (0, 1]")
    if operator.index(horizon) < 1:  # TypeError if not an integer
        raise ValueError("horizon must be >= 1")
    if step_fail_prob == 1.0:
        return 1.0
    # expm1/log1p form: the direct power cancels catastrophically for tiny p.
    mass = -math.expm1(horizon * math.log1p(-step_fail_prob))
    return mass / step_fail_prob


def utility_estimate(slot_count: int, mean_failure_rate: float) -> float:
    """Expected useful lifetime of a k-slot reservoir: H_k / mean rate."""
    if not 0.0 < mean_failure_rate < math.inf:
        raise ValueError("mean failure rate must be positive and finite")
    return harmonic_number(slot_count) / mean_failure_rate
