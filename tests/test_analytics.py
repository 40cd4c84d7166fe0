"""Closed-form analytics against independent numerical oracles.

expected_max_exponential is checked against scipy quadrature of the survival
function, censored_depletion_mean against a direct probability-mass sum, and
the speedup table against frozen values recomputed from the formula.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from streamres.analytics import (
    SpeedupScenario,
    batched_speedup,
    censored_depletion_mean,
    expected_max_exponential,
    expected_time_batched,
    expected_time_concurrent,
    harmonic_number,
    interruption_probability,
    utility_estimate,
)

TABLE_RATES = (0.10, 0.12, 0.15)

# Any rate or horizon the analytics accept, with 0 and inf drawn often: the
# two meet in a product that is NaN.
NON_NEGATIVE = st.one_of(
    st.sampled_from([0.0, math.inf]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=True),
)


def quad_max_exponential(rates):
    """E[max] = integral of P(max > t) dt, evaluated numerically."""

    def survival(t):
        prod = 1.0
        for rate in rates:
            prod *= 1.0 - math.exp(-rate * t)
        return 1.0 - prod

    total, _ = integrate.quad(survival, 0.0, math.inf)
    return total


def summed_censored_mean(p, horizon):
    """E[min(G, T)] by direct summation over the geometric pmf."""
    total = sum(t * p * (1.0 - p) ** (t - 1) for t in range(1, horizon + 1))
    return total + horizon * (1.0 - p) ** horizon


class TestInterruptionProbability:
    def test_single_slot(self):
        assert interruption_probability([0.1], 10.0) == pytest.approx(
            1.0 - math.exp(-1.0), abs=1e-12
        )

    def test_zero_horizon(self):
        assert interruption_probability([0.1, 0.2], 0.0) == 0.0

    def test_zero_horizon_is_zero_at_an_infinite_rate(self):
        # As at every finite rate: no time, no failure.
        assert interruption_probability([math.inf], 0.0) == 0.0
        assert interruption_probability([0.1, math.inf], 0.0) == 0.0

    def test_zero_rate_is_zero_at_an_infinite_horizon(self):
        # A slot that never fails is never lost, however long the session.
        assert interruption_probability([0.0], math.inf) == 0.0
        assert interruption_probability([0.2, 0.0], math.inf) == 0.0

    @given(
        st.lists(NON_NEGATIVE, min_size=1, max_size=5),
        NON_NEGATIVE,
    )
    def test_is_a_probability(self, rates, horizon):
        prob = interruption_probability(rates, horizon)
        assert 0.0 <= prob <= 1.0  # false for NaN too

    def test_each_slot_helps(self):
        horizon = 20.0
        probs = [
            interruption_probability([0.1] * k, horizon) for k in range(1, 6)
        ]
        assert probs == sorted(probs, reverse=True)
        assert all(p > q for p, q in zip(probs, probs[1:]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            interruption_probability([], 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            interruption_probability([0.1, -0.2], 1.0)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            interruption_probability([0.1], -1.0)
        # NaN fails too, rather than returning NaN.
        with pytest.raises(ValueError, match="non-negative"):
            interruption_probability([math.nan], 1.0)
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            interruption_probability([0.1], math.nan)


class TestHarmonic:
    def test_exact_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(11.0 / 6.0, abs=1e-15)
        assert harmonic_number(8) == pytest.approx(
            sum(1.0 / j for j in range(1, 9)), abs=1e-15
        )

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            harmonic_number(0)


class TestExpectedMaxExponential:
    def test_equal_rates_harmonic_identity(self):
        for k in (1, 2, 3, 5, 10):
            for rate in (0.05, 0.1, 1.0):
                exact = expected_max_exponential([rate] * k)
                assert exact == pytest.approx(
                    harmonic_number(k) / rate, rel=1e-12
                )

    def test_against_quadrature(self):
        for rates in (TABLE_RATES, (0.3,), (0.07, 0.4), (0.1, 0.1, 0.2, 0.9)):
            assert expected_max_exponential(rates) == pytest.approx(
                quad_max_exponential(rates), rel=1e-9
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 9, 10, 11, 12, 14])
    def test_equals_the_combinations_form_bit_for_bit(self, k):
        # The reference: every subset from itertools.combinations, summed by
        # sum() and added up by fsum.  Past 10 rates the subset sums are
        # built in chunks, so 11-14 cross that boundary.
        gen = random.Random(k)
        for _ in range(3):
            rates = [gen.uniform(0.01, 3.0) for _ in range(k)]
            reference = math.fsum(
                (1.0 if size % 2 == 1 else -1.0) / sum(subset)
                for size in range(1, k + 1)
                for subset in itertools.combinations(rates, size)
            )
            assert expected_max_exponential(rates) == reference

    def test_table_rates_frozen(self):
        assert expected_max_exponential(TABLE_RATES) == pytest.approx(
            15.453544, abs=1e-6
        )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            expected_max_exponential([])
        with pytest.raises(ValueError):
            expected_max_exponential([0.1, 0.0])
        with pytest.raises(ValueError):
            expected_max_exponential([0.1] * 21)
        with pytest.raises(ValueError, match="positive"):
            expected_max_exponential([math.nan, 0.1])


class TestSpeedup:
    def test_table_values(self):
        assert batched_speedup(SpeedupScenario(12, 3, 0.4)) == pytest.approx(
            4.27, abs=0.01
        )
        assert batched_speedup(SpeedupScenario(20, 5, 0.3)) == pytest.approx(
            4.01, abs=0.01
        )
        assert batched_speedup(SpeedupScenario(8, 2, 0.5)) == pytest.approx(
            5.31, abs=0.01
        )

    def test_formula_recomputation(self):
        for n, b, f in ((12, 3, 0.4), (20, 5, 0.3), (8, 2, 0.5), (6, 2, 0.25)):
            scenario = SpeedupScenario(n, b, f)
            expected = (n / b) * (1.0 - f**n) / (1.0 - f**b)
            assert batched_speedup(scenario) == pytest.approx(expected, rel=1e-12)

    def test_whole_fleet_batch_is_no_slower(self):
        scenario = SpeedupScenario(10, 10, 0.3)
        assert batched_speedup(scenario) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("failure_prob", [0.0, 0.5, 0.9, 0.999])
    def test_smaller_batch_is_slower_at_any_failure_prob(self, failure_prob):
        assert batched_speedup(SpeedupScenario(12, 11, failure_prob)) > 1.0

    def test_zero_failure(self):
        scenario = SpeedupScenario(9, 3, 0.0)
        assert expected_time_concurrent(scenario) == 1.0
        assert expected_time_batched(scenario) == 3.0

    def test_components(self):
        scenario = SpeedupScenario(12, 3, 0.4)
        assert expected_time_concurrent(scenario) == pytest.approx(
            1.0 / (1.0 - 0.4**12), rel=1e-12
        )
        assert expected_time_batched(scenario) == pytest.approx(
            4.0 / (1.0 - 0.4**3), rel=1e-12
        )

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            SpeedupScenario(0, 1, 0.1)
        with pytest.raises(ValueError):
            SpeedupScenario(5, 6, 0.1)
        with pytest.raises(ValueError):
            SpeedupScenario(5, 2, 1.0)

    @pytest.mark.parametrize("n, b", [(12.5, 3), (12.0, 3), (12, 3.0)])
    def test_fractional_counts_raise(self, n, b):
        with pytest.raises(TypeError):
            SpeedupScenario(n, b, 0.4)


class TestCensoredDepletionMean:
    def test_against_direct_sum(self):
        for p, horizon in ((0.0018, 100), (0.1, 100), (0.5, 10), (0.9, 3)):
            assert censored_depletion_mean(p, horizon) == pytest.approx(
                summed_censored_mean(p, horizon), rel=1e-12
            )

    def test_reference_point(self):
        assert censored_depletion_mean(0.0018, 100) == pytest.approx(
            91.591808, abs=1e-6
        )

    def test_certain_failure(self):
        assert censored_depletion_mean(1.0, 100) == 1.0

    def test_deep_censoring(self):
        # Nearly-impossible failure: the mean collapses to the horizon.
        assert censored_depletion_mean(1e-12, 50) == pytest.approx(50.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            censored_depletion_mean(0.0, 100)
        with pytest.raises(ValueError):
            censored_depletion_mean(0.5, 0)

    @pytest.mark.parametrize("horizon", [2.5, 2.0, math.nan])
    def test_fractional_horizon_raises(self, horizon):
        # min(G, 2.5) has mean 1.625 at p = 0.5; the closed form assumes an
        # integer horizon, so a float is refused.
        with pytest.raises(TypeError):
            censored_depletion_mean(0.5, horizon)


class TestBounds:
    def test_utility_estimate(self):
        assert utility_estimate(1, 0.1) == pytest.approx(10.0)
        assert utility_estimate(3, 0.1) == pytest.approx(18.333333, abs=1e-5)
        with pytest.raises(ValueError):
            utility_estimate(3, 0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_utility_estimate_rejects_non_finite_rate(self, rate):
        with pytest.raises(ValueError, match="finite"):
            utility_estimate(3, rate)
