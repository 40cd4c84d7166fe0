"""Switch-score calculus: frozen oracle values and shape checks.

The frozen constants were computed once from the definitions at high
precision and pinned here; the functions must keep reproducing them.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from streamres.prospect import (
    DEFAULT_PARAMS,
    ProspectParams,
    confidence,
    switch_score,
    value,
    weight,
)

# weight(p) under gamma = 0.61
WEIGHT_001 = 0.055266136751708515
WEIGHT_050 = 0.42063935433575617
WEIGHT_099 = 0.9115837525786911

# switch_score(720, 1080, n) under default params
SCORE_720_1080_N1 = -0.00968829938868343
SCORE_720_1080_N3 = 0.05542386567684718
SCORE_720_1080_N5 = 0.07849025521978947
SCORE_720_780_N1 = -0.09720453374784488

# Theorem (4)'s dead zone: weight(p) <= weight(1) = 1, so no verification
# count lets a gain of d* = quality_ceiling * switch_cost**(1/alpha) or less
# score above zero.
DEAD_ZONE = DEFAULT_PARAMS.quality_ceiling * DEFAULT_PARAMS.switch_cost ** (
    1.0 / DEFAULT_PARAMS.alpha
)


class TestValue:
    def test_zero(self):
        assert value(0.0) == 0.0

    def test_gain_branch(self):
        assert value(0.5) == pytest.approx(0.5**0.88, abs=1e-15)

    def test_loss_branch(self):
        assert value(-0.5) == pytest.approx(-2.25 * 0.5**0.88, abs=1e-15)

    def test_loss_aversion_ratio_exact(self):
        # alpha == beta makes the ratio exactly the loss-aversion factor.
        for x in (1e-6, 0.01, 1.0 / 6.0, 0.5, 1.0):
            assert abs(value(-x)) / value(x) == pytest.approx(2.25, abs=1e-12)

    def test_monotone(self):
        xs = [-1.0, -0.5, -0.01, 0.0, 0.01, 0.5, 1.0]
        values = [value(x) for x in xs]
        assert values == sorted(values)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            value(float("nan"))
        with pytest.raises(ValueError):
            value(float("inf"))

    def test_custom_curvature(self):
        params = ProspectParams(alpha=1.0, beta=1.0, loss_aversion=2.0)
        assert value(0.3, params) == pytest.approx(0.3, abs=1e-15)
        assert value(-0.3, params) == pytest.approx(-0.6, abs=1e-15)


class TestWeight:
    def test_fixed_points(self):
        assert weight(0.0) == 0.0
        assert weight(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_values(self):
        assert weight(0.01) == pytest.approx(WEIGHT_001, abs=1e-12)
        assert weight(0.50) == pytest.approx(WEIGHT_050, abs=1e-12)
        assert weight(0.99) == pytest.approx(WEIGHT_099, abs=1e-12)

    def test_inverse_s_shape(self):
        # Overweights small probabilities, underweights large ones.
        assert weight(0.01) > 0.01
        assert weight(0.05) > 0.05
        assert weight(0.5) < 0.5
        assert weight(0.9) < 0.9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            weight(-0.01)
        with pytest.raises(ValueError):
            weight(1.01)

    def test_gamma_one_is_identity(self):
        params = ProspectParams(gamma=1.0)
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert weight(p, params) == pytest.approx(p, abs=1e-12)


class TestConfidence:
    def test_values(self):
        assert confidence(0) == 0.0
        assert confidence(1) == pytest.approx(0.7, abs=1e-15)
        assert confidence(3) == pytest.approx(1.0 - 0.3**3, abs=1e-15)

    def test_monotone_to_one(self):
        values = [confidence(n) for n in range(12)]
        assert values == sorted(values)
        assert values[-1] < 1.0
        assert values[-1] == pytest.approx(1.0, abs=1e-5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            confidence(-1)


class TestSwitchScore:
    def test_frozen_upgrade_scores(self):
        assert switch_score(720, 1080, 1) == pytest.approx(SCORE_720_1080_N1, abs=1e-12)
        assert switch_score(720, 1080, 3) == pytest.approx(SCORE_720_1080_N3, abs=1e-12)
        assert switch_score(720, 1080, 5) == pytest.approx(SCORE_720_1080_N5, abs=1e-12)

    def test_frozen_trivial_upgrade(self):
        assert switch_score(720, 780, 1) == pytest.approx(SCORE_720_780_N1, abs=1e-12)

    def test_same_quality_is_exactly_minus_cost(self):
        for quality in (360, 720, 2160):
            for n in (0, 1, 9, 100):
                assert switch_score(quality, quality, n) == -DEFAULT_PARAMS.switch_cost

    def test_verification_monotone(self):
        scores = [switch_score(720, 1080, n) for n in range(10)]
        assert scores == sorted(scores)

    def test_dead_zone_width(self):
        # Even at full confidence the flat cost swallows gains below d*.
        assert DEAD_ZONE == pytest.approx(194.119, abs=1e-3)
        assert switch_score(1000, 1000 + 190, 50) < 0.0
        assert switch_score(1000, 1000 + 200, 50) > 0.0

    # Keep the 1e-9 margin: at g = d* exactly and q = 1e6 the score rounds
    # to +1.5e-14.  The example is the zone's edge at full confidence.
    @example(q=1e6, gain=DEAD_ZONE * (1.0 - 1e-9), n=10_000)
    @given(
        q=st.floats(1.0, 1e6),
        gain=st.floats(0.0, DEAD_ZONE * (1.0 - 1e-9)),
        n=st.integers(0, 10_000),
    )
    def test_no_gain_inside_the_dead_zone_switches(self, q, gain, n):
        assert switch_score(q, q + gain, n) <= 0.0

    def test_a_200px_gain_first_switches_at_six_verifications(self):
        scores = [switch_score(720, 920, n) for n in range(8)]
        assert [score > 0.0 for score in scores] == [False] * 6 + [True] * 2

    def test_downgrade_is_always_negative(self):
        for n in (1, 5, 50):
            assert switch_score(1080, 720, n) < -DEFAULT_PARAMS.switch_cost

    def test_rejects_non_positive_quality(self):
        with pytest.raises(ValueError):
            switch_score(0, 1080, 1)
        with pytest.raises(ValueError):
            switch_score(720, -1, 1)

    def test_zero_cost_same_quality(self):
        params = ProspectParams(switch_cost=0.0)
        assert switch_score(720, 720, 3, params) == 0.0


class TestParams:
    def test_defaults_frozen(self):
        p = DEFAULT_PARAMS
        assert (p.alpha, p.beta, p.loss_aversion, p.gamma) == (0.88, 0.88, 2.25, 0.61)
        assert (p.switch_cost, p.quality_ceiling, p.confidence_base) == (
            0.12,
            2160.0,
            0.3,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"beta": -0.1},
            {"loss_aversion": 0.5},
            {"gamma": 0.0},
            {"switch_cost": -0.01},
            {"quality_ceiling": 0.0},
            {"confidence_base": 0.0},
            {"confidence_base": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ProspectParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "alpha",
            "beta",
            "loss_aversion",
            "gamma",
            "switch_cost",
            "quality_ceiling",
            "confidence_base",
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ProspectParams(**{field: value})

    def test_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMS.alpha = 0.5  # type: ignore[misc]
