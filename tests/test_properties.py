"""Property suites: scoring shapes, ordering invariants, machine fuzzing."""

from math import inf, nan

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fuzzutil import run_fuzz_sequence, slot_order_key
from streamres.probe import ProbeResult, StreamCandidate, sort_results
from streamres.prospect import DEFAULT_PARAMS, ProspectParams, switch_score, value, weight
from streamres.reservoir import Reservoir
from streamres.simulator import run_thrash

finite = st.floats(allow_nan=False, allow_infinity=False)


valid_params = st.builds(
    ProspectParams,
    alpha=st.floats(min_value=0.01, max_value=1.0),
    beta=st.floats(min_value=0.01, max_value=1.0),
    loss_aversion=st.floats(min_value=1.0, max_value=10.0),
    gamma=st.floats(min_value=0.01, max_value=1.0),
    switch_cost=st.floats(min_value=0.0, max_value=2.0),
    quality_ceiling=st.floats(min_value=1.0, max_value=10_000.0),
    confidence_base=st.floats(min_value=0.01, max_value=0.99),
)
qualities = st.floats(min_value=1.0, max_value=8640.0)


class TestScoringShapes:
    # The reservoir's early exits rest on these two: a candidate no better
    # than the stream it would replace never scores above zero, and the
    # score never falls as candidate quality rises.
    @given(valid_params, qualities, qualities, st.integers(min_value=0, max_value=200))
    def test_no_gain_never_scores_positive(self, params, a, b, n):
        active, candidate = max(a, b), min(a, b)
        assert switch_score(active, candidate, n, params) <= 0.0

    @given(
        valid_params,
        qualities,
        qualities,
        qualities,
        st.integers(min_value=0, max_value=200),
    )
    def test_score_is_monotone_in_candidate_quality(self, params, active, a, b, n):
        lo, hi = sorted((a, b))
        assert switch_score(active, lo, n, params) <= switch_score(active, hi, n, params)

    @given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=-1.0, max_value=1.0))
    def test_value_is_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert value(lo) <= value(hi) + 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_weight_stays_in_unit_interval(self, p):
        assert 0.0 <= weight(p) <= 1.0

    @given(st.floats(min_value=1e-9, max_value=1.0))
    def test_loss_ratio_is_constant(self, x):
        assert abs(value(-x)) / value(x) == pytest.approx(
            DEFAULT_PARAMS.loss_aversion, rel=1e-9
        )

    @given(
        st.floats(min_value=1.0, max_value=4320.0),
        st.integers(min_value=0, max_value=200),
        st.floats(min_value=0.01, max_value=0.5),
    )
    def test_same_quality_scores_minus_cost(self, quality, n, cost):
        params = ProspectParams(switch_cost=cost)
        assert switch_score(quality, quality, n, params) == -cost

    @given(
        st.floats(min_value=1.0, max_value=1960.0),
        st.integers(min_value=0, max_value=194),
        st.integers(min_value=0, max_value=60),
    )
    def test_dead_zone_holds_at_any_confidence(self, quality, delta, n):
        # Gains under ~194 pixels never clear the flat cost, however
        # many verifications the candidate accrues.
        assert switch_score(quality, quality + delta, n) < 0.0

    @given(
        st.floats(min_value=1.0, max_value=2000.0),
        st.floats(min_value=1.0, max_value=2000.0),
        st.integers(min_value=0, max_value=30),
    )
    def test_score_stays_inside_value_envelope(self, qa, qc, n):
        # The confidence discount only shrinks the valued delta toward zero,
        # so the score lies between -cost and the undiscounted value - cost.
        score = switch_score(qa, qc, n)
        full = value((qc - qa) / DEFAULT_PARAMS.quality_ceiling)
        cost = DEFAULT_PARAMS.switch_cost
        lo, hi = sorted((full - cost, -cost))
        assert lo - 1e-12 <= score <= hi + 1e-12


def brute_force_rank(results):
    """O(n^2) stable selection by the documented comparison."""
    remaining = list(enumerate(results))
    ranked = []
    while remaining:
        best_pos = 0
        for pos in range(1, len(remaining)):
            _, contender = remaining[pos]
            best_index, best = remaining[best_pos]
            better = (not contender.viable, contender.latency_ms) < (
                not best.viable,
                best.latency_ms,
            )
            if better:
                best_pos = pos
        ranked.append(remaining.pop(best_pos)[1])
    return ranked


class TestProbeSort:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.floats(min_value=0.0, max_value=5000.0)),
            max_size=24,
        )
    )
    def test_matches_brute_force(self, rows):
        results = [
            ProbeResult(
                candidate=StreamCandidate(f"c{i}", f"p{i}", 720, f"sim://c{i}"),
                viable=viable,
                latency_ms=latency,
            )
            for i, (viable, latency) in enumerate(rows)
        ]
        assert sort_results(results) == brute_force_rank(results)


class TestNoThrash:
    @given(
        st.integers(min_value=1, max_value=6),
        st.sampled_from([360, 720, 1080, 2160]),
    )
    @settings(max_examples=30, deadline=None)
    def test_equal_quality_fleet_never_switches(self, fleet, quality):
        summary = run_thrash((quality,) * fleet, steps=30)
        assert summary.switch_count == 0


def probe_result(name, quality, latency=100.0):
    return ProbeResult(
        candidate=StreamCandidate(name, f"p-{name}", quality, f"sim://{name}"),
        viable=True,
        latency_ms=latency,
    )


class TestRefillAdmission:
    @given(
        st.lists(st.sampled_from([360, 480, 720, 1080, 2160]), min_size=1, max_size=4),
        st.lists(st.sampled_from([360, 480, 720, 1080, 2160]), max_size=5),
    )
    @settings(max_examples=80, deadline=None)
    def test_refill_never_worsens_held_qualities(self, initial, fresh):
        reservoir = Reservoir.sprint_fill(
            [probe_result(f"i{j}", q, latency=float(j)) for j, q in enumerate(initial)],
            capacity=4,
        )
        assert reservoir is not None
        before = sorted((slot.quality for slot in reservoir.slots), reverse=True)
        reservoir.refill(
            [probe_result(f"n{j}", q, latency=float(j)) for j, q in enumerate(fresh)],
            now=1.0,
        )
        after = sorted((slot.quality for slot in reservoir.slots), reverse=True)
        assert len(after) >= len(before)
        for held, now_held in zip(before, after):
            assert now_held >= held


@st.composite
def probe_rounds(draw, min_size=0, max_size=None, viable=st.booleans()):
    # Distinct ids from a small pool, so a refill round meets held ids, and
    # few latencies, so results tie.
    names = draw(
        st.lists(st.sampled_from("abcde"), unique=True, min_size=min_size, max_size=max_size)
    )
    qualities = st.sampled_from([360, 720, 1080, 2160])
    return [
        ProbeResult(
            StreamCandidate(name, f"p-{name}", draw(qualities), f"sim://{name}"),
            viable=draw(viable),
            latency_ms=float(draw(st.integers(min_value=0, max_value=9))),
        )
        for name in names
    ]


@st.composite
def relisted_rounds(draw):
    # A round, and the round with one to four of its results listed again:
    # a viable copy at no better a latency, a dead one at any.  Ties keep
    # input order, so a viable copy at the original's latency goes after the
    # original (ahead of it, it could take a tie the original loses to
    # another id); a slower or dead copy goes anywhere.
    round_ = draw(probe_rounds(min_size=1))
    listed = list(round_)
    for original in draw(st.lists(st.sampled_from(round_), min_size=1, max_size=4)):
        first = 0
        if original.viable:
            delay = draw(st.sampled_from([0.0, 0.5, 3.0, inf]))
            latency = original.latency_ms + delay
            if not delay:
                first = listed.index(original) + 1
        else:
            latency = draw(st.sampled_from([0.0, 7.0, nan, inf, None, "5"]))
        position = draw(st.integers(min_value=first, max_value=len(listed)))
        listed.insert(position, original._replace(latency_ms=latency))
    return round_, listed


class TestRepeatedListing:
    # Each id ranks once, by its best listing, so a copy changes no fill.
    @given(
        st.integers(min_value=1, max_value=4),
        # At most two held ids, so a refill round often meets vacancies.
        probe_rounds(min_size=1, max_size=2, viable=st.just(True)),
        relisted_rounds(),
    )
    # No explain phase: it can add seconds to a failure and no example.
    @settings(
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink),
    )
    def test_a_repeated_listing_changes_no_fill(self, capacity, initial, rounds):
        round_, listed = rounds

        def refill(results):
            reservoir = Reservoir.sprint_fill(initial, capacity)
            return reservoir.refill(results, now=1.0), reservoir.slots, reservoir.events

        def reacquire(results):
            reservoir = Reservoir(capacity)
            return reservoir.reacquire(results, now=1.0), reservoir.slots, reservoir.events

        assert refill(listed) == refill(round_)
        assert reacquire(listed) == reacquire(round_)

    def test_a_tying_copy_ahead_of_the_original_takes_the_tie(self):
        # Ties keep input order, whichever listing of an id comes first:
        # b's copy ahead of a gives b the one slot a takes without it.
        a, b = probe_result("a", 720, 0.0), probe_result("b", 720, 0.0)

        def admitted(results):
            reservoir = Reservoir(1)
            assert reservoir.reacquire(results, now=1.0)
            return [slot.candidate.id for slot in reservoir.slots]

        assert admitted([a, b]) == ["a"]
        assert admitted([b, a, b]) == ["b"]


class TestMachineFuzz:
    def test_invariants_over_random_sequences(self):
        # The heavyweight >= 10^4 sweep lives in the acceptance suite; this
        # is the fast everyday slice.
        for seed in range(300):
            run_fuzz_sequence(seed, ops=25)

    def test_standby_order_restored_after_fuzz(self):
        for seed in range(40):
            reservoir = run_fuzz_sequence(seed, ops=15)
            standbys = list(reservoir.standbys)
            assert standbys == sorted(standbys, key=slot_order_key)
