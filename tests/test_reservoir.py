"""Reservoir lifecycle: sprint, maintain, failover, upgrade, reacquire."""

import dataclasses
import gc
import hashlib
import math
import sys

import pytest

from fuzzutil import EVENT_KINDS
from streamres import reservoir as reservoir_module
from streamres.probe import ProbeResult, SimTransport, StreamCandidate
from streamres.prospect import ProspectParams
from streamres.reservoir import (
    ACTIVE_VERIFIED_CAP,
    Reservoir,
    ReservoirEvent,
    ReservoirState,
)
from streamres.viability import Rng


def candidate(name, quality):
    return StreamCandidate(
        id=name, provider_id=f"prov-{name}", quality=quality, locator=f"sim://{name}"
    )


def slot_ids(reservoir):
    return {slot.candidate.id for slot in reservoir.slots}


def upgrades(reservoir):
    return sum(1 for event in reservoir.events if event.kind == "upgrade")


def result(name, quality, latency=100.0, viable=True):
    return ProbeResult(
        candidate=candidate(name, quality), viable=viable, latency_ms=latency
    )


def filled_reservoir(capacity=3):
    reservoir = Reservoir.sprint_fill(
        [
            result("hi", 1080, latency=30.0),
            result("mid", 720, latency=20.0),
            result("lo", 480, latency=10.0),
        ],
        capacity=capacity,
    )
    assert reservoir is not None
    return reservoir


FILL = (ReservoirState.DEPLETED, ReservoirState.MAINTAIN)
DEPLETE = (ReservoirState.MAINTAIN, ReservoirState.DEPLETED)


def drop(reservoir, *ids, now=1.0):
    """A health cycle that fails exactly the named standbys."""
    return reservoir.run_health_cycle(lambda slot: slot.candidate.id not in ids, now)


class TestSprintFill:
    def test_admits_fastest_then_leads_with_best_quality(self):
        # Capacity 2 with three viable: the two fastest get in, and the
        # better of those two becomes active.
        reservoir = Reservoir.sprint_fill(
            [
                result("hi", 1080, latency=30.0),
                result("mid", 720, latency=20.0),
                result("lo", 480, latency=10.0),
            ],
            capacity=2,
        )
        assert reservoir is not None
        assert slot_ids(reservoir) == {"lo", "mid"}
        assert reservoir.active.candidate.id == "mid"
        assert reservoir.state is ReservoirState.MAINTAIN

    def test_full_capacity_keeps_everyone(self):
        reservoir = filled_reservoir()
        assert reservoir.active.candidate.id == "hi"
        assert [s.candidate.id for s in reservoir.standbys] == ["mid", "lo"]

    def test_dead_results_are_skipped(self):
        reservoir = Reservoir.sprint_fill(
            [result("dead", 2160, viable=False), result("ok", 480)],
            capacity=3,
        )
        assert reservoir is not None
        assert slot_ids(reservoir) == {"ok"}

    def test_repeated_id_is_admitted_once(self):
        round_ = [result("u", 1080, 40.0), result("u", 1080, 60.0), result("v", 720)]
        reservoir = Reservoir.sprint_fill(round_, capacity=3)
        assert [slot.candidate.id for slot in reservoir.slots] == ["u", "v"]
        # The third slot stays open: the cycle reports it.
        assert reservoir.run_health_cycle(lambda slot: True, now=1.0) == 1

    def test_repeated_id_takes_no_capacity(self):
        round_ = [result("u", 1080, 40.0), result("u", 1080, 60.0), result("v", 720)]
        reservoir = Reservoir.sprint_fill(round_, capacity=2)
        assert [slot.candidate.id for slot in reservoir.slots] == ["u", "v"]

    def test_nothing_viable_returns_none(self):
        assert (
            Reservoir.sprint_fill([result("dead", 720, viable=False)], capacity=3)
            is None
        )

    def test_empty_probe_round_raises(self):
        with pytest.raises(ValueError):
            Reservoir.sprint_fill([], capacity=3)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Reservoir.sprint_fill([result("a", 720)], capacity=0)

    @pytest.mark.parametrize("capacity", [2.5, 2.0, math.nan, math.inf])
    def test_non_integer_capacity_raises(self, capacity):
        # A capacity the slot count can never equal would leave the
        # reservoir unbounded: six viable results would fill six slots.
        round_ = [result(f"s{i}", 360 + 60 * i) for i in range(6)]
        with pytest.raises(TypeError):
            Reservoir.sprint_fill(round_, capacity=capacity)

    def test_active_is_live_standbys_prefetched(self):
        # Prefetched means standby: every slot after the active one.
        reservoir = filled_reservoir()
        assert reservoir.active.candidate.id == "hi"
        assert [slot.candidate.id for slot in reservoir.standbys] == ["mid", "lo"]

    def test_logs_filled_event(self):
        reservoir = filled_reservoir()
        assert reservoir.events[0].kind == "filled"
        assert reservoir.events[0].slot_id == "hi"


class TestHealth:
    def test_pass_increments_verification(self):
        reservoir = filled_reservoir()
        before = reservoir.slots[1].verified_count
        assert drop(reservoir, "lo") == 1
        assert reservoir.slots[1].verified_count == before + 1

    def test_pass_keeps_merit_order(self):
        # Two 720p slots: the active "a" stops gaining at the cap while the
        # later standby "b" keeps passing, so when an upgrade demotes "a" it
        # goes behind "b".
        reservoir = Reservoir.sprint_fill(
            [result("a", 720, 10.0), result("b", 720, 20.0)], capacity=3
        )
        for step in range(1, 15):
            reservoir.run_health_cycle(lambda slot: True, now=float(step))
        reservoir.refill([result("uhd", 2160)], now=15.0)
        assert reservoir.evaluate_upgrade(now=15.0) == (1, pytest.approx(0.254, abs=1e-3))
        assert [slot.candidate.id for slot in reservoir.slots] == ["uhd", "b", "a"]
        assert reservoir.on_active_failure(now=16.0).candidate.id == "b"

    def test_fail_drops_slot_and_requests_refill(self):
        reservoir = filled_reservoir()
        assert drop(reservoir, "lo") == 1
        assert slot_ids(reservoir) == {"hi", "mid"}
        assert reservoir.events[-1].kind == "health_fail"

    def test_active_slot_is_off_limits(self):
        reservoir = filled_reservoir()
        checked = []
        reservoir.run_health_cycle(lambda slot: checked.append(slot) or True, now=1.0)
        assert reservoir.active not in checked

    def test_cycle_counts_failures(self):
        reservoir = filled_reservoir()
        failures = reservoir.run_health_cycle(
            lambda slot: slot.candidate.id != "mid", now=1.0
        )
        assert failures == 1
        assert slot_ids(reservoir) == {"hi", "lo"}

    def test_cycle_reports_slots_a_failover_or_short_refill_left_open(self):
        # Every standby passes, yet slots are open: the cycle reports them
        # whatever opened them, so a caller refills on its return alone.
        reservoir = filled_reservoir(capacity=4)  # one slot open from the fill
        assert reservoir.run_health_cycle(lambda slot: True, now=1.0) == 1
        reservoir.on_active_failure(now=2.0)
        assert reservoir.run_health_cycle(lambda slot: True, now=3.0) == 2
        assert reservoir.refill([result("new", 360)], now=4.0) == 1
        assert reservoir.run_health_cycle(lambda slot: True, now=5.0) == 1
        assert drop(reservoir, "lo", now=6.0) == 2

    def test_cycle_credits_active_up_to_cap(self):
        reservoir = filled_reservoir()
        for step in range(1, 15):
            reservoir.run_health_cycle(lambda slot: True, now=float(step))
        assert reservoir.active.verified_count == ACTIVE_VERIFIED_CAP

    def test_cycle_brings_active_above_cap_down_to_it(self):
        # A standby promoted with more verifications than the cap holds them
        # only until the next cycle credits it.
        reservoir = filled_reservoir()
        reservoir.active.verified_count = ACTIVE_VERIFIED_CAP + 5
        reservoir.run_health_cycle(lambda slot: True, now=1.0)
        assert reservoir.active.verified_count == ACTIVE_VERIFIED_CAP

    def test_cycle_surviving_standbys_gain_verifications(self):
        reservoir = filled_reservoir()
        reservoir.run_health_cycle(lambda slot: True, now=1.0)
        assert all(slot.verified_count == 2 for slot in reservoir.standbys)


class TestRefill:
    def test_vacancy_takes_best_quality_first(self):
        reservoir = filled_reservoir()
        drop(reservoir, "mid")
        admitted = reservoir.refill(
            [result("a", 360, latency=5.0), result("b", 720, latency=50.0)],
            now=2.0,
        )
        assert admitted == 1
        assert slot_ids(reservoir) == {"hi", "lo", "b"}

    def test_latency_breaks_quality_ties(self):
        reservoir = filled_reservoir()
        drop(reservoir, "mid")
        reservoir.refill(
            [result("slow", 720, latency=400.0), result("fast", 720, latency=30.0)],
            now=2.0,
        )
        assert "fast" in slot_ids(reservoir)
        assert "slow" not in slot_ids(reservoir)

    def test_full_reservoir_requires_clear_improvement(self):
        reservoir = filled_reservoir()
        # 60 pixels above the worst standby: inside the dead zone, rejected.
        assert reservoir.refill([result("near", 540)], now=1.0) == 0
        assert "near" not in slot_ids(reservoir)

    def test_full_reservoir_replaces_worst_for_big_gain(self):
        reservoir = filled_reservoir()
        admitted = reservoir.refill([result("uhd", 2160)], now=1.0)
        assert admitted == 1
        assert "lo" not in slot_ids(reservoir)
        assert reservoir.standbys[0].candidate.id == "uhd"

    def test_never_admits_present_candidate_twice(self):
        reservoir = filled_reservoir()
        drop(reservoir, "mid")
        admitted = reservoir.refill([result("hi", 1080), result("hi", 1080)], now=2.0)
        assert admitted == 0

    def test_new_id_listed_twice_takes_one_vacancy(self):
        # Two vacancies and one new id listed twice: the second listing finds
        # the id already held and is skipped.
        reservoir = Reservoir.sprint_fill([result("a", 720)], capacity=3)
        admitted = reservoir.refill(
            [result("x", 1080, latency=2.0), result("x", 1080, latency=3.0)], now=1.0
        )
        assert admitted == 1
        assert [slot.candidate.id for slot in reservoir.slots] == ["a", "x"]

    def test_dead_results_ignored(self):
        reservoir = filled_reservoir()
        drop(reservoir, "mid")
        assert reservoir.refill([result("x", 2160, viable=False)], now=2.0) == 0

    def test_standbys_stay_sorted(self):
        reservoir = filled_reservoir()
        drop(reservoir, "mid", "lo")
        reservoir.refill([result("a", 600), result("b", 900)], now=2.0)
        qualities = [slot.quality for slot in reservoir.standbys]
        assert qualities == sorted(qualities, reverse=True)

    def test_admission_goes_after_equal_quality_standbys(self):
        reservoir = Reservoir.sprint_fill(
            [result("hi", 1080), result("a", 720), result("lo", 480)], capacity=5
        )
        reservoir.refill([result("b", 720), result("c", 1080)], now=1.0)
        ids = [slot.candidate.id for slot in reservoir.standbys]
        assert ids == ["c", "a", "b", "lo"]

    def test_full_reservoir_scores_only_results_above_worst(self, monkeypatch):
        scored = []

        def score(active, candidate, n, params):
            scored.append(candidate)
            return 1.0

        monkeypatch.setattr(reservoir_module, "switch_score", score)
        reservoir = filled_reservoir()
        fresh = [result("x", 720), result("y", 1440), result("z", 480)]
        assert reservoir.refill(fresh, now=1.0) == 1
        assert scored == [1440]
        assert slot_ids(reservoir) == {"hi", "mid", "y"}

    def test_single_slot_reservoir_never_replaces_active(self):
        reservoir = Reservoir.sprint_fill([result("only", 480)], capacity=1)
        assert reservoir is not None
        assert reservoir.refill([result("uhd", 2160)], now=1.0) == 0
        assert reservoir.active.candidate.id == "only"


class TestUpgrade:
    def test_big_gap_switches_immediately(self):
        reservoir = Reservoir.sprint_fill(
            [result("low", 360, latency=10.0)], capacity=2
        )
        assert reservoir is not None
        reservoir.refill([result("uhd", 2160)], now=1.0)
        outcome = reservoir.evaluate_upgrade(now=2.0)
        assert outcome is not None
        index, score = outcome
        assert index == 1
        assert score > 0.0
        assert reservoir.active.candidate.id == "uhd"
        assert upgrades(reservoir) == 1
        assert reservoir.state is ReservoirState.MAINTAIN

    def test_demoted_active_becomes_prefetched_standby(self):
        reservoir = Reservoir.sprint_fill(
            [result("low", 360, latency=10.0)], capacity=2
        )
        assert reservoir is not None
        reservoir.refill([result("uhd", 2160)], now=1.0)
        reservoir.evaluate_upgrade(now=2.0)
        assert [slot.candidate.id for slot in reservoir.slots] == ["uhd", "low"]
        assert [slot.candidate.id for slot in reservoir.standbys] == ["low"]

    def test_scores_only_standbys_above_active(self, monkeypatch):
        scored = []

        def score(active, candidate, n, params):
            scored.append(candidate)
            return -1.0

        monkeypatch.setattr(reservoir_module, "switch_score", score)
        reservoir = Reservoir.sprint_fill(
            [result("mid", 720), result("lo", 480), result("lower", 360)],
            capacity=3,
        )
        reservoir.refill([result("uhd", 2160)], now=1.0)
        assert reservoir.evaluate_upgrade(now=2.0) is None
        assert scored == [2160]

    def test_dead_zone_holds(self):
        reservoir = filled_reservoir()  # active 1080, standbys 720/480
        for step in range(1, 20):
            reservoir.run_health_cycle(lambda slot: True, now=float(step))
            assert reservoir.evaluate_upgrade(now=float(step)) is None
        assert upgrades(reservoir) == 0

    def test_low_confidence_blocks_marginal_upgrade(self):
        # 720 -> 1080 is positive only once the candidate has a few passes.
        reservoir = Reservoir.sprint_fill([result("base", 720)], capacity=2)
        assert reservoir is not None
        reservoir.refill([result("cand", 1080)], now=1.0)
        assert reservoir.evaluate_upgrade(now=1.0) is None  # n=1: -0.0097
        reservoir.run_health_cycle(lambda slot: True, now=2.0)  # n=2
        outcome = reservoir.evaluate_upgrade(now=2.0)
        assert outcome is not None
        assert reservoir.active.candidate.id == "cand"

    def test_equal_scores_pick_lower_index(self):
        reservoir = Reservoir.sprint_fill(
            [
                result("base", 360, latency=10.0),
                result("twin-a", 2160, latency=20.0),
                result("twin-b", 2160, latency=30.0),
            ],
            capacity=3,
        )
        assert reservoir is not None
        # Both standbys sit at 360; force the 360 slot active first.
        assert reservoir.active.candidate.id == "twin-a"
        # Rebuild: two identical-quality standbys behind a low active.
        reservoir = Reservoir.sprint_fill([result("base", 360)], capacity=3)
        assert reservoir is not None
        reservoir.refill(
            [result("twin-a", 2160, latency=20.0), result("twin-b", 2160, latency=30.0)],
            now=1.0,
        )
        outcome = reservoir.evaluate_upgrade(now=2.0)
        assert outcome is not None
        assert outcome[0] == 1
        assert reservoir.active.candidate.id == "twin-a"

    def test_upgrade_changes_no_state(self):
        reservoir = Reservoir.sprint_fill([result("base", 360)], capacity=2)
        assert reservoir is not None
        reservoir.refill([result("uhd", 2160)], now=1.0)
        assert reservoir.evaluate_upgrade(now=2.0) is not None
        assert reservoir.state is ReservoirState.MAINTAIN
        assert reservoir.transitions == (FILL,)


class TestFailover:
    def test_promotes_best_standby(self):
        reservoir = filled_reservoir()
        promoted = reservoir.on_active_failure(now=1.0)
        assert promoted is not None
        assert promoted.candidate.id == "mid"
        assert reservoir.active.candidate.id == "mid"
        assert [slot.candidate.id for slot in reservoir.slots] == ["mid", "lo"]
        assert reservoir.state is ReservoirState.MAINTAIN

    def test_last_slot_depletes(self):
        reservoir = Reservoir.sprint_fill([result("only", 720)], capacity=3)
        assert reservoir is not None
        assert reservoir.on_active_failure(now=1.0) is None
        assert reservoir.state is ReservoirState.DEPLETED
        kinds = [event.kind for event in reservoir.events]
        assert kinds[-2:] == ["depleted", "reacquire"]

    def test_drained_by_repeated_failover(self):
        reservoir = filled_reservoir()
        assert reservoir.on_active_failure(now=1.0) is not None
        assert reservoir.on_active_failure(now=2.0) is not None
        assert reservoir.on_active_failure(now=3.0) is None
        assert reservoir.state is ReservoirState.DEPLETED


class TestReacquire:
    def drained(self):
        reservoir = Reservoir.sprint_fill([result("only", 720)], capacity=3)
        assert reservoir is not None
        reservoir.on_active_failure(now=1.0)
        return reservoir

    def test_fruitless_round_stays_depleted(self):
        reservoir = self.drained()
        assert not reservoir.reacquire([result("x", 720, viable=False)], now=2.0)
        assert reservoir.state is ReservoirState.DEPLETED
        assert reservoir.events[-1].kind == "reacquire"

    def test_empty_round_stays_depleted(self):
        reservoir = self.drained()
        assert not reservoir.reacquire([], now=2.0)
        assert reservoir.state is ReservoirState.DEPLETED

    def test_successful_round_refills(self):
        reservoir = self.drained()
        assert reservoir.reacquire(
            [result("a", 1080), result("b", 720)], now=2.0
        )
        assert reservoir.state is ReservoirState.MAINTAIN
        assert reservoir.active.candidate.id == "a"
        assert reservoir.transitions == (FILL, DEPLETE, FILL)

    def test_requires_depleted_state(self):
        reservoir = filled_reservoir()
        with pytest.raises(RuntimeError):
            reservoir.reacquire([result("a", 720)], now=1.0)

    def test_repeated_id_is_admitted_once(self):
        reservoir = self.drained()
        round_ = [result("u", 1080, 40.0), result("u", 1080, 60.0), result("v", 720)]
        assert reservoir.reacquire(round_, now=2.0)
        assert [slot.candidate.id for slot in reservoir.slots] == ["u", "v"]
        assert reservoir.run_health_cycle(lambda slot: True, now=3.0) == 1

    def test_backward_clock_changes_nothing(self):
        reservoir = self.drained()
        events = reservoir.events
        with pytest.raises(ValueError):
            reservoir.reacquire([result("a", 720)], now=0.5)
        assert reservoir.state is ReservoirState.DEPLETED
        assert reservoir.slots == ()
        assert reservoir.events == events


class TestStateGuards:
    def test_refill_requires_maintain(self):
        reservoir = Reservoir.sprint_fill([result("only", 720)], capacity=2)
        assert reservoir is not None
        reservoir.on_active_failure(now=1.0)  # now depleted
        with pytest.raises(RuntimeError):
            reservoir.refill([result("a", 720)], now=2.0)

    def test_health_requires_maintain(self):
        reservoir = Reservoir.sprint_fill([result("only", 720)], capacity=2)
        assert reservoir is not None
        reservoir.on_active_failure(now=1.0)
        with pytest.raises(RuntimeError):
            reservoir.run_health_cycle(lambda slot: True, now=2.0)

    def test_clock_never_rewinds(self):
        reservoir = filled_reservoir()
        reservoir.run_health_cycle(lambda slot: True, now=5.0)
        with pytest.raises(ValueError):
            reservoir.run_health_cycle(lambda slot: True, now=4.0)


def snapshot(reservoir):
    return (
        [(slot.candidate.id, slot.verified_count) for slot in reservoir.slots],
        reservoir.state,
        reservoir.events,
        upgrades(reservoir),
    )


# Each call would change the reservoir below if the clock were not checked
# first: credit the slots, admit "new", promote "uhd", or pop the active
# slot.
BACKWARD_CALLS = {
    "run_health_cycle": lambda r: r.run_health_cycle(lambda slot: True, now=1.0),
    "refill": lambda r: r.refill([result("new", 720)], now=1.0),
    "evaluate_upgrade": lambda r: r.evaluate_upgrade(now=1.0),
    "on_active_failure": lambda r: r.on_active_failure(now=1.0),
}


NAN = float("nan")


def full_snapshot(reservoir):
    return (*snapshot(reservoir), reservoir.transitions, reservoir._clock)


def maintaining_at_5():
    reservoir = Reservoir.sprint_fill([result("base", 360)], capacity=3, now=5.0)
    assert reservoir is not None
    reservoir.refill([result("uhd", 2160)], now=5.0)
    return reservoir


def depleted_at_5():
    reservoir = Reservoir.sprint_fill([result("only", 720)], capacity=3, now=5.0)
    assert reservoir is not None
    reservoir.on_active_failure(now=5.0)
    return reservoir


def quiet_upgrade_at_5():
    # No standby beats the active stream: nothing is logged.
    reservoir = filled_reservoir(capacity=4)
    assert reservoir.evaluate_upgrade(now=5.0) is None
    return reservoir


def quiet_health_cycle_at_9():
    # No standby to check: nothing is logged, and both vacancies stay open.
    reservoir = Reservoir.sprint_fill([result("only", 720)], capacity=3)
    assert reservoir is not None
    assert reservoir.run_health_cycle(lambda slot: True, now=9.0) == 2
    return reservoir


# (setup, call): each call is refused by the clock, whether it is NaN or
# behind an earlier call that logged nothing.
REFUSED_CLOCKS = {
    "nan-run_health_cycle": (
        maintaining_at_5, lambda r: r.run_health_cycle(lambda slot: True, now=NAN)
    ),
    "nan-refill": (maintaining_at_5, lambda r: r.refill([result("new", 720)], now=NAN)),
    "nan-evaluate_upgrade": (maintaining_at_5, lambda r: r.evaluate_upgrade(now=NAN)),
    "nan-on_active_failure": (maintaining_at_5, lambda r: r.on_active_failure(now=NAN)),
    "nan-reacquire": (depleted_at_5, lambda r: r.reacquire([result("a", 720)], now=NAN)),
    "refill-after-quiet-upgrade": (
        quiet_upgrade_at_5, lambda r: r.refill([result("new", 720)], now=3.0)
    ),
    "upgrade-after-quiet-health-cycle": (
        quiet_health_cycle_at_9, lambda r: r.evaluate_upgrade(now=2.0)
    ),
}


class TestBackwardClock:
    @pytest.mark.parametrize("method", list(BACKWARD_CALLS))
    def test_raise_changes_nothing(self, method):
        reservoir = Reservoir.sprint_fill([result("base", 360)], capacity=3, now=5.0)
        assert reservoir is not None
        reservoir.refill([result("uhd", 2160)], now=5.0)
        before = snapshot(reservoir)
        with pytest.raises(ValueError):
            BACKWARD_CALLS[method](reservoir)
        assert snapshot(reservoir) == before

    @pytest.mark.parametrize("case", list(REFUSED_CLOCKS))
    def test_refused_clock_changes_nothing(self, case):
        setup, call = REFUSED_CLOCKS[case]
        reservoir = setup()
        before = full_snapshot(reservoir)
        with pytest.raises(ValueError):
            call(reservoir)
        assert full_snapshot(reservoir) == before

    def test_nan_sprint_fill_raises(self):
        with pytest.raises(ValueError):
            Reservoir.sprint_fill([result("a", 720)], capacity=3, now=NAN)


class TestNewReservoir:
    def test_starts_empty_and_depleted(self):
        reservoir = Reservoir(3)
        assert reservoir.state is ReservoirState.DEPLETED
        assert reservoir.slots == ()
        assert reservoir.events == ()
        assert reservoir.transitions == ()

    # The maintain operations, at a clock (1.0) that is not behind a new
    # reservoir's: only the state refuses them.
    @pytest.mark.parametrize("method", list(BACKWARD_CALLS))
    def test_maintain_operations_raise_and_change_nothing(self, method):
        reservoir = Reservoir(3)
        before = full_snapshot(reservoir)
        with pytest.raises(RuntimeError):
            BACKWARD_CALLS[method](reservoir)
        assert full_snapshot(reservoir) == before

    def test_reacquire_is_sprint_fill(self):
        round_ = [
            result("hi", 1080, latency=30.0),
            result("mid", 720, latency=20.0),
            result("mid", 720, latency=25.0),
            result("lo", 480, latency=10.0),
        ]
        built = Reservoir.sprint_fill(round_, capacity=2, now=4.0)
        reservoir = Reservoir(2)
        assert reservoir.reacquire(round_, now=4.0)
        assert full_snapshot(reservoir) == full_snapshot(built)
        assert [(s.candidate.id, s.arrival) for s in reservoir.slots] == [
            (s.candidate.id, s.arrival) for s in built.slots
        ]

    def test_fruitless_reacquire_matches_sprint_fill(self):
        round_ = [result("dead", 720, viable=False)]
        assert Reservoir.sprint_fill(round_, capacity=2, now=4.0) is None
        reservoir = Reservoir(2)
        assert not reservoir.reacquire(round_, now=4.0)
        assert reservoir.state is ReservoirState.DEPLETED
        assert reservoir.slots == ()
        assert [e.kind for e in reservoir.events] == ["reacquire"]


class TestHealthCycleGuarantee:
    def test_checker_sees_every_standby_before_any_verdict(self):
        reservoir = filled_reservoir()
        seen = []

        def checker(slot):
            seen.append((slot.candidate.id, len(reservoir.slots), len(reservoir.events)))
            return slot.candidate.id != "mid"

        assert reservoir.run_health_cycle(checker, now=1.0) == 1
        assert seen == [("mid", 3, 1), ("lo", 3, 1)]
        assert [e.kind for e in reservoir.events] == ["filled", "health_fail", "health_pass"]

    def test_checker_that_raises_changes_nothing(self):
        # Standbys b, c: the checker fails b, then raises on c.
        reservoir = Reservoir.sprint_fill(
            [result("a", 1080, 10.0), result("b", 720, 20.0), result("c", 480, 30.0)],
            capacity=3,
        )
        assert reservoir is not None
        before = snapshot(reservoir)

        def checker(slot):
            if slot.candidate.id == "c":
                raise RuntimeError("probe crashed")
            return False

        with pytest.raises(RuntimeError):
            reservoir.run_health_cycle(checker, now=1.0)
        assert snapshot(reservoir) == before
        # The clock did not move to 1.0: an earlier time is still accepted.
        assert reservoir.run_health_cycle(lambda slot: True, now=0.5) == 0

    def test_verdict_whose_bool_raises_changes_nothing(self):
        # Standbys b, c: b fails, and c's verdict raises only when read as a
        # bool, so the cycle must read every verdict before it commits.
        class Unreadable:
            def __bool__(self):
                raise RuntimeError("verdict unreadable")

        reservoir = Reservoir.sprint_fill(
            [result("a", 1080, 10.0), result("b", 720, 20.0), result("c", 480, 30.0)],
            capacity=3,
        )
        assert reservoir is not None
        before = full_snapshot(reservoir)
        with pytest.raises(RuntimeError, match="unreadable"):
            reservoir.run_health_cycle(
                lambda slot: Unreadable() if slot.candidate.id == "c" else False, now=1.0
            )
        assert full_snapshot(reservoir) == before
        assert reservoir.run_health_cycle(lambda slot: True, now=0.5) == 0


# Each call a checker might make back into the reservoir it checks.  Run
# while the cycle runs, the failover would duplicate a slot, the refill drop
# one, and failing over until depleted would crash the cycle.
CHECKER_CALLS = {
    "run_health_cycle": lambda r: r.run_health_cycle(lambda slot: True, now=1.0),
    "refill": lambda r: r.refill([result("new", 2160)], now=1.0),
    "evaluate_upgrade": lambda r: r.evaluate_upgrade(now=1.0),
    "on_active_failure": lambda r: r.on_active_failure(now=1.0),
    "reacquire": lambda r: r.reacquire([result("new", 2160)], now=1.0),
}


class TestCheckerCallsBack:
    @pytest.mark.parametrize("call", CHECKER_CALLS.values(), ids=CHECKER_CALLS)
    def test_call_from_a_checker_is_refused_and_changes_nothing(self, call):
        reservoir = filled_reservoir()
        before = full_snapshot(reservoir)

        def checker(slot):
            call(reservoir)
            return True

        with pytest.raises(RuntimeError, match="while a health check runs"):
            reservoir.run_health_cycle(checker, now=1.0)
        assert full_snapshot(reservoir) == before
        # The clock did not move to 1.0: an earlier time is still accepted.
        assert reservoir.run_health_cycle(lambda slot: True, now=0.5) == 0

    @pytest.mark.parametrize("call", CHECKER_CALLS.values(), ids=CHECKER_CALLS)
    def test_cycle_whose_checker_swallows_the_refusal_runs_as_usual(self, call):
        reservoir, twin = filled_reservoir(), filled_reservoir()

        def checker(slot):
            with pytest.raises(RuntimeError, match="while a health check runs"):
                call(reservoir)
            return slot.candidate.id != "mid"

        assert reservoir.run_health_cycle(checker, now=1.0) == 1
        assert drop(twin, "mid") == 1
        assert full_snapshot(reservoir) == full_snapshot(twin)

    def test_failing_over_until_depleted_from_a_checker_is_refused(self):
        reservoir = filled_reservoir()
        before = full_snapshot(reservoir)

        def checker(slot):
            while reservoir.on_active_failure(now=1.0) is not None:
                pass
            return True

        with pytest.raises(RuntimeError, match="while a health check runs"):
            reservoir.run_health_cycle(checker, now=1.0)
        assert full_snapshot(reservoir) == before


class TestInputsThatRaiseMidCall:
    def test_quality_past_the_largest_float_is_refused(self):
        # Such a quality once made a refill's switch score overflow after an
        # earlier admission in the same round.
        for quality in (10**400, int(sys.float_info.max) + 1):
            with pytest.raises(ValueError, match="largest float"):
                candidate("huge", quality)

    @pytest.mark.parametrize("ceiling", [5e-324, 0.5])
    def test_quality_ceiling_below_one_is_refused(self, ceiling):
        # A ceiling of 5e-324 once made refill and evaluate_upgrade raise in
        # their switch score after the clock had moved.
        with pytest.raises(ValueError, match="quality_ceiling must be >= 1"):
            ProspectParams(quality_ceiling=ceiling)

    @pytest.mark.parametrize("top", [sys.float_info.max, int(sys.float_info.max)])
    @pytest.mark.parametrize("ceiling", [1.0, 2160.0])
    def test_refill_and_upgrade_complete_at_the_extremes(self, top, ceiling):
        reservoir = Reservoir.sprint_fill(
            [result("a", 1, 10.0), result("b", 1, 20.0)],
            capacity=2,
            params=ProspectParams(quality_ceiling=ceiling),
        )
        assert reservoir is not None
        assert reservoir.refill([result("top", top)], now=1.0) == 1
        index, score = reservoir.evaluate_upgrade(now=2.0)
        assert (index, reservoir.active.candidate.id) == (1, "top")
        assert math.isfinite(score) and score > 0.0

    def test_refill_latency_that_cannot_sort_changes_nothing(self):
        reservoir = Reservoir.sprint_fill([result("a", 720)], capacity=3)
        assert reservoir is not None
        before = full_snapshot(reservoir)
        tied = [result("x", 1080, latency=None), result("y", 1080, latency=5.0)]
        with pytest.raises(TypeError):
            reservoir.refill(tied, now=5.0)
        assert full_snapshot(reservoir) == before
        # The clock did not move to 5.0: an earlier time is still accepted.
        assert reservoir.refill([result("y", 1080)], now=1.0) == 1

    def test_reacquire_latency_that_cannot_sort_changes_nothing(self):
        reservoir = Reservoir(3)
        before = full_snapshot(reservoir)
        tied = [result("x", 720, latency=None), result("y", 720, latency=5.0)]
        with pytest.raises(TypeError):
            reservoir.reacquire(tied, now=5.0)
        assert full_snapshot(reservoir) == before
        assert reservoir.reacquire([result("y", 720)], now=1.0)


class TestLatencyThatCannotRank:
    # Equal qualities: latency alone decides which results a round admits.
    ROUND = [
        result("a", 720, latency=5.0),
        result("b", 720, latency=NAN),
        result("c", 720, latency=1.0),
    ]

    # NaN compares false with every latency: the round once kept a, b in
    # this order and c, b reversed.
    @pytest.mark.parametrize("order", [1, -1], ids=["as-listed", "reversed"])
    def test_nan_latency_is_refused_in_either_order(self, order):
        with pytest.raises(ValueError, match="latency_ms of 'b' is NaN"):
            Reservoir.sprint_fill(self.ROUND[::order], capacity=2)

    def test_lone_none_latency_is_refused(self):
        # A lone result is never compared, so it was once admitted.
        reservoir = Reservoir(2)
        before = full_snapshot(reservoir)
        with pytest.raises(TypeError):
            reservoir.reacquire([result("a", 720, latency=None)], now=1.0)
        assert full_snapshot(reservoir) == before

    def test_non_viable_result_may_carry_any_latency(self):
        round_ = [result("dead", 1080, latency=NAN, viable=False), result("a", 720)]
        reservoir = Reservoir.sprint_fill(round_, capacity=2)
        assert reservoir is not None and slot_ids(reservoir) == {"a"}

    # A dead result's latency ranks nothing: None once failed the sort
    # against a viable latency and refused the round.
    @pytest.mark.parametrize("order", [1, -1], ids=["as-listed", "reversed"])
    def test_dead_result_latency_does_not_refuse_the_round(self, order):
        round_ = [
            result("a", 720, latency=5.0),
            result("b", 720, latency=None, viable=False),
            result("c", 720, latency=3.0, viable=False),
        ]
        reservoir = Reservoir.sprint_fill(round_[::order], capacity=2)
        assert reservoir is not None and slot_ids(reservoir) == {"a"}

    # The NaN copy of "x" ranks after its good copy in the nan-last order, so
    # a round that merged ids before it checked latencies would admit "x".
    @pytest.mark.parametrize("order", [1, -1], ids=["nan-last", "nan-first"])
    @pytest.mark.parametrize("fill", ["reacquire", "refill"])
    def test_duplicated_id_with_one_nan_copy_is_refused(self, fill, order):
        if fill == "reacquire":
            reservoir = Reservoir(3)
        else:
            reservoir = Reservoir.sprint_fill([result("a", 720)], capacity=3)
        copies = [result("x", 1080, latency=5.0), result("x", 1080, latency=NAN)]
        before = full_snapshot(reservoir)
        with pytest.raises(ValueError, match="latency_ms of 'x' is NaN"):
            getattr(reservoir, fill)(copies[::order], now=5.0)
        assert full_snapshot(reservoir) == before

    @pytest.mark.parametrize("latency", [NAN, None, "5"])
    def test_refill_refuses_and_changes_nothing(self, latency):
        reservoir = Reservoir.sprint_fill([result("a", 720)], capacity=3)
        assert reservoir is not None
        before = full_snapshot(reservoir)
        fresh = [result("x", 1080), result("y", 480, latency=latency)]
        with pytest.raises((ValueError, TypeError)):
            reservoir.refill(fresh, now=5.0)
        assert full_snapshot(reservoir) == before
        assert reservoir.refill(fresh[:1], now=1.0) == 1


class TestHealthCycleBranches:
    def four_slots(self):
        reservoir = Reservoir.sprint_fill(
            [
                result("a", 2160, 10.0),
                result("b", 1080, 20.0),
                result("c", 720, 30.0),
                result("d", 480, 40.0),
            ],
            capacity=4,
        )
        assert reservoir is not None
        return reservoir

    def test_pass_fail_pass(self):
        reservoir = self.four_slots()
        a, b, c, d = reservoir.slots
        assert drop(reservoir, "c") == 1
        survivors = reservoir.slots
        assert [slot.candidate.id for slot in survivors] == ["a", "b", "d"]
        assert all(kept is slot for kept, slot in zip(survivors, (a, b, d)))
        assert [slot.verified_count for slot in (a, b, c, d)] == [2, 2, 1, 2]
        assert [(e.kind, e.slot_id) for e in reservoir.events[1:]] == [
            ("health_pass", "b"),
            ("health_fail", "c"),
            ("health_pass", "d"),
        ]

    def test_all_pass_drops_nothing(self):
        reservoir = self.four_slots()
        before = reservoir.slots
        assert reservoir.run_health_cycle(lambda slot: True, now=1.0) == 0
        assert all(kept is slot for kept, slot in zip(reservoir.slots, before))
        assert len(reservoir.slots) == 4
        standbys = list(reservoir.standbys)
        assert standbys == sorted(standbys, key=reservoir_module._slot_order)
        assert [e.kind for e in reservoir.events[1:]] == ["health_pass"] * 3


class TestNoOpTicks:
    """Maintain calls that change nothing: the result, the log and the slots
    are as before, and only the clock (and a health cycle's verification
    counts) move."""

    def assert_unchanged(self, reservoir, slots, counts, events, now):
        assert all(kept is slot for kept, slot in zip(reservoir.slots, slots))
        assert len(reservoir.slots) == len(slots)
        assert [slot.verified_count for slot in reservoir.slots] == counts
        assert reservoir.events == events
        assert upgrades(reservoir) == 0
        assert reservoir._clock == now

    def test_refill_of_held_and_dead_results_admits_nothing(self):
        reservoir = filled_reservoir(capacity=4)  # one vacancy
        slots, events = reservoir.slots, reservoir.events
        round_ = [
            result("mid", 720, latency=5.0),
            result("new", 2160, viable=False),
            result("hi", 1080),
            result("new", 2160, latency=50.0, viable=False),
            result("lo", 480, viable=False),
        ]
        assert reservoir.refill(round_, now=2.0) == 0
        self.assert_unchanged(reservoir, slots, [1, 1, 1], events, 2.0)

    def test_upgrade_with_nothing_above_the_active_stream(self):
        reservoir = filled_reservoir()  # active 1080, standbys 720 and 480
        slots, events = reservoir.slots, reservoir.events
        assert reservoir.evaluate_upgrade(now=3.0) is None
        self.assert_unchanged(reservoir, slots, [1, 1, 1], events, 3.0)

    def test_all_pass_health_cycle_only_credits_and_logs_passes(self):
        reservoir = filled_reservoir()
        slots, events = reservoir.slots, reservoir.events
        assert reservoir.run_health_cycle(lambda slot: True, now=4.0) == 0
        passes = (
            ReservoirEvent("health_pass", "mid", 4.0),
            ReservoirEvent("health_pass", "lo", 4.0),
        )
        self.assert_unchanged(reservoir, slots, [2, 2, 2], events + passes, 4.0)

    def test_id_held_when_the_round_begins_is_not_readmitted(self):
        # "x" displaces "lo"; the round's later "lo" result, at a quality
        # other than the one its slot had, is still not admitted.
        reservoir = filled_reservoir()
        assert reservoir.refill([result("x", 2160), result("lo", 1440)], now=1.0) == 1
        assert [slot.candidate.id for slot in reservoir.slots] == ["hi", "x", "mid"]


class TestEvents:
    def test_record_shape(self):
        assert ReservoirEvent._fields == ("kind", "slot_id", "timestamp", "score")
        event = ReservoirEvent("refill", "x", 1.0)
        assert event.score is None
        assert event == ("refill", "x", 1.0, None)
        assert not dataclasses.is_dataclass(event)
        with pytest.raises(AttributeError):
            event.kind = "upgrade"

    def test_events_are_stable_and_match_trace(self):
        reservoir = Reservoir.sprint_fill([result("base", 360)], capacity=2)
        assert reservoir is not None
        reservoir.refill([result("uhd", 2160)], now=1.0)
        reservoir.evaluate_upgrade(now=2.0)
        drop(reservoir, "base", now=3.0)
        events = reservoir.events
        assert events == reservoir.events
        assert [e.kind for e in events] == ["filled", "refill", "upgrade", "health_fail"]
        lines = list(reservoir.trace_lines())
        assert len(lines) == len(events)
        for line, event in zip(lines, events):
            timestamp, kind, slot_id, score = line.split("\t")
            assert float(timestamp) == event.timestamp
            assert kind == event.kind
            assert slot_id == (event.slot_id or "-")
            if event.score is None:
                assert score == "-"
            else:
                assert float(score) == pytest.approx(event.score, abs=1e-6)


def logged_session(read):
    """A reservoir through every kind of event, calling read() after each call."""
    reservoir = filled_reservoir()
    read(reservoir)
    steps = [
        lambda now: drop(reservoir, "lo", now=now),
        lambda now: reservoir.refill([result("uhd", 2160, latency=5.0)], now),
        lambda now: reservoir.run_health_cycle(lambda slot: True, now),
        lambda now: reservoir.evaluate_upgrade(now),
        lambda now: reservoir.on_active_failure(now),
        lambda now: reservoir.on_active_failure(now),
        lambda now: reservoir.on_active_failure(now),
        lambda now: reservoir.reacquire([result("x", 480, viable=False)], now),
        lambda now: reservoir.reacquire([result("y", 720)], now),
    ]
    for now, step in enumerate(steps, start=1):
        step(float(now))
        read(reservoir)
    return reservoir


def log_reads(reservoir):
    return reservoir.events, reservoir.transitions, list(reservoir.trace_lines())


class TestLazyLog:
    """Writes log raw fields; a read builds the events logged since the last."""

    def test_reads_interleaved_with_writes_match_one_read_at_the_end(self):
        read_often = logged_session(log_reads)
        read_once = logged_session(lambda reservoir: None)
        assert log_reads(read_often) == log_reads(read_once)
        assert log_reads(read_once) == log_reads(read_once)
        assert {event.kind for event in read_once.events} == set(EVENT_KINDS)
        assert read_once.transitions == (FILL, DEPLETE, FILL)

    def test_checker_reading_the_log_sees_it_as_before_the_cycle(self):
        reservoir = filled_reservoir()
        reservoir.events  # builds the filled event
        reservoir.run_health_cycle(lambda slot: True, now=1.0)  # left pending
        before = (
            ("filled", "hi", 0.0, None),
            ("health_pass", "mid", 1.0, None),
            ("health_pass", "lo", 1.0, None),
        )
        seen = []

        def checker(slot):
            seen.append(reservoir.events)
            return slot.candidate.id != "lo"

        reservoir.run_health_cycle(checker, now=2.0)
        assert seen == [before, before]
        assert reservoir.events == before + (
            ("health_pass", "mid", 2.0, None),
            ("health_fail", "lo", 2.0, None),
        )

    @pytest.mark.parametrize(
        "failing_read",
        [
            pytest.param(lambda reservoir: reservoir.events, id="events"),
            pytest.param(lambda reservoir: reservoir.transitions, id="transitions"),
            pytest.param(lambda reservoir: list(reservoir.trace_lines()), id="trace"),
        ],
    )
    def test_read_that_raises_changes_nothing(self, monkeypatch, failing_read):
        def built_then_pending():
            reservoir = logged_session(lambda reservoir: None)
            reservoir.events  # builds the session's events
            reservoir.on_active_failure(10.0)  # three events left pending
            return reservoir

        expected = log_reads(built_then_pending())
        reservoir = built_then_pending()
        build = reservoir_module._event
        calls = 0

        def fails_once(fields):
            # Raises on the second of the three pending events.
            nonlocal calls
            calls += 1
            if calls == 2:
                raise MemoryError
            return build(fields)

        monkeypatch.setattr(reservoir_module, "_event", fails_once)
        with pytest.raises(MemoryError):
            failing_read(reservoir)
        assert log_reads(reservoir) == expected

    def test_transitions_equal_the_edges_off_the_events(self):
        # transitions keeps the edges of the events each read builds.  Over
        # fill and depletion cycles, read in either order after any number of
        # calls, it equals the edges read off the whole event log.
        edge_of = {"filled": FILL, "depleted": DEPLETE}
        reservoir = Reservoir(capacity=2)
        now = 0.0
        reads = 0
        for cycle in range(5):
            calls = [
                lambda now: reservoir.reacquire([result("x", 480, viable=False)], now),
                lambda now: reservoir.reacquire([result("a", 720), result("b", 360)], now),
                lambda now: reservoir.run_health_cycle(lambda slot: True, now),
                lambda now: reservoir.on_active_failure(now),
                lambda now: reservoir.on_active_failure(now),
            ]
            for index, call in enumerate(calls):
                now += 1.0
                call(now)
                if (index + cycle) % 3:
                    continue  # leave this call's events unread
                reads += 1
                if reads % 2:
                    transitions, events = reservoir.transitions, reservoir.events
                else:
                    events, transitions = reservoir.events, reservoir.transitions
                assert transitions == tuple(
                    edge_of[e.kind] for e in events if e.kind in edge_of
                )
        assert reservoir.transitions == (FILL, DEPLETE) * 5
        assert reads > 5

    def test_unread_log_keeps_no_tracked_objects(self):
        reservoir = filled_reservoir()

        def passing(slot):
            return True

        counts = []
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            now = 0.0
            for cycles in (10, 990):
                for _ in range(cycles):
                    now += 1.0
                    reservoir.run_health_cycle(passing, now)
                counts.append(len(gc.get_objects()))
        finally:
            if was_enabled:
                gc.enable()
        assert counts[0] == counts[1]
        assert len(reservoir.events) == 1 + 2 * 1000


class TestTrace:
    def test_line_format(self):
        reservoir = filled_reservoir()
        reservoir.run_health_cycle(lambda slot: True, now=1.0)
        lines = list(reservoir.trace_lines())
        assert lines[0] == "0\tfilled\thi\t-"
        for line in lines:
            fields = line.split("\t")
            assert len(fields) == 4
            assert fields[1] in EVENT_KINDS

    def test_upgrade_line_carries_score(self):
        reservoir = Reservoir.sprint_fill([result("base", 360)], capacity=2)
        assert reservoir is not None
        reservoir.refill([result("uhd", 2160)], now=1.0)
        reservoir.evaluate_upgrade(now=2.0)
        upgrade_line = next(
            line for line in reservoir.trace_lines() if "\tupgrade\t" in line
        )
        score_field = upgrade_line.split("\t")[3]
        assert float(score_field) > 0.0


class TestLifecycle:
    def test_full_cycle_transitions_alternate(self):
        reservoir = filled_reservoir()
        reservoir.run_health_cycle(lambda slot: slot.candidate.id != "lo", now=1.0)
        reservoir.refill([result("new", 900)], now=2.0)
        reservoir.evaluate_upgrade(now=3.0)
        while reservoir.state is ReservoirState.MAINTAIN:
            reservoir.on_active_failure(now=4.0)
        assert not reservoir.reacquire([result("x", 720, viable=False)], now=5.0)
        assert reservoir.reacquire([result("y", 1080)], now=6.0)
        while reservoir.state is ReservoirState.MAINTAIN:
            reservoir.on_active_failure(now=7.0)
        assert reservoir.transitions == (FILL, DEPLETE, FILL, DEPLETE)
        edges = {"filled": FILL, "depleted": DEPLETE}
        assert reservoir.transitions == tuple(
            edges[e.kind] for e in reservoir.events if e.kind in edges
        )

    def test_custom_params_flow_through(self):
        # Zero switch cost: any positive delta upgrades at once.
        params = ProspectParams(switch_cost=0.0)
        reservoir = Reservoir.sprint_fill(
            [result("base", 700)], capacity=2, params=params
        )
        assert reservoir is not None
        reservoir.refill([result("cand", 760)], now=1.0)
        assert reservoir.evaluate_upgrade(now=2.0) is not None


class TestLiveSession:
    """A live session on SimTransport, pinned end to end.

    Each step is one maintain tick: a down provider kills the active stream
    (failover), the standbys are health-checked through the transport, a
    vacancy is refilled from a probe round of every line, and an upgrade is
    evaluated; a depleted reservoir reacquires from a round every step.
    Each provider is up or down by a two-state chain (Gilbert 1960) drawn
    from the test's own substream, and one line of the round is listed twice.
    """

    STEPS = 2000
    CAPACITY = 3
    LADDER = (480, 720, 1080)
    # Per-step up->down and down->up probabilities of each provider.
    DOWN_PROB = (0.01, 0.02, 0.03)
    UP_PROB = (0.05, 0.10, 0.15)
    TIMEOUT_MS = 3000.0
    # The trace and every probe's id, verdict and latency.  A change to the
    # draws, the maintain loop or a live-path fast path moves it.
    SESSION_SHA256 = (
        "6ec128354d9092655a246d30658f984504bacaca86f2c99e23c148399fb1ce96"
    )

    def test_live_session_is_pinned(self):
        lines = [
            StreamCandidate(
                id=f"p{p}/{quality}",
                provider_id=f"p{p}",
                quality=quality,
                locator=f"sim://p{p}/{quality}",
            )
            for p in range(len(self.DOWN_PROB))
            for quality in self.LADDER
        ]
        lines.append(lines[4])
        rng = Rng(2024)
        transport = SimTransport(rng.split(1), failure_prob=0.02)
        draws = rng.split(2).substream(0).random((self.STEPS, len(self.DOWN_PROB)))
        up = [True] * len(self.DOWN_PROB)
        digest = hashlib.sha256()

        def probe(candidate):
            if not up[int(candidate.provider_id[1:])]:  # a down provider never answers
                return ProbeResult(candidate, False, self.TIMEOUT_MS, timed_out=True)
            result = transport.probe(candidate, self.TIMEOUT_MS)
            record = (candidate.id, result.viable, repr(result.latency_ms))
            digest.update(f"{record}\n".encode())
            return result

        def round_():
            return [probe(candidate) for candidate in lines]

        maintain, depleted = ReservoirState.MAINTAIN, ReservoirState.DEPLETED
        reservoir = None
        for step, row in enumerate(draws.tolist()):
            up = [
                u >= down if was_up else u < back
                for u, was_up, down, back in zip(row, up, self.DOWN_PROB, self.UP_PROB)
            ]
            now = step * 10.0
            if reservoir is None:
                reservoir = Reservoir.sprint_fill(round_(), self.CAPACITY, now=now)
                assert reservoir is not None
            elif reservoir.state is depleted:
                reservoir.reacquire(round_(), now)
            else:
                if not up[int(reservoir.active.candidate.provider_id[1:])]:
                    reservoir.on_active_failure(now)
                if reservoir.state is maintain:
                    reservoir.run_health_cycle(lambda slot: probe(slot.candidate).viable, now)
                    if len(reservoir.slots) < self.CAPACITY:
                        reservoir.refill(round_(), now)
                    reservoir.evaluate_upgrade(now)
            slots = reservoir.slots
            ids = [slot.candidate.id for slot in slots]
            assert len(set(ids)) == len(ids)
            assert len(slots) <= self.CAPACITY
            keys = [(-s.quality, -s.verified_count, s.arrival) for s in slots[1:]]
            assert keys == sorted(keys)
            assert reservoir.state in (maintain, depleted)
        kinds = {event.kind for event in reservoir.events}
        assert {"failover", "depleted", "reacquire", "refill"} <= kinds
        for line in reservoir.trace_lines():
            digest.update(f"{line}\n".encode())
        assert digest.hexdigest() == self.SESSION_SHA256
