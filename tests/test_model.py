"""Model-based stateful test of the reservoir (QuickCheck-style).

A hypothesis state machine drives a Reservoir and an independent reference
model through the same calls: every public operation, plus duplicate ids,
backward and NaN clocks, checkers that raise, and calls in the wrong state.
After every step the reservoir must equal the model: same slots in the same
order, state, clock, events and transitions, and as many upgrade events as
the model counted switches.  A call the model refuses must raise the same
error and change nothing.
"""

import math

from hypothesis import settings, strategies as st, target
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from streamres.probe import ProbeResult, StreamCandidate
from streamres.prospect import DEFAULT_PARAMS, ProspectParams, switch_score
from streamres.reservoir import ACTIVE_VERIFIED_CAP, Reservoir, ReservoirState, Slot

S = ReservoirState

# Few ids and few quality levels, so repeats and ties are common.
POOL = [
    StreamCandidate(id=f"c{i}", provider_id=f"p{i}", quality=q, locator=f"sim://c{i}")
    for i, q in enumerate((480, 720, 720, 1080, 1080, 2160))
]
PARAMS = (DEFAULT_PARAMS, ProspectParams(switch_cost=0.0, confidence_base=0.05))


class CheckerCrash(Exception):
    pass


def merit(slot):
    candidate, verified, arrival = slot
    return -candidate.quality, -verified, arrival


class Model:
    """Reference reservoir: a merit-ordered slot list, capacity, state, clock.

    A slot is [candidate, verified count, arrival]; slots[0] is active.
    """

    def __init__(self, capacity, params):
        self.capacity, self.params = capacity, params
        self.state, self.clock, self.switches = S.DEPLETED, 0.0, 0
        self.slots, self.events, self.transitions, self.arrivals = [], [], [], 0

    def enter(self, state, now):
        if self.state is not state:
            raise RuntimeError(state)
        if math.isnan(now) or now < self.clock:
            raise ValueError(now)

    def go(self, state):
        self.transitions.append((self.state, state))
        self.state = state

    def admit(self, r):
        self.slots.append([r.candidate, 1, self.arrivals])
        self.arrivals += 1

    def sort_standbys(self):
        self.slots[1:] = sorted(self.slots[1:], key=merit)

    def sprint_fill(self, results, now):
        if not results:
            raise ValueError("empty round")
        self.enter(S.DEPLETED, now)
        self.clock = now
        return self.fill(results, now)

    def fill(self, results, now):
        picked = {}
        for r in sorted((r for r in results if r.viable), key=lambda r: r.latency_ms):
            if r.candidate.id not in picked and len(picked) < self.capacity:
                picked[r.candidate.id] = r
        if not picked:
            return False
        for r in picked.values():
            self.admit(r)
        self.slots.sort(key=merit)
        self.go(S.MAINTAIN)
        self.events.append(("filled", self.slots[0][0].id, now, None))
        return True

    def run_health_cycle(self, checker, now):
        self.enter(S.MAINTAIN, now)
        verdicts = [bool(checker(Slot(*s))) for s in self.slots[1:]]
        self.clock = now
        for s, ok in zip(self.slots[1:], verdicts):
            s[1] += ok
            kind = "health_pass" if ok else "health_fail"
            self.events.append((kind, s[0].id, now, None))
        self.slots[1:] = [s for s, ok in zip(self.slots[1:], verdicts) if ok]
        self.sort_standbys()
        self.slots[0][1] = min(ACTIVE_VERIFIED_CAP, self.slots[0][1] + 1)
        return self.capacity - len(self.slots)

    def refill(self, results, now):
        self.enter(S.MAINTAIN, now)
        self.clock, admitted = now, 0
        fresh = sorted((r for r in results if r.viable),
                       key=lambda r: (-r.candidate.quality, r.latency_ms))
        for r in fresh:
            if r.candidate.id in {s[0].id for s in self.slots}:
                continue
            score = None
            if len(self.slots) == self.capacity:
                if len(self.slots) == 1:
                    continue
                worst = self.slots[-1][0].quality
                score = switch_score(worst, r.candidate.quality, 1, self.params)
                if score <= 0.0:
                    continue
                self.slots.pop()
            self.admit(r)
            self.sort_standbys()
            self.events.append(("refill", r.candidate.id, now, score))
            admitted += 1
        return admitted

    def evaluate_upgrade(self, now):
        self.enter(S.MAINTAIN, now)
        self.clock = now
        active = self.slots[0][0].quality
        scores = [(switch_score(active, s[0].quality, s[1], self.params), -i)
                  for i, s in enumerate(self.slots[1:], start=1)]
        best, minus_index = max(scores, default=(0.0, 0))
        if best <= 0.0:
            return None
        promoted = self.slots.pop(-minus_index)
        self.slots.insert(0, promoted)
        self.sort_standbys()
        self.switches += 1
        self.events.append(("upgrade", promoted[0].id, now, best))
        return -minus_index, best

    def on_active_failure(self, now):
        self.enter(S.MAINTAIN, now)
        self.clock = now
        self.events.append(("failover", self.slots.pop(0)[0].id, now, None))
        if self.slots:
            return self.slots[0][0].id
        self.go(S.DEPLETED)
        self.events += [("depleted", None, now, None), ("reacquire", None, now, None)]
        return None

    def reacquire(self, results, now):
        self.enter(S.DEPLETED, now)
        self.clock = now
        if self.fill(results, now):
            return True
        self.events.append(("reacquire", None, now, None))
        return False


results_st = st.lists(
    st.builds(
        ProbeResult,
        candidate=st.sampled_from(POOL),
        viable=st.sampled_from((True, True, False)),
        latency_ms=st.sampled_from((10.0, 20.0, 30.0)),
    ),
    max_size=8,
)
params_st = st.sampled_from(PARAMS)
# Larger reservoirs first: they reach the displacement and upgrade paths.
capacity_st = st.sampled_from((4, 3, 2, 1))
# Steps relative to the clock: backward, standing, forward, and NaN.
step_st = st.sampled_from((1.0, 0.0, 2.5, 1.0, -1.0, math.nan))
ids_st = st.sampled_from([c.id for c in POOL])


def outcome(call):
    try:
        return "ok", call()
    except (RuntimeError, ValueError, CheckerCrash) as exc:
        return "raised", type(exc)


class ReservoirMachine(RuleBasedStateMachine):
    def start(self, results, capacity, params, now):
        model = Model(capacity, params)
        expected = outcome(lambda: model.sprint_fill(results, now))
        got = outcome(lambda: Reservoir.sprint_fill(results, capacity, params, now))
        if got[0] == "ok":
            reservoir, got = got[1], ("ok", got[1] is not None)
            if reservoir is not None:
                self.reservoir, self.model = reservoir, model
        assert got == expected

    @initialize(capacity=capacity_st, params=params_st)
    def first_sprint(self, capacity, params):
        # The worst stream alone: a reservoir that refills can improve on.
        self.start([ProbeResult(POOL[0], True, 10.0)], capacity, params, 0.0)

    @rule(results=results_st, capacity=capacity_st, params=params_st, step=step_st)
    def sprint_fill(self, results, capacity, params, step):
        # A new reservoir's clock starts at 0.
        self.start(results, capacity, params, step)

    def both(self, name, step, *args, convert=lambda value: value):
        now = self.model.clock + step
        before = self.observed()
        expected = outcome(lambda: getattr(self.model, name)(*args, now))
        got = outcome(lambda: convert(getattr(self.reservoir, name)(*args, now)))
        assert got == expected
        if got[0] == "raised":
            assert self.observed() == before

    @rule(failing=st.frozensets(ids_st), crash=st.one_of(st.none(), ids_st),
          step=step_st)
    def run_health_cycle(self, failing, crash, step):
        def checker(slot):
            if slot.candidate.id == crash:
                raise CheckerCrash(crash)
            return slot.candidate.id not in failing

        self.both("run_health_cycle", step, checker)

    @rule(results=results_st, step=step_st)
    def refill(self, results, step):
        self.both("refill", step, results)

    @rule(step=step_st)
    def evaluate_upgrade(self, step):
        self.both("evaluate_upgrade", step)

    @rule(step=step_st)
    def on_active_failure(self, step):
        self.both("on_active_failure", step,
                  convert=lambda slot: slot and slot.candidate.id)

    @rule(results=results_st, step=step_st)
    def reacquire(self, results, step):
        self.both("reacquire", step, results)

    def observed(self):
        r = self.reservoir
        return (
            [[s.candidate, s.verified_count, s.arrival] for s in r.slots],
            r.state,
            r._clock,
            [tuple(e) for e in r.events],
            list(r.transitions),
            sum(1 for e in r.events if e.kind == "upgrade"),
        )

    def teardown(self):
        # Steer generation toward sequences that switch streams: upgrades
        # are rare in uniformly drawn sequences.
        if hasattr(self, "model"):
            target(float(self.model.switches), label="switches")

    @invariant()
    def matches_model(self):
        m = self.model
        assert self.observed() == (
            m.slots, m.state, m.clock, m.events, m.transitions, m.switches
        )


ReservoirMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=30, deadline=None
)
TestReservoirModel = ReservoirMachine.TestCase
