"""Seeded operation fuzzer for the reservoir state machine.

Drives a reservoir through random operation sequences and asserts the
structural invariants after every step: fills and depletions alternate,
empty exactly when depleted, standbys in merit order, unique slot ids,
capacity respected, event log well-formed.
Shared by the property suite and the acceptance suite.
"""

import numpy as np

from streamres.probe import ProbeResult, StreamCandidate
from streamres.reservoir import Reservoir, ReservoirState

# The eight kinds of event the reservoir logs, listed here rather than read
# off the code under test.
EVENT_KINDS = frozenset(
    {
        "filled",
        "health_pass",
        "health_fail",
        "refill",
        "failover",
        "upgrade",
        "depleted",
        "reacquire",
    }
)

FILL = (ReservoirState.DEPLETED, ReservoirState.MAINTAIN)
DEPLETE = (ReservoirState.MAINTAIN, ReservoirState.DEPLETED)

QUALITY_LEVELS = (360, 480, 720, 1080, 1440, 2160)
POOL_SIZE = 8


def slot_order_key(slot):
    return (-slot.quality, -slot.verified_count, slot.arrival)


def check_invariants(reservoir: Reservoir) -> None:
    slots = reservoir.slots
    assert len(slots) <= reservoir.capacity, "capacity exceeded"
    ids = [slot.candidate.id for slot in slots]
    assert len(ids) == len(set(ids)), "duplicate slot ids"
    standbys = list(reservoir.standbys)
    assert standbys == sorted(standbys, key=slot_order_key), "standbys out of order"
    check_transitions(reservoir)
    if reservoir.state is ReservoirState.DEPLETED:
        assert not slots, "depleted reservoir still holds slots"
    if reservoir.state is ReservoirState.MAINTAIN:
        assert slots, "maintaining an empty reservoir"
    timestamps = [event.timestamp for event in reservoir.events]
    assert timestamps == sorted(timestamps), "event log out of order"
    assert all(event.kind in EVENT_KINDS for event in reservoir.events)


def check_transitions(reservoir: Reservoir) -> None:
    """Fills and depletions alternate from a fill, one edge per such event."""
    transitions = reservoir.transitions
    assert transitions == tuple(
        (FILL, DEPLETE)[i % 2] for i in range(len(transitions))
    ), "transitions do not alternate"
    marks = [e.kind for e in reservoir.events if e.kind in ("filled", "depleted")]
    assert len(transitions) == len(marks), "an edge per filled or depleted event"
    # A new reservoir starts empty and depleted, before any edge.
    last = transitions[-1][1] if transitions else ReservoirState.DEPLETED
    assert last is reservoir.state, "state is not where the last edge ends"


def run_fuzz_sequence(seed: int, ops: int = 20) -> Reservoir:
    """One random operation sequence; invariants checked after every op."""
    gen = np.random.default_rng(seed)
    pool = [
        StreamCandidate(
            id=f"f{i}",
            provider_id=f"fp{i}",
            quality=int(gen.choice(QUALITY_LEVELS)),
            locator=f"sim://f{i}",
        )
        for i in range(POOL_SIZE)
    ]

    def probe_round(viable_prob: float) -> list[ProbeResult]:
        return [
            ProbeResult(
                candidate=c,
                viable=bool(gen.random() < viable_prob),
                latency_ms=float(gen.random() * 500.0),
            )
            for c in pool
        ]

    reservoir = None
    now = 0.0
    while reservoir is None:
        reservoir = Reservoir.sprint_fill(
            probe_round(0.7), capacity=int(gen.integers(1, 5))
        )
    check_invariants(reservoir)

    for _ in range(ops):
        now += 1.0
        if reservoir.state is ReservoirState.DEPLETED:
            reservoir.reacquire(probe_round(0.5), now)
            check_invariants(reservoir)
            continue
        op = int(gen.integers(0, 4))
        if op == 0:
            reservoir.run_health_cycle(
                lambda slot: bool(gen.random() < 0.8), now
            )
        elif op == 1:
            reservoir.refill(probe_round(0.7), now)
        elif op == 2:
            reservoir.evaluate_upgrade(now)
        else:
            reservoir.on_active_failure(now)
        check_invariants(reservoir)
    return reservoir
