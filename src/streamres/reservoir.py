"""k-slot reservoir of verified streams.

One slot is active (being consumed); the rest are warm standbys.  A
reservoir has two states: MAINTAIN while it holds streams, DEPLETED while it
is empty, which is how a new one starts.  A fill from one probe round
(``reacquire``; ``sprint_fill`` is that on a new reservoir) enters MAINTAIN.
A maintain step runs a health cycle, which returns the open slots, refills
when there are any and weighs an upgrade.  Failures promote the best
standby, and losing the last stream enters DEPLETED, which asks to be
re-acquired.  Upgrades to better standbys go through the loss-averse switch
score, so a standby can outrank the active stream without instantly stealing
the session; it must first earn enough verification confidence.

Standbys always stay in merit order (``_slot_order``: quality descending,
then more verifications, then earlier arrival), the single placement rule:
every slot takes its place by ``bisect.insort`` on it, and a health cycle
credits all surviving standbys equally.  The active slot may trail its
standbys between an admission and the upgrade decision that resolves it.
Both fills rank a probe round by one rule (``_ranked``): the viable results
whose id holds no slot, best first by the fill's key (latency for
``reacquire``, quality descending then latency for ``refill``), each id
once at its first place.  A viable result whose latency is NaN (which
compares false with every latency) or not a number refuses the round.

Every public operation opens with one guard of one shape: the reservoir
must be in the state the operation needs and ``now`` must not be behind the
clock (a NaN ``now`` is refused too).  Each operation tests both inline and
calls ``_refuse`` only when the test fails, to raise the matching error.
While a health cycle's checker runs the clock is NaN, so every operation
the checker calls fails its guard and ``_refuse`` names that cause.
Either failure raises before any change, as does a refused round.  Every
accepted call moves the clock to ``now`` itself, even a call that changes
nothing, so no later call can log behind it, but only after its last step
that can raise (a health cycle's checker, a fill's ranking).  Operations
name their state by the module constants ``_MAINTAIN`` and ``_DEPLETED``,
which skip the Enum lookup on this per-call path.

The event log is append-only.  A write appends the event's four fields
(kind, slot id, timestamp, score) to one flat list, so it allocates nothing
the garbage collector tracks.  A read (``events``, ``transitions``,
``trace_lines``) first builds the ``ReservoirEvent`` named tuples logged
since the last read and keeps them, so each event is built once, and only
if the log is read.  The same build appends the state changes of those
events, one per ``filled`` or ``depleted`` event, to a kept list, which
``transitions`` returns without rescanning the log.

Most maintain calls change nothing but the clock and the verification
counts, and each takes a short path: a health cycle in which every standby
passes credits and logs them in one loop and keeps the slot list (it
rebuilds it only when some standby failed); a round with fewer than two
candidates left is not sorted; an upgrade returns at once when no standby
outranks the active stream in quality.
"""

from __future__ import annotations

import bisect
import functools
import operator
from dataclasses import dataclass
from enum import Enum
from math import isnan
from typing import Callable, Iterator, NamedTuple, NoReturn, Sequence

from .probe import ProbeResult, StreamCandidate
from .prospect import DEFAULT_PARAMS, ProspectParams, switch_score

__all__ = [
    "ReservoirState",
    "Slot",
    "ReservoirEvent",
    "Reservoir",
]

# The active slot is never health-checked; it is implicitly verified by
# consumption.  Its count still grows once per cycle, capped here so a
# long-lived active stream cannot build an unbeatable verification lead.
ACTIVE_VERIFIED_CAP = 10

# Confidence granted to a never-before-seen candidate during refill
# admission: exactly one passed probe.
FRESH_VERIFICATIONS = 1


class ReservoirState(Enum):
    MAINTAIN = "maintain"
    DEPLETED = "depleted"


# The members as plain module globals: ReservoirState.MAINTAIN goes through
# the Enum metaclass on every lookup, which would be most of a guard's cost.
_MAINTAIN = ReservoirState.MAINTAIN
_DEPLETED = ReservoirState.DEPLETED

# The clock while a health cycle's checker runs: now >= NaN is false, so a
# call from the checker fails its guard with no test added to the fast path.
_CHECKING = float("nan")

# The events that mark a change of state, and the change each one marks.
_EDGES = {
    "filled": (_DEPLETED, _MAINTAIN),
    "depleted": (_MAINTAIN, _DEPLETED),
}


@dataclass(slots=True)
class Slot:
    """One admitted stream and its verification history."""

    candidate: StreamCandidate
    verified_count: int = 1
    arrival: int = 0

    @property
    def quality(self) -> int:
        return self.candidate.quality


class ReservoirEvent(NamedTuple):
    """One logged event; a tuple, so building and storing it stay cheap."""

    kind: str
    slot_id: str | None
    timestamp: float
    score: float | None = None


class Reservoir:
    """Mutable two-state reservoir: MAINTAIN holds slots, DEPLETED is empty.

    A new reservoir is empty and DEPLETED; sprint_fill() builds one and
    fills it from a first probe round.
    """

    def __init__(
        self, capacity: int, params: ProspectParams = DEFAULT_PARAMS
    ) -> None:
        # An integer: a fractional or infinite capacity would never equal
        # the slot count, and the reservoir would grow without bound.
        capacity = operator.index(capacity)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.params = params
        self.state = _DEPLETED
        self._slots: list[Slot] = []
        # The log: the events built so far, then the raw fields of the ones
        # logged since, four per event (see _built).
        self._events: list[ReservoirEvent] = []
        self._raw: list[object] = []
        # The state changes of the built events, kept as they are built.
        self._edges: list[tuple[ReservoirState, ReservoirState]] = []
        self._arrival_seq = 0
        self._clock = 0.0

    # -- construction ------------------------------------------------------

    @classmethod
    def sprint_fill(
        cls,
        probe_results: Sequence[ProbeResult],
        capacity: int,
        params: ProspectParams = DEFAULT_PARAMS,
        now: float = 0.0,
    ) -> "Reservoir | None":
        """Build a reservoir and reacquire() it from one concurrent probe round.

        Returns None when nothing viable came back: acquisition failed,
        probe again.
        """
        if not probe_results:
            raise ValueError("probe_results must be non-empty")
        reservoir = cls(capacity=capacity, params=params)
        return reservoir if reservoir.reacquire(probe_results, now) else None

    def _admit(self, result: ProbeResult, lo: int) -> None:
        # lo=1 places the slot among the standbys, leaving the active alone.
        slot = Slot(result.candidate, FRESH_VERIFICATIONS, self._arrival_seq)
        self._arrival_seq += 1
        bisect.insort(self._slots, slot, lo=lo, key=_slot_order)

    # -- views -------------------------------------------------------------

    @property
    def active(self) -> Slot:
        if not self._slots:
            raise RuntimeError("reservoir has no slots")
        return self._slots[0]

    @property
    def slots(self) -> tuple[Slot, ...]:
        return tuple(self._slots)

    @property
    def standbys(self) -> tuple[Slot, ...]:
        return tuple(self._slots[1:])

    @property
    def events(self) -> tuple[ReservoirEvent, ...]:
        return tuple(self._built())

    @property
    def transitions(self) -> tuple[tuple[ReservoirState, ReservoirState], ...]:
        """The state changes so far, one per filled or depleted event."""
        self._built()
        return tuple(self._edges)

    # -- maintain loop -----------------------------------------------------

    def run_health_cycle(self, checker: Callable[[Slot], bool], now: float) -> int:
        """Check every standby once; credit the active implicitly.

        The checker sees every standby, in standby order, before any verdict
        is applied, so a checker that raises leaves the reservoir as it was.
        While it runs every operation is refused, so a checker cannot change
        the reservoir under the cycle either.  Returns the open refill
        requests after the cycle, capacity minus the slots held, whatever
        opened them: a standby failed here, a failover or a short refill.
        """
        if self.state is not _MAINTAIN or not now >= self._clock:
            self._refuse(_MAINTAIN)
        slots = self._slots
        standbys = slots[1:]
        clock = self._clock
        self._clock = _CHECKING  # fails every guard; see _refuse
        try:
            verdicts = [bool(checker(slot)) for slot in standbys]
        finally:
            self._clock = clock
        self._clock = now  # the checker returned: commit the call
        log = self._raw.extend
        if False not in verdicts:
            for slot in standbys:
                slot.verified_count += 1
                log(("health_pass", slot.candidate.id, now, None))
        else:
            for slot, viable in zip(standbys, verdicts):
                if viable:
                    slot.verified_count += 1
                    log(("health_pass", slot.candidate.id, now, None))
                else:
                    log(("health_fail", slot.candidate.id, now, None))
            slots[1:] = [slot for slot, viable in zip(standbys, verdicts) if viable]
        # min() by one comparison; a promoted standby above the cap drops to it.
        active = slots[0]
        count = active.verified_count + 1
        active.verified_count = (
            count if count < ACTIVE_VERIFIED_CAP else ACTIVE_VERIFIED_CAP
        )
        return self.capacity - len(slots)

    def refill(self, fresh_results: Sequence[ProbeResult], now: float) -> int:
        """Admit fresh probe results, best quality first.  Returns admissions.

        Vacant slots take the highest-quality viable candidates outright.
        Once full, a fresh candidate must beat the worst standby through the
        switch score at fresh-candidate confidence; the displaced standby is
        dropped.  A candidate holding a slot when the round begins, or
        admitted earlier in it, is never admitted again in that round.
        """
        if self.state is not _MAINTAIN or not now >= self._clock:
            self._refuse(_MAINTAIN)
        fresh = self._ranked(fresh_results, _fresh_order)
        self._clock = now  # the round is checked and ranked: commit the call
        admitted = 0
        for result in fresh:
            score = None  # a vacancy admits outright
            if len(self._slots) == self.capacity:
                if len(self._slots) < 2:
                    break  # only the active slot; nothing replaceable
                worst_quality = self._slots[-1].candidate.quality
                if result.candidate.quality <= worst_quality:
                    # Scores at most -switch_cost; fresh is quality-descending
                    # and a displacement never lowers the worst quality, so
                    # no later result can win either.
                    break
                score = switch_score(
                    worst_quality,
                    result.candidate.quality,
                    FRESH_VERIFICATIONS,
                    self.params,
                )
                if score <= 0.0:
                    continue
                # The displaced id held a slot when the round began, so no
                # result left in fresh carries it.
                self._slots.pop()
            self._admit(result, lo=1)
            self._raw.extend(("refill", result.candidate.id, now, score))
            admitted += 1
        return admitted

    def evaluate_upgrade(self, now: float) -> tuple[int, float] | None:
        """Maybe swap the active stream for its best-scoring standby.

        Scores every standby against the active stream; the highest strictly
        positive score wins (ties go to the lower slot index).  Returns the
        pre-swap standby index and its score, or None for no switch.
        """
        if self.state is not _MAINTAIN or not now >= self._clock:
            self._refuse(_MAINTAIN)
        self._clock = now
        slots = self._slots
        active_quality = slots[0].candidate.quality
        if len(slots) < 2 or slots[1].candidate.quality <= active_quality:
            return None  # the best standby is no better: nothing can switch
        best_index = None
        best_score = 0.0
        for index, slot in enumerate(slots[1:], start=1):
            quality = slot.candidate.quality
            if quality <= active_quality:
                # Scores at most -switch_cost, and so does every standby
                # after it: standbys are quality-descending.
                break
            score = switch_score(
                active_quality, quality, slot.verified_count, self.params
            )
            if score > best_score:
                best_index = index
                best_score = score
        if best_index is None:
            return None
        promoted = slots.pop(best_index)
        demoted = slots[0]
        slots[0] = promoted
        bisect.insort(slots, demoted, lo=1, key=_slot_order)
        self._raw.extend(("upgrade", promoted.candidate.id, now, best_score))
        return best_index, best_score

    # -- failover ----------------------------------------------------------

    def on_active_failure(self, now: float) -> Slot | None:
        """Drop the dead active stream and promote the best standby.

        Every promotion leaves a vacancy, which the next health cycle
        reports as an open slot for refill().  With no standbys left the
        reservoir is depleted and asks for re-acquisition instead.
        Returns the new active slot, or None when depleted.
        """
        if self.state is not _MAINTAIN or not now >= self._clock:
            self._refuse(_MAINTAIN)
        self._clock = now
        failed = self._slots.pop(0)
        self._raw.extend(("failover", failed.candidate.id, now, None))
        if self._slots:
            # Standbys are sorted, so the best one is already in front.
            return self._slots[0]
        self.state = _DEPLETED
        self._raw.extend(("depleted", None, now, None, "reacquire", None, now, None))
        return None

    def reacquire(self, probe_results: Sequence[ProbeResult], now: float) -> bool:
        """Fill an empty (depleted or new) reservoir from one probe round.

        Admits the up-to-capacity fastest viable candidates, each id once
        with its fastest verdict, makes the highest-quality one active,
        enters MAINTAIN and returns True.  On a fruitless round it stays
        depleted, logs another re-acquisition request, and returns False.
        """
        if self.state is not _DEPLETED or not now >= self._clock:
            self._refuse(_DEPLETED)
        fastest_first = operator.attrgetter("latency_ms")
        picked = self._ranked(probe_results, fastest_first)[: self.capacity]
        self._clock = now  # the round is checked and ranked: commit the call
        if not picked:
            self._raw.extend(("reacquire", None, now, None))
            return False
        # Highest quality leads; admission (latency) order breaks ties via
        # arrival, keeping equal-quality picks deterministic.
        for result in picked:
            self._admit(result, lo=0)
        self.state = _MAINTAIN
        self._raw.extend(("filled", self._slots[0].candidate.id, now, None))
        return True

    # -- trace -------------------------------------------------------------

    def trace_lines(self) -> Iterator[str]:
        """One event per line: timestamp, kind, slot id, score (tab-separated)."""
        for kind, slot_id, timestamp, score in self._built():
            shown_id = "-" if slot_id is None else slot_id
            shown_score = "-" if score is None else f"{score:.6f}"
            yield f"{timestamp:g}\t{kind}\t{shown_id}\t{shown_score}"

    # -- internals ---------------------------------------------------------

    def _built(self) -> list[ReservoirEvent]:
        # The whole log as events: builds the ones logged since the last read
        # and appends them to the built list, and their state changes to the
        # edge list.  Both are built in full before any list changes, so a
        # build that raises leaves the log as it was.
        raw = self._raw
        if raw:
            it = iter(raw)
            new = list(map(_event, zip(it, it, it, it)))
            edges = [_EDGES[kind] for kind in raw[::4] if kind in _EDGES]
            self._events += new
            self._edges += edges
            raw.clear()
        return self._events

    def _refuse(self, state: ReservoirState) -> NoReturn:
        # Called by a public operation whose guard failed, before any change,
        # so a call from a running checker, a wrong state or a backward (or
        # NaN) clock raises with the reservoir exactly as it was.
        if self._clock is _CHECKING:
            raise RuntimeError("reservoir operation called while a health check runs")
        if self.state is not state:
            raise RuntimeError(f"operation requires {state.value}, got {self.state.value}")
        raise ValueError("event timestamps must be non-decreasing")

    def _ranked(
        self, results: Sequence[ProbeResult], key: Callable[[ProbeResult], object]
    ) -> list[ProbeResult]:
        # The fills' ranking rule.  isnan raises TypeError on a latency that is
        # not a number, and every latency is checked before ids merge, so a NaN
        # copy of an id refuses the round even behind a good copy.
        held = {slot.candidate.id for slot in self._slots}
        ranked = [r for r in results if r.viable and r.candidate.id not in held]
        for result in ranked:
            if isnan(result.latency_ms):
                raise ValueError(f"latency_ms of {result.candidate.id!r} is NaN")
        if len(ranked) < 2:
            return ranked
        ranked.sort(key=key)
        first: dict[str, ProbeResult] = {}
        for result in ranked:
            first.setdefault(result.candidate.id, result)
        return list(first.values())


# Builds a ReservoirEvent from its four fields in one C call, without the
# Python frame of the named tuple's generated __new__.
_event = functools.partial(tuple.__new__, ReservoirEvent)


def _fresh_order(result: ProbeResult) -> tuple[int, float]:
    # Refill's admission order: quality descending, then faster first.
    return (-result.candidate.quality, result.latency_ms)


def _slot_order(slot: Slot) -> tuple[int, int, int]:
    # Quality descending, then verification count descending, then earlier
    # arrival: the deterministic merit order used everywhere.
    return (-slot.candidate.quality, -slot.verified_count, slot.arrival)
