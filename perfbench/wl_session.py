"""`session` workload: one long live-reservoir session on a simulated clock.

Each step is what a player does between two health ticks: if the active
stream's provider is down the stream dies (`on_active_failure`); otherwise
`run_health_cycle` checks the standbys through the transport, a vacancy is
filled by `refill` from a probe round, and `evaluate_upgrade` may switch.
A depleted reservoir calls `reacquire` with a fresh round every step until
something answers.  Provider outages follow a seeded two-state up/down
chain per provider (Gilbert 1960), applied by `OutageTransport` in front of
`SimTransport`.

Every probe round probes the same candidate list, which, like a URL file
with a repeated line, lists one candidate id twice.  Rounds probe the list
one candidate after another on the calling thread, not through
`probe_all`: its per-round thread pool made the session's step tail swing
by a quarter between runs on a shared 2-vCPU host, more than any
regression bound; `probe-http` measures `probe_all`.  The clock only moves
forward.  After every step the reservoir's slot and state invariants are
checked, and after the last step of every block of BLOCK steps (or a step
whose call raises) the order of the events logged since the last check; a
step after which one is broken, or whose library call raises, is a failed
operation.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

STEPS = 20_000
BLOCK = 200  # steps between two speed samples; divides STEPS
STEP_SECONDS = 10.0  # simulated time between health ticks
CAPACITY = 3
TIMEOUT_MS = 3000.0
LADDER = (480, 720, 1080)
SIM_FAILURE_PROB = 0.02
# Per-step up->down and down->up probabilities of each provider's two-state
# chain: every provider is up 5/6 of the time, with mean outages of 20, 10
# and 6.7 steps, so all three are down together for about 0.5% of steps.
DOWN_PROB = (0.01, 0.02, 0.03)
UP_PROB = (0.05, 0.10, 0.15)
PROVIDERS = len(DOWN_PROB)
# One line of the candidate list is a repeat: 1 of len(LADDER) * PROVIDERS + 1.
REPEATED_LINES = 1

INVARIANTS = ("duplicate_ids", "over_capacity", "standby_order", "state", "event_order")


class OutageTransport:
    """Transport wrapper: a provider that is down at the current step never answers."""

    def __init__(self, inner, up: np.ndarray, provider_index: dict[str, int], probe_result):
        self._inner = inner
        self._up = up
        self._provider_index = provider_index
        self._probe_result = probe_result
        self.step = 0

    def probe(self, candidate, timeout_ms: float):
        if not self._up[self.step, self._provider_index[candidate.provider_id]]:
            return self._probe_result(candidate=candidate, viable=False, latency_ms=timeout_ms, timed_out=True)
        return self._inner.probe(candidate, timeout_ms)


def gilbert_schedule(gen: np.random.Generator, steps: int, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """(steps, providers) boolean up/down matrix from per-provider two-state chains."""
    draws = gen.random((steps, len(down)))
    state = gen.random(len(down)) < up / (up + down)  # start in the stationary law
    schedule = np.empty((steps, len(down)), dtype=bool)
    for step in range(steps):
        state = np.where(state, draws[step] >= down, draws[step] < up)
        schedule[step] = state
    return schedule


class Session:
    name = "session"
    op = "step"
    # Single-threaded CPU work: timed at reference speed (speed.py), sampled
    # before and after every block of steps, so a sample never lands inside
    # a step and each step is rescaled by the two samples around its block.
    normalised = ("op_p50_ms", "op_tail_ms")
    block = BLOCK
    speed_timer = False
    peak_in_flight = 1  # every probe runs on the calling thread
    replays = True  # every pass is the same session; gates() requires one outcome

    def __init__(self, sr, seed: int, max_in_flight: int) -> None:
        self.sr = sr
        self.seed = seed
        gen = np.random.default_rng([seed, 1])
        self.schedule = gilbert_schedule(gen, STEPS, np.array(DOWN_PROB), np.array(UP_PROB))
        candidates = [
            sr.StreamCandidate(
                id=f"https://p{p}.example/live/{quality}.m3u8",
                provider_id=f"p{p}",
                quality=quality,
                locator=f"https://p{p}.example/live/{quality}.m3u8",
            )
            for p in range(PROVIDERS)
            for quality in LADDER
        ]
        order = gen.permutation(len(candidates))
        lines = [candidates[i] for i in order]
        for i in gen.choice(len(lines), REPEATED_LINES, replace=False):
            lines.append(lines[i])
        self.lines = lines
        self.provider_index = {f"p{p}": p for p in range(PROVIDERS)}
        self.outcomes: set[tuple] = set()  # one per distinct pass outcome; the simulation is deterministic

    def close(self) -> None:
        pass

    # -- one pass: the whole session ---------------------------------------

    def run_pass(self, speed=None):
        sr = self.sr
        maintain, depleted = sr.ReservoirState.MAINTAIN, sr.ReservoirState.DEPLETED
        transport = OutageTransport(
            sr.SimTransport(sr.Rng(self.seed).split(7), failure_prob=SIM_FAILURE_PROB),
            self.schedule,
            self.provider_index,
            sr.ProbeResult,
        )
        lines = self.lines
        up = self.schedule
        provider_index = self.provider_index

        def checker(slot) -> bool:
            return transport.probe(slot.candidate, TIMEOUT_MS).viable

        def round_():
            return [transport.probe(candidate, TIMEOUT_MS) for candidate in lines]

        starts = np.empty(STEPS)
        times = np.empty(STEPS)
        failed_steps = 0
        broken = dict.fromkeys(INVARIANTS, 0)
        errors: dict[str, int] = {}
        active_steps = 0
        events_seen = 0
        last_time = -np.inf
        reservoir = None
        for step in range(STEPS):
            transport.step = step
            if speed is not None and step % BLOCK == 0:
                speed.sample()
            now = step * STEP_SECONDS
            states = []
            starts[step] = started = perf_counter()
            try:
                if reservoir is None:
                    reservoir = sr.Reservoir.sprint_fill(round_(), CAPACITY, now=now)
                elif reservoir.state is depleted:
                    reservoir.reacquire(round_(), now)
                else:
                    if not up[step, provider_index[reservoir.active.candidate.provider_id]]:
                        reservoir.on_active_failure(now)
                        states.append(reservoir.state)
                    if reservoir.state is maintain:
                        reservoir.run_health_cycle(checker, now)
                        states.append(reservoir.state)
                        if len(reservoir.slots) < CAPACITY:
                            reservoir.refill(round_(), now)
                            states.append(reservoir.state)
                        reservoir.evaluate_upgrade(now)
                error = None
            except (RuntimeError, ValueError) as exc:
                error = type(exc).__name__
            times[step] = perf_counter() - started
            bad = []
            if reservoir is not None:
                states.append(reservoir.state)
                bad = _broken(reservoir, states, maintain, depleted)
                if error or step % BLOCK == BLOCK - 1:
                    # `events` copies the whole log, which grows all session:
                    # copied after every step it cost more than the step.
                    new = reservoir.events[events_seen:]
                    if not _in_order(last_time, new):
                        bad.append("event_order")
                    if new:
                        events_seen += len(new)
                        last_time = max(last_time, max(event.timestamp for event in new))
                if reservoir.state is maintain:
                    active_steps += 1
            if error:
                errors[error] = errors.get(error, 0) + 1
                bad.append("raised")
                reservoir = None  # a raising call may leave the machine stuck: start over
                events_seen, last_time = 0, -np.inf
            if bad:
                failed_steps += 1
                for name in bad:
                    if name in broken:
                        broken[name] += 1
        if speed is not None:
            speed.sample()
        self.outcomes.add((failed_steps, active_steps, tuple(broken.items()), tuple(sorted(errors.items()))))
        return {
            "op_starts": starts,
            "op_walls": times,
            "block_starts": starts[::BLOCK],
            "block_ends": starts[BLOCK - 1::BLOCK] + times[BLOCK - 1::BLOCK],
            "attempted": STEPS,
            "failed": failed_steps,
            "availability": active_steps / STEPS,
            "broken": broken,
            "errors": errors,
        }

    def gates(self) -> list[str]:
        if len(self.outcomes) > 1:
            return [f"passes of one seed ended differently: {sorted(self.outcomes)}"]
        return []

    def named_lines(self, passes, line) -> None:
        times = np.concatenate([p["op_walls"] for p in passes]) * 1e6
        n = len(times)
        line("session.step_p50_us", float(np.percentile(times, 50)), "us", f"wall time, n={n} steps")
        line("session.step_p99_us", float(np.percentile(times, 99)), "us", f"wall time, n={n} steps")
        line("session.availability", passes[0]["availability"], "share", f"of {STEPS} steps with an active stream")
        failed = passes[0]["failed"]
        broken = ", ".join(f"{k} {v}" for k, v in passes[0]["broken"].items() if v)
        errors = ", ".join(f"{k} {v}" for k, v in passes[0]["errors"].items())
        line("session.invariant_failures", failed / STEPS, "share",
             f"{failed} of {STEPS} steps, equal in every pass: {broken or 'none'}; raised: {errors or 'none'}")


def _broken(reservoir, states, maintain, depleted) -> list[str]:
    bad = []
    slots = reservoir.slots
    ids = [slot.candidate.id for slot in slots]
    if len(set(ids)) != len(ids):
        bad.append("duplicate_ids")
    if len(slots) > reservoir.capacity:
        bad.append("over_capacity")
    keys = [(-s.quality, -s.verified_count, s.arrival) for s in slots[1:]]
    if keys != sorted(keys):
        bad.append("standby_order")
    if any(state is not maintain and state is not depleted for state in states):
        bad.append("state")
    return bad


def _in_order(last_time: float, new_events) -> bool:
    times = [last_time] + [event.timestamp for event in new_events]
    return all(a <= b for a, b in zip(times, times[1:]))
