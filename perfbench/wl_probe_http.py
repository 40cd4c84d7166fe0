"""`probe-http` workload: `probe_all` rounds through `HttpTransport`.

The hosts are paths of a stand-in HEAD server (`headserver.py`) that runs in
its own process on 127.0.0.1.  Every round probes eight hosts that answer
2xx/3xx, 404 or refuse the connection.  Four rounds in every twenty (seeded
positions) also hold one slow host: one stalls, three drip their headers
one line at a time, each line within the timeout but the whole response
well beyond it.  So the round median is transport overhead and the p90
falls among the drip rounds, on deadline enforcement.

Each verdict is compared with the server's ground truth: 2xx/3xx is viable,
404 and a refused connection are dead, a stalled or dripping host is timed
out.  The load ceiling is enforced on two counts: the benchmark-side
`CountingTransport` tracks probes in flight, and between rounds, outside the
timed region, the sockets the process still holds open are counted.  A probe
holds at most one connection (no redirects are followed), so connections
open during a round are at most the probes in flight plus the sockets still
held after it.

The benchmark process and the server share one vCPU.  On a shared host each
vCPU slows down on its own when another tenant uses its hyperthread
sibling; with the round's work spread over both, the median round doubled
in some runs while the main thread's speed samples saw no change.  On one
vCPU the samples taken before each round time the same CPU the round runs
on, so the median round can be timed at reference speed (speed.py).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

TIMEOUT_MS = 250.0
ROUNDS = 20  # one pass; the slow-round pattern repeats every ROUNDS rounds
SLOW_ROUNDS = 4
STALLS = 1  # of the SLOW_ROUNDS; the rest drip
FAST_HOSTS = (
    ("status/200", "viable"),
    ("status/200", "viable"),
    ("status/204", "viable"),
    ("status/301", "viable"),
    ("status/302", "viable"),
    ("status/404", "dead"),
    ("status/404", "dead"),
    ("refused", "dead"),
)
SERVER = Path(__file__).with_name("headserver.py")


def verdict(result) -> str:
    if result.viable:
        return "viable"
    return "timed-out" if result.timed_out else "dead"


def open_sockets() -> int:
    """Sockets this process holds open (Linux: counted from /proc/self/fd)."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            if os.readlink(f"/proc/self/fd/{fd}").startswith("socket:"):
                count += 1
        except OSError:
            pass  # closed while listing
    return count


class CountingTransport:
    """Delegates to the real transport; records the peak number of probes in flight."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self._lock = threading.Lock()
        self.in_flight = 0
        self.peak_in_flight = 0

    def probe(self, candidate, timeout_ms: float):
        with self._lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            return self._inner.probe(candidate, timeout_ms)
        finally:
            with self._lock:
                self.in_flight -= 1


def start_server() -> tuple[subprocess.Popen, dict]:
    proc = subprocess.Popen(
        [sys.executable, str(SERVER)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    if not line:
        stop_server(proc)
        raise RuntimeError("stand-in HEAD server did not start")
    return proc, json.loads(line)


def stop_server(proc: subprocess.Popen) -> None:
    try:
        proc.stdin.close()
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


class ProbeHttp:
    name = "probe-http"
    op = "round"
    # A median round is mostly this process's CPU work: timed at reference
    # speed (speed.py), sampled before each round.  A p90 round is mostly the
    # server's drip sleeps, which do not scale with this host's speed.
    normalised = ("op_p50_ms",)
    speed_timer = False
    block = None
    replays = False  # verdicts rest on real sockets and deadlines: every round counts

    def __init__(self, sr, seed: int, max_in_flight: int) -> None:
        self.sr = sr
        self.max_in_flight = max_in_flight
        # Threads started from here on, and the server process, inherit this.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.server, ports = start_server()
        try:
            self._build_rounds(sr, seed, ports)
            self.transport = CountingTransport(sr.HttpTransport())
            self._baseline = open_sockets()  # sockets the process held before probing
            self.peak_connections = 0
        except BaseException:
            stop_server(self.server)
            raise

    def _build_rounds(self, sr, seed: int, ports: dict) -> None:
        base = f"http://127.0.0.1:{ports['port']}"
        refused = f"http://127.0.0.1:{ports['refused_port']}"
        gen = np.random.default_rng([seed, 3])
        slow = dict(zip(
            gen.choice(ROUNDS, SLOW_ROUNDS, replace=False).tolist(),
            gen.permutation(["stall"] * STALLS + ["drip"] * (SLOW_ROUNDS - STALLS)).tolist(),
        ))
        self.rounds = []
        for index in range(ROUNDS):
            hosts = list(FAST_HOSTS)
            if index in slow:
                hosts.append((slow[index], "timed-out"))
            order = gen.permutation(len(hosts))
            candidates, truth = [], []
            for position, host in enumerate(order):
                path, expected = hosts[host]
                url = f"{refused}/r{index}/{position}" if path == "refused" else f"{base}/{path}/r{index}-{position}"
                candidates.append(
                    sr.StreamCandidate(id=url, provider_id="127.0.0.1", quality=720, locator=url)
                )
                truth.append(expected)
            self.rounds.append((candidates, truth))

    def close(self) -> None:
        stop_server(self.server)

    def run_pass(self, speed=None):
        probe_all = self.sr.probe_all
        starts, times = [], []
        attempted = failed = 0
        for candidates, truth in self.rounds:
            if speed is not None:
                speed.tick()
            started = perf_counter()
            starts.append(started)
            results = probe_all(
                candidates, self.transport, timeout_ms=TIMEOUT_MS, max_in_flight=self.max_in_flight
            )
            times.append(perf_counter() - started)
            held = open_sockets() - self._baseline
            self.peak_connections = max(self.peak_connections, self.transport.peak_in_flight + held)
            attempted += len(candidates)
            failed += sum(verdict(r) != t for r, t in zip(results, truth))
            failed += len(candidates) - len(results)
        return {"op_starts": starts, "op_walls": times, "attempted": attempted, "failed": failed}

    @property
    def peak_in_flight(self) -> int:
        return self.transport.peak_in_flight

    def named_lines(self, passes, line) -> None:
        times = np.concatenate([p["op_walls"] for p in passes]) * 1000.0
        n = len(times)
        line("probe.round_p50_ms", float(np.percentile(times, 50)), "ms", f"n={n} rounds")
        line("probe.round_p90_ms", float(np.percentile(times, 90)), "ms", f"n={n} rounds")
        failed = sum(p["failed"] for p in passes)
        attempted = sum(p["attempted"] for p in passes)
        line("probe.verdict_errors", failed / attempted, "share", f"{failed} of {attempted} probes")

    def gates(self) -> list[str]:
        problems = []
        if self.transport.peak_in_flight > self.max_in_flight:
            problems.append(f"peak in-flight probes {self.transport.peak_in_flight} > {self.max_in_flight}")
        if self.peak_connections > self.max_in_flight:
            problems.append(f"peak open connections {self.peak_connections} > {self.max_in_flight}")
        return problems
