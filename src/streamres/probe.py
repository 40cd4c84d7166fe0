"""Concurrent stream probing: fan out, collect everything, sort by merit.

A probe round issues up to max_in_flight checks at once and always waits for
every verdict; there is no early exit, because the reservoir wants the full
ranking, not just the first success.  The round runs on lanes: the calling
thread is one, and at most max_in_flight - 1 short-lived helper threads are
the rest (none for a one-lane round); each lane takes the next candidate in
input order until none is left.  SimTransport draws deterministic verdicts
from one substream per candidate, its attempts in sequence, and locks only
to draw a block (reads rely on CPython's GIL); HttpTransport sends real
HEAD probes on the standard library, each bounded by one deadline, and
never raises.  The module runs on the standard library alone: SimTransport
takes its numpy generators from the Rng its caller passes.
"""

from __future__ import annotations

import math
import re
import socket
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from functools import cache, partial
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Protocol, Sequence
from urllib.parse import quote, urlsplit

if TYPE_CHECKING:
    import ssl

    import numpy as np

    from .viability import Rng

__all__ = [
    "StreamCandidate",
    "ProbeResult",
    "Transport",
    "SimTransport",
    "HttpTransport",
    "probe_all",
    "sort_results",
]

DEFAULT_TIMEOUT_MS = 3000.0

# Default cap on probes in flight: a whole 12-provider round still runs at
# once, and a long URL list does not take one OS thread per URL.
MAX_IN_FLIGHT = 16

# A response head longer than this is treated as malformed.
MAX_HEAD_BYTES = 65536
_HEAD_END = re.compile(rb"\r?\n\r?\n")
_STATUS_LINE = re.compile(rb"HTTP/\d\.\d (\d{3})\b")
# Characters a request target keeps as they are when percent-encoded.
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"

# SimTransport latency: lognormal with this median and log-scale sigma.
_SIM_MEDIAN_MS = 300.0
_SIM_SIGMA = 0.6
# SimTransport probes per block of draws, per candidate.  A larger block
# makes each refill long enough to show in a session's tail latency.
_BLOCK = 64


@dataclass(frozen=True, slots=True)
class StreamCandidate:
    """One probeable stream: identity, provider, advertised quality, locator."""

    id: str
    provider_id: str
    quality: int
    locator: str

    def __post_init__(self) -> None:
        # NaN fails too.  Past the largest float, a quality would pass
        # admission and then make a switch score raise halfway through a
        # reservoir operation.
        if not 0 < self.quality <= sys.float_info.max:
            raise ValueError("quality must be positive and at most the largest float")


class ProbeResult(NamedTuple):
    """Verdict for one candidate: viability, time to verdict, optional status.

    A tuple, so building one stays cheap: a registry run builds tens of
    thousands.
    """

    candidate: StreamCandidate
    viable: bool
    latency_ms: float
    timed_out: bool = False
    status: int | None = None


# Builds a ProbeResult from all five fields in one C call, without the Python
# frame of the named tuple's generated __new__.
_result = partial(tuple.__new__, ProbeResult)


class Transport(Protocol):
    def probe(self, candidate: StreamCandidate, timeout_ms: float) -> ProbeResult: ...


class SimTransport:
    """Deterministic fake transport.

    Each candidate draws from one substream of its own, keyed by a CRC of
    its id and built on its first probe.  The stream is read in blocks of
    _BLOCK probes: _BLOCK uniforms for the failure verdicts, then _BLOCK
    normals for the latencies, and a candidate's n-th probe takes the n-th
    of each, so its n-th verdict does not depend on list order or thread
    scheduling.  Every id fails with the one failure_prob, which must lie in
    [0, 1], and latency is lognormal with a fixed median of 300 ms and
    sigma 0.6.  The lock guards only block draws: a probe takes its pair
    with next() on a zip of two lists, which runs in C without releasing
    CPython's GIL, so no two threads take one pair.  A free-threaded build
    (sys._is_gil_enabled() false) has no such guarantee: there two threads
    probing one id at once may take one draw.
    """

    def __init__(self, rng: Rng, failure_prob: float = 0.0) -> None:
        if not 0.0 <= failure_prob <= 1.0:  # NaN fails too
            raise ValueError("failure probability must lie in [0, 1]")
        self._rng = rng
        self._failure_prob = failure_prob
        self._streams: dict[str, np.random.Generator] = {}
        # Per id, an iterator over its block's undrawn (viable, normal) pairs.
        self._pending: dict[str, Iterator[tuple[bool, float]]] = {}
        self._lock = threading.Lock()

    def probe(self, candidate: StreamCandidate, timeout_ms: float) -> ProbeResult:
        key = candidate.id
        try:
            viable, normal = next(self._pending[key])
        except (KeyError, StopIteration):
            # Look again under the lock: another thread may have drawn the
            # block meanwhile.
            with self._lock:
                try:
                    viable, normal = next(self._pending[key])
                except (KeyError, StopIteration):
                    viable, normal = next(self._draw_block(key))
        latency = _SIM_MEDIAN_MS * math.exp(_SIM_SIGMA * normal)
        return _result((candidate, viable, latency, False, None))

    def _draw_block(self, key: str) -> Iterator[tuple[bool, float]]:
        gen = self._streams.get(key)
        if gen is None:
            gen = self._streams[key] = self._rng.substream(zlib.crc32(key.encode()))
        # A uniform below failure_prob fails.  The block is stored only once
        # both draws are done, so a draw that raises leaves no half-built
        # block: the id's next probe draws a whole one.
        viable = (gen.random(_BLOCK) >= self._failure_prob).tolist()
        normals = gen.standard_normal(_BLOCK).tolist()
        pending = self._pending[key] = zip(viable, normals)
        return pending


class HttpTransport:
    """HEAD-request transport on the standard library; errors never propagate.

    One deadline, timeout_ms after the call, bounds the whole probe: connect,
    TLS handshake and reading the response head (RFC 9110 section 9.3.2: a
    HEAD response is its head alone).  2xx/3xx means viable; redirects are
    not followed.
    """

    def probe(self, candidate: StreamCandidate, timeout_ms: float) -> ProbeResult:
        started = time.perf_counter()
        try:
            status = _head_status(candidate.locator, started + timeout_ms / 1000.0)
        except TimeoutError:
            return ProbeResult(
                candidate=candidate,
                viable=False,
                latency_ms=timeout_ms,
                timed_out=True,
            )
        except (OSError, ValueError):
            status = None
        elapsed = (time.perf_counter() - started) * 1000.0
        return ProbeResult(
            candidate=candidate,
            viable=status is not None and 200 <= status < 400,
            latency_ms=elapsed,
            status=status,
        )


def _head_status(url: str, deadline: float) -> int:
    """Send HEAD for url and return the status code of the response head.

    Every blocking step waits at most until deadline (a perf_counter value)
    and raises TimeoutError past it, except the lookup of a DNS name: that
    one step the deadline does not bound.  An IPv4 or IPv6 literal host
    needs no lookup and is connected to directly.  Malformed URLs and heads
    raise ValueError; network and TLS failures raise OSError.
    """
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https") or not parts.hostname:
        raise ValueError(f"not an http(s) URL: {url!r}")
    port = parts.port
    if port is None:  # an explicit port 0 stays 0
        port = 443 if parts.scheme == "https" else 80
    target = quote(parts.path or "/", safe=_URL_SAFE)
    if parts.query:
        target += "?" + quote(parts.query, safe=_URL_SAFE)
    request = (
        f"HEAD {target} HTTP/1.1\r\nHost: {parts.netloc.rpartition('@')[2]}\r\n"
        "User-Agent: streamres\r\nAccept: */*\r\nConnection: close\r\n\r\n"
    ).encode("ascii")
    sock = _connect(parts.hostname, port, deadline)
    try:
        if parts.scheme == "https":
            sock.settimeout(_remaining(deadline))
            sock = _tls_context().wrap_socket(sock, server_hostname=parts.hostname)
        sock.settimeout(_remaining(deadline))
        sock.sendall(request)
        head = b""
        while not _HEAD_END.search(head):
            if len(head) > MAX_HEAD_BYTES:
                raise ValueError("response head too large")
            sock.settimeout(_remaining(deadline))
            chunk = sock.recv(4096)
            if not chunk:
                raise ValueError("connection closed inside the response head")
            head += chunk
    finally:
        sock.close()
    status_line = _STATUS_LINE.match(head)
    if status_line is None:
        raise ValueError("malformed status line")
    return int(status_line[1])


def _connect(host: str, port: int, deadline: float) -> socket.socket:
    """A TCP connection to host, made before deadline.

    An IPv4 or IPv6 literal is connected to without getaddrinfo.  A DNS name
    or a zone-scoped address goes through socket.create_connection, whose
    lookup the deadline does not bound; each address the lookup returns may
    wait for what is left of the deadline.
    """
    for family in (socket.AF_INET, socket.AF_INET6):
        try:
            socket.inet_pton(family, host)
        except OSError:
            continue
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.settimeout(_remaining(deadline))
            sock.connect((host, port))
        except BaseException:
            sock.close()
            raise
        return sock
    return socket.create_connection((host, port), _remaining(deadline))


def _remaining(deadline: float) -> float:
    left = deadline - time.perf_counter()
    if left <= 0.0:
        raise TimeoutError("probe deadline passed")
    # A socket timeout above TIMEOUT_MAX overflows; waiting that long is no
    # different from waiting for the deadline.
    return min(left, threading.TIMEOUT_MAX)


@cache
def _tls_context() -> ssl.SSLContext:
    import ssl  # only https probes pay for the import

    return ssl.create_default_context()


def probe_all(
    candidates: Sequence[StreamCandidate],
    transport: Transport,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    max_in_flight: int | None = None,
) -> list[ProbeResult]:
    """Probe every candidate concurrently and return one result per candidate.

    Results come back in input order; at most max_in_flight probes run at
    once (default: every candidate, up to MAX_IN_FLIGHT).  A verdict slower
    than the timeout is recorded as timed out and non-viable with latency
    clamped to the timeout.

    The probes run on min(max_in_flight, len(candidates)) lanes: the calling
    thread and one short-lived helper thread per further lane, so a one-lane
    round starts no thread.  Each lane takes the next candidate in input
    order.  If a probe raises, every other probe still runs (an interrupt or
    exit stops the lanes taking more), and once every lane has finished the
    first exception in input order is raised, an interrupt or exit before
    any other; no helper thread outlives the call.
    """
    if not math.isfinite(timeout_ms):
        raise ValueError("timeout must be finite")
    if timeout_ms <= 0.0:
        raise ValueError("timeout must be positive")
    if max_in_flight is None:
        max_in_flight = max(1, min(len(candidates), MAX_IN_FLIGHT))
    if max_in_flight < 1:
        raise ValueError("max_in_flight must be >= 1")
    count = len(candidates)
    results: list[ProbeResult] = [None] * count  # type: ignore[list-item]
    errors: dict[int, BaseException] = {}
    take = threading.Lock()
    next_index = 0

    def lane() -> None:
        nonlocal next_index
        while True:
            with take:
                index = next_index
                next_index += 1
            if index >= count:
                return
            try:
                result = transport.probe(candidates[index], timeout_ms)
            except BaseException as exc:  # the caller raises it once every lane is done
                errors[index] = exc
                if not isinstance(exc, Exception):
                    # An interrupt or exit ends the round: no lane takes more.
                    with take:
                        next_index = count
                continue
            if result.latency_ms > timeout_ms:
                result = result._replace(viable=False, timed_out=True, latency_ms=timeout_ms)
            results[index] = result

    helpers: list[threading.Thread] = []
    try:
        for _ in range(min(max_in_flight, count) - 1):
            helper = threading.Thread(target=lane)
            helper.start()
            helpers.append(helper)
        lane()
    finally:
        # Past an interrupt or a failed thread start, no lane takes more.
        with take:
            next_index = count
        for helper in helpers:
            helper.join()
    if errors:
        stops = [i for i, exc in errors.items() if not isinstance(exc, Exception)]
        raise errors[min(stops or errors)]
    return results


def sort_results(results: Iterable[ProbeResult]) -> list[ProbeResult]:
    """Viable results first, then ascending latency; ties keep input order."""
    return sorted(results, key=lambda r: (not r.viable, r.latency_ms))


def __getattr__(name: str) -> object:
    # The benchmark's tracer still hooks the speedup estimate under its old
    # name here; this alias goes once that hook moves to
    # simulator.run_speedup_empirical (ROADMAP item 10).
    if name == "empirical_first_success_rounds":
        from .simulator import run_speedup_empirical

        return run_speedup_empirical
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
