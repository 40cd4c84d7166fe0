"""Concurrent probing: determinism, ordering, scheduling, real HTTP."""

import hashlib
import http.server
import math
import os
import socket
import socketserver
import subprocess
import sys
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

import streamres
from streamres import probe as probe_module
from streamres.probe import (
    HttpTransport,
    ProbeResult,
    SimTransport,
    StreamCandidate,
    probe_all,
    sort_results,
)
from streamres.viability import Rng


def make_candidates(n, quality=720):
    return [
        StreamCandidate(
            id=f"c{i}", provider_id=f"p{i}", quality=quality, locator=f"sim://c{i}"
        )
        for i in range(n)
    ]


class TestSimTransport:
    def test_verdicts_are_order_independent(self):
        candidates = make_candidates(8)
        forward = probe_all(candidates, SimTransport(Rng(42)))
        backward = probe_all(list(reversed(candidates)), SimTransport(Rng(42)))
        by_id = {r.candidate.id: r for r in backward}
        for result in forward:
            twin = by_id[result.candidate.id]
            assert result.viable == twin.viable
            assert result.latency_ms == twin.latency_ms

    def test_attempts_draw_fresh_streams(self):
        transport = SimTransport(Rng(42))
        candidate = make_candidates(1)[0]
        first = transport.probe(candidate, 10_000.0)
        second = transport.probe(candidate, 10_000.0)
        assert first.latency_ms != second.latency_ms

    def test_one_substream_per_candidate(self, monkeypatch):
        paths = []
        substream = Rng.substream

        def counting(rng, *path):
            paths.append(path)
            return substream(rng, *path)

        monkeypatch.setattr(Rng, "substream", counting)
        candidates = make_candidates(5)
        transport = SimTransport(Rng(42), failure_prob=0.2)
        for _ in range(40):
            probe_all(candidates + candidates[:2], transport)
        assert sorted(paths) == sorted(
            (zlib.crc32(c.id.encode()),) for c in candidates
        )

    def test_verdicts_ignore_interleaving(self):
        a, b = make_candidates(2)
        alone = SimTransport(Rng(7), failure_prob=0.5)
        mixed = SimTransport(Rng(7), failure_prob=0.5)
        solo = [alone.probe(a, 1e9) for _ in range(30)]
        interleaved = []
        for i in range(30):
            for _ in range(i % 3):
                mixed.probe(b, 1e9)
            interleaved.append(mixed.probe(a, 1e9))
        assert interleaved == solo

    def test_first_probe_matches_hand_computation(self):
        # Probe 0 and probe B, the first of the second block, from the
        # substream's block draws: B uniforms, then B normals, per block.
        block = probe_module._BLOCK
        candidate = make_candidates(1)[0]
        transport = SimTransport(Rng(42), failure_prob=0.3)
        gen = Rng(42).substream(zlib.crc32(b"c0"))
        expected = []
        for _ in range(2):
            uniform = float(gen.random(block)[0])
            normal = float(gen.standard_normal(block)[0])
            expected.append(
                ProbeResult(
                    candidate=candidate,
                    viable=not uniform < 0.3,
                    latency_ms=300.0 * math.exp(0.6 * normal),
                )
            )
        results = [transport.probe(candidate, 1e9) for _ in range(block + 1)]
        assert [results[0], results[block]] == expected

    # Six ids, c0 listed twice: 43 rounds of 7 probes on one thread.  A
    # change to the draw order, the draws per probe or the latency
    # arithmetic moves it.
    DRAW_SEQUENCE_SHA256 = (
        "2c16f2dbe5105592cd8637e78c8fe3f9e08a1309f69e05a7929823ce926dc9b6"
    )

    def test_draw_sequence_is_pinned(self):
        candidates = make_candidates(6)
        lines = candidates + candidates[:1]
        transport = SimTransport(Rng(2024), failure_prob=0.3)
        digest = hashlib.sha256()
        for _ in range(43):
            for candidate in lines:
                result = transport.probe(candidate, 1e9)
                record = (result.candidate.id, result.viable, repr(result.latency_ms))
                digest.update(f"{record}\n".encode())
        assert digest.hexdigest() == self.DRAW_SEQUENCE_SHA256

    @pytest.mark.parametrize("failure_prob", [0.02, 0.3])
    def test_verdicts_and_latencies_follow_their_laws(self, failure_prob):
        # 20 ids x 1000 probes, about 16 blocks each; every bound is
        # 4 standard errors.
        candidates = make_candidates(20)
        transport = SimTransport(Rng(99), failure_prob=failure_prob)
        results = [
            transport.probe(candidate, 1e9)
            for _ in range(1000)
            for candidate in candidates
        ]
        n = len(results)
        fail_rate = sum(not r.viable for r in results) / n
        assert abs(fail_rate - failure_prob) < 4 * math.sqrt(
            failure_prob * (1 - failure_prob) / n
        )
        logs = np.log([r.latency_ms for r in results])
        assert abs(logs.mean() - math.log(300.0)) < 4 * 0.6 / math.sqrt(n)
        assert abs(logs.std(ddof=1) - 0.6) < 4 * 0.6 / math.sqrt(2 * (n - 1))

    def test_block_boundaries_ignore_interleaving(self):
        # c0 crosses three block boundaries while the other ids, probed in
        # uneven numbers between its probes, cross theirs at other times.
        block = probe_module._BLOCK
        first, *others = make_candidates(4)
        alone = SimTransport(Rng(13), failure_prob=0.4)
        mixed = SimTransport(Rng(13), failure_prob=0.4)
        count = 3 * block + block // 2
        solo = [alone.probe(first, 1e9) for _ in range(count)]
        interleaved = []
        for i in range(count):
            for other in others[: i % 4]:
                mixed.probe(other, 1e9)
            interleaved.append(mixed.probe(first, 1e9))
        assert interleaved == solo

    def test_one_substream_per_candidate_across_blocks(self, monkeypatch):
        paths = []
        substream = Rng.substream

        def counting(rng, *path):
            paths.append(path)
            return substream(rng, *path)

        monkeypatch.setattr(Rng, "substream", counting)
        candidates = make_candidates(3)
        transport = SimTransport(Rng(42), failure_prob=0.2)
        for _ in range(4 * probe_module._BLOCK + 1):
            probe_all(candidates, transport, 1e9, 1)
        assert sorted(paths) == sorted(
            (zlib.crc32(c.id.encode()),) for c in candidates
        )

    def test_failed_block_draw_leaves_the_id_usable(self, monkeypatch):
        # The second block's uniform draw raises once; the id's next probe
        # draws that block again, so its verdicts are those of a transport
        # that never failed.  Then a normal draw raises once, after its
        # block's uniforms were taken, and the id still goes on probing.
        block = probe_module._BLOCK
        substream = Rng.substream
        failures = {}

        class Flaky:
            def __init__(self, gen):
                self.gen = gen

            def draw(self, method, size):
                if method in failures:
                    raise failures.pop(method)
                return getattr(self.gen, method)(size)

            def random(self, size):
                return self.draw("random", size)

            def standard_normal(self, size):
                return self.draw("standard_normal", size)

        monkeypatch.setattr(
            Rng, "substream", lambda rng, *path: Flaky(substream(rng, *path))
        )
        candidate = make_candidates(1)[0]
        flaky = SimTransport(Rng(5), failure_prob=0.3)
        seen = [flaky.probe(candidate, 1e9) for _ in range(block)]
        failures["random"] = MemoryError()
        with pytest.raises(MemoryError):
            flaky.probe(candidate, 1e9)
        seen += [flaky.probe(candidate, 1e9) for _ in range(block)]
        failures["standard_normal"] = MemoryError()
        with pytest.raises(MemoryError):
            flaky.probe(candidate, 1e9)
        after = [flaky.probe(candidate, 1e9) for _ in range(2 * block)]
        assert all(r.latency_ms > 0.0 for r in after)
        monkeypatch.undo()
        plain = SimTransport(Rng(5), failure_prob=0.3)
        assert seen == [plain.probe(candidate, 1e9) for _ in range(2 * block)]

    def test_repeated_id_draws_same_results_at_any_fan_out(self):
        # Threads share a candidate's generator under the lock; a lost or
        # doubled draw would change the multiset of that id's results.
        candidates = make_candidates(6)
        lines = candidates + candidates[:2] + candidates[:1]

        def per_id(max_in_flight):
            transport = SimTransport(Rng(11), failure_prob=0.4)
            seen = {}
            for _ in range(20):
                for r in probe_all(lines, transport, 1e9, max_in_flight):
                    seen.setdefault(r.candidate.id, []).append(
                        (r.viable, r.latency_ms)
                    )
            return {key: sorted(values) for key, values in seen.items()}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            wide = per_id(8)
        finally:
            sys.setswitchinterval(interval)
        assert wide == per_id(1)

    def test_threads_take_every_draw_once(self):
        # Eight threads probe two ids at once across twenty block draws each;
        # a pair lost or taken twice would change an id's multiset.
        a, b = make_candidates(2)
        count = 20 * probe_module._BLOCK + 7
        threads = 8
        transport = SimTransport(Rng(31), failure_prob=0.4)
        start = threading.Barrier(threads)
        seen = [[] for _ in range(threads)]

        def lane(out):
            start.wait(timeout=60)
            for _ in range(count):
                out.append(transport.probe(a, 1e9))
                out.append(transport.probe(b, 1e9))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=lane, args=(out,)) for out in seen]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        serial = SimTransport(Rng(31), failure_prob=0.4)
        for candidate in (a, b):
            drawn = sorted(
                (r.viable, r.latency_ms)
                for out in seen
                for r in out
                if r.candidate == candidate
            )
            expected = sorted(
                (r.viable, r.latency_ms)
                for r in (serial.probe(candidate, 1e9) for _ in range(threads * count))
            )
            assert drawn == expected

    def test_failure_extremes(self):
        candidates = make_candidates(10)
        all_dead = probe_all(candidates, SimTransport(Rng(1), failure_prob=1.0))
        assert not any(r.viable for r in all_dead)
        all_alive = probe_all(candidates, SimTransport(Rng(1), failure_prob=0.0))
        assert all(r.viable for r in all_alive)

    def test_latency_positive(self):
        results = probe_all(make_candidates(50), SimTransport(Rng(8)), timeout_ms=1e9)
        assert all(r.latency_ms > 0.0 for r in results)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            probe_all(make_candidates(1), SimTransport(Rng(1), failure_prob=1.5))

    @pytest.mark.parametrize("failure_prob", [-0.1, 1.5, float("nan")])
    def test_constructor_rejects_bad_failure_prob(self, failure_prob):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SimTransport(Rng(1), failure_prob=failure_prob)


class TestProbeAll:
    def test_preserves_input_order(self):
        candidates = make_candidates(12)
        results = probe_all(candidates, SimTransport(Rng(2)))
        assert [r.candidate.id for r in results] == [c.id for c in candidates]

    def test_empty_input(self):
        assert probe_all([], SimTransport(Rng(2))) == []

    def test_timeout_clamp(self):
        # A timeout far below the 300 ms median latency (1 ms is 9.5 sigma
        # down): every verdict must be clamped.
        results = probe_all(make_candidates(5), SimTransport(Rng(4)), timeout_ms=1.0)
        for result in results:
            assert result.timed_out
            assert not result.viable
            assert result.latency_ms == 1.0

    def test_max_in_flight_does_not_change_results(self):
        candidates = make_candidates(9)
        wide = probe_all(candidates, SimTransport(Rng(6)))
        narrow = probe_all(candidates, SimTransport(Rng(6)), max_in_flight=2)
        assert [(r.candidate.id, r.viable, r.latency_ms) for r in wide] == [
            (r.candidate.id, r.viable, r.latency_ms) for r in narrow
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            probe_all(make_candidates(1), SimTransport(Rng(1)), timeout_ms=0.0)
        for timeout_ms in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                probe_all(make_candidates(1), SimTransport(Rng(1)), timeout_ms=timeout_ms)
        with pytest.raises(ValueError):
            probe_all(make_candidates(1), SimTransport(Rng(1)), max_in_flight=0)

    def test_default_fan_out_is_capped(self, monkeypatch):
        monkeypatch.setattr(probe_module, "MAX_IN_FLIGHT", 3)
        transport = PeakCountingTransport(SimTransport(Rng(5)))
        results = probe_all(make_candidates(8), transport)
        assert len(results) == 8
        assert transport.peak == 3

    def test_paper_round_fits_under_the_cap(self):
        # The paper probes all 12 providers of a round at once.
        assert probe_module.MAX_IN_FLIGHT >= 12


class ThreadRecordingTransport:
    """Wraps a transport; records the thread and the candidate of each probe."""

    def __init__(self, inner, fail=(), delay_s=0.0):
        self._inner = inner
        self._fail = fail
        self._delay_s = delay_s
        self._lock = threading.Lock()
        self.threads = []
        self.finished = []

    def probe(self, candidate, timeout_ms):
        with self._lock:
            self.threads.append(threading.get_ident())
        time.sleep(self._delay_s)
        if candidate.id in self._fail:
            raise RuntimeError(f"probe of {candidate.id} failed")
        result = self._inner.probe(candidate, timeout_ms)
        with self._lock:
            self.finished.append(candidate.id)
        return result


class TestLanes:
    @pytest.mark.parametrize("count, max_in_flight", [(6, 1), (1, None), (1, 8)])
    def test_one_lane_runs_on_the_calling_thread(self, count, max_in_flight):
        transport = ThreadRecordingTransport(SimTransport(Rng(3)))
        before = threading.active_count()
        results = probe_all(make_candidates(count), transport, max_in_flight=max_in_flight)
        assert len(results) == count
        assert transport.threads == [threading.get_ident()] * count
        assert transport.finished == [c.id for c in make_candidates(count)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("max_in_flight", [1, 3, 8])
    def test_failure_is_raised_after_every_other_probe(self, max_in_flight):
        # c1 fails after c5 in time, yet is first in input order.
        candidates = make_candidates(8)
        transport = ThreadRecordingTransport(
            SimTransport(Rng(3)), fail=("c1", "c5"), delay_s=0.02
        )
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="probe of c1 failed"):
            probe_all(candidates, transport, max_in_flight=max_in_flight)
        assert sorted(transport.finished) == ["c0", "c2", "c3", "c4", "c6", "c7"]
        assert threading.active_count() == before

    def test_interrupt_stops_the_round(self):
        class Interrupt(BaseException):
            pass

        class InterruptingTransport(ThreadRecordingTransport):
            def probe(self, candidate, timeout_ms):
                if candidate.id == "c2":
                    raise Interrupt
                return super().probe(candidate, timeout_ms)

        transport = InterruptingTransport(SimTransport(Rng(3)))
        with pytest.raises(Interrupt):
            probe_all(make_candidates(8), transport, max_in_flight=1)
        assert transport.finished == ["c0", "c1"]

    @pytest.mark.parametrize("max_in_flight", [1, 2, 8])
    def test_interrupt_outranks_an_earlier_failure(self, max_in_flight):
        # c1 fails first in input order; the interrupt on c5 must still reach
        # the caller as itself.
        class Interrupt(BaseException):
            pass

        class InterruptingTransport(ThreadRecordingTransport):
            def probe(self, candidate, timeout_ms):
                if candidate.id == "c5":
                    raise Interrupt
                return super().probe(candidate, timeout_ms)

        transport = InterruptingTransport(SimTransport(Rng(3)), fail=("c1",), delay_s=0.01)
        before = threading.active_count()
        with pytest.raises(Interrupt):
            probe_all(make_candidates(8), transport, max_in_flight=max_in_flight)
        assert "c1" not in transport.finished
        assert threading.active_count() == before

    @pytest.mark.parametrize("max_in_flight", [2, 8])
    def test_input_order_under_frequent_switches(self, max_in_flight):
        candidates = make_candidates(40)
        reference = probe_all(candidates, SimTransport(Rng(9)), max_in_flight=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(25):
                results = probe_all(
                    candidates, SimTransport(Rng(9)), max_in_flight=max_in_flight
                )
                assert results == reference
        finally:
            sys.setswitchinterval(interval)


class PeakCountingTransport:
    """Wraps a transport; records the most probes ever in flight at once."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self._in_flight = 0
        self.peak = 0

    def probe(self, candidate, timeout_ms):
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
        try:
            time.sleep(0.05)  # overlap the probes the pool lets run
            return self._inner.probe(candidate, timeout_ms)
        finally:
            with self._lock:
                self._in_flight -= 1


class TestSortResults:
    def test_viable_first_then_latency(self):
        candidates = make_candidates(4)
        results = [
            ProbeResult(candidates[0], viable=False, latency_ms=1.0),
            ProbeResult(candidates[1], viable=True, latency_ms=300.0),
            ProbeResult(candidates[2], viable=True, latency_ms=20.0),
            ProbeResult(candidates[3], viable=False, latency_ms=500.0),
        ]
        ranked = sort_results(results)
        assert [r.candidate.id for r in ranked] == ["c2", "c1", "c0", "c3"]

    def test_ties_keep_input_order(self):
        candidates = make_candidates(3)
        results = [
            ProbeResult(candidates[i], viable=True, latency_ms=100.0)
            for i in range(3)
        ]
        ranked = sort_results(results)
        assert [r.candidate.id for r in ranked] == ["c0", "c1", "c2"]


class _Handler(http.server.BaseHTTPRequestHandler):
    def do_HEAD(self):
        if self.path == "/missing":
            self.send_response(404)
        elif self.path == "/moved":
            self.send_response(302)
            self.send_header("Location", "/ok")
        else:
            self.send_response(200)
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def local_server():
    with socketserver.TCPServer(("127.0.0.1", 0), _Handler) as server:
        # Polls every 10 ms: shutdown() waits out a poll, 0.5 s by default.
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()


class TestHttpTransport:
    def test_ok_is_viable(self, local_server):
        candidate = StreamCandidate("a", "p", 1080, f"{local_server}/ok")
        result = HttpTransport().probe(candidate, 2000.0)
        assert result.viable
        assert result.status == 200
        assert result.latency_ms > 0.0

    def test_redirect_is_viable_without_following(self, local_server):
        candidate = StreamCandidate("m", "p", 720, f"{local_server}/moved")
        result = HttpTransport().probe(candidate, 2000.0)
        assert result.viable
        assert result.status == 302

    def test_not_found_is_dead(self, local_server):
        candidate = StreamCandidate("x", "p", 720, f"{local_server}/missing")
        result = HttpTransport().probe(candidate, 2000.0)
        assert not result.viable
        assert result.status == 404

    @pytest.mark.parametrize("timeout_ms", [1e300, math.inf])
    def test_huge_timeout_gives_a_verdict(self, local_server, timeout_ms):
        # Socket timeouts are capped at threading.TIMEOUT_MAX.
        candidate = StreamCandidate("a", "p", 1080, f"{local_server}/ok")
        result = HttpTransport().probe(candidate, timeout_ms)
        assert result.viable
        assert result.status == 200

    def test_connection_error_never_raises(self):
        candidate = StreamCandidate("d", "p", 720, "http://127.0.0.1:1/dead")
        result = HttpTransport().probe(candidate, 500.0)
        assert not result.viable
        assert result.status is None


class TestCandidateValidation:
    def test_quality_must_be_positive(self):
        # Finite too: NaN and inf would fail later, inside a reservoir call.
        for quality in (0, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                StreamCandidate("a", "p", quality, "sim://a")


DRIP_LINES = (
    b"HTTP/1.1 200 OK",
    b"Content-Type: video/mp2t",
    b"Cache-Control: no-cache",
    b"Content-Length: 0",
    b"Connection: close",
    b"",
)


class _RawHandler(socketserver.StreamRequestHandler):
    """Answers by path with heads http.server cannot send: slow, cut or malformed."""

    def handle(self):
        self.connection.settimeout(5.0)
        try:
            path = self.rfile.readline().split()[1]
            while self.rfile.readline() not in (b"\r\n", b""):
                pass
            self._answer(path)
        except OSError:
            pass  # the client hung up first

    def _answer(self, path):
        if path == b"/drip":  # one line every 80 ms: the head takes ~480 ms
            for line in DRIP_LINES:
                time.sleep(0.08)
                self.wfile.write(line + b"\r\n")
        elif path == b"/stall":  # the status line at ~150 ms, then nothing
            time.sleep(0.15)
            self.wfile.write(b"HTTP/1.1 200 OK\r\n")
            self.rfile.read(1)  # returns when the client hangs up
        elif path == b"/garbage":
            self.wfile.write(b"SPDY/9 fine\r\n\r\n")
        elif path == b"/cut":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-")
        elif path.startswith(b"/quoted/"):
            ok = path == b"/quoted/caf%C3%A9%20x?k=v%20w"
            self.wfile.write(b"HTTP/1.1 %d X\r\n\r\n" % (200 if ok else 400))
        elif path == b"/huge":
            self.wfile.write(b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 100_000)
            self.rfile.read(1)


class _RawServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    block_on_close = False


@pytest.fixture(scope="module")
def raw_server():
    with _RawServer(("127.0.0.1", 0), _RawHandler) as server:
        # Polls every 10 ms: shutdown() waits out a poll, 0.5 s by default.
        thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{server.server_address[1]}"
        server.shutdown()


def timed_probe(url, timeout_ms):
    started = time.perf_counter()
    result = HttpTransport().probe(StreamCandidate("h", "p", 720, url), timeout_ms)
    return result, (time.perf_counter() - started) * 1000.0


class TestHttpHead:
    @pytest.mark.parametrize("path", ["/drip", "/stall"])
    def test_one_deadline_bounds_the_whole_head(self, raw_server, path):
        result, wall_ms = timed_probe(f"{raw_server}{path}", 200.0)
        assert result.timed_out
        assert not result.viable
        assert result.latency_ms == 200.0
        assert result.status is None
        assert wall_ms < 300.0

    @pytest.mark.parametrize("path", ["/garbage", "/cut", "/huge"])
    def test_malformed_head_is_dead(self, raw_server, path):
        result, wall_ms = timed_probe(f"{raw_server}{path}", 2000.0)
        assert not result.viable
        assert not result.timed_out
        assert result.status is None
        assert result.latency_ms == pytest.approx(wall_ms, abs=50.0)

    def test_request_target_is_percent_encoded(self, raw_server):
        result, _ = timed_probe(f"{raw_server}/quoted/café x?k=v w", 2000.0)
        assert result.viable
        assert result.status == 200

    @pytest.mark.parametrize(
        "url",
        ["ftp://127.0.0.1/x", "http:///no-host", "http://127.0.0.1:99999/x", "not a url"],
    )
    def test_unusable_url_is_dead(self, url):
        result, _ = timed_probe(url, 500.0)
        assert not result.viable
        assert not result.timed_out
        assert result.status is None

    def test_connects_to_the_port_the_url_names(self, monkeypatch):
        # An explicit port 0 is passed on, not replaced by the default, both
        # to a literal address's direct connect and through a name lookup.
        addresses = []

        def refuse(address, timeout=None):
            addresses.append(address)
            raise ConnectionRefusedError

        monkeypatch.setattr(probe_module.socket, "create_connection", refuse)
        monkeypatch.setattr(probe_module.socket.socket, "connect", lambda sock, a: refuse(a))
        for host in ("127.0.0.1", "localhost"):
            for url in (f"http://{host}:0/x", f"http://{host}/x", f"https://{host}/x"):
                with pytest.raises(OSError):
                    probe_module._head_status(url, time.perf_counter() + 1.0)
        assert addresses == [
            (host, port) for host in ("127.0.0.1", "localhost") for port in (0, 80, 443)
        ]

    def test_literal_host_needs_no_name_lookup(self, local_server, monkeypatch):
        def no_lookup(*args, **kwargs):
            raise socket.gaierror("name lookup is off")

        monkeypatch.setattr(socket, "getaddrinfo", no_lookup)
        result, _ = timed_probe(f"{local_server}/ok", 2000.0)
        assert result.viable
        assert result.status == 200
        # A DNS name still goes through the lookup.
        result, _ = timed_probe(f"{local_server.replace('127.0.0.1', 'localhost')}/ok", 2000.0)
        assert not result.viable
        assert not result.timed_out

    @pytest.mark.parametrize("host", ["127.0.0.1", "::1"])
    def test_silent_literal_host_times_out_at_the_deadline(self, monkeypatch, host):
        # The listener's backlog completes the handshake, and nothing ever
        # accepts or answers, so only the deadline ends the probe.
        def no_lookup(*args, **kwargs):
            raise socket.gaierror("name lookup is off")

        try:
            listener = socket.create_server(
                (host, 0), family=socket.AF_INET6 if ":" in host else socket.AF_INET
            )
        except OSError:
            pytest.skip(f"cannot listen on {host}")
        with listener:
            monkeypatch.setattr(socket, "getaddrinfo", no_lookup)
            netloc = f"[{host}]" if ":" in host else host
            result, wall_ms = timed_probe(f"http://{netloc}:{listener.getsockname()[1]}/x", 100.0)
        assert result.timed_out
        assert not result.viable
        assert wall_ms < 150.0

    def test_failed_tls_handshake_is_dead(self, local_server):
        # A plain-HTTP server cannot complete a TLS handshake.
        result, _ = timed_probe(local_server.replace("http:", "https:") + "/ok", 2000.0)
        assert not result.viable
        assert not result.timed_out
        assert result.status is None


def test_import_leaves_requests_out():
    src = str(Path(streamres.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, streamres; sys.exit('requests' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_import_leaves_concurrent_futures_out():
    # probe_all runs its lanes on plain threads.
    src = str(Path(streamres.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, streamres; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_probe_module_runs_without_numpy():
    # Candidates, results, transports and probe_all need the standard
    # library alone: with numpy unimportable the module still loads.
    path = Path(probe_module.__file__).resolve()
    code = (
        "import importlib.util, sys\n"
        "sys.modules['numpy'] = None\n"
        f"spec = importlib.util.spec_from_file_location('probe_alone', {str(path)!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "sys.modules[spec.name] = module\n"
        "spec.loader.exec_module(module)\n"
        "assert callable(module.probe_all)\n"
        "assert isinstance(module.HttpTransport, type)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
