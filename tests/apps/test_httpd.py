"""Functional tests for the three Apache variants."""

import threading
import time

import pytest

from repro.apps.httpd import (MitmPartitionHttpd, MonolithicHttpd,
                              SimplePartitionHttpd)
from repro.apps.httpd import common
from repro.apps.httpd.content import build_request, response_body
from repro.attacks.exploit import NOT_ARMED, make_exploit_blob, registry
from repro.core.errors import DeadlineExceeded, WedgeError
from repro.core.kernel import Kernel
from repro.crypto import DetRNG
from repro.net import Network
from repro.tls import TlsClient
from tests.apps.inline_cgi import InlineCgiHttpd

VARIANTS = [
    (MonolithicHttpd, {}),
    (SimplePartitionHttpd, {}),
    (MitmPartitionHttpd, {}),
    (MitmPartitionHttpd, {"gate_mode": "recycled"}),
]

_ids = ["monolithic", "simple", "mitm-fresh", "mitm-recycled"]


@pytest.fixture(params=VARIANTS, ids=_ids)
def server(request):
    cls, kwargs = request.param
    net = Network()
    srv = cls(net, f"httpd-{request.node.name}:443", **kwargs).start()
    yield srv
    srv.stop()


def client_for(server, seed="client"):
    return TlsClient(DetRNG(seed),
                     expected_server_key=server.public_key)


class TestServing:
    def test_serves_page(self, server):
        conn = client_for(server).connect(server.network, server.addr)
        resp = conn.request(build_request("/index.html"))
        assert resp.startswith(b"HTTP/1.0 200")
        assert b"It works!" in response_body(resp)
        assert server.errors == []

    def test_404(self, server):
        conn = client_for(server).connect(server.network, server.addr)
        resp = conn.request(build_request("/missing"))
        assert resp.startswith(b"HTTP/1.0 404")

    def test_session_resumption(self, server):
        client = client_for(server)
        conn1 = client.connect(server.network, server.addr)
        conn1.request(build_request("/"))
        conn2 = client.connect(server.network, server.addr)
        resp = conn2.request(build_request("/about"))
        assert conn2.resumed
        assert b"Wedge" in response_body(resp)

    def test_sequential_clients(self, server):
        for i in range(3):
            conn = client_for(server, f"c{i}").connect(server.network,
                                                       server.addr)
            resp = conn.request(build_request("/"))
            assert resp.startswith(b"HTTP/1.0 200")
        assert server.requests_served >= 3


class TestPartitionStructure:
    def test_simple_worker_per_connection(self):
        net = Network()
        srv = SimplePartitionHttpd(net, "structure-a:443").start()
        try:
            client = client_for(srv)
            for _ in range(2):
                client.connect(net, srv.addr).request(build_request("/"))
            time.sleep(0.1)
            assert len(srv.workers) == 2
            # fresh compartments per connection
            assert srv.workers[0].heap_segment is not \
                srv.workers[1].heap_segment
        finally:
            srv.stop()

    def test_mitm_two_phases_sequential(self):
        net = Network()
        srv = MitmPartitionHttpd(net, "structure-b:443").start()
        try:
            client_for(srv).connect(net, srv.addr).request(
                build_request("/"))
            time.sleep(0.1)
            assert len(srv.handshake_sthreads) == 1
            assert len(srv.handler_sthreads) == 1
            hs = srv.handshake_sthreads[0]
            handler = srv.handler_sthreads[0]
            # the handshake sthread exited before the handler started
            assert hs.status == "exited"
            assert handler.status == "exited"
        finally:
            srv.stop()

    def test_mitm_fresh_tags_recycled_per_connection(self):
        """Per-client tags return to the cache (paper §4.1)."""
        net = Network()
        srv = MitmPartitionHttpd(net, "structure-c:443").start()
        try:
            client = client_for(srv)
            client.connect(net, srv.addr).request(build_request("/"))
            time.sleep(0.1)
            first_reused = srv.kernel.tags.stats["reused"]
            client.connect(net, srv.addr).request(build_request("/"))
            time.sleep(0.1)
            assert srv.kernel.tags.stats["reused"] > first_reused
        finally:
            srv.stop()

    def test_recycled_gates_persist_across_connections(self):
        net = Network()
        srv = MitmPartitionHttpd(net, "structure-d:443",
                                 gate_mode="recycled").start()
        try:
            client = client_for(srv)
            client.connect(net, srv.addr).request(build_request("/"))
            client.connect(net, srv.addr).request(build_request("/"))
            time.sleep(0.1)
            setup = srv.recycled_gates["setup"]
            assert setup.invocations >= 2
            assert setup.persistent is not None
        finally:
            srv.stop()

    def test_monolithic_uses_no_gates(self):
        net = Network()
        srv = MonolithicHttpd(net, "structure-e:443").start()
        try:
            client_for(srv).connect(net, srv.addr).request(
                build_request("/"))
            assert srv.kernel._gates == {}
        finally:
            srv.stop()


class TestDynamicContent:
    """The disposable-CGI satellite: per-request sthreads over
    per-request tags, with the cache-aside path on top."""

    def _get(self, srv, path, seed="cgi"):
        conn = client_for(srv, seed).connect(srv.network, srv.addr)
        return conn.request(build_request(path))

    def test_bodies_are_deterministic_in_both_modes(self):
        net = Network()
        disp = MonolithicHttpd(net, "cgi-disp:443").start()
        inl = InlineCgiHttpd(net, "cgi-inl:443").start()
        try:
            a = self._get(disp, "/cgi/report", "a")
            b = self._get(disp, "/cgi/report", "b")
            assert a.startswith(b"HTTP/1.0 200") and a == b
            assert a != self._get(disp, "/cgi/other", "c")
            # mode changes the isolation, never the bytes
            assert response_body(a) == response_body(
                self._get(inl, "/cgi/report", "d"))
        finally:
            disp.stop()
            inl.stop()

    def test_disposable_tags_are_freed_and_recycled(self):
        net = Network()
        srv = MonolithicHttpd(net, "cgi-tags:443").start()
        try:
            for i in range(3):
                self._get(srv, "/cgi/page", f"t{i}")
                time.sleep(0.05)
            stats = srv.kernel.tags.stats
            # every request's tag was deleted on the way out...
            assert srv._cgi_serial == 3
            assert stats["deleted"] >= 3
            # ...and returned to the reuse cache (paper §4.1): only the
            # first request paid the fresh mmap
            assert stats["reused"] >= 2
        finally:
            srv.stop()

    def test_faulted_handler_is_a_500_not_an_outage(self):
        net = Network()
        srv = MonolithicHttpd(net, "cgi-fault:443").start()
        try:
            # the handler body renders from a pure function, so only a
            # hostile path (the attack tests) or a fault plan can kill
            # it; here we fake the fault by deleting render's scratch
            # contract — a path long enough to overflow the region
            long = "/cgi/" + "x" * 60
            resp = self._get(srv, long, "f")
            assert resp.startswith(b"HTTP/1.0 200")   # still fits
            assert self._get(srv, "/cgi/after", "g").startswith(
                b"HTTP/1.0 200")
        finally:
            srv.stop()

    def test_cache_aside_hit_skips_the_handler(self):
        from repro.apps.kv import KvServer
        net = Network()
        kv = KvServer(net, "cgi-kv:9090", concurrent=True).start()
        srv = MonolithicHttpd(net, "cgi-cached:443",
                              cache_addr=kv.addr).start()
        try:
            first = self._get(srv, "/cgi/expensive", "h1")
            assert srv._cgi_serial == 1       # one handler spawned
            second = self._get(srv, "/cgi/expensive", "h2")
            assert second == first            # byte-identical from kv
            assert srv._cgi_serial == 1       # no second handler
            assert srv.cache.hits == 1 and srv.cache.misses == 1
        finally:
            srv.stop()
            kv.stop()

    def test_cache_outage_degrades_to_rendering(self):
        net = Network()
        srv = MonolithicHttpd(net, "cgi-orphan:443",
                              cache_addr="kv-nowhere:9090").start()
        srv.cache.timeout = 0.5
        try:
            resp = self._get(srv, "/cgi/solo", "i")
            assert resp.startswith(b"HTTP/1.0 200")
            assert srv.cache.misses == 1      # outage counted as a miss
            assert srv._cgi_serial == 1       # rendered locally
        finally:
            srv.stop()


CRASH_PAYLOAD = "plain-crash"


@pytest.fixture
def crash_payload():
    """A payload that dies with a plain exception, not a WedgeError.

    Armed with data ``b"cgi"`` it stays inert in the request-line
    parser and detonates only in the CGI handler, which parses the
    same bytes later.
    """
    def crash(api):
        if api.data == b"cgi" and "cgi_mode" not in api.context:
            return NOT_ARMED
        raise RuntimeError(f"payload crashed in {api.context['variant']}")
    registry.register(CRASH_PAYLOAD, crash)
    return CRASH_PAYLOAD


def assert_crash_contained(srv, site):
    """The crash is on record and a new connection is served."""
    conn = client_for(srv, "next").connect(srv.network, srv.addr)
    assert conn.request(build_request("/")).startswith(b"HTTP/1.0 200 OK")
    assert f"RuntimeError: payload crashed in {site}" in srv.errors


class TestServingBoundary:
    """Per-connection compartments run on the serving thread, so an
    untyped crash inside one must end that connection only."""

    @pytest.mark.parametrize("cls, site", [
        (SimplePartitionHttpd, "simple"),
        (MitmPartitionHttpd, "mitm"),
    ])
    def test_crash_in_the_handshake(self, cls, site, crash_payload):
        net = Network()
        srv = cls(net, f"crash-hello-{site}:443").start()
        try:
            with pytest.raises(WedgeError):
                client_for(srv, "crasher").connect(
                    net, srv.addr,
                    extensions=make_exploit_blob(crash_payload))
            assert_crash_contained(srv, site)
        finally:
            srv.stop()

    @pytest.mark.parametrize("cls, site", [
        (SimplePartitionHttpd, "simple-request"),
        (MitmPartitionHttpd, "mitm-request"),
    ])
    def test_crash_in_the_request_handler(self, cls, site,
                                          crash_payload):
        net = Network()
        srv = cls(net, f"crash-request-{site}:443").start()
        try:
            conn = client_for(srv, "crasher").connect(net, srv.addr)
            conn.send(b"GET /" + make_exploit_blob(crash_payload)
                      + b" HTTP/1.0\r\n\r\n")
            with pytest.raises(WedgeError):
                conn.recv()
            assert_crash_contained(srv, site)
        finally:
            srv.stop()

    def test_crash_in_the_cgi_handler(self, crash_payload):
        net = Network()
        srv = MonolithicHttpd(net, "crash-cgi:443").start()
        try:
            blob = make_exploit_blob(crash_payload, data=b"cgi")
            conn = client_for(srv, "crasher").connect(net, srv.addr)
            conn.send(build_request("/cgi/" + blob.decode("latin-1")))
            with pytest.raises(WedgeError):
                conn.recv()
            assert_crash_contained(srv, "monolithic")
        finally:
            srv.stop()


class TestPhaseBudget:
    def test_stalled_client_ends_its_phase_not_the_server(
            self, monkeypatch):
        monkeypatch.setattr(common, "PHASE_BUDGET", 0.5)
        net = Network()
        srv = MitmPartitionHttpd(net, "phase-budget:443").start()
        try:
            client = client_for(srv)
            client.connect(net, srv.addr).request(build_request("/"))
            threads_before = set(threading.enumerate())
            idle = net.connect(srv.addr)        # never sends a byte
            try:
                start = time.monotonic()
                conn = client.connect(net, srv.addr)
                resp = conn.request(build_request("/"))
                elapsed = time.monotonic() - start
            finally:
                idle.close()
            assert resp.startswith(b"HTTP/1.0 200 OK")
            assert elapsed < 2.0
            stalled = [st for st in srv.handshake_sthreads
                       if st.name == "ssl-handshake2"]
            assert len(stalled) == 1
            assert isinstance(stalled[0].error, DeadlineExceeded)
            # the stalled phase left no thread behind
            assert set(threading.enumerate()) - threads_before == set()
        finally:
            srv.stop()


class TestInlineCompartments:
    @pytest.mark.parametrize("scheduler", ["threads", "reactor"])
    def test_resumed_requests_start_no_threads(self, scheduler,
                                               monkeypatch):
        with Kernel.scheduler_override(scheduler):
            srv = MitmPartitionHttpd(Network(), f"inline-{scheduler}:443")
        srv.start()
        try:
            client = client_for(srv)
            client.connect(srv.network, srv.addr).request(
                build_request("/"))
            started = []
            thread_start = threading.Thread.start

            def counting_start(thread):
                started.append(thread.name)
                thread_start(thread)

            monkeypatch.setattr(threading.Thread, "start", counting_start)
            for _ in range(10):
                conn = client.connect(srv.network, srv.addr)
                resp = conn.request(build_request("/"))
                assert conn.resumed and resp.startswith(b"HTTP/1.0 200")
            monkeypatch.undo()
            assert started == []
            assert len(srv.handler_sthreads) == 11
        finally:
            srv.stop()
