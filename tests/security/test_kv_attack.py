"""Attack tests for the kv tier and the disposable CGI handlers.

Two exploit surfaces, each with its monolithic contrast:

* the kv **command parser** (one sthread per connection).  Wedge's
  claim: injected code with the parser's privileges cannot read the
  store, cannot read the recency metadata, cannot reach the eviction
  gate, and cannot even write raw bytes to the client it was parsing —
  while the same payload against :class:`MonolithicKv` walks away with
  the whole store.
* the httpd **CGI handler**.  Disposable mode runs each request in a
  fresh sthread over a request-private tag deleted on exit, so a
  hijacked handler can touch neither the previous request's bytes nor
  the server key; inline mode (the contrast) leaks both.
"""

import time

from repro.analysis import format_report, lint_app
from repro.apps.httpd import content
from repro.apps.httpd.content import build_request
from repro.apps.httpd.monolithic import MonolithicHttpd
from repro.apps.kv import KvClient, KvServer, MonolithicKv
from repro.attacks import payloads
from repro.attacks.exploit import make_exploit_blob, start_campaign
from repro.core.kernel import Kernel
from repro.crypto import DetRNG
from repro.crypto.rsa import RsaPrivateKey
from repro.net import Network
from repro.tls import TlsClient
from tests.apps.inline_cgi import CGI_INLINE, InlineCgiHttpd

PRELOAD = {b"alpha": b"kv-secret-A1", b"beta": b"kv-secret-B2"}
NEEDLE = PRELOAD[b"alpha"]


def wait_for(predicate, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


def attack_kv(network, addr, data=NEEDLE):
    """One connection whose first command line is the exploit blob."""
    sock = network.connect(addr)
    try:
        sock.send(make_exploit_blob(payloads.PAYLOAD_KV_STORE_THIEF,
                                    data=data) + b"\r\n")
        time.sleep(0.1)
    finally:
        sock.close()


class TestExploitedKvParser:
    def test_parser_cannot_reach_store_meta_or_eviction(self):
        net = Network()
        server = KvServer(net, "atk-kv:9090", preload=PRELOAD).start()
        try:
            before = server.store_bytes()
            loot = start_campaign()
            attack_kv(net, server.addr)
            assert wait_for(lambda: "denied_tags" in loot)

            # the preloaded value exists nowhere the parser can read
            assert loot.get("store_hits") == []
            # both privileged tags refused the direct read
            assert loot.get("denied_tags") == ["kv-meta", "kv-store"]
            # the eviction gate is not delegated to the parser
            assert "evict_victim" not in loot
            denied = [what for what, _ in loot.attempts]
            assert "eviction gate" in denied
            # the client fd grant is read-only: no raw exfiltration
            assert "raw_client_write" not in loot
            assert "client fd write" in denied

            # containment: the parser died, the server did not
            assert wait_for(
                lambda: any("parser faulted" in e for e in server.errors))
            assert server.store_bytes() == before
            kernel = Kernel(net=net, name="post-attack")
            kernel.start_main()
            replies = KvClient(kernel, server.addr).execute(
                [b"GET alpha"])
            assert replies == [b"VALUE " + NEEDLE.hex().encode()]
        finally:
            server.stop()

    def test_monolithic_parser_loses_everything(self):
        net = Network()
        server = MonolithicKv(net, "atk-kvm:9090",
                              preload=PRELOAD).start()
        try:
            loot = start_campaign()
            attack_kv(net, server.addr)
            assert wait_for(lambda: "denied_tags" in loot)
            # the sweep finds the store in main's ordinary heap...
            assert loot.get("store_hits") != []
            # ...there are no protected tags to be refused by...
            assert loot.get("denied_tags") == []
            # ...and the fully privileged fd takes the raw write
            assert loot.get("raw_client_write") is True
        finally:
            server.stop()


class TestExploitedCgiHandler:
    def _request(self, srv, path, seed):
        client = TlsClient(DetRNG(seed),
                           expected_server_key=srv.public_key)
        try:
            conn = client.connect(srv.network, srv.addr, resume=False)
            return conn.request(build_request(path))
        except Exception:
            return None     # a hijacked handler may kill the connection

    def _blob_path(self):
        blob = make_exploit_blob(payloads.PAYLOAD_CGI_RESIDUE)
        return "/cgi/" + blob.decode("latin-1")

    def test_disposable_handler_sees_no_other_request(self):
        net = Network()
        srv = MonolithicHttpd(net, "atk-cgi:443").start()
        try:
            warm = self._request(srv, "/cgi/warm", "warm")
            assert warm is not None and b"200 OK" in warm
            loot = start_campaign()
            hit = self._request(srv, self._blob_path(), "attacker")
            assert wait_for(lambda: "cgi_hijacked" in loot)
            assert loot.get("cgi_hijacked") == "disposable"

            # the previous request's tag is deleted: the probe of its
            # window either faults (unmapped) or reads the recycled
            # segment freshly scrubbed — either way not one byte of the
            # previous request's body is recoverable, and the server
            # key in main's heap is unreachable
            warm_body = content.render_dynamic("/cgi/warm",
                                               srv._cgi_salt)
            window = loot.get("scratch_window")
            if window is None:
                denied = [what for what, _ in loot.attempts]
                assert any("previous request's scratch" in w
                           for w in denied)
            else:
                assert warm_body not in window
            assert "cgi_private_key" not in loot
            denied = [what for what, _ in loot.attempts]
            assert "server RSA key" in denied

            # containment: this request got a typed 500, the next one
            # renders normally
            assert hit is not None and b"500" in hit
            assert wait_for(lambda: any("cgi handler faulted" in e
                                        for e in srv.errors))
            after = self._request(srv, "/cgi/after", "after")
            assert after is not None and b"200 OK" in after
        finally:
            srv.stop()

    def test_inline_handler_leaks_residue_and_key(self):
        net = Network()
        srv = InlineCgiHttpd(net, "atk-cgi-inl:443").start()
        try:
            warm = self._request(srv, "/cgi/warm", "warm")
            assert warm is not None and b"200 OK" in warm
            loot = start_campaign()
            self._request(srv, self._blob_path(), "attacker")
            assert wait_for(lambda: "cgi_hijacked" in loot)
            assert loot.get("cgi_hijacked") == CGI_INLINE

            # the persistent scratch still holds the last body...
            expected = content.render_dynamic("/cgi/warm",
                                              srv._cgi_salt)
            window = loot.get("scratch_window")
            size = int.from_bytes(window[:2], "big")
            assert window[2:2 + size] == expected
            # ...and the key is one heap read away
            stolen = RsaPrivateKey.from_bytes(
                loot.get("cgi_private_key"))
            assert stolen.n == srv.private_key.n
        finally:
            srv.stop()


class TestKvLint:
    """The static half: ``repro lint --app kv`` proves the partition."""

    def test_traced_clean_and_parser_blind(self):
        results = lint_app("kv", with_trace=True)
        report = format_report(results)
        assert all(r.findings == [] for r in results), report
        parser = next(r for r in results if r.spec.name == "parser")
        touched = {m[0] for m in parser.static.mem}
        assert "kv-store" not in touched
        assert "kv-meta" not in touched
