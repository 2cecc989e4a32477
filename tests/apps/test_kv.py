"""Functional tests for the kv/cache tier (tentpole of the kv PR).

Protocol parsing, the three cache policies, deterministic TTLs on the
cost-model clock, eviction at capacity in both recency modes, wire
parity between the partitioned server and the monolithic contrast, and
the concurrent mode the httpd cache-aside clients require.
"""

import pytest

from repro.apps.kv import (KvClient, KvServer, MonolithicKv, client,
                           server, store)
from repro.apps.kv.server import (CACHE_ASIDE, WRITE_BEHIND,
                                  WRITE_THROUGH, format_reply,
                                  parse_command)
from repro.core.errors import ConnectionShed, WedgeError
from repro.core.kernel import Kernel
from repro.net import Network

NEVER = 10 ** 12     # a TTL (in model cycles) no test session outlives


@pytest.fixture
def kv(request, network):
    """A KvServer parameterized indirectly via ``request.param``."""
    kwargs = getattr(request, "param", {})
    srv = KvServer(network, f"kv-{request.node.name}:9090",
                   **kwargs).start()
    yield srv
    srv.stop()


def client_for(srv, name="kv-test-client"):
    kernel = Kernel(net=srv.network, name=name)
    kernel.start_main()
    return KvClient(kernel, srv.addr)


# -- wire protocol -----------------------------------------------------------

class TestProtocol:
    @pytest.mark.parametrize("line,expected", [
        (b"GET alpha", {"op": "get", "key": b"alpha"}),
        (b"get alpha", {"op": "get", "key": b"alpha"}),
        (b"DEL alpha", {"op": "delete", "key": b"alpha"}),
        (b"SET k 0 6869", {"op": "set", "key": b"k", "ttl": 0,
                           "value": b"hi"}),
        (b"CAS k 7 61 62", {"op": "cas", "key": b"k", "ttl": 7,
                            "old": b"a", "value": b"b"}),
        (b"STAT", {"op": "stat"}),
        (b"FLUSH", {"op": "flush"}),
        (b"SET k %d 6869" % store.MAX_TTL,       # the bound is inclusive
         {"op": "set", "key": b"k", "ttl": store.MAX_TTL, "value": b"hi"}),
    ])
    def test_valid_commands(self, line, expected):
        op, err = parse_command(line)
        assert err is None
        assert op == expected

    @pytest.mark.parametrize("line", [
        b"", b"NOPE", b"GET", b"GET a b", b"SET k 0",
        b"SET k -1 6869",                    # negative ttl
        b"SET k x 6869",                     # non-numeric ttl
        b"SET k %d 6869" % (store.MAX_TTL + 1),      # ttl past the bound
        b"SET k 18446744073709551616 6869",          # 2**64: u64 overflow
        b"CAS k %d 61 62" % (store.MAX_TTL + 1),
        b"SET k 0 686",                      # odd-length hex
        b"SET k 0 zz",                       # not hex
        b"SET " + b"k" * (store.MAX_KEY + 1) + b" 0 6869",
        b"SET k 0 " + b"61" * (store.MAX_VALUE + 1),
        b"CAS k 0 61",                       # missing new value
    ])
    def test_rejected_commands(self, line):
        op, err = parse_command(line)
        assert op is None
        assert isinstance(err, bytes) and err

    def test_format_reply_covers_every_op(self):
        assert format_reply("get", {"ok": True, "value": None}) == b"MISS"
        assert format_reply("get", {"ok": True, "value": b"hi"}) \
            == b"VALUE 6869"
        assert format_reply("set", {"ok": True}) == b"STORED"
        assert format_reply("set", {"ok": False, "shed": True}) == b"SHED"
        assert format_reply("delete", {"ok": True, "existed": True}) \
            == b"DELETED"
        assert format_reply("delete", {"ok": True, "existed": False}) \
            == b"NOTFOUND"
        assert format_reply("cas", {"ok": True, "swapped": True}) \
            == b"CASOK"
        assert format_reply("cas", {"ok": True, "swapped": False}) \
            == b"CASMISS"
        assert format_reply("flush", {"ok": True, "flushed": 3}) \
            == b"FLUSHED 3"

    def test_unknown_policy_refused(self, network):
        with pytest.raises(WedgeError):
            KvServer(network, "kv-bad:9090", policy="write-around")
        with pytest.raises(WedgeError):
            MonolithicKv(network, "kv-bad:9090", policy="write-around")


# -- basic operations over the wire ------------------------------------------

class TestBasicOps:
    def test_set_get_delete_roundtrip(self, kv):
        c = client_for(kv)
        assert c.get("alpha") is None
        assert c.set("alpha", b"payload-A")
        assert c.get("alpha") == b"payload-A"
        assert c.delete("alpha")
        assert c.get("alpha") is None
        assert not c.delete("alpha")     # already gone -> NOTFOUND

    def test_pipelined_batch_preserves_order(self, kv):
        c = client_for(kv)
        replies = c.execute([
            b"SET a 0 " + b"A1".hex().encode(),
            b"SET b 0 " + b"B2".hex().encode(),
            b"GET a", b"GET b", b"GET missing", b"BOGUS",
        ])
        assert replies == [b"STORED", b"STORED",
                           b"VALUE " + b"A1".hex().encode(),
                           b"VALUE " + b"B2".hex().encode(),
                           b"MISS", b"ERR unknown command"]

    def test_cas_swaps_only_on_match(self, kv):
        c = client_for(kv)
        assert not c.cas("k", b"old", b"new")    # absent -> CASMISS
        c.set("k", b"v1")
        assert not c.cas("k", b"wrong", b"v2")
        assert c.get("k") == b"v1"
        assert c.cas("k", b"v1", b"v2")
        assert c.get("k") == b"v2"

    def test_stat_reports_hits_and_misses(self, kv):
        c = client_for(kv)
        c.set("k", b"v")
        c.get("k")
        c.get("nope")
        stats = c.stat()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["sets"] == 1
        assert stats["entries"] == 1

    def test_preload_is_served_and_hits_leave_store_untouched(
            self, network):
        kv = KvServer(network, "kv-preload:9090",
                      preload={b"alpha": b"AAA"}).start()
        try:
            before = kv.store_bytes()
            c = client_for(kv)
            assert c.get("alpha") == b"AAA"
            assert c.get("alpha") == b"AAA"
            # a pure cache hit is not dirty: the region bytes are
            # untouched, which is what the chaos campaign's
            # byte-identity check rides on
            assert kv.store_bytes() == before
        finally:
            kv.stop()


# -- the three cache policies ------------------------------------------------

class TestPolicies:
    def test_cache_aside_never_reads_through(self, kv):
        """Default policy: the backing rows exist only via preload; a
        delete then miss stays a miss."""
        c = client_for(kv)
        c.set("k", b"v")
        c.delete("k")
        assert c.get("k") is None
        assert c.stat()["fills"] == 0

    @pytest.mark.parametrize("kv", [
        {"policy": WRITE_THROUGH, "capacity": 2}], indirect=True)
    def test_write_through_backs_every_write_and_fills_on_miss(self, kv):
        c = client_for(kv)
        c.set("a", b"AAA")
        c.set("b", b"BBB")
        c.set("c", b"CCC")               # evicts a from the cache...
        state = store.unpack_store(kv.store_bytes())
        assert (b"a", b"AAA") in state["backing"]
        assert b"a" not in [k for k, _, _ in state["cache"]]
        # ...but the backing row read-through-fills it on the next miss
        assert c.get("a") == b"AAA"
        assert c.stat()["fills"] == 1

    @pytest.mark.parametrize("kv", [
        {"policy": WRITE_THROUGH}], indirect=True)
    def test_write_through_delete_removes_the_backing_row(self, kv):
        c = client_for(kv)
        c.set("k", b"v")
        assert c.delete("k")
        assert c.get("k") is None        # no row left to fill from
        state = store.unpack_store(kv.store_bytes())
        assert state["backing"] == []

    @pytest.mark.parametrize("kv", [
        {"policy": WRITE_BEHIND, "queue_bound": 2}], indirect=True)
    def test_write_behind_sheds_at_the_bound_and_flushes(self, kv):
        c = client_for(kv)
        assert c.set("a", b"AAA")
        assert c.set("b", b"BBB")
        # the queue is at its bound: the third write degrades *typed*
        with pytest.raises(ConnectionShed):
            c.set("c", b"CCC")
        assert c.stat()["shed"] == 1
        # nothing reached the backing rows yet
        state = store.unpack_store(kv.store_bytes())
        assert state["backing"] == []
        assert len(state["queue"]) == 2
        # the flush drains the queue into the backing rows...
        assert c.flush() == 2
        state = store.unpack_store(kv.store_bytes())
        assert sorted(state["backing"]) == [(b"a", b"AAA"),
                                            (b"b", b"BBB")]
        assert state["queue"] == []
        # ...and writes are accepted again
        assert c.set("c", b"CCC")

    @pytest.mark.parametrize("kv", [
        {"policy": WRITE_BEHIND, "queue_bound": 4}], indirect=True)
    def test_write_behind_queues_deletes_too(self, kv):
        c = client_for(kv)
        c.set("k", b"v")
        c.flush()
        assert c.delete("k")
        state = store.unpack_store(kv.store_bytes())
        assert (store.Q_DEL, b"k", b"") in state["queue"]
        assert (b"k", b"v") in state["backing"]     # not yet applied
        c.flush()
        state = store.unpack_store(kv.store_bytes())
        assert state["backing"] == []


# -- deterministic TTLs ------------------------------------------------------

class TestTtl:
    def test_short_ttl_expires_on_the_cycle_clock(self, kv):
        c = client_for(kv)
        # expires one model cycle after the SET lands: any later GET is
        # past the deadline (syscalls advance the clock)
        c.set("k", b"v", ttl=1)
        assert c.get("k") is None
        assert c.stat()["entries"] == 0      # the expired entry is gone

    def test_long_ttl_survives(self, kv):
        c = client_for(kv)
        c.set("k", b"v", ttl=NEVER)
        assert c.get("k") == b"v"

    def test_zero_ttl_never_expires(self, kv):
        c = client_for(kv)
        c.set("k", b"v", ttl=0)
        state = store.unpack_store(kv.store_bytes())
        assert state["cache"] == [(b"k", b"v", 0)]

    def test_huge_ttl_is_refused_and_the_connection_lives_on(self, kv):
        """A TTL past ``MAX_TTL`` would overflow the 8-byte expiry and
        WAL fields: the parser answers ``ERR bad ttl`` and serves the
        next command on the same connection."""
        c = client_for(kv)
        replies = c.execute([b"SET k 18446744073709551616 6869",
                             b"SET k 0 6869", b"GET k"])
        assert replies == [b"ERR bad ttl", b"STORED", b"VALUE 6869"]
        assert kv.errors == []

    def test_cache_client_ttl_jitter_is_a_pure_function(self, network):
        k = Kernel(net=network, name="jitter")
        k.start_main()
        a = client.KvCacheClient(k, "kv:9090", seed=7)
        b = client.KvCacheClient(k, "kv:9090", seed=7)
        other = client.KvCacheClient(k, "kv:9090", seed=8)
        ttls = {a.ttl_for(f"/cgi/p{i}") for i in range(16)}
        assert {t - a.ttl_base for t in ttls} != {0}     # jitter engaged
        assert all(a.ttl_for(f"/cgi/p{i}") == b.ttl_for(f"/cgi/p{i}")
                   for i in range(16))
        assert any(a.ttl_for(f"/cgi/p{i}") != other.ttl_for(f"/cgi/p{i}")
                   for i in range(16))


# -- eviction at capacity ----------------------------------------------------

class TestEviction:
    @pytest.mark.parametrize("kv", [{"capacity": 2}], indirect=True)
    def test_lru_evicts_the_coldest(self, kv):
        c = client_for(kv)
        c.set("a", b"AAA")
        c.set("b", b"BBB")
        c.get("a")                       # touch: b is now the coldest
        c.set("c", b"CCC")
        assert c.get("b") is None
        assert c.get("a") == b"AAA"
        assert c.get("c") == b"CCC"
        assert c.stat()["evictions"] == 1

    @pytest.mark.parametrize("kv", [
        {"capacity": 2, "mode": store.MODE_CLOCK}], indirect=True)
    def test_clock_sweeps_reference_bits(self, kv):
        c = client_for(kv)
        c.set("a", b"AAA")
        c.set("b", b"BBB")
        # both admitted referenced: the hand clears a then b, wraps,
        # and takes a — the first entry it finds cold
        c.set("c", b"CCC")
        assert c.get("a") is None
        assert c.get("b") == b"BBB"
        assert c.stat()["evictions"] == 1

    @pytest.mark.parametrize("kv", [{"capacity": 3}], indirect=True)
    def test_capacity_is_never_exceeded(self, kv):
        c = client_for(kv)
        for i in range(10):
            c.set(f"k{i}", b"%03d" % i)
        stats = c.stat()
        assert stats["entries"] == 3
        assert stats["evictions"] == 7


# -- a full store region ----------------------------------------------------

BIG = (b"x" * store.MAX_VALUE).hex().encode()
#: under write-through each 1 KB key costs a cache row and a backing row
#: (~2 KB), so 15 fill the default 32 KB region and the 16th does not fit
FILL = [b"SET k%02d 0 %s" % (i, BIG) for i in range(15)]

BUILDS = {
    "partitioned": lambda net, addr: KvServer(
        net, addr, policy=WRITE_THROUGH),
    "durable": lambda net, addr: KvServer(
        net, addr, policy=WRITE_THROUGH, durable=True),
    "monolithic": lambda net, addr: MonolithicKv(
        net, addr, policy=WRITE_THROUGH),
}


class TestStoreFull:
    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_full_region_refuses_typed_and_keeps_serving(
            self, network, build):
        srv = BUILDS[build](network, f"kv-full-{build}:9090").start()
        try:
            c = client_for(srv)
            assert c.execute(FILL) == [b"STORED"] * len(FILL)
            before = srv.store_bytes()
            stats = dict(srv.stats)
            seq = srv.wal.seq if build == "durable" else None
            replies = c.execute([b"SET k15 0 " + BIG, b"STAT",
                                 b"GET k00"])
            assert replies[0] == b"ERR store full"
            # the same connection answers the next commands, and the
            # refused write left no trace: region, counters and log
            assert replies[1].startswith(b"STAT ")
            assert b" sets=15 " in replies[1]
            assert b" entries=15 " in replies[1]
            assert replies[2] == b"VALUE " + BIG
            assert srv.store_bytes() == before
            assert srv.stats == stats | {"hits": stats["hits"] + 1}
            if seq is not None:
                assert srv.wal.seq == seq
            assert srv.errors == []
        finally:
            srv.stop()

    def test_refusal_at_capacity_leaves_the_recency_region_alone(
            self, network):
        """At capacity the write picks a victim first.  An LRU pick only
        reads, and the held eviction calls are dropped with the write, so
        the kv-meta region is byte-identical and the victim stays."""
        srv = KvServer(network, "kv-full-cap:9090", capacity=2,
                       store_region=2048).start()
        try:
            c = client_for(srv)
            assert c.execute([b"SET a 0 61", b"SET b 0 " + BIG]) \
                == [b"STORED", b"STORED"]
            store_before = srv.store_bytes()
            meta_before = srv._meta_buf.read()
            # evicting a (the LRU entry) still leaves no room for c
            assert c.execute([b"SET c 0 " + BIG]) == [b"ERR store full"]
            assert srv.store_bytes() == store_before
            assert srv._meta_buf.read() == meta_before
            assert c.get("a") == b"a"
            assert c.stat()["evictions"] == 0
        finally:
            srv.stop()


# -- wire parity with the monolithic contrast --------------------------------

PARITY_BATCH = [
    b"SET a 0 " + b"AAA".hex().encode(),
    b"SET b 0 " + b"BBB".hex().encode(),
    b"GET a", b"GET missing",
    b"CAS a 0 " + b"AAA".hex().encode() + b" " + b"A2".hex().encode(),
    b"DEL b", b"DEL b", b"STAT", b"BOGUS", b"GET a",
]


class TestMonolithicParity:
    @pytest.mark.parametrize("policy", server.POLICIES)
    def test_same_batch_same_replies(self, network, policy):
        part = KvServer(network, "kv-par:9090", policy=policy).start()
        mono = MonolithicKv(network, "kv-mono:9090",
                            policy=policy).start()
        try:
            a = client_for(part, "par-client").execute(PARITY_BATCH)
            b = client_for(mono, "mono-client").execute(PARITY_BATCH)
            assert a == b
            # and the logical store state converged too (ttl=0
            # everywhere, so the cycle-clock difference is invisible)
            sp = store.unpack_store(part.store_bytes())
            sm = store.unpack_store(mono.store_bytes())
            assert sp == sm
        finally:
            part.stop()
            mono.stop()


# -- concurrent mode and the cache-aside adapter -----------------------------

class TestConcurrentCacheClients:
    @pytest.mark.parametrize("kv", [{"concurrent": True}], indirect=True)
    def test_two_persistent_clients_share_the_cache(self, kv):
        k1 = Kernel(net=kv.network, name="cc1")
        k1.start_main()
        k2 = Kernel(net=kv.network, name="cc2")
        k2.start_main()
        c1 = client.KvCacheClient(k1, kv.addr, seed=1)
        c2 = client.KvCacheClient(k2, kv.addr, seed=2)
        try:
            assert c1.lookup("/cgi/report") is None
            c1.store("/cgi/report", b"rendered-once")
            # the fill is visible over the *other* replica's connection
            assert c2.lookup("/cgi/report") == b"rendered-once"
            assert c1.misses == 1 and c1.hits == 0
            assert c2.hits == 1
            assert kv.connections_served == 2
        finally:
            c1.close()
            c2.close()

    def test_cache_client_fails_open_when_kv_is_down(self, network):
        k = Kernel(net=network, name="orphan")
        k.start_main()
        c = client.KvCacheClient(k, "nobody:9090", timeout=0.5)
        assert c.lookup("/cgi/x") is None     # outage == miss
        c.store("/cgi/x", b"body")            # dropped, not raised
        assert c.misses == 1
        assert c.store_errors == 1

    def test_cache_client_fails_open_when_kv_dies_mid_response(
            self, network):
        """The hard fail-open case: the kv kernel powers off *between*
        receiving a GET and finishing the reply.  The cache client must
        surface an ordinary miss — no hang, no raw PeerReset — and its
        retry-once reconnect (which lands on a dead listener) must stay
        inside the same miss."""
        from repro.core.errors import KernelDead

        armed = [False]

        def tap(kernel, name):
            if armed[0] and name == "send":
                kernel.syscall_tap = None
                kernel.kill()
                raise KernelDead("kv died mid-response",
                                 kernel=kernel.name)

        kv = KvServer(network, "kv-mid:9090", concurrent=True,
                      tap=tap).start()
        k = Kernel(net=network, name="mid-client")
        k.start_main()
        c = client.KvCacheClient(k, kv.addr, timeout=2.0)
        try:
            c.store("/cgi/r", b"cached-body")
            assert c.lookup("/cgi/r") == b"cached-body"
            armed[0] = True                  # next reply send: power off
            assert c.lookup("/cgi/r") is None
            assert c.misses == 1             # the outage, counted a miss
            # a replacement kv at the same address is picked up by the
            # lazy reconnect — no client-side state to reset
            fresh = KvServer(network, kv.addr, concurrent=True).start()
            try:
                assert c.lookup("/cgi/r") is None    # cold cache: miss
                c.store("/cgi/r", b"refilled")
                assert c.lookup("/cgi/r") == b"refilled"
            finally:
                fresh.stop()
        finally:
            c.close()
            k.kill()
            if kv.kernel.alive:
                kv.stop()
