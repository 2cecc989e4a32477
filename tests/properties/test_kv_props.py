"""Property tests for the kv tier (the eviction/codec satellite).

Five claims:

* the command parser and both region codecs are *total* — arbitrary
  bytes produce a typed result or a typed error, never a stray Python
  exception, and well-formed states round-trip exactly;
* the shipped region codecs write and read exactly the bytes of the
  reference loop codec below (the one the kv tier first shipped), at
  every protocol limit, and fail with the same typed errors;
* the eviction algebra behaves identically whether the metadata lives
  in a python dict (the oracle) or round-trips through the ``kv-meta``
  codec on every step (the gate's whole-region read/write discipline) —
  the plumbing preserves the algorithm;
* the write-behind queue never exceeds its bound: past it, writes shed
  *typed* instead of growing the region;
* the server is deterministic: the partitioned and monolithic builds
  answer seeded workloads reply-for-reply alike, and two identical
  seeded runs leave byte-identical store regions (TTLs included —
  they are priced off the model clock, not wall time).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.kv import KvClient, KvServer, MonolithicKv, store
from repro.apps.kv.server import WRITE_BEHIND, apply_op, parse_command
from repro.core.errors import WedgeError
from repro.core.kernel import Kernel
from repro.net import Network

KEYS = [b"k%d" % i for i in range(6)]

keys = st.sampled_from(KEYS)
values = st.binary(min_size=0, max_size=16)

META_REGION = 4096
STORE_REGION = 1 << 15

# the protocol limits: any key and value the parser accepts, any u64
wire_keys = st.binary(min_size=1, max_size=store.MAX_KEY)
wire_values = st.binary(min_size=0, max_size=store.MAX_VALUE)
u64s = st.integers(0, 2 ** 64 - 1)


# -- the reference codec -----------------------------------------------------
#
# The loop codec the kv tier first shipped: one helper call per field.
# The shipped codec must match it byte for byte.

def _ref_pack_bytes(out, blob):
    if len(blob) > 0xFFFF:
        raise WedgeError("kv codec: blob too long")
    out += len(blob).to_bytes(2, "big") + blob


def _ref_unpack_bytes(blob, off):
    n = int.from_bytes(blob[off:off + 2], "big")
    off += 2
    return bytes(blob[off:off + n]), off + n


def _ref_pack_u64(out, value):
    out += int(value).to_bytes(8, "big")


def _ref_unpack_u64(blob, off):
    return int.from_bytes(blob[off:off + 8], "big"), off + 8


def _ref_pad(out, region_len):
    if len(out) > region_len:
        raise WedgeError(
            f"kv region overflow: {len(out)} > {region_len} bytes")
    return bytes(out) + b"\x00" * (region_len - len(out))


def ref_pack_store(state, region_len):
    out = bytearray(b"KVS1")
    out += len(state["cache"]).to_bytes(2, "big")
    for key, value, expires in state["cache"]:
        _ref_pack_bytes(out, key)
        _ref_pack_bytes(out, value)
        _ref_pack_u64(out, expires)
    out += len(state["queue"]).to_bytes(2, "big")
    for kind, key, value in state["queue"]:
        out.append(kind)
        _ref_pack_bytes(out, key)
        _ref_pack_bytes(out, value)
    out += len(state["backing"]).to_bytes(2, "big")
    for key, value in state["backing"]:
        _ref_pack_bytes(out, key)
        _ref_pack_bytes(out, value)
    return _ref_pad(out, region_len)


def ref_unpack_store(blob):
    blob = bytes(blob)
    if blob[:4] != b"KVS1":
        raise WedgeError("kv-store region is corrupt (bad magic)")
    off = 4
    state = store.empty_store()
    n = int.from_bytes(blob[off:off + 2], "big")
    off += 2
    for _ in range(n):
        key, off = _ref_unpack_bytes(blob, off)
        value, off = _ref_unpack_bytes(blob, off)
        expires, off = _ref_unpack_u64(blob, off)
        state["cache"].append((key, value, expires))
    n = int.from_bytes(blob[off:off + 2], "big")
    off += 2
    for _ in range(n):
        kind = blob[off]
        off += 1
        key, off = _ref_unpack_bytes(blob, off)
        value, off = _ref_unpack_bytes(blob, off)
        state["queue"].append((kind, key, value))
    n = int.from_bytes(blob[off:off + 2], "big")
    off += 2
    for _ in range(n):
        key, off = _ref_unpack_bytes(blob, off)
        value, off = _ref_unpack_bytes(blob, off)
        state["backing"].append((key, value))
    return state


def ref_pack_meta(state, region_len):
    out = bytearray(b"KVM1")
    out.append(store.MODES.index(state["mode"]))
    _ref_pack_u64(out, state["counter"])
    _ref_pack_u64(out, state["hand"])
    out += len(state["order"]).to_bytes(2, "big")
    for key in state["order"]:
        _ref_pack_bytes(out, key)
        _ref_pack_u64(out, state["entries"][key])
    return _ref_pad(out, region_len)


def ref_unpack_meta(blob):
    blob = bytes(blob)
    if blob[:4] != b"KVM1":
        raise WedgeError("kv-meta region is corrupt (bad magic)")
    off = 4
    mode = store.MODES[blob[off]]
    off += 1
    counter, off = _ref_unpack_u64(blob, off)
    hand, off = _ref_unpack_u64(blob, off)
    n = int.from_bytes(blob[off:off + 2], "big")
    off += 2
    order = []
    entries = {}
    for _ in range(n):
        key, off = _ref_unpack_bytes(blob, off)
        stamp, off = _ref_unpack_u64(blob, off)
        order.append(key)
        entries[key] = stamp
    return {"mode": mode, "counter": counter, "hand": hand,
            "order": order, "entries": entries}


def _same_error(shipped, reference, *args):
    """Both codecs refuse *args* with the same typed error."""
    with pytest.raises(WedgeError) as got:
        shipped(*args)
    with pytest.raises(WedgeError) as want:
        reference(*args)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# -- totality and codec round-trips ------------------------------------------

@given(st.binary(max_size=200))
@settings(max_examples=200, deadline=None)
def test_parse_command_is_total(data):
    op, err = parse_command(data)
    assert (op is None) != (err is None)


@given(st.lists(st.tuples(wire_keys, wire_values, u64s), max_size=8),
       st.lists(st.tuples(st.sampled_from([store.Q_SET, store.Q_DEL]),
                          wire_keys, wire_values), max_size=8),
       st.lists(st.tuples(wire_keys, wire_values), max_size=8))
@settings(max_examples=100, deadline=None)
def test_store_codec_roundtrips(cache, queue, backing):
    state = {"cache": cache, "queue": queue, "backing": backing}
    blob = store.pack_store(state, STORE_REGION)
    assert len(blob) == STORE_REGION
    assert blob == ref_pack_store(state, STORE_REGION)
    assert store.unpack_store(blob) == ref_unpack_store(blob) == state
    assert store.unpack_store(bytearray(blob)) == state
    # the region boundary: an exact fit packs, one byte less overflows
    used = (10 + sum(12 + len(k) + len(v) for k, v, _ in cache)
            + sum(5 + len(k) + len(v) for _, k, v in queue)
            + sum(4 + len(k) + len(v) for k, v in backing))
    assert store.pack_store(state, used) == blob[:used]
    assert store.unpack_store(blob[:used]) == state
    _same_error(store.pack_store, ref_pack_store, state, used - 1)
    _same_error(store.unpack_store, ref_unpack_store, b"KVM1" + blob[4:])


@given(st.sampled_from(store.MODES),
       st.lists(st.tuples(wire_keys, u64s),
                max_size=16, unique_by=lambda kv: kv[0]),
       u64s, u64s)
@settings(max_examples=100, deadline=None)
def test_meta_codec_roundtrips(mode, rows, counter, hand):
    state = {"mode": mode, "counter": counter, "hand": hand,
             "order": [k for k, _ in rows],
             "entries": dict(rows)}
    blob = store.pack_meta(state, META_REGION)
    assert blob == ref_pack_meta(state, META_REGION)
    assert store.unpack_meta(blob) == ref_unpack_meta(blob) == state
    used = 23 + sum(10 + len(k) for k, _ in rows)
    assert store.pack_meta(state, used) == blob[:used]
    assert store.unpack_meta(blob[:used]) == state
    _same_error(store.pack_meta, ref_pack_meta, state, used - 1)
    _same_error(store.unpack_meta, ref_unpack_meta, b"KVS1" + blob[4:])


# -- the eviction algebra under gate plumbing --------------------------------

evict_steps = st.lists(
    st.tuples(st.sampled_from(["admit", "touch", "remove", "pick",
                               "reset"]),
              keys),
    min_size=1, max_size=40)


class _PackedMeta:
    """The gate's discipline: every step round-trips the region codec."""

    def __init__(self, mode):
        self.blob = store.pack_meta(store.empty_meta(mode), META_REGION)

    def step(self, action, key):
        state = store.unpack_meta(self.blob)
        victim = None
        if action == "admit":
            store.meta_admit(state, key)
        elif action == "touch":
            store.meta_touch(state, key)
        elif action == "remove":
            store.meta_remove(state, key)
        elif action == "pick":
            victim = store.meta_pick(state)
        else:
            store.meta_reset(state)
        self.blob = store.pack_meta(state, META_REGION)
        return victim


@given(st.sampled_from(store.MODES), evict_steps)
@settings(max_examples=150, deadline=None)
def test_codec_roundtrip_preserves_the_eviction_algorithm(mode, steps):
    oracle = store.EvictionOracle(mode)
    packed = _PackedMeta(mode)
    for action, key in steps:
        if action == "pick":
            expected = oracle.pick()
        else:
            getattr(oracle, action)(*([] if action == "reset" else [key]))
            expected = None
        assert packed.step(action, key) == expected
    assert packed.blob == store.pack_meta(oracle.state, META_REGION)


@given(evict_steps)
@settings(max_examples=100, deadline=None)
def test_lru_pick_matches_a_recency_list_model(steps):
    """LRU stamps against the obvious model: a list ordered by last
    touch, victim = its head."""
    oracle = store.EvictionOracle(store.MODE_LRU)
    recency = []
    for action, key in steps:
        if action == "pick":
            assert oracle.pick() == (recency[0] if recency else None)
        elif action in ("admit", "touch"):
            getattr(oracle, action)(key)
            if key in recency:
                recency.remove(key)
            recency.append(key)
        elif action == "remove":
            oracle.remove(key)
            if key in recency:
                recency.remove(key)
        else:
            oracle.reset()
            recency = []


@given(st.lists(st.tuples(keys, st.booleans()), max_size=30))
@settings(max_examples=100, deadline=None)
def test_clock_pick_always_lands_on_a_cleared_bit(tracked):
    """Whatever reference pattern precedes it, the clock victim is a
    tracked key whose bit the sweep observed cold."""
    oracle = store.EvictionOracle(store.MODE_CLOCK)
    for key, touch_again in tracked:
        oracle.admit(key)
        if touch_again:
            oracle.touch(key)
    victim = oracle.pick()
    if not oracle.state["order"]:
        assert victim is None
    else:
        assert victim in oracle.state["order"]
        assert oracle.state["entries"][victim] == 0


# -- the write-behind bound --------------------------------------------------

wb_ops = st.lists(
    st.one_of(
        st.tuples(st.just("set"), keys, values),
        st.tuples(st.just("delete"), keys, st.just(b"")),
        st.tuples(st.just("get"), keys, st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    min_size=1, max_size=60)


@given(wb_ops, st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_write_behind_queue_never_exceeds_its_bound(ops, bound):
    state = store.empty_store()
    oracle = store.EvictionOracle()
    stats = {k: 0 for k in ("hits", "misses", "fills", "sets", "deletes",
                            "evictions", "shed", "flushes")}

    def evict(action, key=None):
        if action == "pick":
            return oracle.pick()
        getattr(oracle, action)(key)
        return None

    for now, (kind, key, value) in enumerate(ops):
        op = {"op": kind, "key": key}
        if kind == "set":
            op.update(ttl=0, value=value)
        elif kind == "flush":
            op = {"op": "flush"}
        at_bound = len(state["queue"]) >= bound
        reply, _ = apply_op(state, evict, op, policy=WRITE_BEHIND,
                            capacity=8, queue_bound=bound, stats=stats,
                            now=now)
        assert len(state["queue"]) <= bound
        if kind in ("set", "delete"):
            # the shed is exact: refused iff the queue was at the bound
            assert bool(reply.get("shed")) == at_bound
    assert stats["shed"] + stats["sets"] + stats["deletes"] \
        == sum(1 for kind, _, _ in ops if kind in ("set", "delete"))


# -- server-level determinism ------------------------------------------------

def _workload(seed, ttl=0):
    """A seeded batch of command lines (CAS included, hex-armoured)."""
    rng = random.Random(seed)
    lines = []
    for _ in range(40):
        key = rng.choice(KEYS)
        roll = rng.random()
        if roll < 0.4:
            value = bytes([rng.randrange(256) for _ in range(4)])
            lines.append(b"SET %s %d %s" % (key, ttl,
                                            value.hex().encode()))
        elif roll < 0.7:
            lines.append(b"GET " + key)
        elif roll < 0.8:
            lines.append(b"DEL " + key)
        elif roll < 0.9:
            old = bytes([rng.randrange(256) for _ in range(4)])
            new = bytes([rng.randrange(256) for _ in range(4)])
            lines.append(b"CAS %s %d %s %s" % (
                key, ttl, old.hex().encode(), new.hex().encode()))
        elif roll < 0.95:
            lines.append(b"STAT")
        else:
            lines.append(b"FLUSH")
    return lines


def _run(factory, batches):
    srv = factory().start()
    try:
        kernel = Kernel(net=srv.network, name="prop-client")
        kernel.start_main()
        client = KvClient(kernel, srv.addr)
        replies = [client.execute(batch) for batch in batches]
        return replies, srv.store_bytes()
    finally:
        srv.stop()


class TestSeededDifferential:
    def test_partitioned_and_monolithic_agree(self):
        """Reply-for-reply parity on seeded workloads, both recency
        modes.  ttl=0 keeps the two builds' cycle clocks (which differ:
        gate hops cost cycles) out of the semantics."""
        for mode in store.MODES:
            batches = [_workload(seed) for seed in (1, 2, 3)]
            part = _run(lambda: KvServer(
                Network(), "prop-kv:9090", mode=mode, capacity=4),
                batches)
            mono = _run(lambda: MonolithicKv(
                Network(), "prop-kvm:9090", mode=mode, capacity=4),
                batches)
            assert part[0] == mono[0], f"replies diverged under {mode}"
            assert store.unpack_store(part[1]) \
                == store.unpack_store(mono[1])

    def test_identical_seeded_runs_are_byte_identical(self):
        """Reruns reproduce exactly — replies *and* region bytes — even
        with nonzero TTLs, because expiry is priced off the
        deterministic cost model, not wall time."""
        batches = [_workload(seed, ttl=10 ** 9) for seed in (1, 2)]
        first = _run(lambda: KvServer(Network(), "prop-det:9090"),
                     batches)
        second = _run(lambda: KvServer(Network(), "prop-det:9090"),
                      batches)
        assert first[0] == second[0]
        assert first[1] == second[1]     # byte-identical kv-store region
