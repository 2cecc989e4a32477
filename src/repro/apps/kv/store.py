"""On-disk^H^Hin-region state of the kv tier, and the eviction algebra.

Two tagged regions, two owners, one codec discipline:

* ``kv-store`` (owned by the storage-engine callgate) serializes the
  cache entries, the bounded write-behind queue and the backing store
  into one flat blob.  The gate reads the region whole, mutates a
  python-side picture, and writes the region whole — the same
  whole-block idiom the lb uses for its ring, which is what lets the
  analyzer resolve every access to the single tag grant.
* ``kv-meta`` (owned by the eviction callgate, its *sole* writer)
  serializes the recency metadata: an LRU stamp table or a clock hand
  with reference bits.

Both ``pack_*`` functions pad the blob with zeros to the full region
length so the bytes in RAM are a pure function of the logical state —
that is what makes the chaos campaign's byte-identical store check
meaningful.

The eviction algebra itself (:func:`meta_admit` .. :func:`meta_pick`)
is pure python over the unpacked dict, shared verbatim between the
eviction gate and the property-test oracle: the tests then prove the
*gate plumbing* (codec round-trip, delegation, restart) preserves the
algorithm, not a reimplementation of it.
"""

from __future__ import annotations

import struct

from repro.core.errors import WedgeError

#: Protocol limits: one token key, hex-encoded values, and a TTL (in
#: model cycles) small enough that ``now + ttl`` fits the 8-byte expiry
#: and WAL fields until the model clock passes 2**63 cycles.
MAX_KEY = 64
MAX_VALUE = 1024
MAX_TTL = (1 << 63) - 1

MODE_LRU = "lru"
MODE_CLOCK = "clock"
MODES = (MODE_LRU, MODE_CLOCK)

_STORE_MAGIC = b"KVS1"
_META_MAGIC = b"KVM1"

#: Write-behind queue item kinds.
Q_SET = 1
Q_DEL = 2


# -- the codec ---------------------------------------------------------------
#
# Every gate entry decodes its whole region and every dirty one encodes
# it again, so these four functions are the kv tier's hottest code.  A
# row costs a few slices and precompiled ``struct`` reads or ``to_bytes``
# calls, never a Python helper call: the encoders collect the pieces and
# join them once, the decoders walk one offset through the blob.  The
# loop codec they replaced is kept in the property tests as the
# byte-for-byte reference.

class _LengthPrefixes(dict):
    """``n -> n.to_bytes(2, "big")``; every protocol-legal length is
    precomputed, longer blobs (a preload may hold one) are encoded on
    the spot."""

    def __missing__(self, n):
        if n > 0xFFFF:
            raise WedgeError("kv codec: blob too long")
        return n.to_bytes(2, "big")


_PREFIX = _LengthPrefixes(
    (n, n.to_bytes(2, "big")) for n in range(MAX_VALUE + 1))

_U16 = struct.Struct(">H").unpack_from
_U64 = struct.Struct(">Q").unpack_from
#: a cache row's expiry and the 2-byte length or count after it
_U64_U16 = struct.Struct(">QH").unpack_from
#: the meta counter, hand and row count
_META_HEADER = struct.Struct(">QQH").unpack_from


def _pad(body, region_len):
    if len(body) > region_len:
        raise WedgeError(
            f"kv region overflow: {len(body)} > {region_len} bytes")
    return body.ljust(region_len, b"\x00")


def _as_bytes(blob):
    # mem_read already returns bytes, which decode with no copy
    return blob if isinstance(blob, bytes) else bytes(blob)


# -- the store region --------------------------------------------------------

def empty_store():
    """The pristine store state: no cache, no queue, no backing rows."""
    return {"cache": [], "queue": [], "backing": []}


def pack_store(state, region_len):
    """Serialize ``{"cache", "queue", "backing"}`` into a padded blob.

    * cache rows are ``(key, value, expires_cycle)`` — ``expires`` of 0
      means the entry never expires;
    * queue rows are ``(Q_SET|Q_DEL, key, value)``;
    * backing rows are ``(key, value)``.

    Every key and value carries a 2-byte big-endian length, ``expires``
    is 8 bytes big-endian, and each section starts with a 2-byte row
    count.
    """
    prefix = _PREFIX
    cache, queue, backing = state["cache"], state["queue"], state["backing"]
    parts = [_STORE_MAGIC, len(cache).to_bytes(2, "big")]
    extend = parts.extend
    for key, value, expires in cache:
        extend((prefix[len(key)], key, prefix[len(value)], value,
                expires.to_bytes(8, "big")))
    parts.append(len(queue).to_bytes(2, "big"))
    for kind, key, value in queue:
        extend((bytes((kind,)), prefix[len(key)], key,
                prefix[len(value)], value))
    parts.append(len(backing).to_bytes(2, "big"))
    for key, value in backing:
        extend((prefix[len(key)], key, prefix[len(value)], value))
    return _pad(b"".join(parts), region_len)


def unpack_store(blob):
    b = _as_bytes(blob)
    if b[:4] != _STORE_MAGIC:
        raise WedgeError("kv-store region is corrupt (bad magic)")
    u16, u64_u16 = _U16, _U64_U16
    cache, queue, backing = [], [], []
    try:
        count, size = u16(b, 4)[0], u16(b, 6)[0]
        off = 6
        # *size* is the next key's length, read together with the
        # previous row's expiry; after the last row it is the queue
        # count (two counts always follow the cache rows)
        for _ in range(count):
            start = off + 2
            end = start + size
            key = b[start:end]
            start = end + 2
            off = start + u16(b, end)[0]
            expires, size = u64_u16(b, off)
            cache.append((key, b[start:off], expires))
            off += 8
        off += 2
        for _ in range(size):
            kind = b[off]
            start = off + 3
            end = start + u16(b, off + 1)[0]
            key = b[start:end]
            start = end + 2
            off = start + u16(b, end)[0]
            queue.append((kind, key, b[start:off]))
        count = u16(b, off)[0]
        off += 2
        for _ in range(count):
            start = off + 2
            end = start + u16(b, off)[0]
            key = b[start:end]
            start = end + 2
            off = start + u16(b, end)[0]
            backing.append((key, b[start:off]))
    except (IndexError, struct.error):
        raise WedgeError("kv-store region is corrupt (truncated)") from None
    return {"cache": cache, "queue": queue, "backing": backing}


# -- the metadata region -----------------------------------------------------

def empty_meta(mode=MODE_LRU):
    """Pristine recency state.

    * ``lru``: ``entries`` maps key -> last-touch stamp, ``counter`` is
      the next stamp (a logical clock — deterministic, unlike wall
      time);
    * ``clock``: ``entries`` maps key -> reference bit, ``order`` is the
      ring and ``hand`` the sweep position.
    """
    if mode not in MODES:
        raise WedgeError(f"unknown eviction mode {mode!r}")
    return {"mode": mode, "counter": 0, "hand": 0,
            "order": [], "entries": {}}


def pack_meta(state, region_len):
    """Serialize recency state: mode byte, 8-byte counter and hand, then
    ``(key, stamp)`` rows in ring order."""
    prefix = _PREFIX
    order, entries = state["order"], state["entries"]
    parts = [_META_MAGIC, bytes((MODES.index(state["mode"]),)),
             state["counter"].to_bytes(8, "big"),
             state["hand"].to_bytes(8, "big"),
             len(order).to_bytes(2, "big")]
    extend = parts.extend
    for key in order:
        extend((prefix[len(key)], key, entries[key].to_bytes(8, "big")))
    return _pad(b"".join(parts), region_len)


def unpack_meta(blob):
    b = _as_bytes(blob)
    if b[:4] != _META_MAGIC:
        raise WedgeError("kv-meta region is corrupt (bad magic)")
    u16, u64 = _U16, _U64
    order = []
    entries = {}
    try:
        mode = MODES[b[4]]
        counter, hand, count = _META_HEADER(b, 5)
        off = 23
        for _ in range(count):
            start = off + 2
            off = start + u16(b, off)[0]
            key = b[start:off]
            order.append(key)
            entries[key] = u64(b, off)[0]
            off += 8
    except (IndexError, struct.error):
        raise WedgeError(
            "kv-meta region is corrupt (bad mode or truncated)") from None
    return {"mode": mode, "counter": counter, "hand": hand,
            "order": order, "entries": entries}


# -- the eviction algebra (shared with the property-test oracle) -------------

def meta_admit(state, key):
    """A new cache entry: start tracking its recency."""
    if key in state["entries"]:
        return meta_touch(state, key)
    state["order"].append(key)
    if state["mode"] == MODE_LRU:
        state["entries"][key] = state["counter"]
        state["counter"] += 1
    else:
        state["entries"][key] = 1      # clock: admitted referenced


def meta_touch(state, key):
    """A cache hit: refresh the entry's recency."""
    if key not in state["entries"]:
        return meta_admit(state, key)
    if state["mode"] == MODE_LRU:
        state["entries"][key] = state["counter"]
        state["counter"] += 1
    else:
        state["entries"][key] = 1


def meta_remove(state, key):
    """The entry left the cache (deleted or evicted)."""
    if key not in state["entries"]:
        return
    index = state["order"].index(key)
    state["order"].pop(index)
    del state["entries"][key]
    if state["mode"] == MODE_CLOCK:
        # keep the hand pointing at the same survivor
        if index < state["hand"]:
            state["hand"] -= 1
        if state["order"]:
            state["hand"] %= len(state["order"])
        else:
            state["hand"] = 0


def meta_pick(state):
    """Choose the victim; ``None`` when nothing is tracked.

    LRU picks the smallest stamp.  Clock sweeps from the hand, clearing
    reference bits until it finds a cold entry; the hand parks just past
    the victim's slot.  Neither removes the victim — the storage engine
    confirms the eviction with an explicit ``remove``.
    """
    if not state["order"]:
        return None
    if state["mode"] == MODE_LRU:
        return min(state["order"], key=lambda k: state["entries"][k])
    while True:
        key = state["order"][state["hand"] % len(state["order"])]
        if state["entries"][key]:
            state["entries"][key] = 0
            state["hand"] = (state["hand"] + 1) % len(state["order"])
        else:
            state["hand"] = (state["hand"] + 1) % len(state["order"])
            return key


def meta_reset(state):
    """Forget everything (the store was flushed)."""
    state["order"] = []
    state["entries"] = {}
    state["counter"] = 0
    state["hand"] = 0


class EvictionOracle:
    """The reference model the property tests drive in lockstep."""

    def __init__(self, mode=MODE_LRU):
        self.state = empty_meta(mode)

    def admit(self, key):
        meta_admit(self.state, key)

    def touch(self, key):
        meta_touch(self.state, key)

    def remove(self, key):
        meta_remove(self.state, key)

    def pick(self):
        return meta_pick(self.state)

    def reset(self):
        meta_reset(self.state)
