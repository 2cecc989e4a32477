"""The shipped crypto against the loop implementations it replaced.

``StreamCipher.process``, ``hmac_sha256`` and ``constant_time_eq`` run
on the standard library (one big-integer XOR, ``hmac.digest``,
``hmac.compare_digest``).  The per-byte loops below are the code the
repository first shipped; every output of the shipped functions must
equal theirs byte for byte, for every key, nonce, message and stream
position — and the record layer built on them must still round-trip
and still reject a tampered MAC.
"""

import hashlib
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import MacFailure
from repro.crypto import StreamCipher, hmac_sha256
from repro.crypto.mac import DIGEST_SIZE, constant_time_eq
from repro.tls import records

# -- the reference implementations -------------------------------------------

REF_BLOCK = 32          # SHA-256 digest: one keystream block
REF_HMAC_BLOCK = 64     # SHA-256 input block


class RefStreamCipher:
    """Counter-mode SHA-256 keystream, XORed one byte at a time."""

    def __init__(self, key, nonce=b""):
        self._key = bytes(key)
        self._nonce = bytes(nonce)
        self._offset = 0

    def _keystream(self, offset, length):
        out = bytearray()
        block_index = offset // REF_BLOCK
        skip = offset % REF_BLOCK
        while len(out) < skip + length:
            block = hashlib.sha256(
                self._key + self._nonce +
                struct.pack(">Q", block_index)).digest()
            out += block
            block_index += 1
        return bytes(out[skip:skip + length])

    def process(self, data):
        ks = self._keystream(self._offset, len(data))
        self._offset += len(data)
        return bytes(a ^ b for a, b in zip(data, ks))


def ref_hmac_sha256(key, message):
    """RFC 2104 HMAC with ipad/opad built byte by byte."""
    if len(key) > REF_HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(REF_HMAC_BLOCK, b"\x00")
    ipad = bytes(b ^ 0x36 for b in key)
    opad = bytes(b ^ 0x5C for b in key)
    inner = hashlib.sha256(ipad + message).digest()
    return hashlib.sha256(opad + inner).digest()


def ref_constant_time_eq(a, b):
    """Length-then-accumulate comparison."""
    if len(a) != len(b):
        return False
    acc = 0
    for x, y in zip(a, b):
        acc |= x ^ y
    return acc == 0


# -- strategies ----------------------------------------------------------------

# keys cross HMAC's 64-byte block (padded below it, hashed above it)
keys = st.binary(min_size=0, max_size=100)
nonces = st.sampled_from([0, 8]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))


@st.composite
def messages(draw, max_size=20 * 1024):
    """0-20 KB: a drawn length filled from a drawn seed, so long
    messages are as likely as short ones."""
    size = draw(st.integers(0, max_size))
    return random.Random(draw(st.integers(0, 2 ** 32))).randbytes(size)


# -- the stream cipher -----------------------------------------------------------

@given(keys, nonces, messages())
@settings(max_examples=60, deadline=None)
def test_process_matches_reference(key, nonce, message):
    assert StreamCipher(key, nonce).process(message) == \
        RefStreamCipher(key, nonce).process(message)


@given(keys, nonces, messages(),
       st.lists(st.integers(0, 20 * 1024), min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_split_stream_matches_reference(key, nonce, message, cuts):
    """One message through several ``process`` calls, cut anywhere:
    the running offset resumes mid-block exactly as the loop did."""
    points = sorted({c % (len(message) + 1) for c in cuts})
    shipped, ref = StreamCipher(key, nonce), RefStreamCipher(key, nonce)
    pieces, start = [], 0
    for end in points + [len(message)]:
        chunk = message[start:end]
        out = shipped.process(chunk)
        assert out == ref.process(chunk)
        pieces.append(out)
        start = end
    assert b"".join(pieces) == StreamCipher(key, nonce).process(message)


def test_split_points_off_block_boundaries():
    message = bytes(range(256)) * 20
    shipped, ref = StreamCipher(b"k" * 32, b"n" * 8), \
        RefStreamCipher(b"k" * 32, b"n" * 8)
    start = 0
    for end in (1, 31, 33, 95, 1000, 4097, len(message)):
        chunk = message[start:end]
        assert shipped.process(chunk) == ref.process(chunk)
        start = end
    # an empty call mid-block moves nothing
    assert shipped.process(b"") == ref.process(b"") == b""
    assert shipped.encrypt(b"tail") == ref.process(b"tail")


# -- HMAC and the comparison -------------------------------------------------------

@given(keys, messages(max_size=4096))
@settings(max_examples=100, deadline=None)
def test_hmac_matches_reference(key, message):
    digest = hmac_sha256(key, message)
    assert isinstance(digest, bytes) and len(digest) == DIGEST_SIZE
    assert digest == ref_hmac_sha256(key, message)


@pytest.mark.parametrize("size", [0, 1, 63, 64, 65, 100])
def test_hmac_block_edges(size):
    key = bytes(range(size))
    assert hmac_sha256(key, b"msg") == ref_hmac_sha256(key, b"msg")


@given(st.binary(max_size=64), st.binary(max_size=64))
@settings(max_examples=150, deadline=None)
def test_compare_matches_reference(a, b):
    assert constant_time_eq(a, b) is ref_constant_time_eq(a, b)
    assert constant_time_eq(a, a) is ref_constant_time_eq(a, a) is True


@given(st.binary(min_size=1, max_size=64), st.integers(0, 63),
       st.integers(1, 255))
@settings(max_examples=100, deadline=None)
def test_compare_equal_length_mismatch(a, position, flip):
    b = bytearray(a)
    b[position % len(a)] ^= flip
    assert constant_time_eq(a, bytes(b)) is False
    assert ref_constant_time_eq(a, bytes(b)) is False
    # unequal lengths: a prefix is never equal
    assert constant_time_eq(a, a[:-1]) is ref_constant_time_eq(a, a[:-1])


# -- the record layer on top ---------------------------------------------------------

def ref_seal_record(enc_key, mac_key, seq, rtype, payload):
    mac = ref_hmac_sha256(mac_key, records._mac_input(seq, rtype, payload))
    return RefStreamCipher(enc_key, seq.to_bytes(8, "big")).process(
        payload + mac)


@given(keys, keys, st.integers(0, 2 ** 64 - 1),
       st.sampled_from([records.RT_APPDATA, records.RT_HANDSHAKE]),
       messages(max_size=17 * 1024))
@settings(max_examples=40, deadline=None)
def test_seal_open_roundtrip_matches_reference(enc, mac, seq, rtype,
                                               payload):
    wire = records.seal_record(enc, mac, seq, rtype, payload)
    assert wire == ref_seal_record(enc, mac, seq, rtype, payload)
    assert records.open_record(enc, mac, seq, rtype, wire) == payload


@given(messages(max_size=2048), st.integers(0, DIGEST_SIZE - 1),
       st.integers(1, 255))
@settings(max_examples=60, deadline=None)
def test_flipped_mac_byte_raises(payload, position, flip):
    enc, mac = b"e" * 32, b"m" * 32
    wire = bytearray(records.seal_record(enc, mac, 7, records.RT_APPDATA,
                                         payload))
    wire[len(payload) + position] ^= flip
    with pytest.raises(MacFailure):
        records.open_record(enc, mac, 7, records.RT_APPDATA, bytes(wire))
