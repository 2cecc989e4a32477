"""A counter-mode stream cipher built on SHA-256.

The symmetric cipher for the TLS-like and SSH-like channels.  Keystream
block ``i`` is ``SHA256(key || nonce || i)``; encryption is XOR.  The
cipher object is *stateful* (a running byte offset), matching how a
record layer encrypts a sequence of records under one key.

Identical plaintexts at different stream positions produce different
ciphertexts; reusing a (key, nonce) pair across streams is the caller's
bug, exactly as with any CTR cipher.
"""

from __future__ import annotations

import hashlib
import struct

BLOCK = 32
_pack_index = struct.Struct(">Q").pack


class StreamCipher:
    """Stateful XOR-keystream cipher; one instance per direction."""

    def __init__(self, key, nonce=b""):
        self._key = bytes(key)
        self._nonce = bytes(nonce)
        self._offset = 0

    def _keystream(self, offset, length):
        first = offset // BLOCK
        last = (offset + length + BLOCK - 1) // BLOCK
        prefix = self._key + self._nonce
        sha256 = hashlib.sha256
        stream = b"".join([sha256(prefix + _pack_index(i)).digest()
                           for i in range(first, last)])
        skip = offset % BLOCK
        return stream[skip:skip + length]

    def process(self, data):
        """Encrypt or decrypt (XOR is symmetric) at the current offset."""
        size = len(data)
        ks = self._keystream(self._offset, size)
        self._offset += size
        return (int.from_bytes(data, "big")
                ^ int.from_bytes(ks, "big")).to_bytes(size, "big")

    # encryption and decryption are the same operation; aliases keep the
    # protocol code readable
    encrypt = process
    decrypt = process

    def clone(self):
        """Independent cipher at the same position (tests only)."""
        other = StreamCipher(self._key, self._nonce)
        other._offset = self._offset
        return other
