"""HMAC-SHA256 and a constant-time comparison, from the standard library.

The record layer MACs every record (paper section 5.1.2: "data injected
by the attacker will be rejected ... because the MAC will fail"), and the
TLS-style PRF is built from this HMAC.  ``hmac.digest`` is RFC 2104 over
SHA-256.
"""

from __future__ import annotations

import hmac

DIGEST_SIZE = 32


def hmac_sha256(key, message):
    """RFC 2104 HMAC over SHA-256."""
    return hmac.digest(key, message, "sha256")


def constant_time_eq(a, b):
    """Constant-time comparison (no early exit on a mismatch)."""
    return hmac.compare_digest(a, b)
