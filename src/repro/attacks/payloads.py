"""Reusable exploit payloads for the paper's attack scenarios.

Each payload is attacker code that runs inside a hijacked compartment
(see :mod:`repro.attacks.exploit`).  Payloads reuse the compartment's own
driver objects to keep the protocol flowing — the simulation's equivalent
of return-to-own-code shellcode — and record whatever they can steal in
the campaign :class:`~repro.attacks.exploit.Loot`.

The same payload attacked at the same point in the protocol succeeds or
fails purely on the compartment's privileges, which is the paper's
thesis:

=============================  =======================================
Partitioning                   ``steal_session_key`` outcome
=============================  =======================================
monolithic                     private key AND session key stolen
Figure 2 (simple)              session key stolen (gate returns it);
                               private key out of reach
Figures 3-5 (mitm)             nothing: key unreadable, gates give one
                               boolean, no oracle
=============================  =======================================
"""

from __future__ import annotations

from repro.attacks.exploit import registry
from repro.core.errors import WedgeError
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.primes import int_to_bytes
from repro.tls.handshake import HS_CLIENT_HELLO, parse_handshake

PAYLOAD_STEAL_PRIVATE_KEY = "steal-private-key"
PAYLOAD_STEAL_SESSION_KEY = "steal-session-key"
PAYLOAD_PROBE_FINE_PARTITION = "probe-fine-partition"
PAYLOAD_HANDLER_LEAK = "handler-leak"


def _original_hello(api):
    """The hello the legitimate client actually sent.

    In the MITM campaign the attacker rewrites the hello on the wire and
    embeds the *original* bytes in the blob (``api.data``), so the
    hijacked compartment can keep the client's transcript consistent.  In
    a direct attack the attacker is the client: its own hello (in the
    context) is the original.
    """
    if api.data:
        body = api.data
    else:
        body = api.context["hello_bytes"]
    return parse_handshake(body, expect=HS_CLIENT_HELLO), body


@registry.register(PAYLOAD_STEAL_PRIVATE_KEY)
def steal_private_key(api):
    """Sweep the compartment's readable memory for the RSA private key.

    The attacker knows the server's *public* modulus from the
    certificate, so it scans for the modulus bytes and parses the
    serialised private key around the hit — exactly what real memory
    disclosure exploits do with key material.
    """
    pub = RsaPublicKey.from_bytes(api.context.get("pub_bytes")
                                  or api.data)
    needle = int_to_bytes(pub.n)
    hits = api.scan_all_memory(needle)
    for seg_name, offset in hits:
        for seg in api.kernel.space.segments():
            if seg.name != seg_name:
                continue
            start = max(0, offset - 2)
            blob = api.try_read(seg.base + start,
                                min(seg.size - start, 4096),
                                what=f"key bytes in {seg_name!r}")
            if blob is None:
                continue
            try:
                key = RsaPrivateKey.from_bytes(blob)
            except WedgeError:
                continue
            if key.n == pub.n:
                api.loot.grab("private_key", key.to_bytes())
                return
    api.loot.denied("private key", WedgeError("modulus not found in any "
                                              "readable segment"))


@registry.register(PAYLOAD_STEAL_SESSION_KEY)
def steal_session_key(api):
    """Finish the handshake from inside the hijacked worker; steal the
    session key if the compartment can see it; exfiltrate it.

    Against Figure 2 the driver *returns* the master secret (the gate
    hands it to the worker), so this succeeds.  Against Figures 3-5 the
    driver returns ``None`` — the key exists only in a tag this
    compartment does not map — and the read attempt faults.
    """
    driver = api.context["driver"]
    hello, hello_bytes = _original_hello(api)
    master = driver.complete(hello, hello_bytes)
    if master is not None:
        api.loot.grab("session_master", master)
        api.exfiltrate(api.context["fd"], master)
        return
    # Figures 3-5: probe for the key anyway
    state_addr = api.context.get("state_addr")
    if state_addr is not None:
        stolen = api.try_read(state_addr, 48, what="session key tag")
        if stolen is not None:
            api.loot.grab("session_master", stolen)
            api.exfiltrate(api.context["fd"], stolen)


@registry.register(PAYLOAD_PROBE_FINE_PARTITION)
def probe_fine_partition(api):
    """Everything an attacker can try from a hijacked ssl_handshake
    sthread under the Figures 3-5 partitioning — the paper's claim is
    that none of it yields the session key or an oracle.
    """
    kernel = api.kernel
    gates = api.context["gates"]
    state_addr = api.context["state_addr"]
    finished_addr = api.context["finished_addr"]
    driver = api.context["driver"]

    # 1. complete the handshake so the session (and the key) exists
    hello, hello_bytes = _original_hello(api)
    driver.complete(hello, hello_bytes)

    # 2. direct read of the session key tag -> protection violation
    stolen = api.try_read(state_addr, 48, what="session key tag")
    if stolen is not None:
        api.loot.grab("session_master", stolen)
        api.exfiltrate(api.context["fd"], stolen)

    # 3. the finished-state tag is equally unreachable
    fin = api.try_read(finished_addr, 32, what="finished_state tag")
    if fin is not None:
        api.loot.grab("finished_state", fin)

    # 4. try receive_finished as a decryption oracle: feed it ciphertext;
    #    it returns only ok=False — record what came back
    probe = driver._gate_arg(wire=b"\x00" * 64,
                             transcript_hash=b"\x00" * 32)
    reply = api.try_cgate(gates["receive_finished_gate"], None, probe,
                          what="decryption oracle")
    if reply is not None:
        api.loot.grab("oracle_reply", tuple(sorted(reply.items())))

    # 5. try send_finished as an encryption oracle: it takes no payload,
    #    so there is nothing to encrypt on the attacker's behalf
    reply = api.try_cgate(gates["send_finished_gate"], None,
                          driver._gate_arg(), what="encryption oracle")
    if reply is not None:
        api.loot.grab("send_finished_bytes", reply.get("wire"))

    # 6. sweep every segment for the handshake-done flag byte pattern;
    #    the sweep itself shows how little of the machine this
    #    compartment can map (the denials land in the loot)
    hits = api.scan_all_memory(b"\x03")
    api.loot.grab("scan_hits", hits)


PAYLOAD_KV_STORE_THIEF = "kv-store-thief"
PAYLOAD_CGI_RESIDUE = "cgi-residue"


@registry.register(PAYLOAD_KV_STORE_THIEF)
def kv_store_thief(api):
    """Everything a hijacked kv command parser can try.

    ================   ===========  ==========================
    loot / probe       kv-mono      kv (wedge)
    ================   ===========  ==========================
    store sweep        whole store  denied (tag unmapped)
    kv-store/kv-meta   n/a*         denied (both tags refused)
    eviction gate      n/a*         denied (id not delegated)
    raw client write   succeeds     denied (fd grant read-only)
    ================   ===========  ==========================

    (* the monolithic build has no tags or gates to probe — the sweep
    already yields the whole store from main's heap.)

    ``api.data`` carries a value the attacker knows is stored (its own
    earlier ``SET``, or a leaked fragment) as the sweep needle.
    """
    kernel = api.kernel
    needle = api.data or b"wedge"
    api.loot.grab("store_hits", api.scan_all_memory(needle))
    denied = []
    for seg in kernel.space.segments():
        if seg.name in ("kv-store", "kv-meta"):
            if api.try_read(seg.base, 64,
                            what=f"{seg.name} tag") is None:
                denied.append(seg.name)
    api.loot.grab("denied_tags", sorted(denied))
    evict_id = api.context.get("evict_gate_id")
    if evict_id is not None:
        reply = api.try_cgate(evict_id, None, {"op": "pick"},
                              what="eviction gate")
        if reply is not None:
            api.loot.grab("evict_victim", reply.get("victim"))
    # the parser's client-fd grant is read-only end to end: raw
    # exfiltration over the socket must die in the fd table
    if api.try_send(api.context["fd"], b"OWNED\r\n",
                    what="client fd write") is not None:
        api.loot.grab("raw_client_write", True)


@registry.register(PAYLOAD_CGI_RESIDUE)
def cgi_residue(api):
    """Cross-request theft from a hijacked CGI handler.

    Disposable mode: the previous request's scratch tag was deleted on
    its way out, so the probe either faults (window unmapped) or — when
    the tag cache recycled that segment into *this* request's scratch —
    reads back freshly scrubbed zeros (paper §4.1: reuse scrubs the
    payload bytes).  Either way no residue is recoverable, and the key
    read faults.  An inline handler (the tests' monolithic contrast):
    the persistent scratch still holds the previous request's body and
    the server's RSA key sits one heap read away.

    The blob travels inside the request path, so httpd's request-line
    and hello parsers see it first; the exploit is crafted against the
    dynamic-content handler and stays inert (``NOT_ARMED``) until the
    hook that carries a ``cgi_mode`` context fires.
    """
    if api.context.get("cgi_mode") is None:
        from repro.attacks.exploit import NOT_ARMED
        return NOT_ARMED
    prev = api.context.get("prev")
    if prev is not None:
        blob = api.try_read(
            prev["addr"], prev["len"],
            what=f"previous request's scratch ({prev['tag']})")
        if blob is not None:
            # exfiltrate whatever the window held; the attack tests
            # judge whether any cross-request bytes are actually in it
            # (disposable mode: scrubbed zeros + allocator bookkeeping,
            # an inline handler: the previous request's length-prefixed
            # body)
            api.loot.grab("scratch_window", bytes(blob))
    key_buf = api.context.get("key_buf")
    if key_buf is not None:
        stolen = api.try_read(key_buf.addr, key_buf.size,
                              what="server RSA key")
        if stolen is not None:
            api.loot.grab("cgi_private_key", bytes(stolen))
    api.loot.grab("cgi_hijacked", api.context.get("cgi_mode"))


PAYLOAD_SSHD_RECON = "sshd-recon"


@registry.register(PAYLOAD_SSHD_RECON)
def sshd_recon(api):
    """Full reconnaissance from a hijacked pre-auth sshd compartment.

    Attempts every theft the paper's OpenSSH section discusses; what
    succeeds depends entirely on the architecture:

    ====================  ==========  =========  ======
    loot / probe          monolithic  privsep    wedge
    ====================  ==========  =========  ======
    host private key      stolen      scrubbed   denied (tag unmapped)
    PAM scratch residue   n/a*        stolen     denied
    username probe        leak        leak       dummy passwd
    read /etc/shadow      stolen      denied     denied (chroot+uid)
    setuid(0) directly    no-op**     denied     denied
    ====================  ==========  =========  ======

    (* the monolithic child's own heap has no residue from other
    connections; ** the monolithic child already runs as root.)
    """
    from repro.apps.sshd.pam import SCRATCH_MARKER
    from repro.crypto.dsa import DsaPrivateKey, DsaPublicKey
    from repro.core.errors import SyscallDenied, VfsError
    kernel = api.kernel

    # 1. sweep readable memory for a serialised DSA private key and
    #    check it against the advertised host public key
    host_pub = DsaPublicKey.from_bytes(api.context["host_pub_bytes"])
    for seg_name, offset in api.scan_all_memory(DsaPrivateKey.MAGIC):
        for seg in kernel.space.segments():
            if seg.name != seg_name:
                continue
            blob = api.try_read(seg.base + offset, 512,
                                what=f"host key in {seg_name!r}")
            if blob is None:
                continue
            try:
                key = DsaPrivateKey.from_bytes(blob)
            except WedgeError:
                continue
            if key.y == host_pub.y:
                api.loot.grab("host_private_key", key.to_bytes())

    # 2. sweep for PAM scratch residue (other users' passwords)
    for seg_name, offset in api.scan_all_memory(SCRATCH_MARKER):
        for seg in kernel.space.segments():
            if seg.name != seg_name:
                continue
            blob = api.try_read(seg.base + offset, 128,
                                what=f"pam residue in {seg_name!r}")
            if blob is not None:
                residue = blob.split(b"\x00")[0]
                api.loot.grab("pam_residue", residue)

    # 3. probe the user database for a username oracle
    probes = {}
    monitor = api.context.get("monitor")
    gates = api.context.get("gates")
    if monitor is not None:
        probes["alice"] = monitor.getpwnam("alice") is not None
        probes["zz-no-such-user"] = \
            monitor.getpwnam("zz-no-such-user") is not None
    elif gates is not None and "password_gate" in gates:
        for user in ("alice", "zz-no-such-user"):
            reply = api.try_cgate(gates["password_gate"], None,
                                  {"op": "getpwnam", "user": user},
                                  what="getpwnam gate")
            probes[user] = (reply is not None
                            and reply.get("passwd") is not None)
    else:
        shadow = api.context.get("shadow_reader")
        if shadow is not None:
            probes = shadow()
    if probes:
        api.loot.grab("username_probe", probes)
        api.loot.grab("username_oracle",
                      probes.get("alice") != probes.get("zz-no-such-user"))

    # 4. try to read /etc/shadow directly
    try:
        fd = kernel.open("/etc/shadow", "r")
        api.loot.grab("shadow_file", kernel.read(fd, 65536))
        kernel.close(fd)
    except (VfsError, SyscallDenied) as exc:
        api.loot.denied("/etc/shadow", exc)

    # 5. try to become root / a user without authenticating
    try:
        kernel.setuid(0)
        api.loot.grab("setuid_root", kernel.getuid() == 0)
    except (SyscallDenied, WedgeError) as exc:
        api.loot.denied("setuid(0)", exc)
    api.loot.grab("uid_after_probe", kernel.getuid())

    # 6. try the user's private file (auth bypass check)
    try:
        fd = kernel.open("/home/alice/secret.txt", "r")
        api.loot.grab("alice_secret", kernel.read(fd, 4096))
        kernel.close(fd)
    except (VfsError, SyscallDenied) as exc:
        api.loot.denied("alice's secret", exc)


@registry.register(PAYLOAD_HANDLER_LEAK)
def handler_leak(api):
    """Exploit of client_handler (requires a validly MAC'ed request, i.e.
    a malicious authenticated client).  Defense in depth: no raw network
    write, no key material — plaintext can leave only through ssl_write,
    sealed to the attacker's own session.
    """
    state_addr = api.context["state_addr"]
    stolen = api.try_read(state_addr, 48, what="session key tag")
    if stolen is not None:
        api.loot.grab("session_master", stolen)
    # raw exfiltration needs network write, which this sthread lacks
    # under the fresh-gate partitioning
    api.exfiltrate(api.context["fd"], b"handler-was-here")
    api.loot.grab("handler_hijacked", True)
