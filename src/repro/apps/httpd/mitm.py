"""The Figures-3-5 partitioning: two-phase SSL with default-deny sthreads.

This is the paper's full defense against a man-in-the-middle who can also
exploit the network-facing code (section 5.1.2):

* A **master** (the bootstrap compartment) only starts and stops two
  sthreads per connection and enforces that they run sequentially
  (Figure 3).
* The **ssl_handshake sthread** drives the first phase.  It reads and
  writes cleartext handshake messages on the network and *causes* the
  session key to exist — via callgates — but holds no mapping for the
  session-key tag, so it can never read, write, or oracle the key:

  - ``setup_session_key`` (private-key tag: read; session tag: rw)
    generates the server random itself and writes the derived master and
    channel keys into the session tag;
  - ``receive_finished`` decrypts and verifies the client's Finished
    record, returning **only a boolean**, and stashes the extended
    transcript hash in the finished-state tag;
  - ``send_finished`` takes **no caller argument**: it builds the
    server's Finished from the finished-state tag and returns sealed
    wire bytes the sthread can only transmit.

* After the handshake sthread *exits*, the master starts the
  **client_handler sthread** (Figure 5): read-only on the socket, no key
  material, using ``ssl_read`` (decrypt+verify) and ``ssl_write``
  (encrypt+transmit; it alone holds network write — the defense-in-depth
  choice the paper highlights).

``gate_mode="recycled"`` switches all four gates to long-lived recycled
callgates sharing a session-state *pool* tag — the Table 2 "Recycled"
column, including the paper's warning: recycled gates are reused across
connections, so a hijacked caller can point them at another connection's
state (demonstrated in the security tests).
"""

from __future__ import annotations

import threading

from repro.apps.httpd import content
from repro.apps.httpd.common import STATE_SIZE, HttpdBase, SessionState
from repro.attacks.exploit import maybe_trigger_exploit
from repro.core.errors import (CallgateError, CompartmentDown,
                               HandshakeFailure, MacFailure,
                               ProtocolError, SthreadFaulted, TagError,
                               WedgeError)
from repro.core.memory import PROT_READ, PROT_RW
from repro.core.policy import (FD_READ, FD_RW, FD_WRITE, SecurityContext,
                               sc_cgate_add, sc_fd_add, sc_mem_add)
from repro.crypto.mac import constant_time_eq
from repro.crypto.prf import finished_verify_data
from repro.tls import records as tls_records
from repro.tls import server_core
from repro.tls.handshake import (HS_CLIENT_HELLO, HS_CLIENT_KEY_EXCHANGE,
                                 Certificate, Finished, ServerHello,
                                 Transcript, extend_transcript,
                                 parse_handshake)
from repro.tls.records import (RT_APPDATA, RT_CHANGE_CIPHER, RT_HANDSHAKE,
                               KernelSocketTransport)
from repro.tls.session_cache import SessionCache

FINISHED_STATE_SIZE = 32


# ---------------------------------------------------------------------------
# callgate entry points (run with elevated privilege)
# ---------------------------------------------------------------------------

def _state_from(trusted, arg):
    """Resolve the SessionState a gate should operate on.

    Fresh gates carry the per-connection state address in their trusted
    argument.  Recycled gates are long-lived and shared, so the *caller*
    names the state block inside the pool tag — the paper's isolation
    trade-off, since a hijacked caller may name another connection's
    block.  The gate validates the address lies within the pool tag at
    least, so it cannot be pointed at arbitrary memory.
    """
    kernel = trusted["kernel"]
    if "state_addr" in trusted:
        return SessionState(kernel, trusted["state_addr"])
    addr = int(arg["state_addr"])
    segment, _ = kernel.space.find(addr)
    if segment.tag_id != trusted["pool_tag_id"]:
        raise ProtocolError("state address outside the session pool")
    return SessionState(kernel, addr)


def _finished_addr(trusted, arg):
    if "finished_addr" in trusted:
        return trusted["finished_addr"]
    addr = int(arg["finished_addr"])
    kernel = trusted["kernel"]
    segment, _ = kernel.space.find(addr)
    if segment.tag_id != trusted["pool_tag_id"]:
        raise ProtocolError("finished address outside the session pool")
    return addr


def setup_session_key_gate(trusted, arg):
    """Phase-1 gate: mint randoms, decrypt premaster, derive keys.

    Unlike Figure 2's gate, the master secret is **written into the
    session tag** and never returned; the caller learns only the public
    handshake fields.
    """
    if not isinstance(arg, dict):
        raise ProtocolError("bad callgate argument")
    kernel = trusted["kernel"]
    rng = trusted["rng"]
    cache = trusted["cache"]
    state = _state_from(trusted, arg)

    if arg.get("op") == "hello":
        offered = bytes(arg.get("session_id", b""))
        server_random = server_core.gen_server_random(rng)
        client_random = bytes(arg["client_random"])
        state.write_randoms(client_random, server_random)
        cached = cache.lookup(offered)
        if cached is not None:
            keys = server_core.session_keys(cached, client_random,
                                            server_random)
            state.write_keys(cached, keys)
            return {"server_random": server_random,
                    "session_id": offered, "resumed": True}
        session_id = server_core.make_session_id(rng)
        with trusted["lock"]:
            trusted["pending"][server_random] = session_id
        return {"server_random": server_random,
                "session_id": session_id, "resumed": False}

    if arg.get("op") == "kex":
        client_random, server_random = state.read_randoms()
        with trusted["lock"]:
            session_id = trusted["pending"].pop(server_random, None)
        if session_id is None:
            raise HandshakeFailure("no pending handshake for this state")
        key_bytes = kernel.mem_read(trusted["key_addr"],
                                    trusted["key_len"])
        master = server_core.setup_master_secret(
            key_bytes, bytes(arg["epms"]), client_random, server_random)
        keys = server_core.session_keys(master, client_random,
                                        server_random)
        state.write_keys(master, keys)
        cache.store(session_id, master)
        return {"ok": True}

    raise ProtocolError(f"unknown callgate op {arg.get('op')!r}")


def receive_finished_gate(trusted, arg):
    """Verify the client's Finished; return success/failure *only*.

    An exploited handshake sthread that feeds this gate ciphertext from
    the legitimate client gets back one bit — no decryption oracle
    (paper section 5.1.2).
    """
    kernel = trusted["kernel"]
    state = _state_from(trusted, arg)
    if not state.keys_ready():
        return {"ok": False}
    if state.handshake_done():
        # single-shot interface: once the handshake is over this gate
        # refuses, so a hijacked caller cannot replay it as an oracle or
        # desynchronise the record channel
        return {"ok": False}
    keys = state.read_keys()
    seq = state.peek_recv_seq()
    transcript_hash = bytes(arg["transcript_hash"])
    try:
        verify_data = server_core.open_finished_record(
            keys, seq, bytes(arg["wire"]))
    except WedgeError:
        return {"ok": False}
    master = state.read_master()
    expected = finished_verify_data(master, "client finished",
                                    transcript_hash)
    if not constant_time_eq(expected, verify_data):
        return {"ok": False}
    state.commit_recv_seq(seq)
    # prepare the server Finished input: hash the received cleartext
    # into the transcript and stash it in finished_state — readable only
    # by this gate and send_finished
    new_hash = extend_transcript(transcript_hash,
                                 Finished(verify_data).pack())
    kernel.mem_write(_finished_addr(trusted, arg), new_hash)
    return {"ok": True}


def send_finished_gate(trusted, arg):
    """Build the server's Finished from finished_state alone.

    Takes no payload from the caller: an exploited handshake sthread
    cannot choose what this gate encrypts (non-invertibility of the
    transcript hash, paper section 5.1.2).
    """
    kernel = trusted["kernel"]
    state = _state_from(trusted, arg)
    if state.handshake_done():
        # single-shot, like receive_finished: no replays
        raise HandshakeFailure("handshake already complete")
    transcript_hash = kernel.mem_read(_finished_addr(trusted, arg),
                                      FINISHED_STATE_SIZE)
    if transcript_hash == bytes(FINISHED_STATE_SIZE):
        raise HandshakeFailure("send_finished before receive_finished")
    master = state.read_master()
    keys = state.read_keys()
    verify = server_core.make_server_finished(master, transcript_hash)
    seq = state.next_send_seq()
    wire = server_core.seal_server_finished(keys, seq, verify)
    state.mark_handshake_done()
    return {"wire": wire}


def ssl_read_gate(trusted, arg):
    """Decrypt + MAC-verify one application record for client_handler.

    Injected data fails the MAC here and never reaches further
    application code; the gate faults and the handler sees only a dead
    callgate.
    """
    state = _state_from(trusted, arg)
    keys = state.read_keys()
    seq = state.peek_recv_seq()
    payload = tls_records.open_record(
        keys["client_enc"], keys["client_mac"], seq, RT_APPDATA,
        bytes(arg["wire"]))
    state.commit_recv_seq(seq)
    return {"data": payload}


def ssl_write_gate(trusted, arg):
    """Encrypt and *transmit* one application record.

    This gate, not client_handler, holds network write: data leaves the
    machine only as ciphertext sealed here.
    """
    kernel = trusted["kernel"]
    state = _state_from(trusted, arg)
    keys = state.read_keys()
    seq = state.next_send_seq()
    wire = tls_records.seal_record(
        keys["server_enc"], keys["server_mac"], seq, RT_APPDATA,
        bytes(arg["data"]))
    fd = trusted.get("fd")
    if fd is None:
        fd = int(arg["fd"])
    kernel.send(fd, tls_records.frame(RT_APPDATA, wire))
    return {"sent": len(wire)}


# ---------------------------------------------------------------------------
# the server
# ---------------------------------------------------------------------------

class MitmPartitionHttpd(HttpdBase):
    """Figures 3-5; ``gate_mode`` picks the Wedge or Recycled column."""

    variant = "mitm"

    def __init__(self, network, addr, *, gate_mode="fresh", **kwargs):
        super().__init__(network, addr, **kwargs)
        if gate_mode not in ("fresh", "recycled"):
            raise WedgeError(f"unknown gate_mode {gate_mode!r}")
        self.gate_mode = gate_mode
        self.session_cache = SessionCache()
        key_bytes = self.private_key.to_bytes()
        self.key_tag = self.kernel.tag_new(name="rsa-private-key")
        self.key_buf = self.kernel.alloc_buf(len(key_bytes),
                                             tag=self.key_tag,
                                             init=key_bytes)
        self._shared_trusted = {
            "kernel": self.kernel,
            "rng": self.rng.fork("server-random"),
            "cache": self.session_cache,
            "pending": {},
            "lock": threading.Lock(),
            "key_addr": self.key_buf.addr,
            "key_len": self.key_buf.size,
        }
        self.handshake_sthreads = []
        self.handler_sthreads = []
        if gate_mode == "recycled":
            self._setup_recycled_gates()

    # -- recycled-mode setup (gates created once, shared pool tag) ----------

    def _setup_recycled_gates(self):
        kernel = self.kernel
        self.pool_tag = kernel.tag_new(size=16 * 4096,
                                       name="session-pool")
        trusted = dict(self._shared_trusted,
                       pool_tag_id=self.pool_tag.id)

        def gate_sc(*grants):
            sc = SecurityContext()
            for tag, prot in grants:
                sc_mem_add(sc, tag, prot)
            return sc

        self.recycled_gates = {
            "setup": kernel.create_gate(
                setup_session_key_gate,
                gate_sc((self.key_tag, PROT_READ),
                        (self.pool_tag, PROT_RW)),
                trusted, recycled=True),
            "recv_fin": kernel.create_gate(
                receive_finished_gate,
                gate_sc((self.pool_tag, PROT_RW)), trusted,
                recycled=True),
            "send_fin": kernel.create_gate(
                send_finished_gate,
                gate_sc((self.pool_tag, PROT_RW)), trusted,
                recycled=True),
            "ssl_read": kernel.create_gate(
                ssl_read_gate, gate_sc((self.pool_tag, PROT_RW)),
                trusted, recycled=True),
            "ssl_write": kernel.create_gate(
                ssl_write_gate, gate_sc((self.pool_tag, PROT_RW)),
                trusted, recycled=True),
        }

    # -- per-connection master logic (Figure 3) -------------------------------

    def handle_connection(self, conn_fd):
        n = self.connections_served
        if self.gate_mode == "fresh":
            session_tag = self.kernel.tag_new(name=f"session{n}")
            finished_tag = self.kernel.tag_new(name=f"finished{n}")
            state_buf = self.kernel.alloc_buf(STATE_SIZE, tag=session_tag,
                                              init=bytes(STATE_SIZE))
            fin_buf = self.kernel.alloc_buf(
                FINISHED_STATE_SIZE, tag=finished_tag,
                init=bytes(FINISHED_STATE_SIZE))
        else:
            session_tag = finished_tag = None
            state_buf = self.kernel.alloc_buf(STATE_SIZE,
                                              tag=self.pool_tag,
                                              init=bytes(STATE_SIZE))
            fin_buf = self.kernel.alloc_buf(
                FINISHED_STATE_SIZE, tag=self.pool_tag,
                init=bytes(FINISHED_STATE_SIZE))
        try:
            self._run_phases(conn_fd, state_buf, fin_buf, session_tag,
                             finished_tag, n)
        finally:
            if self.gate_mode == "fresh":
                # per-client tags go back to the reuse cache — the 20%
                # throughput optimisation of paper section 4.1
                self.kernel.tag_delete(session_tag)
                self.kernel.tag_delete(finished_tag)
            else:
                self.kernel.sfree(state_buf.addr)
                self.kernel.sfree(fin_buf.addr)

    def _run_phases(self, conn_fd, state_buf, fin_buf, session_tag,
                    finished_tag, n):
        # phase 1: the SSL handshake sthread
        hs_sc = self._handshake_context(conn_fd, state_buf, fin_buf,
                                        session_tag, finished_tag)
        hs = self.run_compartment(
            hs_sc, self._handshake_body,
            {"fd": conn_fd, "state_addr": state_buf.addr,
             "finished_addr": fin_buf.addr},
            name=f"ssl-handshake{n}")
        self.handshake_sthreads.append(hs)
        try:
            self.kernel.sthread_join(hs)
        except (SthreadFaulted, CompartmentDown) as exc:
            # contained: the phase-1 compartment died, the master did not
            self.errors.append(f"handshake faulted: {exc}")

        # the master starts phase 2 only after phase 1 *exited* and the
        # gates confirmed completion in memory the sthread cannot forge
        state = SessionState(self.kernel, state_buf.addr)
        if not state.handshake_done():
            return

        handler_sc = self._handler_context(conn_fd, state_buf, fin_buf,
                                           session_tag)
        handler = self.run_compartment(
            handler_sc, self._handler_body,
            {"fd": conn_fd, "state_addr": state_buf.addr},
            name=f"client-handler{n}")
        self.handler_sthreads.append(handler)
        try:
            self.kernel.sthread_join(handler)
        except (SthreadFaulted, CompartmentDown) as exc:
            self.errors.append(f"handler faulted: {exc}")

    def _handshake_context(self, conn_fd, state_buf, fin_buf, session_tag,
                           finished_tag):
        """Phase-1 policy: cleartext network, three gates, *no* keys."""
        sc = SecurityContext()
        sc_fd_add(sc, conn_fd, FD_RW)
        if self.gate_mode == "recycled":
            for name in ("setup", "recv_fin", "send_fin"):
                sc_cgate_add(sc, self.recycled_gates[name].id)
            return sc
        trusted = dict(self._shared_trusted,
                       state_addr=state_buf.addr,
                       finished_addr=fin_buf.addr)
        setup_sc = SecurityContext()
        sc_mem_add(setup_sc, self.key_tag, PROT_READ)
        sc_mem_add(setup_sc, session_tag, PROT_RW)
        sc_cgate_add(sc, setup_session_key_gate, setup_sc, trusted,
                     supervise=self.supervise)
        recv_sc = SecurityContext()
        sc_mem_add(recv_sc, session_tag, PROT_RW)
        sc_mem_add(recv_sc, finished_tag, PROT_RW)
        sc_cgate_add(sc, receive_finished_gate, recv_sc, trusted,
                     supervise=self.supervise)
        send_sc = SecurityContext()
        sc_mem_add(send_sc, session_tag, PROT_RW)
        sc_mem_add(send_sc, finished_tag, PROT_READ)
        sc_cgate_add(sc, send_finished_gate, send_sc, trusted,
                     supervise=self.supervise)
        return sc

    def _handler_context(self, conn_fd, state_buf, fin_buf, session_tag):
        """Phase-2 policy: read-only network, two gates, own scratch."""
        sc = SecurityContext()
        if self.gate_mode == "recycled":
            # recycled gates are created before any connection exists, so
            # the per-connection write descriptor must flow through the
            # caller — which therefore has to hold it.  Part of the
            # isolation recycled callgates trade for speed (paper §3.3):
            # the fresh-gate variant keeps client_handler write-free.
            sc_fd_add(sc, conn_fd, FD_RW)
            for name in ("ssl_read", "ssl_write"):
                sc_cgate_add(sc, self.recycled_gates[name].id)
            return sc
        sc_fd_add(sc, conn_fd, FD_READ)   # no write: defense in depth
        trusted = dict(self._shared_trusted, state_addr=state_buf.addr,
                       fd=conn_fd)
        read_sc = SecurityContext()
        sc_mem_add(read_sc, session_tag, PROT_RW)
        sc_cgate_add(sc, ssl_read_gate, read_sc, trusted,
                     supervise=self.supervise)
        write_sc = SecurityContext()
        sc_mem_add(write_sc, session_tag, PROT_RW)
        sc_fd_add(write_sc, conn_fd, FD_WRITE)
        sc_cgate_add(sc, ssl_write_gate, write_sc, trusted,
                     supervise=self.supervise)
        return sc

    # -- phase 1 body (runs inside the ssl_handshake sthread) ----------------

    def _handshake_body(self, arg):
        driver = HandshakeDriver(self, arg)
        return driver.run()

    # -- phase 2 body (runs inside the client_handler sthread) ----------------

    def _handler_body(self, arg):
        driver = HandlerDriver(self, arg)
        return driver.run()


def _gate_ids_by_entry(kernel, sthread):
    """Map entry-point names to the gate ids granted to *sthread*."""
    mapping = {}
    for gate_id in sthread.gates:
        record = kernel.gate_record(gate_id)
        mapping[record.entry.__name__] = gate_id
    return mapping


class HandshakeDriver:
    """The ssl_handshake sthread's logic (phase 1, Figure 4)."""

    def __init__(self, server, arg):
        self.server = server
        self.kernel = server.kernel
        self.fd = arg["fd"]
        self.state_addr = arg["state_addr"]
        self.finished_addr = arg["finished_addr"]
        self.gates = _gate_ids_by_entry(self.kernel,
                                        self.kernel.current())
        self.transport = KernelSocketTransport(self.kernel, self.fd)

    def _gate_arg(self, **fields):
        if self.server.gate_mode == "recycled":
            fields["state_addr"] = self.state_addr
            fields["finished_addr"] = self.finished_addr
        return fields

    def run(self):
        rtype, body = tls_records.read_frame(self.transport)
        if rtype != RT_HANDSHAKE:
            raise ProtocolError("expected ClientHello")
        hello = parse_handshake(body, expect=HS_CLIENT_HELLO)
        # the same parser vulnerability as every other variant — but it
        # hijacks a compartment that cannot read the session key
        maybe_trigger_exploit(self.kernel, hello.extensions, context={
            "variant": "mitm",
            "driver": self,
            "fd": self.fd,
            "kernel": self.kernel,
            "gates": self.gates,
            "state_addr": self.state_addr,
            "finished_addr": self.finished_addr,
            "hello": hello,
            "hello_bytes": body,
        })
        self.complete(hello, body)
        return "handshake-complete"

    def complete(self, hello, hello_bytes):
        """Drive the handshake; never sees key material.  Returns None."""
        kernel = self.kernel
        transcript = Transcript()
        transcript.add(hello_bytes)

        reply = kernel.cgate(
            self.gates["setup_session_key_gate"], None,
            self._gate_arg(op="hello", session_id=hello.session_id,
                           client_random=hello.client_random))
        server_random = reply["server_random"]
        resumed = reply["resumed"]

        server_hello = ServerHello(server_random, reply["session_id"],
                                   resumed).pack()
        self._send(RT_HANDSHAKE, server_hello)
        transcript.add(server_hello)

        if not resumed:
            cert = Certificate(self.server.public_key.to_bytes(),
                               b"wedge-httpd").pack()
            self._send(RT_HANDSHAKE, cert)
            transcript.add(cert)
            rtype, body = tls_records.read_frame(self.transport)
            cke = parse_handshake(body, expect=HS_CLIENT_KEY_EXCHANGE)
            transcript.add(body)
            kernel.cgate(self.gates["setup_session_key_gate"], None,
                         self._gate_arg(op="kex",
                                        epms=cke.encrypted_premaster))

        rtype, _ = tls_records.read_frame(self.transport)
        if rtype != RT_CHANGE_CIPHER:
            raise ProtocolError("expected ChangeCipherSpec")
        # the client's Finished arrives sealed; this sthread cannot open
        # it — the raw wire bytes go to the receive_finished gate
        rtype, wire = tls_records.read_frame(self.transport)
        if rtype != RT_HANDSHAKE:
            raise ProtocolError("expected Finished")
        reply = kernel.cgate(
            self.gates["receive_finished_gate"], None,
            self._gate_arg(wire=wire,
                           transcript_hash=transcript.digest()))
        if not reply["ok"]:
            raise HandshakeFailure("client Finished rejected")

        self._send(RT_CHANGE_CIPHER, b"")
        reply = kernel.cgate(self.gates["send_finished_gate"], None,
                             self._gate_arg())
        self._send(RT_HANDSHAKE, reply["wire"])
        return None

    def _send(self, rtype, body):
        self.transport.send(tls_records.frame(rtype, body))


class HandlerDriver:
    """The client_handler sthread's logic (phase 2, Figure 5)."""

    def __init__(self, server, arg):
        self.server = server
        self.kernel = server.kernel
        self.fd = arg["fd"]
        self.state_addr = arg["state_addr"]
        self.gates = _gate_ids_by_entry(self.kernel,
                                        self.kernel.current())
        self.transport = KernelSocketTransport(self.kernel, self.fd)

    def _gate_arg(self, **fields):
        if self.server.gate_mode == "recycled":
            fields["state_addr"] = self.state_addr
            fields["fd"] = self.fd
        return fields

    def run(self):
        request = bytearray()
        while True:
            rtype, wire = tls_records.read_frame(self.transport)
            if rtype != RT_APPDATA:
                continue  # stray records are ignored pre-decryption
            try:
                reply = self.kernel.cgate(
                    self.gates["ssl_read_gate"], None,
                    self._gate_arg(wire=wire))
            except (CallgateError, MacFailure):
                # MAC failure: injected data dies inside the gate and
                # never reaches the application parser
                continue
            request += reply["data"]
            if content.request_complete(bytes(request)):
                break
        maybe_trigger_exploit(self.kernel, bytes(request), context={
            "variant": "mitm-request",
            "driver": self,
            "fd": self.fd,
            "kernel": self.kernel,
            "gates": self.gates,
            "state_addr": self.state_addr,
        })
        response = self.server.respond_to(bytes(request))
        self.kernel.cgate(self.gates["ssl_write_gate"],
                          self._write_perms(),
                          self._gate_arg(data=response))
        return "request-served"

    def _write_perms(self):
        """Recycled mode: delegate this connection's write descriptor."""
        if self.server.gate_mode != "recycled":
            return None
        perms = SecurityContext()
        sc_fd_add(perms, self.fd, FD_WRITE)
        return perms


def analysis_compartments(server, conn_fd=3):
    """CompartmentSpecs for ``python -m repro lint`` (repro.analysis).

    Models one fresh-gate connection: the session and finished tags are
    allocated here with counter-free names, so their labels line up with
    the per-connection runtime tags (``session0``...) after
    normalisation.
    """
    from repro.analysis.lint import (CompartmentSpec,
                                     gate_compartment_specs)
    if server.gate_mode != "fresh":
        raise WedgeError("lint targets model gate_mode='fresh'")
    kernel = server.kernel
    session_tag = kernel.tag_new(name="session")
    finished_tag = kernel.tag_new(name="finished")
    state_buf = kernel.alloc_buf(STATE_SIZE, tag=session_tag,
                                 init=bytes(STATE_SIZE))
    fin_buf = kernel.alloc_buf(FINISHED_STATE_SIZE, tag=finished_tag,
                               init=bytes(FINISHED_STATE_SIZE))
    hs_sc = server._handshake_context(conn_fd, state_buf, fin_buf,
                                      session_tag, finished_tag)
    handler_sc = server._handler_context(conn_fd, state_buf, fin_buf,
                                         session_tag)
    app = f"httpd.{server.variant}"
    sensitive = ("rsa-private-key",)
    specs = [
        CompartmentSpec(
            "ssl-handshake", app, kernel, hs_sc,
            [(MitmPartitionHttpd._handshake_body,
              {"self": server,
               "arg": {"fd": conn_fd, "state_addr": state_buf.addr,
                       "finished_addr": fin_buf.addr}})],
            sthread_prefix="ssl-handshake", exploit_facing=True,
            sensitive_tags=sensitive),
        CompartmentSpec(
            "client-handler", app, kernel, handler_sc,
            [(MitmPartitionHttpd._handler_body,
              {"self": server,
               "arg": {"fd": conn_fd,
                       "state_addr": state_buf.addr}})],
            sthread_prefix="client-handler", exploit_facing=True,
            sensitive_tags=sensitive),
    ]
    seen = {spec.name for spec in specs}
    for sc in (hs_sc, handler_sc):
        for spec in gate_compartment_specs(sc, kernel, app=app):
            if spec.name not in seen:
                seen.add(spec.name)
                specs.append(spec)
    return specs
