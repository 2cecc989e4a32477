"""The Figure-2 partitioning: worker sthread + ``setup_session_key`` gate.

Goal (paper section 5.1.1, the no-interposition threat model): protect
the RSA private key from a worker exploit, and deny the attacker any
influence over session-key generation.

* One **worker sthread per connection** runs all network-facing code with
  read-write on the connection descriptor and *one* callgate grant.  It
  terminates after serving a single request, isolating requests.
* The **setup_session_key callgate** alone holds read access to the tag
  carrying the private key.  Crucially it *generates the server random
  itself* rather than accepting it as an argument, so a hijacked worker
  cannot steer the session key (the key is a PRF over an input that is
  random from the attacker's perspective).
* The callgate **returns the established session key** to the worker —
  fine against an eavesdropper, but exactly the property the
  man-in-the-middle attack of section 5.1.2 abuses; compare
  :mod:`repro.apps.httpd.mitm`.
"""

from __future__ import annotations

import threading

from repro.apps.httpd import content
from repro.apps.httpd.common import HttpdBase
from repro.attacks.exploit import maybe_trigger_exploit
from repro.core.errors import (CompartmentDown, HandshakeFailure,
                               ProtocolError, SthreadFaulted, WedgeError)
from repro.core.policy import (FD_RW, SecurityContext, sc_cgate_add,
                               sc_fd_add, sc_mem_add, sc_sel_context)
from repro.core.memory import PROT_READ
from repro.crypto.mac import constant_time_eq
from repro.crypto.prf import finished_verify_data
from repro.tls import server_core
from repro.tls.handshake import (HS_CLIENT_HELLO, HS_CLIENT_KEY_EXCHANGE,
                                 HS_FINISHED, Certificate, Finished,
                                 ServerHello, Transcript, parse_handshake)
from repro.tls.records import (RT_APPDATA, RT_CHANGE_CIPHER, RT_HANDSHAKE,
                               KernelSocketTransport, RecordChannel)
from repro.tls.session_cache import SessionCache


def setup_session_key_gate(trusted, arg):
    """Entry point of the Figure-2 callgate.

    Two operations, because the handshake needs the server random before
    the encrypted premaster exists:

    * ``op="hello"``: look up the offered session id in the cache, mint
      the session id and the *server-generated* random.  For a resumed
      session the cached master is returned right away.
    * ``op="key"``: decrypt the premaster under the tagged private key
      and derive the master secret, **binding the server random minted in
      the hello step** — a caller-supplied random is never accepted.

    The master secret is returned to the caller: the Figure-2 design
    trusts the worker with the session key once established.
    """
    kernel = trusted["kernel"]
    rng = trusted["rng"]
    cache = trusted["cache"]
    pending = trusted["pending"]
    if not isinstance(arg, dict):
        raise ProtocolError("bad callgate argument")

    if arg.get("op") == "hello":
        offered = bytes(arg.get("session_id", b""))
        cached = cache.lookup(offered)
        server_random = server_core.gen_server_random(rng)
        if cached is not None:
            return {"server_random": server_random,
                    "session_id": offered, "resumed": True,
                    "master": cached}
        session_id = server_core.make_session_id(rng)
        with trusted["lock"]:
            pending[server_random] = session_id
        return {"server_random": server_random,
                "session_id": session_id, "resumed": False,
                "master": None}

    if arg.get("op") == "key":
        server_random = bytes(arg["server_random"])
        with trusted["lock"]:
            session_id = pending.pop(server_random, None)
        if session_id is None:
            # the worker may not supply a random the gate did not mint
            raise HandshakeFailure("unknown server random")
        key_bytes = kernel.mem_read(trusted["key_addr"],
                                    trusted["key_len"])
        master = server_core.setup_master_secret(
            key_bytes, bytes(arg["epms"]), bytes(arg["client_random"]),
            server_random)
        cache.store(session_id, master)
        return {"master": master}

    raise ProtocolError(f"unknown callgate op {arg.get('op')!r}")


#: The SELinux domain for confined workers, and the only syscalls the
#: Figure-2 worker actually needs.  The paper's evaluation grants all
#: syscalls to focus on memory privileges (§5); ``confine=True`` shows
#: the sc_sel_context mechanism doing real work instead.
WORKER_SID = "system_u:system_r:httpd_worker_t"
WORKER_SYSCALLS = {"send", "recv", "close", "cgate"}


class SimplePartitionHttpd(HttpdBase):
    """Figure 2: private key behind a callgate; worker gets the key."""

    variant = "simple"

    def __init__(self, network, addr, *, confine=False,
                 worker_quota=None, **kwargs):
        super().__init__(network, addr, **kwargs)
        self.confine = confine
        #: optional per-worker allocation cap (the DoS extension)
        self.worker_quota = worker_quota
        if confine:
            self.kernel.selinux.define_domain(WORKER_SID,
                                              WORKER_SYSCALLS)
        self.session_cache = SessionCache()
        # the private key lives in tagged memory; only the callgate's
        # security context will name this tag
        key_bytes = self.private_key.to_bytes()
        self.key_tag = self.kernel.tag_new(name="rsa-private-key")
        self.key_buf = self.kernel.alloc_buf(len(key_bytes),
                                             tag=self.key_tag,
                                             init=key_bytes)
        self._gate_trusted = {
            "kernel": self.kernel,
            "rng": self.rng.fork("server-random"),
            "cache": self.session_cache,
            "pending": {},
            "lock": threading.Lock(),
            "key_addr": self.key_buf.addr,
            "key_len": self.key_buf.size,
        }
        self.workers = []

    def _worker_context(self, conn_fd):
        """The worker's entire privilege: the connection plus one gate."""
        sc = SecurityContext(mem_quota=self.worker_quota)
        if self.confine:
            sc_sel_context(sc, WORKER_SID)
        sc_fd_add(sc, conn_fd, FD_RW)
        gate_sc = SecurityContext()
        sc_mem_add(gate_sc, self.key_tag, PROT_READ)
        sc_cgate_add(sc, setup_session_key_gate, gate_sc,
                     self._gate_trusted, supervise=self.supervise)
        return sc

    def handle_connection(self, conn_fd):
        sc = self._worker_context(conn_fd)
        worker = self.run_compartment(
            sc, self._worker_body, {"fd": conn_fd},
            name=f"worker{self.connections_served}")
        self.workers.append(worker)
        try:
            self.kernel.sthread_join(worker)
        except (SthreadFaulted, CompartmentDown) as exc:
            # contained: this client's connection dies with its worker;
            # the listener keeps accepting
            self.errors.append(f"worker faulted: {exc}")

    # -- code below this line executes inside the worker sthread ------------

    def _worker_body(self, arg):
        driver = WorkerDriver(self, arg["fd"])
        return driver.run()


class WorkerDriver:
    """Per-connection handshake + request logic (runs in the worker).

    Split into ``parse hello`` / ``complete`` so the simulated exploit
    can hijack control after hello parsing and still finish the
    handshake — the return-to-own-code style the MITM campaign uses.
    """

    def __init__(self, server, conn_fd):
        self.server = server
        self.kernel = server.kernel
        self.fd = conn_fd
        self.gate_id = next(iter(self.kernel.current().gates))
        self.channel = RecordChannel(
            KernelSocketTransport(self.kernel, conn_fd))
        self.master = None

    def run(self):
        rtype, body = self.channel.recv_record(expect=RT_HANDSHAKE)
        hello = parse_handshake(body, expect=HS_CLIENT_HELLO)
        # the simulated parser vulnerability: untrusted extensions
        maybe_trigger_exploit(self.kernel, hello.extensions, context={
            "variant": "simple",
            "driver": self,
            "fd": self.fd,
            "kernel": self.kernel,
            "gate_id": self.gate_id,
            "hello": hello,
            "hello_bytes": body,
        })
        self.complete(hello, body)
        return "served"

    def complete(self, hello, hello_bytes):
        """Everything after hello parsing; returns the master secret."""
        kernel = self.kernel
        channel = self.channel
        transcript = Transcript()
        transcript.add(hello_bytes)

        reply = kernel.cgate(self.gate_id, None, {
            "op": "hello", "session_id": hello.session_id})
        server_random = reply["server_random"]
        resumed = reply["resumed"]

        server_hello = ServerHello(server_random, reply["session_id"],
                                   resumed).pack()
        channel.send_record(RT_HANDSHAKE, server_hello)
        transcript.add(server_hello)

        if resumed:
            master = reply["master"]
        else:
            cert = Certificate(self.server.public_key.to_bytes(),
                               b"wedge-httpd").pack()
            channel.send_record(RT_HANDSHAKE, cert)
            transcript.add(cert)
            rtype, body = channel.recv_record(expect=RT_HANDSHAKE)
            cke = parse_handshake(body, expect=HS_CLIENT_KEY_EXCHANGE)
            transcript.add(body)
            reply2 = kernel.cgate(self.gate_id, None, {
                "op": "key", "server_random": server_random,
                "client_random": hello.client_random,
                "epms": cke.encrypted_premaster})
            master = reply2["master"]

        # Figure 2: the worker holds the session key from here on
        self.master = master
        keys = server_core.session_keys(master, hello.client_random,
                                        server_random)

        channel.recv_record(expect=RT_CHANGE_CIPHER)
        channel.activate_recv(keys["client_enc"], keys["client_mac"])
        rtype, body = channel.recv_record(expect=RT_HANDSHAKE)
        finished = parse_handshake(body, expect=HS_FINISHED)
        expected = finished_verify_data(master, "client finished",
                                        transcript.digest())
        if not constant_time_eq(expected, finished.verify_data):
            raise HandshakeFailure("client Finished verification failed")
        transcript.add(Finished(finished.verify_data).pack())

        channel.send_record(RT_CHANGE_CIPHER, b"")
        channel.activate_send(keys["server_enc"], keys["server_mac"])
        verify = server_core.make_server_finished(master,
                                                  transcript.digest())
        channel.send_record(RT_HANDSHAKE, Finished(verify).pack())

        self._serve_one_request(channel)
        return master

    def _serve_one_request(self, channel):
        request = bytearray()
        while True:
            rtype, payload = channel.recv_record()
            if rtype != RT_APPDATA:
                raise ProtocolError(f"unexpected record type {rtype}")
            request += payload
            if content.request_complete(bytes(request)):
                break
        maybe_trigger_exploit(self.kernel, bytes(request), context={
            "variant": "simple-request",
            "driver": self,
            "fd": self.fd,
            "kernel": self.kernel,
        })
        channel.send_record(RT_APPDATA,
                            self.server.respond_to(bytes(request)))


def analysis_compartments(server, conn_fd=3):
    """CompartmentSpecs for ``python -m repro lint`` (repro.analysis)."""
    from repro.analysis.lint import (CompartmentSpec,
                                     gate_compartment_specs)
    sc = server._worker_context(conn_fd)
    app = f"httpd.{server.variant}"
    specs = [CompartmentSpec(
        "worker", app, server.kernel, sc,
        [(SimplePartitionHttpd._worker_body,
          {"self": server, "arg": {"fd": conn_fd}})],
        sthread_prefix="worker", exploit_facing=True,
        sensitive_tags=("rsa-private-key",))]
    specs += gate_compartment_specs(sc, server.kernel, app=app)
    return specs
