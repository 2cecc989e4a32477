"""Shared httpd plumbing: configuration, tagged session state, base class.

The interesting piece is :class:`SessionState`: the per-connection SSL
state (master secret, the four channel keys, sequence numbers, the
handshake-complete flag) laid out at fixed offsets in **tagged simulated
memory**.  Which compartments can read or write this block is exactly
what distinguishes the three Apache partitionings — in the Figures-3-5
variant only the callgates hold the tag, so the network-facing handshake
sthread manipulates session keys it can never observe.
"""

from __future__ import annotations

import threading

from repro.apps.httpd import content
from repro.core.errors import WedgeError
from repro.core.kernel import Kernel
from repro.net.serve import start_accept_loop
from repro.crypto.prf import MASTER_SECRET_LEN
from repro.crypto.rng import DetRNG
from repro.crypto.rsa import generate_keypair
from repro.resilience.deadline import Deadline, deadline_scope

#: Wall-clock budget (seconds) of one per-connection compartment: a TLS
#: handshake, one request, one CGI render.  It is the compartment's
#: ambient deadline, so a client that stalls ends the phase with a typed
#: DeadlineExceeded inside the compartment.
PHASE_BUDGET = 20.0

# -- SessionState field layout (fixed offsets in the session tag) -----------

_OFF_MASTER = 0
_OFF_CLIENT_MAC = 48
_OFF_SERVER_MAC = 80
_OFF_CLIENT_ENC = 112
_OFF_SERVER_ENC = 144
_OFF_RECV_SEQ = 176
_OFF_SEND_SEQ = 184
_OFF_FLAGS = 192
_OFF_CLIENT_RANDOM = 200
_OFF_SERVER_RANDOM = 232
STATE_SIZE = 264

_FLAG_KEYS_READY = 1
_FLAG_HANDSHAKE_DONE = 2


class SessionState:
    """Typed accessors over the session-state block at *addr*.

    Methods go through ``kernel.mem_read``/``mem_write`` under the
    *current compartment*, so every access is permission-checked: a
    compartment without the session tag faults on the first touch.
    """

    def __init__(self, kernel, addr):
        self.kernel = kernel
        self.addr = addr

    # -- key material --------------------------------------------------------

    def write_keys(self, master, keys):
        k = self.kernel
        k.mem_write(self.addr + _OFF_MASTER, master)
        k.mem_write(self.addr + _OFF_CLIENT_MAC, keys["client_mac"])
        k.mem_write(self.addr + _OFF_SERVER_MAC, keys["server_mac"])
        k.mem_write(self.addr + _OFF_CLIENT_ENC, keys["client_enc"])
        k.mem_write(self.addr + _OFF_SERVER_ENC, keys["server_enc"])
        self._set_flag(_FLAG_KEYS_READY)

    def read_master(self):
        return self.kernel.mem_read(self.addr + _OFF_MASTER,
                                    MASTER_SECRET_LEN)

    def read_keys(self):
        k = self.kernel
        return {
            "client_mac": k.mem_read(self.addr + _OFF_CLIENT_MAC, 32),
            "server_mac": k.mem_read(self.addr + _OFF_SERVER_MAC, 32),
            "client_enc": k.mem_read(self.addr + _OFF_CLIENT_ENC, 32),
            "server_enc": k.mem_read(self.addr + _OFF_SERVER_ENC, 32),
        }

    # -- sequence numbers -------------------------------------------------------

    def _read_u64(self, off):
        return int.from_bytes(self.kernel.mem_read(self.addr + off, 8),
                              "big")

    def _write_u64(self, off, value):
        self.kernel.mem_write(self.addr + off, value.to_bytes(8, "big"))

    def next_recv_seq(self):
        seq = self._read_u64(_OFF_RECV_SEQ)
        self._write_u64(_OFF_RECV_SEQ, seq + 1)
        return seq

    def next_send_seq(self):
        seq = self._read_u64(_OFF_SEND_SEQ)
        self._write_u64(_OFF_SEND_SEQ, seq + 1)
        return seq

    def peek_recv_seq(self):
        """Current receive sequence *without* consuming it.

        Gates that verify inbound records (``receive_finished``,
        ``ssl_read``) commit the sequence only when verification
        succeeds: an injected record is dropped without desynchronising
        the channel (paper section 5.1.2, "dropped by SSL read").
        """
        return self._read_u64(_OFF_RECV_SEQ)

    def commit_recv_seq(self, seq):
        self._write_u64(_OFF_RECV_SEQ, seq + 1)

    # -- randoms -------------------------------------------------------------------

    def write_randoms(self, client_random, server_random):
        self.kernel.mem_write(self.addr + _OFF_CLIENT_RANDOM,
                              client_random)
        self.kernel.mem_write(self.addr + _OFF_SERVER_RANDOM,
                              server_random)

    def read_randoms(self):
        return (self.kernel.mem_read(self.addr + _OFF_CLIENT_RANDOM, 32),
                self.kernel.mem_read(self.addr + _OFF_SERVER_RANDOM, 32))

    # -- flags ----------------------------------------------------------------------

    def _set_flag(self, flag):
        flags = self.kernel.mem_read(self.addr + _OFF_FLAGS, 1)[0]
        self.kernel.mem_write(self.addr + _OFF_FLAGS,
                              bytes([flags | flag]))

    def keys_ready(self):
        return bool(self.kernel.mem_read(self.addr + _OFF_FLAGS, 1)[0]
                    & _FLAG_KEYS_READY)

    def mark_handshake_done(self):
        self._set_flag(_FLAG_HANDSHAKE_DONE)

    def handshake_done(self):
        return bool(self.kernel.mem_read(self.addr + _OFF_FLAGS, 1)[0]
                    & _FLAG_HANDSHAKE_DONE)


class HttpdBase:
    """Common scaffolding for the three Apache variants.

    Owns the kernel, the listener, the server RSA key (in tagged
    memory), the accept loop thread, and per-variant statistics the
    benchmarks read.
    """

    variant = "base"

    def __init__(self, network, addr, *, pages=None, seed="httpd",
                 tag_cache=True, key_bits=512, concurrent=False,
                 supervise=None, kernel=None, instance=None):
        self.network = network
        self.addr = addr
        self.pages = dict(pages or content.DEFAULT_PAGES)
        self.rng = DetRNG(seed)
        #: per-replica entropy label: cluster replicas share *seed* (one
        #: RSA identity for the whole cluster) but must not mint
        #: colliding TLS session ids — a failover resumption against a
        #: twin's cache would pair the wrong master secret with a known
        #: session id and die in the Finished check
        self.instance = instance
        #: serve connections concurrently (one master-side dispatcher
        #: per connection, like the paper's per-connection workers); the
        #: default stays sequential for deterministic tests
        self.concurrent = concurrent
        #: optional RestartPolicy applied to per-connection compartments
        self.supervise = supervise
        if kernel is not None:
            # cluster mode: several replicas share one host kernel
            self.kernel = kernel
            self.main = (kernel.main if kernel.main is not None
                         else kernel.start_main())
        else:
            self.kernel = Kernel(net=network, tag_cache=tag_cache,
                                 name=f"httpd-{self.variant}")
            self.main = self.kernel.start_main()
        # the server's long-lived RSA key pair, generated at startup
        self.private_key = generate_keypair(self.rng.fork("rsa"),
                                            key_bits)
        self.public_key = self.private_key.public()
        self._listen_fd = None
        self._accept_runner = None
        self._stop = threading.Event()
        self.connections_served = 0
        self.requests_served = 0
        self.errors = []

    # -- lifecycle ---------------------------------------------------------------

    def start(self):
        """Bind the listener and start accepting connections."""
        if self._accept_runner is not None:
            raise WedgeError("server already started")
        self._listen_fd = self.kernel.listen(self.addr)
        self._accept_runner = start_accept_loop(
            self.kernel, self._listen_fd, self._on_conn,
            stop=self._stop, name=f"{self.variant}-accept",
            concurrent=self.concurrent)
        return self

    def stop(self):
        self._stop.set()
        try:
            self.kernel.close(self._listen_fd)
        except WedgeError:
            pass
        if self._accept_runner is not None:
            self._accept_runner.join(5.0)

    def _on_conn(self, conn_fd):
        self.connections_served += 1
        if self.kernel.scheduler == "reactor" and not self.concurrent:
            return self._co_connection(conn_fd)
        return lambda: self._handle_safely(conn_fd)

    def _co_connection(self, conn_fd):
        """Cooperative connection job — the default under the reactor.

        The acceptor task parks here until the client's first bytes
        arrive (a connection that never speaks costs no pool thread
        while it dawdles), then serves the connection *inline*.  The
        handler itself stays ordinary blocking code: first-byte
        readiness means its opening read returns immediately, and the
        single-task sequencing — accept, wait, serve, accept — is the
        same serving order as the threaded oracle, so the scheduler
        differential suite keeps comparing byte-for-byte.
        """
        try:
            yield from self.kernel.co_wait_readable(conn_fd)
        except WedgeError:
            pass    # timed out or reset: the handler's read reports it
        self._handle_safely(conn_fd)

    def _serve_cycle(self):
        """Analysis root: one accept-serve cycle.

        This is the privilege envelope of the accept loop — identical
        syscall/descriptor surface whichever runner (thread or reactor)
        drives it; the policy verifier analyzes this instead of the
        scheduler-specific loop plumbing in repro.net.serve.
        """
        conn_fd = self.kernel.accept(self._listen_fd, timeout=0.5)
        self.connections_served += 1
        self._handle_safely(conn_fd)

    def _handle_safely(self, conn_fd):
        """The serving boundary: a failure ends this connection only."""
        try:
            self.handle_connection(conn_fd)
        except WedgeError as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
        except Exception as exc:
            # the connection's compartments run on this thread, so an
            # untyped crash in them (attacker code included) lands here;
            # traceback is imported only now because loading it adds
            # ~0.3 MB to every process that imports httpd
            import traceback
            self.errors.append(f"{type(exc).__name__}: {exc}")
            traceback.print_exc()
        finally:
            try:
                self.kernel.close(conn_fd)
            except WedgeError:
                pass

    def handle_connection(self, conn_fd):
        raise NotImplementedError

    def run_compartment(self, sc, body, arg, *, name):
        """Create a per-connection compartment and run it to completion.

        The master starts such a compartment and then only waits for it
        (Figure 3's phases run strictly in sequence), so it runs on the
        serving thread.  Isolation does not come from the OS thread: the
        kernel picks the page table, fd table and gate set from its
        per-thread compartment stack.  :data:`PHASE_BUDGET` bounds the
        run.  The caller still joins the returned handle, which charges
        the teardown and raises ``SthreadFaulted``/``CompartmentDown``.
        """
        with deadline_scope(Deadline.after(PHASE_BUDGET, label=name)):
            return self.kernel.sthread_create(
                sc, body, arg, name=name, spawn="inline",
                supervise=self.supervise)

    # -- shared helpers ----------------------------------------------------------

    def conn_rng(self):
        """The per-connection RNG fork (instance-salted in a cluster)."""
        label = f"conn{self.connections_served}"
        if self.instance is not None:
            label = f"{self.instance}-{label}"
        return self.rng.fork(label)

    def respond_to(self, request_bytes):
        """Parse a complete request and build its response."""
        path = content.parse_request(request_bytes)
        self.requests_served += 1
        return content.build_response(self.pages, path)
