"""The three seeded, closed-loop workloads.

Each workload builds the shipped code in its default configuration,
drives it from the benchmark process over the in-process simulated
network (``repro.net.Network``), and checks every reply.  The runner
calls, in order::

    setup()       boot, keys, fills, recovery, warm-up (timed as setup_s)
    measure()     the fixed, seeded operation sequence -> Samples
    verify()      end-of-run checks -> list of problems
    teardown()

An operation's latency runs from its first send to its checked reply; a
failed or wrong reply is recorded as infinitely slow.  Model cycles per
operation are the server kernel's ``costs`` charged between one
completed operation and the next, read once the server is quiescent
again (closed loop); with two clients in flight this is still one
operation's worth, where a per-operation window would hold two.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import time

from repro.apps.httpd import MitmPartitionHttpd
from repro.apps.httpd.content import build_request
from repro.apps.kv.server import WRITE_THROUGH, KvServer
from repro.core.errors import WedgeError
from repro.core.kernel import Kernel
from repro.core.policy import FD_RW, SecurityContext, sc_fd_add
from repro.crypto.rng import DetRNG
from repro.net import Network, costream
from repro.resilience.scale import HANDLER_HEAP, HANDLER_STACK, PAYLOAD_SIZE
from repro.tls import TlsClient

#: Per-operation socket timeout (seconds).  Far above any healthy
#: operation; a hung server fails the operation instead of the run.
OP_TIMEOUT = 20.0


#: Every workload class carries its sizing:
#:
#: * ``ops_per_second`` -- about what the reference host completes; a
#:   run replays ``ops_per_second * --seconds`` operations in total;
#: * ``round_ops`` -- the most operations one round (one fresh process)
#:   replays; the run uses as many rounds as that takes;
#: * ``setups_per_round`` -- set-ups per round (``setup_s`` is the
#:   median of all of them; the last one carries the measured phase).


class Samples:
    """Per-operation results of one measured phase."""

    def __init__(self):
        self.latencies = []     # seconds; math.inf for a failed op
        self.kinds = []         # op kind per sample ("get", "set", ...)
        self.failures = []      # reasons, in order
        self.user_bytes = 0     # bytes the client asked to be stored
        self.start_cycles = 0   # server model cycles when the phase began
        self.done_cycles = []   # server model cycles at each completion

    def record(self, kind, latency, done_cycles, ok, reason=""):
        self.kinds.append(kind)
        self.latencies.append(latency if ok else math.inf)
        self.done_cycles.append(done_cycles)
        if not ok:
            self.failures.append(reason or "wrong reply")

    def cycles_per_op(self):
        """Model cycles between consecutive completions, one per op."""
        stamps = [self.start_cycles] + sorted(self.done_cycles)
        return [b - a for a, b in zip(stamps, stamps[1:])]


def _picker(rng, items, weights):
    """A draw from *items* with the given relative *weights*."""
    cumulative = list(itertools.accumulate(weights))

    def pick():
        return items[bisect.bisect_left(cumulative,
                                        rng.random() * cumulative[-1])]
    return pick


# ---------------------------------------------------------------------------
# https-wedge: the Figures 3-5 partitioned httpd, resumed sessions
# ---------------------------------------------------------------------------

#: Page sizes (bytes) and their request shares.
PAGE_MIX = ((512, 0.70), (4096, 0.25), (16384, 0.05))
PAGES_PER_SIZE = 8


def _response_body(reply):
    """Body of a ``200 OK`` response, or None for anything else."""
    head, sep, body = reply.partition(b"\r\n\r\n")
    if not sep or not head.startswith(b"HTTP/1.0 200 OK\r\n"):
        return None
    return body


class HttpsWedge:
    """One TLS client, a new resumed connection per request."""

    name = "https-wedge"
    ops_per_second = 185
    #: The retained compartments make the interpreter run a full (gen-2)
    #: collection every ~96 requests, 1.04% of them, 20-180 ms each: a
    #: long run puts p99 exactly on the edge of those pauses.  Rounds of
    #: at most 170 requests take one each (~0.6%), so p99 stays in the
    #: 16 KB tail and the pauses show in the gc.* layer metrics.
    round_ops = 170
    setups_per_round = 1
    warmup_requests = 24

    def __init__(self, seed, ops):
        self.seed = seed
        rng = random.Random(f"https-wedge/{seed}")
        self.pages = {}
        by_size = {}
        for size, _share in PAGE_MIX:
            by_size[size] = []
            for j in range(PAGES_PER_SIZE):
                path = f"/s{size}/page{j}.html"
                self.pages[path] = rng.randbytes(size)
                by_size[size].append(path)
        pick_size = _picker(rng, [size for size, _ in PAGE_MIX],
                            [share for _, share in PAGE_MIX])

        def pick():
            return rng.choice(by_size[pick_size()])

        self.warmup_paths = [pick() for _ in range(self.warmup_requests)]
        self.paths = [pick() for _ in range(ops)]
        self.server = None

    def kernels(self):
        return [self.server.kernel]

    def setup(self):
        self.net = Network()
        self.addr = "https-wedge:443"
        self.server = MitmPartitionHttpd(self.net, self.addr,
                                         pages=self.pages).start()
        self.client = TlsClient(DetRNG(f"perfbench-client/{self.seed}"),
                                expected_server_key=self.server.public_key)
        # the one full handshake seeds the client's resumable session
        for i, path in enumerate(self.warmup_paths):
            _lat, _cyc, ok, reason = self._request(path, resume=i > 0)
            if not ok:
                raise WedgeError(f"https-wedge warm-up failed: {reason}")

    def _request(self, path, resume=True):
        """One request on a new connection.

        Returns ``(latency_s, done_cycles, ok, reason)``.  The reply is
        checked (body equals the page, session resumed when asked for),
        then the client waits for the server's close, so the server has
        finished the connection before the next one starts.
        """
        start = time.perf_counter()
        sock = self.net.connect(self.addr)
        try:
            conn = self.client.handshake(sock, resume=resume,
                                         timeout=OP_TIMEOUT)
            conn.send(build_request(path))
            body = _response_body(conn.recv())
            latency = time.perf_counter() - start
            ok, reason = True, ""
            if body != self.pages[path]:
                ok, reason = False, "body differs from the page"
            elif conn.resumed != resume:
                ok, reason = False, f"session resumed={conn.resumed}"
            if sock.recv(1, OP_TIMEOUT) is not None:
                ok, reason = False, "server sent bytes after the response"
        except WedgeError as exc:
            latency, ok = math.inf, False
            reason = f"{type(exc).__name__}: {exc}"
        finally:
            sock.close()
        return latency, self.server.kernel.costs.cycles(), ok, reason

    def measure(self):
        samples = Samples()
        samples.start_cycles = self.server.kernel.costs.cycles()
        for path in self.paths:
            samples.record("request", *self._request(path))
        return samples

    def verify(self):
        return [f"server error: {err}" for err in self.server.errors]

    def teardown(self):
        if self.server is not None:
            self.server.stop()
            self.server.kernel.kill()
            self.server = None


# ---------------------------------------------------------------------------
# kv-durable: write-through kv with WAL, one persistent connection
# ---------------------------------------------------------------------------

KV_KEYS = 128
KV_VALUE_BYTES = (16, 96)
KV_GET_SHARE = 0.75


class _LineClient:
    """The kv wire protocol over one raw connection (no client kernel)."""

    def __init__(self, net, addr):
        self.sock = net.connect(addr)
        self.buf = bytearray()

    def command(self, line):
        self.sock.send(line + b"\r\n", OP_TIMEOUT)
        while True:
            end = self.buf.find(b"\r\n")
            if end >= 0:
                reply = bytes(self.buf[:end])
                del self.buf[:end + 2]
                return reply
            chunk = self.sock.recv(4096, OP_TIMEOUT)
            if chunk is None:
                raise WedgeError("kv closed the connection mid-reply")
            self.buf += chunk

    def quit(self):
        """End the session and wait for the server's half-close."""
        try:
            if self.command(b"QUIT") != b"BYE":
                raise WedgeError("kv did not answer QUIT with BYE")
            if self.sock.recv(1, OP_TIMEOUT) is not None:
                raise WedgeError("kv sent bytes after BYE")
        finally:
            self.sock.close()


class KvDurable:
    """75% GET / 25% SET, Zipf(1) over 128 keys, write-through + WAL."""

    name = "kv-durable"
    ops_per_second = 900
    round_ops = 3600
    setups_per_round = 1
    warmup_before_restart = 256
    warmup_after_restart = 256

    def __init__(self, seed, ops):
        rng = random.Random(f"kv-durable/{seed}")
        keys = [b"key%03d" % i for i in range(KV_KEYS)]
        # Zipf(s=1): the rank-r key is drawn with weight 1/r
        pick = _picker(rng, rng.sample(keys, len(keys)),
                       [1.0 / rank for rank in range(1, len(keys) + 1)])

        def value():
            return rng.randbytes(rng.randint(*KV_VALUE_BYTES))

        def op():
            key = pick()
            if rng.random() < KV_GET_SHARE:
                return ("get", key, None)
            return ("set", key, value())

        self.fill = [("set", key, value())
                     for key in rng.sample(keys, len(keys))]
        self.warm_a = [op() for _ in range(self.warmup_before_restart)]
        self.warm_b = [op() for _ in range(self.warmup_after_restart)]
        self.plan = [op() for _ in range(ops)]
        self.keys = keys
        self.server = None
        self.client = None

    def kernels(self):
        return [self.server.kernel]

    def kv_stats(self):
        return dict(self.server.stats)

    def _boot(self, addr, disk=None):
        return KvServer(self.net, addr, policy=WRITE_THROUGH, durable=True,
                        disk=disk).start()

    def setup(self):
        self.net = Network()
        self.model = {}
        first = self._boot("kv-durable-a:11211")
        client = _LineClient(self.net, first.addr)
        for op in self.fill + self.warm_a:
            self._warm_op(client, op)
        client.quit()
        # a clean restart on the same platter: flush, stop, power off,
        # boot a new kernel that mounts the device (WAL recovery)
        first.wal.sync()
        logged = first.wal.seq
        first.stop()
        first.kernel.kill()
        self.server = self._boot("kv-durable-b:11211", disk=first.disk)
        replayed = self.server.last_recovery.get("replayed")
        if replayed != logged:
            raise WedgeError(f"kv recovery replayed {replayed} records, "
                             f"the log held {logged}")
        self.client = _LineClient(self.net, self.server.addr)
        for op in self.warm_b:
            self._warm_op(client=self.client, op=op)

    def _warm_op(self, client, op):
        ok, reason = self._check(op, client.command(self._line(op)))
        if not ok:
            raise WedgeError(f"kv-durable set-up op failed: {reason}")

    @staticmethod
    def _line(op):
        kind, key, value = op
        if kind == "get":
            return b"GET " + key
        return b"SET %s 0 %s" % (key, value.hex().encode())

    def _check(self, op, reply):
        """Check *reply* against the reference model, then apply *op*."""
        kind, key, value = op
        if kind == "set":
            if reply != b"STORED":
                return False, f"SET {key!r} answered {reply!r}"
            self.model[key] = value
            return True, ""
        expected = self.model.get(key)
        want = (b"MISS" if expected is None
                else b"VALUE " + expected.hex().encode())
        if reply != want:
            return False, f"GET {key!r} answered {reply[:40]!r}"
        return True, ""

    def measure(self):
        samples = Samples()
        costs = self.server.kernel.costs
        samples.start_cycles = costs.cycles()
        client = self.client
        for op in self.plan:
            line = self._line(op)
            start = time.perf_counter()
            try:
                reply = client.command(line)
                latency = time.perf_counter() - start
                ok, reason = self._check(op, reply)
            except WedgeError as exc:
                latency, ok = math.inf, False
                reason = f"{type(exc).__name__}: {exc}"
            samples.record(op[0], latency, costs.cycles(), ok, reason)
            if op[0] == "set":
                samples.user_bytes += len(op[1]) + len(op[2])
        return samples

    def verify(self):
        problems = [f"server error: {err}" for err in self.server.errors]
        for key in self.keys:
            ok, reason = self._check(("get", key, None),
                                     self.client.command(b"GET " + key))
            if not ok:
                problems.append(f"final read: {reason}")
        return problems

    def teardown(self):
        if self.client is not None:
            self.client.quit()
            self.client = None
        if self.server is not None:
            self.server.stop()
            self.server.kernel.kill()
            self.server = None


# ---------------------------------------------------------------------------
# conn-churn: per-connection sthreads on the cooperative reactor
# ---------------------------------------------------------------------------

def _frame(payload):
    return len(payload).to_bytes(4, "big") + payload


class ConnChurn:
    """Two cooperative clients: connect, send, check, close, repeat."""

    name = "conn-churn"
    ops_per_second = 2000
    round_ops = 8000
    setups_per_round = 2
    warmup_connections = 600
    clients = 2

    def __init__(self, seed, ops):
        self.ops = ops
        rng = random.Random(f"conn-churn/{seed}")
        total = self.warmup_connections + ops
        self.payloads = [rng.randbytes(PAYLOAD_SIZE) for _ in range(total)]
        self.kernel = None
        #: ``callable(generator) -> generator`` the traced runner sets
        #: so the benchmark's own task code is timed as nobody's layer
        self.trace_task = None

    def kernels(self):
        return [self.kernel]

    def setup(self):
        self.net = Network()
        self.addr = "conn-churn:9000"
        # constructed the way repro.resilience.scale constructs it
        self.kernel = Kernel(net=self.net, name="conn-churn",
                             scheduler="reactor")
        self.kernel.start_main()
        self.listen_fd = self.kernel.listen(self.addr)
        warm = self._run(0, self.warmup_connections, Samples())
        if warm.failures:
            raise WedgeError(f"conn-churn warm-up failed: "
                             f"{warm.failures[:3]}")

    def _handler(self, fd):
        kernel = self.kernel
        header = yield from kernel.co_recv_exact(fd, 4, timeout=OP_TIMEOUT)
        size = int.from_bytes(header, "big")
        payload = yield from kernel.co_recv_exact(fd, size,
                                                  timeout=OP_TIMEOUT)
        # the payload crosses compartment memory on its way back
        buf = kernel.malloc(size)
        kernel.mem_write(buf, payload)
        data = kernel.mem_read(buf, size)
        kernel.sfree(buf)
        yield from kernel.co_send(fd, _frame(bytes(data[::-1])))
        kernel.close(fd)

    def _acceptor(self, count, first):
        kernel = self.kernel
        handler = self._handler
        if self.trace_task is not None:
            trace, inner = self.trace_task, self._handler

            def handler(fd):
                return (yield from trace(inner(fd)))
        for index in range(first, first + count):
            fd = yield from kernel.co_accept(self.listen_fd,
                                             timeout=OP_TIMEOUT)
            sc = SecurityContext()
            sc_fd_add(sc, fd, FD_RW)
            kernel.sthread_create(sc, handler, fd, name=f"conn{index}",
                                  heap_size=HANDLER_HEAP,
                                  stack_size=HANDLER_STACK)
            kernel.close(fd)    # the child holds its own copy
            yield

    def _client(self, indices, samples):
        costs = self.kernel.costs
        for index in indices:
            payload = self.payloads[index]
            start = time.perf_counter()
            reason = ""
            try:
                sock = self.net.connect(self.addr)
                try:
                    yield from costream.co_send(sock, _frame(payload),
                                                timeout=OP_TIMEOUT)
                    header = yield from costream.co_recv_exact(
                        sock, 4, timeout=OP_TIMEOUT)
                    reply = yield from costream.co_recv_exact(
                        sock, int.from_bytes(header, "big"),
                        timeout=OP_TIMEOUT)
                finally:
                    sock.close()
                latency = time.perf_counter() - start
                ok = reply == payload[::-1]
                if not ok:
                    reason = "reply is not the reversed payload"
            except WedgeError as exc:
                latency, ok = math.inf, False
                reason = f"{type(exc).__name__}: {exc}"
            samples.record("connection", latency, costs.cycles(), ok,
                           reason)

    def _run(self, first, count, samples):
        reactor = self.kernel.reactor
        acceptor = self._acceptor(count, first)
        if self.trace_task is not None:
            acceptor = self.trace_task(acceptor)
        reactor.spawn(acceptor, name="acceptor", sthread=self.kernel.main)
        for c in range(self.clients):
            indices = range(first + c, first + count, self.clients)
            task = self._client(indices, samples)
            if self.trace_task is not None:
                task = self.trace_task(task)
            reactor.spawn(task, name=f"client{c}")
        crashed_before = len(reactor.crashed)
        reactor.run_until_idle(max_steps=max(1_000_000, 100 * count),
                               raise_crashes=False)
        for task, error in reactor.crashed[crashed_before:]:
            samples.failures.append(f"task {task.name} crashed: "
                                    f"{type(error).__name__}: {error}")
        return samples

    def measure(self):
        samples = Samples()
        samples.start_cycles = self.kernel.costs.cycles()
        return self._run(self.warmup_connections, self.ops, samples)

    def verify(self):
        reactor = self.kernel.reactor
        problems = []
        if reactor.double_dispatches:
            problems.append(f"{reactor.double_dispatches} double "
                            "dispatches")
        return problems

    def teardown(self):
        if self.kernel is not None:
            try:
                self.kernel.close(self.listen_fd)
            except WedgeError:
                pass
            self.kernel.kill()
            self.kernel = None


WORKLOADS = {cls.name: cls for cls in (HttpsWedge, KvDurable, ConnChurn)}
