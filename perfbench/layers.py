"""Outside-in layer tracing: span recorder, hook table, per-layer metrics.

The benchmark measures the program from outside.  A traced run patches
the public functions of each layer (the :data:`HOOKS` table) with thin
wrappers that open a span on entry and close it on exit.  Spans are
aggregated on the fly, one table per thread, so a 1,000-request run keeps
a few hundred counters instead of millions of span objects:

* a span's **self time** is its duration minus the time its child spans
  on the *same thread* cover;
* a span on another thread is never a child, whatever its timing;
* generator functions (``Kernel.co_*``) are timed per resumption, so the
  time a cooperative task spends parked is nobody's self time.

Wait spans (``ByteStream.recv``, ``Listener.accept``) are classified by
their parent: under a kernel network syscall they are the server waiting
for a peer (``net.recv_wait``); anywhere else they are the benchmark's
own client waiting for its reply, which belongs to no layer.

Where a module imported a hooked name directly (``from repro.crypto.mac
import hmac_sha256``) the same wrapper is patched into that module too,
and so is every class-level alias (``StreamCipher.encrypt``).  A hook
whose target no longer exists raises :class:`HookError`, so a traced run
fails instead of reporting zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

#: The layer tables, one row per hooked public function:
#: ``(layer, "module:Qualified.name", kind, bytes_of)``.  ``kind`` is
#: ``"call"`` (an ordinary span), ``"wait"`` (a blocking receive,
#: classified by its parent) or ``"gen"`` (a generator timed per
#: resumption).  ``bytes_of(args, kwargs, result)`` counts the bytes a
#: call moved, for the layers that report bytes.


def _result_len(args, kwargs, result):
    return len(result)


def _arg_len(index):
    def count(args, kwargs, result):
        return len(args[index])
    return count


K = "repro.core.kernel:Kernel."
HOOKS = [
    # core: compartments, callgates, tags
    ("core", K + "sthread_create", "call", None),
    ("core", K + "sthread_join", "call", None),
    ("core", K + "co_sthread_join", "gen", None),
    ("core", K + "cgate", "call", None),
    ("core", K + "create_gate", "call", None),
    ("core", K + "tag_new", "call", None),
    ("core", K + "tag_delete", "call", None),
    # core.memory + core.allocator
    ("mem", K + "mem_read", "call", _result_len),
    ("mem", K + "mem_write", "call", _arg_len(2)),
    ("mem", K + "alloc_buf", "call", None),
    ("mem", K + "malloc", "call", None),
    ("mem", K + "sfree", "call", None),
    # core.reactor
    ("reactor", "repro.core.reactor:Reactor.run_until_idle", "call", None),
    ("reactor", "repro.core.reactor:Reactor.spawn", "call", None),
    # net: kernel socket syscalls, cooperative twins, the medium
    ("net", K + "send", "call", None),
    ("net", K + "recv", "call", None),
    ("net", K + "recv_exact", "call", None),
    ("net", K + "accept", "call", None),
    ("net", K + "connect", "call", None),
    ("net", K + "listen", "call", None),
    ("net", K + "close", "call", None),
    ("net", K + "shutdown", "call", None),
    ("net", K + "co_accept", "gen", None),
    ("net", K + "co_recv", "gen", None),
    ("net", K + "co_recv_exact", "gen", None),
    ("net", K + "co_send", "gen", None),
    ("net", K + "co_wait_readable", "gen", None),
    ("net", "repro.net.network:Network.connect", "call", None),
    ("net", "repro.net.costream:co_send", "gen", None),
    ("net", "repro.net.costream:co_recv", "gen", None),
    ("net", "repro.net.costream:co_recv_exact", "gen", None),
    ("net", "repro.net.stream:ByteStream.recv", "wait", None),
    ("net", "repro.net.network:Listener.accept", "wait", None),
    # tls: both the client channel and the server's record functions
    ("tls", "repro.tls.client:TlsClient.handshake", "call", None),
    ("tls", "repro.tls.records:RecordChannel.send_record", "call", None),
    ("tls", "repro.tls.records:RecordChannel.recv_record", "call", None),
    ("tls", "repro.tls.records:seal_record", "call", None),
    ("tls", "repro.tls.records:open_record", "call", None),
    ("tls", "repro.tls.records:read_frame", "call", None),
    ("tls", "repro.tls.records:frame", "call", None),
    ("tls", "repro.tls.server_core:session_keys", "call", None),
    ("tls", "repro.tls.server_core:make_server_finished", "call", None),
    ("tls", "repro.tls.server_core:open_finished_record", "call", None),
    ("tls", "repro.tls.server_core:seal_server_finished", "call", None),
    # crypto
    ("crypto", "repro.crypto.mac:hmac_sha256", "call", _arg_len(1)),
    ("crypto", "repro.crypto.mac:constant_time_eq", "call", None),
    ("crypto", "repro.crypto.stream:StreamCipher.process", "call",
     _arg_len(1)),
    ("crypto", "repro.crypto.prf:p_sha256", "call", None),
    ("crypto", "repro.crypto.prf:prf", "call", None),
    ("crypto", "repro.crypto.prf:derive_master_secret", "call", None),
    ("crypto", "repro.crypto.prf:derive_key_block", "call", None),
    ("crypto", "repro.crypto.prf:finished_verify_data", "call", None),
    # apps.httpd
    ("httpd", "repro.apps.httpd.mitm:MitmPartitionHttpd.handle_connection",
     "call", None),
    # apps.kv: the region codec and the two standing gates
    ("kv", "repro.apps.kv.store:unpack_store", "call", None),
    ("kv", "repro.apps.kv.store:pack_store", "call", None),
    ("kv", "repro.apps.kv.store:unpack_meta", "call", None),
    ("kv", "repro.apps.kv.store:pack_meta", "call", None),
    ("kv", "repro.apps.kv.server:store_gate", "call", None),
    ("kv", "repro.apps.kv.server:evict_gate", "call", None),
    # apps.kv.wal + disk
    ("wal", "repro.apps.kv.wal:WriteAheadLog.append", "call", None),
    ("wal", "repro.apps.kv.wal:WriteAheadLog.sync", "call", None),
    ("wal", "repro.apps.kv.wal:WriteAheadLog.checkpoint", "call", None),
    ("disk", "repro.disk:SimDisk.write", "call", _arg_len(2)),
    ("disk", "repro.disk:SimDisk.fsync", "call", None),
]
del K

#: Kernel network syscalls: a wait span under one of these is the
#: server side waiting on its peer.
SERVER_NET_CALLS = frozenset({"Kernel.recv", "Kernel.recv_exact",
                              "Kernel.accept", "Kernel.send"})

#: Layer names that carry self time (``net.wait``, ``client.wait`` and
#: the benchmark's own ``bench`` spans are waiting or load, not work).
LAYERS = ("core", "mem", "reactor", "net", "tls", "crypto", "httpd",
          "kv", "wal", "disk")


class HookError(RuntimeError):
    """A hook's target is missing: the layer table no longer fits."""


#: Fields of one aggregated span row.
CALLS, TOTAL, SELF, BYTES = range(4)


# ---------------------------------------------------------------------------
# the span recorder
# ---------------------------------------------------------------------------

class _ThreadTable:
    """One thread's open spans and its aggregated per-key counters."""

    __slots__ = ("stack", "stats")

    def __init__(self):
        self.stack = []     # open frames: [key, t0, child_seconds, count]
        self.stats = {}     # key -> [calls, total_s, self_s, nbytes]


class SpanRecorder:
    """Aggregates spans per thread while :attr:`recording` is true.

    Keys are ``(layer, name)`` pairs.  Wrappers test :attr:`recording`
    before opening a span, so toggling it brackets the measured phase;
    :meth:`snapshot` merges the per-thread tables at the moment it is
    called, leaving spans still open on other threads out.
    """

    def __init__(self, clock=time.perf_counter):
        self.recording = False
        self.clock = clock
        self._local = threading.local()
        self._tables = []
        self._lock = threading.Lock()

    def _table(self):
        try:
            return self._local.table
        except AttributeError:
            table = _ThreadTable()
            self._local.table = table
            with self._lock:
                self._tables.append(table)
            return table

    def parent_key(self):
        """Key of the innermost open span on this thread, or None."""
        stack = self._table().stack
        return stack[-1][0] if stack else None

    def begin(self, key, count=True):
        table = self._table()
        frame = [key, 0.0, 0.0, count]
        table.stack.append(frame)
        frame[1] = self.clock()
        return table, frame

    def end(self, table, frame, nbytes=0):
        now = self.clock()
        key, start, child, count = frame
        duration = now - start
        stack = table.stack
        # pop through any frame a non-local exit left behind
        while stack:
            if stack.pop() is frame:
                break
        if stack:
            stack[-1][2] += duration
        row = table.stats.get(key)
        if row is None:
            row = table.stats[key] = [0, 0.0, 0.0, 0]
        if count:
            row[0] += 1
        row[1] += duration
        row[2] += duration - child
        row[3] += nbytes

    def snapshot(self):
        """Merged ``{key: [calls, total_s, self_s, nbytes]}``."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for key, row in list(table.stats.items()):
                acc = merged.setdefault(key, [0, 0.0, 0.0, 0])
                for i, value in enumerate(list(row)):
                    acc[i] += value
        return merged


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _call_wrapper(rec, key, fn, bytes_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.recording:
            return fn(*args, **kwargs)
        table, frame = rec.begin(key)
        nbytes = 0
        try:
            result = fn(*args, **kwargs)
            if bytes_of is not None:
                nbytes = bytes_of(args, kwargs, result)
            return result
        finally:
            rec.end(table, frame, nbytes)
    return wrapper


def _wait_wrapper(rec, name, fn):
    server_key = ("net.wait", name)
    client_key = ("client.wait", name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.recording:
            return fn(*args, **kwargs)
        parent = rec.parent_key()
        server = (parent is not None and parent[0] == "net"
                  and parent[1] in SERVER_NET_CALLS)
        table, frame = rec.begin(server_key if server else client_key)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(table, frame)
    return wrapper


def timed_generator(rec, key, gen):
    """Drive *gen*, timing each resumption as one span of *key*.

    The first resumption counts the call; parked time between
    resumptions is excluded.  ``send``/``throw``/``close`` pass through,
    so a reactor stepping the outer task cannot tell the difference.
    """
    first = True
    sent = None
    thrown = None
    while True:
        table, frame = rec.begin(key, count=first)
        first = False
        try:
            if thrown is not None:
                exc, thrown = thrown, None
                yielded = gen.throw(exc)
            else:
                yielded = gen.send(sent)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.end(table, frame)
        try:
            sent = yield yielded
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:   # re-raised inside gen
            thrown = exc


def _gen_wrapper(rec, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        if not rec.recording:
            return (yield from gen)
        return (yield from timed_generator(rec, key, gen))
    return wrapper


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

def resolve(target):
    """``"pkg.mod:Class.attr"`` -> the raw function it names."""
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise HookError(f"hook target module {module_name!r} is missing: "
                        f"{exc}") from exc
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook target {target!r} is missing "
                            f"({part!r} not found)")
    attr = parts[-1]
    raw = vars(owner).get(attr) if isinstance(owner, type) else \
        getattr(owner, attr, None)
    if raw is None or not callable(raw):
        raise HookError(f"hook target {target!r} is missing or not a "
                        "plain function")
    return raw


def _reference_index():
    """``id(value) -> [(owner, attr)]`` over loaded ``repro`` modules and
    the classes they define: every place a function can be reached
    from by name."""
    index = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro"
                                  or mod_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value):
                index.setdefault(id(value), []).append((module, attr))
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    if callable(cvalue):
                        index.setdefault(id(cvalue), []).append(
                            (value, cattr))
    return index


def replace_everywhere(original, replacement, index=None):
    """Point every name bound to *original* at *replacement*.

    Returns the ``(owner, attr)`` pairs patched, so a caller can
    restore them.  Direct imports (``from m import f``) and class-level
    aliases are covered because the scan is by object identity.
    """
    index = _reference_index() if index is None else index
    refs = [(owner, attr) for owner, attr in index.get(id(original), [])
            if vars(owner).get(attr) is original]
    for owner, attr in refs:
        setattr(owner, attr, replacement)
    return refs


class Hooks:
    """The installed patch set; :meth:`remove` restores every original."""

    def __init__(self, recorder, table=None):
        self.recorder = recorder
        self.table = HOOKS if table is None else table
        self._patched = []

    def install(self):
        """Resolve (and so import) every target, then patch them all."""
        rec = self.recorder
        planned = []
        for layer, target, kind, bytes_of in self.table:
            raw = resolve(target)
            name = target.rpartition(":")[2]
            key = (layer, name)
            if kind == "gen":
                if not inspect.isgeneratorfunction(raw):
                    raise HookError(f"hook target {target!r} is no "
                                    "longer a generator function")
                wrapper = _gen_wrapper(rec, key, raw)
            elif kind == "wait":
                wrapper = _wait_wrapper(rec, name, raw)
            else:
                wrapper = _call_wrapper(rec, key, raw, bytes_of)
            planned.append((raw, wrapper, target))
        index = _reference_index()
        for raw, wrapper, target in planned:
            refs = replace_everywhere(raw, wrapper, index)
            if not refs:
                raise HookError(f"hook target {target!r} is not reachable "
                                "from any loaded module")
            self._patched.extend((owner, attr, raw) for owner, attr in refs)
        return self

    def remove(self):
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(stats, ops, counters):
    """The per-layer metric dict for one measured phase.

    *stats* is a recorder snapshot, *ops* the measured operation count,
    *counters* what the probe read from the program itself (TLB, kv
    stats, reactor dispatches, live compartments), GC, RSS and the
    user bytes stored.  Times are milliseconds per operation; a layer's
    ``self_ms`` is the self time of all its spans.
    """
    def field(index, layer, *names):
        return sum(row[index] for (lay, name), row in stats.items()
                   if lay == layer and (not names or name in names))

    def per_op(value):
        return value / ops

    def ms(index, layer, *names):
        return field(index, layer, *names) * 1000.0 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    k = "Kernel."
    kv = ("unpack_store", "pack_store", "unpack_meta", "pack_meta")
    wal = ("WriteAheadLog.append", "WriteAheadLog.sync",
           "WriteAheadLog.checkpoint")
    return {
        "core.sthread_create.calls_per_op":
            per_op(field(CALLS, "core", k + "sthread_create")),
        "core.sthread_create.ms_per_op":
            ms(SELF, "core", k + "sthread_create"),
        "core.sthread_join.wait_ms_per_op":
            ms(SELF, "core", k + "sthread_join", k + "co_sthread_join"),
        "core.cgate.calls_per_op": per_op(field(CALLS, "core", k + "cgate")),
        "core.cgate.ms_per_op":
            ms(SELF, "core", k + "cgate", k + "create_gate"),
        "core.tag.calls_per_op":
            per_op(field(CALLS, "core", k + "tag_new", k + "tag_delete")),
        "core.mem.bytes_per_op": per_op(field(BYTES, "mem")),
        "core.mem.ms_per_op": ms(SELF, "mem"),
        "core.tlb_hit_ratio": ratio(
            counters["tlb_hits"],
            counters["tlb_hits"] + counters["tlb_walks"]),
        "core.live_sthreads": counters["live_sthreads"],
        "core.retained_kb_per_op":
            per_op(counters["rss_growth_bytes"] / 1024.0),
        "gc.pause_ms_per_op": per_op(counters["gc_pause_s"] * 1000.0),
        "gc.gen2_count": counters["gc_gen2"],
        "reactor.dispatches_per_op": per_op(counters["dispatches"]),
        "reactor.self_ms_per_op": ms(SELF, "reactor"),
        "net.calls_per_op": per_op(field(CALLS, "net")),
        "net.self_ms_per_op": ms(SELF, "net"),
        "net.recv_wait_ms_per_op": ms(SELF, "net.wait"),
        "tls.records_per_op": per_op(field(CALLS, "tls", "frame")),
        "tls.self_ms_per_op": ms(SELF, "tls"),
        "crypto.bytes_per_op": per_op(field(BYTES, "crypto")),
        "crypto.self_ms_per_op": ms(SELF, "crypto"),
        "httpd.conn_ms_per_op":
            ms(TOTAL, "httpd", "MitmPartitionHttpd.handle_connection"),
        "kv.codec_ms_per_op": ms(SELF, "kv", *kv),
        "kv.gate_ms_per_op": ms(SELF, "kv", "store_gate", "evict_gate"),
        "kv.evict_calls_per_op": per_op(field(CALLS, "kv", "evict_gate")),
        "kv.hit_ratio": ratio(counters["kv_hits"],
                              counters["kv_hits"] + counters["kv_misses"]),
        "kv.get_p50_ms": counters["get_p50_ms"],
        "kv.set_p50_ms": counters["set_p50_ms"],
        "wal.ms_per_op": ms(TOTAL, "wal", *wal),
        "wal.fsyncs_per_op": per_op(field(CALLS, "disk", "SimDisk.fsync")),
        "wal.checkpoints_per_op":
            per_op(field(CALLS, "wal", "WriteAheadLog.checkpoint")),
        "disk.bytes_per_user_byte": ratio(
            field(BYTES, "disk", "SimDisk.write"), counters["user_bytes"]),
    }


#: Units of the per-layer metrics (the BENCHMARK.json ``per_layer`` list).
UNITS = {
    "core.sthread_create.calls_per_op": "count",
    "core.sthread_create.ms_per_op": "ms",
    "core.sthread_join.wait_ms_per_op": "ms",
    "core.cgate.calls_per_op": "count",
    "core.cgate.ms_per_op": "ms",
    "core.tag.calls_per_op": "count",
    "core.mem.bytes_per_op": "bytes",
    "core.mem.ms_per_op": "ms",
    "core.tlb_hit_ratio": "ratio",
    "core.live_sthreads": "count",
    "core.retained_kb_per_op": "KB",
    "gc.pause_ms_per_op": "ms",
    "gc.gen2_count": "count",
    "reactor.dispatches_per_op": "count",
    "reactor.self_ms_per_op": "ms",
    "net.calls_per_op": "count",
    "net.self_ms_per_op": "ms",
    "net.recv_wait_ms_per_op": "ms",
    "tls.records_per_op": "count",
    "tls.self_ms_per_op": "ms",
    "crypto.bytes_per_op": "bytes",
    "crypto.self_ms_per_op": "ms",
    "httpd.conn_ms_per_op": "ms",
    "kv.codec_ms_per_op": "ms",
    "kv.gate_ms_per_op": "ms",
    "kv.evict_calls_per_op": "count",
    "kv.hit_ratio": "ratio",
    "kv.get_p50_ms": "ms",
    "kv.set_p50_ms": "ms",
    "wal.ms_per_op": "ms",
    "wal.fsyncs_per_op": "count",
    "wal.checkpoints_per_op": "count",
    "disk.bytes_per_user_byte": "ratio",
}

#: Per-layer metrics that count work rather than time it: two runs of
#: one seed must agree on these exactly (the determinism check).
EXACT = tuple(name for name, unit in UNITS.items()
              if unit in ("count", "bytes", "ratio")
              and name not in ("gc.gen2_count",))
