"""The simulated Wedge kernel.

One :class:`Kernel` instance models one machine: an address space, a tag
namespace, a VFS, an optional network attachment, and the population of
compartments (the bootstrap process plus every sthread, fork child,
pthread and callgate created from it).

Everything in the paper's Table 1 is a method here, with the same
semantics:

====================  =====================================================
Paper call            Kernel method
====================  =====================================================
``sthread_create``    :meth:`Kernel.sthread_create`
``sthread_join``      :meth:`Kernel.sthread_join`
``tag_new``           :meth:`Kernel.tag_new`
``tag_delete``        :meth:`Kernel.tag_delete`
``smalloc``           :meth:`Kernel.smalloc`
``sfree``             :meth:`Kernel.sfree` (also :meth:`Kernel.free`)
``smalloc_on/off``    :meth:`Kernel.smalloc_on` / :meth:`Kernel.smalloc_off`
``BOUNDARY_VAR/TAG``  :mod:`repro.core.boundary`
``sc_*``              :mod:`repro.core.policy`
``cgate``             :meth:`Kernel.cgate`
====================  =====================================================

Compartment tracking is a per-OS-thread context stack: whichever sthread
is on top of the stack is "running", and every kernel entry point charges
its costs and checks its permissions against that compartment.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import hmac
import inspect
import os
import random
import threading
import time

from repro.core.callgate import CallgateRecord
from repro.core.costs import CostAccount
from repro.core.errors import (CallgateDegraded, CallgateError,
                               CompartmentDown, CompartmentFault,
                               DeadlineExceeded, GateTimeout, JoinTimeout,
                               KernelDead, MemoryViolation, NetTimeout,
                               OutOfMemory, PolicyError, SthreadError,
                               SthreadFaulted, SyscallDenied, TagError,
                               VfsError, WedgeError)
from repro.core.fdtable import (DiskOpenFile, FdTable, ListenerOpenFile,
                                PipeOpenFile, SocketOpenFile, VfsOpenFile)
from repro.core.image import ImageBuilder
from repro.core.memory import (PAGE_SHIFT, PAGE_SIZE, PROT_COW, PROT_READ,
                               PROT_RW, PROT_WRITE, AddressSpace, MemoryBus,
                               VerifiedMap)
from repro.core.policy import (FD_READ, FD_RW, FD_WRITE, SecurityContext,
                               check_subset_of, validate_mem_prot)
from repro.core.reactor import (Reactor, wait_acceptable, wait_done,
                                wait_readable, wait_writable)
from repro.core.selinux import UNCONFINED, SELinuxPolicy
from repro.core.sthread import HEAP_SIZE, STACK_SIZE, Sthread
from repro.core.tags import DEFAULT_TAG_SIZE, TagManager
from repro.core.vfs import Vfs
from repro.net.stream import DEFAULT_TIMEOUT as DEFAULT_STREAM_TIMEOUT
from repro.net.stream import ByteStream, DuplexStream
from repro.observe import events as ev
from repro.observe.bus import EventBus
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import current_deadline, deadline_scope


def _traced_syscall(fn):
    """Emit paired ``syscall.enter``/``syscall.exit`` events around a
    syscall method.  The disabled path is one attribute test and a
    plain call — no event, no kwargs, no model cycles."""
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        obs = self.observe
        if not obs.enabled:
            return fn(self, *args, **kwargs)
        comp = self._comp_name()
        obs.emit(ev.SYSCALL_ENTER, comp=comp, name=name)
        try:
            result = fn(self, *args, **kwargs)
        except BaseException as exc:
            obs.emit(ev.SYSCALL_EXIT, comp=comp, name=name, ok=False,
                     error=type(exc).__name__)
            raise
        obs.emit(ev.SYSCALL_EXIT, comp=comp, name=name, ok=True)
        return result
    return wrapper


class TableView:
    """Adapter letting the heap allocator run through a page table.

    ``smalloc`` is userland code executing *inside* the calling sthread,
    so its bookkeeping loads and stores must obey that sthread's page
    protections (and show up in Crowbar traces).  This view exposes a
    segment-relative ``read_raw``/``write_raw`` that routes through the
    memory bus under a given table.
    """

    def __init__(self, bus, table, segment, size):
        self._bus = bus
        self._table = table
        self._base = segment.base
        self.size = size
        self.name = segment.name

    def read_raw(self, offset, size):
        return self._bus.read(self._table, self._base + offset, size)

    def write_raw(self, offset, data):
        self._bus.write(self._table, self._base + offset, data)


class Buffer:
    """Convenience handle for a tagged allocation: address + length."""

    __slots__ = ("kernel", "addr", "size")

    def __init__(self, kernel, addr, size):
        self.kernel = kernel
        self.addr = addr
        self.size = size

    def read(self, size=None, offset=0):
        size = self.size - offset if size is None else size
        return self.kernel.mem_read(self.addr + offset, size)

    def write(self, data, offset=0):
        if offset + len(data) > self.size:
            raise WedgeError("write beyond buffer end")
        self.kernel.mem_write(self.addr + offset, data)

    def __len__(self):
        return self.size


class Kernel:
    """One simulated machine running one Wedge-partitioned application."""

    #: Default for the ``tlb=`` switch.  Tests and the chaos runner
    #: override this (not the instances) to ablate apps that construct
    #: their own Kernel internally.
    DEFAULT_TLB = True

    #: Default for the ``scheduler=`` switch: ``"threads"`` is the
    #: original thread-per-connection path (the deterministic reference
    #: oracle); ``"reactor"`` multiplexes generator-bodied sthreads as
    #: cooperative continuations on one readiness loop per kernel.
    #: Campaign harnesses override the *class* attribute (same idiom as
    #: DEFAULT_TLB) to flip apps that construct their Kernel internally.
    DEFAULT_SCHEDULER = "threads"

    def __init__(self, *, selinux=None, tag_cache=True, net=None,
                 name="wedge", tlb=None, scheduler=None):
        self.name = name
        scheduler = (self.DEFAULT_SCHEDULER if scheduler is None
                     else scheduler)
        if scheduler not in ("threads", "reactor"):
            raise WedgeError(f"unknown scheduler {scheduler!r} "
                             "(expected 'threads' or 'reactor')")
        self.scheduler = scheduler
        self._reactor = None
        self.costs = CostAccount()
        #: the observability event bus; disabled (no sinks) until an
        #: Observer attaches, at which point the chokepoints light up
        self.observe = EventBus(self.costs, kernel_name=name)
        self.space = AddressSpace()
        self.bus = MemoryBus(self.space, self.costs,
                             tlb=self.DEFAULT_TLB if tlb is None else tlb)
        self.bus.observe = self.observe
        self.tags = TagManager(self.space, self.costs,
                               cache_enabled=tag_cache)
        self.selinux = selinux if selinux is not None else SELinuxPolicy()
        self.vfs = Vfs()
        self.net = net
        self.image_builder = ImageBuilder()
        from repro.core.boundary import BoundaryRegistry
        self.boundary = BoundaryRegistry()
        self.image = None
        self.main = None
        self._gates = {}
        self._next_sthread_id = 1
        self._next_gate_id = 1
        self._tls = threading.local()
        self._spawn_lock = threading.Lock()
        #: Crowbar attachment points: callables fired on allocation events
        #: as ``hook(event, addr, size, segment, sthread)``.
        self.alloc_hooks = []
        #: live heap allocations (addr -> (size, segment)); lets a
        #: late-attaching cb-log resolve objects allocated before it
        self.live_allocations = {}
        self.sthreads = []
        #: installed FaultPlan, or None.  The hot paths test this one
        #: attribute and branch away, so the disabled overhead is a
        #: single None check.
        self.faults = None
        #: proof-carrying fast path (repro.analysis.verify): certificate
        #: templates consulted at compartment build time, the in-process
        #: signing secret, and the verified-syscall counter.  Verified
        #: mode is strictly opt-in: with no templates registered nothing
        #: here is ever consulted on a hot path beyond a None check.
        self._cert_templates = []
        self._cert_secret = os.urandom(16)
        self.verified_syscalls = 0
        #: whole-kernel liveness (repro.cluster): kill() flips this and
        #: every subsequent syscall raises KernelDead.  The hot path is
        #: a single truthiness test.
        self.alive = True
        #: network endpoints opened by this kernel's syscalls, so that
        #: kill() can tear the machine off the wire: listeners unbind,
        #: established connections reset (peers see PeerReset, not hangs)
        self._owned_listeners = []
        self._owned_socks = []
        #: simulated disks opened on this kernel (repro.disk).  The
        #: devices outlive the kernel — kill() crashes them (dropping or
        #: tearing unflushed writes) but never destroys them, so a fresh
        #: incarnation can re-open and recover.
        self._disks = []
        #: campaign hook: a callable fired with the syscall name at the
        #: top of every trap, before any work.  The recovery campaign's
        #: kill-at-any-point sweep installs its counter/killer here; the
        #: disabled overhead is one attribute test.
        self.syscall_tap = None

    # ------------------------------------------------------------------
    # scheduling (repro.core.reactor)
    # ------------------------------------------------------------------

    @property
    def reactor(self):
        """This kernel's readiness loop (created on first use).

        Only meaningful under ``scheduler="reactor"``; asking a
        threads-scheduled kernel for one is a programming error and
        raises, so tests can't silently run the wrong mode.
        """
        if self.scheduler != "reactor":
            raise WedgeError(
                f"kernel {self.name!r} uses scheduler='threads'; "
                "construct it with scheduler='reactor' for a reactor")
        if self._reactor is None:
            self._reactor = Reactor(kernel=self,
                                    name=f"{self.name}-reactor")
        return self._reactor

    @classmethod
    @contextlib.contextmanager
    def scheduler_override(cls, scheduler):
        """Temporarily flip :attr:`DEFAULT_SCHEDULER` (save/restore).

        The campaign harnesses wrap app construction in this so apps
        that build their own Kernel internally pick up the requested
        scheduler, exactly like the chaos runner's DEFAULT_TLB idiom.
        ``scheduler=None`` is a no-op scope.
        """
        saved = cls.DEFAULT_SCHEDULER
        if scheduler is not None:
            cls.DEFAULT_SCHEDULER = scheduler
        try:
            yield
        finally:
            cls.DEFAULT_SCHEDULER = saved

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------

    def declare_global(self, name, size, init=b""):
        """Declare a pre-``main`` global (static initialisation time)."""
        return self.image_builder.declare(name, size, init)

    def start_main(self):
        """Seal the image, snapshot it, and enter ``main``.

        Returns the bootstrap compartment (the original process), which
        holds uid 0, root ``/``, the unconfined SID, and a live (non-COW)
        mapping of the globals image.
        """
        if self.main is not None:
            raise WedgeError("start_main called twice")
        self.image = self.image_builder.seal(self.space)
        self.boundary.materialise_all(self.space)
        ctx = SecurityContext()
        main = self._new_compartment("main", ctx, uid=0, root="/",
                                     sel_sid=UNCONFINED, kind="process")
        main.table.map_segment(self.image.segment, PROT_RW)
        self._give_private_regions(main)
        main.fdtable = FdTable()
        main.status = "running"
        self.main = main
        self._stack().append(main)
        if self.observe.enabled:
            self.observe.emit(ev.COW_SNAPSHOT, comp=main.name,
                              pages=len(self.image.snapshot_frames))
        return main

    def _new_compartment(self, name, ctx, *, uid, root, sel_sid, kind,
                         parent=None):
        with self._spawn_lock:
            sid = self._next_sthread_id
            self._next_sthread_id += 1
        st = Sthread(sid, name, ctx, uid=uid, root=root, sel_sid=sel_sid,
                     kind=kind, parent=parent)
        st.table.observe = self.observe   # tlb.shootdown emit point
        self.sthreads.append(st)
        return st

    def _give_private_regions(self, st, *, heap_size=HEAP_SIZE,
                              stack_size=STACK_SIZE):
        """Create and map the compartment's private heap and stack."""
        heap_seg = self.space.create_segment(
            heap_size, name=f"{st.name}:heap", kind="heap")
        stack_seg = self.space.create_segment(
            stack_size, name=f"{st.name}:stack", kind="stack")
        st.heap_segment = heap_seg
        st.stack_segment = stack_seg
        st.table.map_segment(heap_seg, PROT_RW, costs=self.costs)
        st.table.map_segment(stack_seg, PROT_RW, costs=self.costs)
        self.costs.charge("segment_create", 2)
        self._heap_for(st).format()

    def _heap_for(self, st):
        view = TableView(self.bus, st.table, st.heap_segment,
                         st.heap_segment.size)
        from repro.core.allocator import Heap
        return Heap(view, st.heap_segment.size, costs=self.costs)

    # ------------------------------------------------------------------
    # compartment context tracking
    # ------------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def current(self):
        """The compartment executing on this OS thread."""
        stack = self._stack()
        if not stack:
            if self.main is None:
                raise WedgeError("kernel not booted: call start_main()")
            return self.main
        return stack[-1]

    def _comp_name(self):
        """Current compartment's name for event stamping (None pre-boot).

        Unlike :meth:`current` this never raises, so the enabled branch
        of an emit point is safe at any kernel lifecycle stage.
        """
        stack = self._stack()
        if stack:
            return stack[-1].name
        return self.main.name if self.main is not None else None

    def caller(self):
        """The compartment that invoked the current callgate.

        Used by authentication callgates to promote their caller's uid
        and filesystem root on success (paper section 5.2).
        """
        stack = self._stack()
        if len(stack) < 2:
            raise WedgeError("no caller: not inside a callgate")
        return stack[-2]

    class _AsCurrent:
        def __init__(self, kernel, st):
            self.kernel = kernel
            self.st = st

        def __enter__(self):
            self.kernel._stack().append(self.st)
            return self.st

        def __exit__(self, *exc):
            self.kernel._stack().pop()
            return False

    def _as_current(self, st):
        return self._AsCurrent(self, st)

    # ------------------------------------------------------------------
    # syscall gate (SELinux-lite)
    # ------------------------------------------------------------------

    def _syscall(self, name):
        """Charge the trap and run the SELinux check for the caller.

        With a bound policy certificate whose allow-set covers *name*
        the SELinux check is provably redundant (verified against the
        granted SID at certification time), so the trap is charged at
        the cheaper ``verified_syscall`` weight and the check elided.
        """
        if not self.alive:
            raise KernelDead(
                f"kernel {self.name!r} is dead: syscall {name!r} refused",
                kernel=self.name)
        tap = self.syscall_tap
        if tap is not None:
            tap(self, name)
        st = self.current()
        ver = st.table.verified
        if ver is not None and name in ver.syscalls:
            self.costs.charge("verified_syscall")
            self.verified_syscalls += 1
            return st
        self.costs.charge("syscall")
        self.selinux.check_syscall(st.sel_sid, name)
        return st

    # ------------------------------------------------------------------
    # whole-kernel liveness (repro.cluster)
    # ------------------------------------------------------------------

    #: seed-mixing constant so the power-loss prefix draw is independent
    #: of the fault plan's own rate draws (the kernelfail.py idiom)
    _POWER_SALT = 0x504F5752   # "POWR"

    def kill(self, *, power_loss=False, seed=None):
        """Kill the whole machine: the cluster chaos mode's one verb.

        Marks the kernel dead (every later syscall raises
        :class:`~repro.core.errors.KernelDead`) and tears it off the
        network — owned listeners close (in-flight connects map to the
        typed :class:`~repro.core.errors.ConnectionRefused` race path),
        established connections reset so remote peers blocked in
        recv/send wake promptly with
        :class:`~repro.core.errors.PeerReset` instead of timing out.
        Idempotent.

        Attached disks crash honestly either way: a plain kill discards
        every unflushed write (the buffer cache dies with the machine);
        ``power_loss=True`` instead snapshots each device at a seeded
        arbitrary prefix of its unflushed write stream — reordered
        across sectors, torn at sector granularity — drawn from *seed*
        (default: the installed fault plan's seed, else 0).  Everything
        an ``fsync`` barrier acknowledged is durable in both modes.
        """
        if not self.alive:
            return
        if self._disks:
            if power_loss:
                base = seed
                if base is None:
                    base = self.faults.seed if self.faults is not None \
                        else 0
                rng = random.Random((int(base) << 1) ^ self._POWER_SALT)
                for disk in self._disks:
                    applied, dropped = disk.power_loss(rng)
                    if self.observe.enabled:
                        self.observe.emit(
                            ev.DISK_POWER_LOSS, comp=None,
                            disk=disk.name, applied=applied,
                            dropped=dropped)
            else:
                for disk in self._disks:
                    disk.drop_pending()
        self.alive = False
        for listener in self._owned_listeners:
            try:
                listener.close()
            except WedgeError:
                pass
        for sock in self._owned_socks:
            try:
                sock.reset()
            except WedgeError:
                pass
        if self._reactor is not None:
            self._reactor.close()

    # ------------------------------------------------------------------
    # fault injection (repro.faults)
    # ------------------------------------------------------------------

    def install_faults(self, plan):
        """Attach a :class:`~repro.faults.FaultPlan` (or None to remove).

        The plan is consulted at the kernel chokepoints and propagated
        to the attached network so connect/send faults fire too.  The
        plan also learns this kernel's event bus, so every injection —
        kernel- or network-site — shows up as a ``fault.fired`` event.
        """
        self.faults = plan
        if plan is not None:
            plan.observer = self.observe
        if self.net is not None:
            self.net.faults = plan
        return plan

    def _fault_point(self, site, addr=None):
        """Consult the installed plan at *site*; raise the chosen fault."""
        st = self.current()
        spec = self.faults.fire(site, compartment=st)
        if spec is None:
            return
        # a fired injection falsifies the static proof's assumptions for
        # this compartment: drop back to the checked path before the
        # fault even surfaces (revocation goes through _invalidate)
        st.table.revoke_certificate(costs=self.costs)
        kind = spec.kind
        if kind == "memfault":
            raise MemoryViolation(
                f"injected fault: {site} in {st.name}", addr=addr,
                op="injected", sthread=st)
        if kind == "enomem":
            raise OutOfMemory(
                f"injected allocator exhaustion in {st.name}")
        if kind == "crash":
            raise MemoryViolation(
                f"injected crash at {site} in {st.name}",
                op="injected", sthread=st)
        if kind == "delay":
            time.sleep(spec.delay)
            return
        raise WedgeError(f"unhandled injected fault kind {kind!r}")

    # ------------------------------------------------------------------
    # memory: loads/stores, tags, allocators
    # ------------------------------------------------------------------

    def mem_read(self, addr, size):
        """Load *size* bytes under the current compartment's protections."""
        if self.faults is not None and self.faults.enabled:
            self._fault_point("mem_read", addr)
        return self.bus.read(self.current().table, addr, size)

    def mem_write(self, addr, data):
        """Store bytes under the current compartment's protections."""
        if self.faults is not None and self.faults.enabled:
            self._fault_point("mem_write", addr)
        self.bus.write(self.current().table, addr, bytes(data))

    def tlb_stats(self):
        """Aggregate simulated-TLB counters for this kernel.

        ``hits``/``walks`` come from the bus (a walk is any full
        page-table lookup: a TLB miss, or every access when disabled);
        ``shootdowns`` and ``entries`` are summed over the distinct live
        page tables (pthreads share their parent's table).
        """
        tables = {}
        for st in self.sthreads:
            tables[id(st.table)] = st.table
        return {
            "enabled": self.bus.tlb_enabled,
            "hits": self.bus.tlb_hits,
            "walks": self.bus.tlb_walks,
            "shootdowns": sum(t.tlb_shootdowns for t in tables.values()),
            "entries": sum(len(t.tlb) for t in tables.values()),
        }

    def verified_stats(self):
        """Aggregate verified-mode counters for this kernel."""
        tables = {}
        for st in self.sthreads:
            tables[id(st.table)] = st.table
        return {
            "accesses": self.bus.verified_ops,
            "syscalls": self.verified_syscalls,
            "certified": sum(1 for t in tables.values()
                             if t.verified is not None),
            "revocations": sum(t.cert_revocations
                               for t in tables.values()),
        }

    # ------------------------------------------------------------------
    # verified mode (repro.analysis.verify)
    # ------------------------------------------------------------------

    def enable_verified(self, templates):
        """Register certificate templates (see
        :class:`~repro.analysis.verify.CertificateTemplate`).

        Every subsequently built compartment whose name matches a
        template is bound a policy certificate at spawn time and runs
        check-free until the first rights narrowing revokes it.
        """
        self._cert_templates = list(templates)
        return self._cert_templates

    def sign_policy(self, payload):
        """HMAC a certificate payload with the kernel-held secret.

        The signature makes certificates unforgeable by compartment
        code: :meth:`enter_verified` rejects anything not signed here.
        """
        return hmac.new(self._cert_secret, payload,
                        hashlib.sha256).hexdigest()

    def _maybe_certify(self, st):
        """Bind the first matching registered template to *st*, if any.

        A failed bind (grants moved out from under the template) is not
        an error — the compartment simply runs on the checked path.
        """
        for template in self._cert_templates:
            if template.matches(st):
                template.bind(st, self)
                return

    def enter_verified(self, cert, st=None):
        """Install a signed policy certificate on *st* (default: the
        current compartment), entering verified mode.

        The certificate's claims were proven by ``repro.analysis.verify``
        against the *granted* security context; this method re-derives
        the concrete page maps from the table's live PTEs, so the
        resulting :class:`VerifiedMap` can never exceed what the table
        itself maps: a page is covered for reading (writing) only if its
        PTE carries PROT_READ (PROT_WRITE) right now.  Any later
        narrowing funnels through ``PageTable._invalidate``, which voids
        the map atomically.
        """
        st = self.current() if st is None else st
        table = st.table
        if not hmac.compare_digest(cert.signature,
                                   self.sign_policy(cert.payload())):
            raise PolicyError(
                f"policy certificate for {cert.sthread!r} has an "
                f"invalid signature")
        if cert.sthread != st.name or cert.table_id != id(table):
            raise PolicyError(
                f"certificate bound to {cert.sthread!r} cannot be "
                f"installed on {st.name!r}: certificates are "
                f"per-incarnation and never survive a restart")
        rpages, wpages = {}, {}

        def cover(segment, want_write):
            first = segment.base >> PAGE_SHIFT
            for i in range(segment.npages):
                pte = table.entries.get(first + i)
                if pte is None:
                    continue
                view = memoryview(pte.frame.data)
                if pte.prot & PROT_READ:
                    rpages[first + i] = (view, segment)
                if want_write and pte.prot & PROT_WRITE:
                    wpages[first + i] = (view, segment)

        # the compartment's own regions: private by construction, so
        # the analyzer's PRIVATE_ALLOC accesses are proven trivially
        if st.heap_segment is not None:
            cover(st.heap_segment, True)
        if st.stack_segment is not None:
            cover(st.stack_segment, True)
        if self.image is not None:
            # the globals image: RW for main, COW (read-only cover; a
            # first write breaks COW on the checked path and revokes)
            # for every other compartment
            cover(self.image.segment, True)
        for tag_id, rights in cert.mem.items():
            tag = self.tags.get(tag_id)
            if tag is None:
                raise PolicyError(
                    f"certificate for {st.name!r} names deleted tag "
                    f"{tag_id}")
            cover(tag.segment, "w" in rights)
        vmap = VerifiedMap(rpages, wpages, cert.syscalls, cert)
        table.install_certificate(vmap, costs=self.costs)
        if self.observe.enabled:
            self.observe.emit(ev.ANALYSIS_CERTIFIED, comp=st.name,
                              rpages=len(rpages), wpages=len(wpages),
                              syscalls=sorted(cert.syscalls))
        return vmap

    def tag_new(self, size=DEFAULT_TAG_SIZE, *, name=""):
        """Create a tag; the creator gets read-write access implicitly."""
        st = self.current()
        # the cached-reuse fast path deliberately avoids the kernel trap;
        # TagManager charges the syscall only on the fresh path
        self.selinux.check_syscall(st.sel_sid, "tag_new")
        tag = self.tags.tag_new(size, name=name)
        st.ctx.mem[tag.id] = PROT_RW
        st.table.map_segment(tag.segment, PROT_RW, costs=self.costs)
        return tag

    def tag_delete(self, tag):
        # deleting into the userland cache avoids the kernel trap; the
        # TagManager charges the syscall only when it really unmaps
        st = self.current()
        self.selinux.check_syscall(st.sel_sid, "tag_delete")
        tag = self.tags.resolve(tag)
        if st.ctx.mem.get(tag.id) is None:
            raise TagError(f"{st.name} holds no access to tag {tag.id}")
        st.table.unmap_segment(tag.segment, costs=self.costs)
        st.ctx.mem.pop(tag.id, None)
        self.tags.tag_delete(tag)

    def adopt_boundary_segment(self, segment):
        """Wrap an existing boundary section in a tag (kernel-internal).

        Used by ``BOUNDARY_TAG``: the section already exists in the ELF
        image; the tag merely names it so policies can grant it.  The
        current compartment receives read-write access, like ``tag_new``.
        """
        st = self.current()
        tag = self.tags.adopt(segment)
        st.ctx.mem[tag.id] = PROT_RW
        st.table.map_segment(segment, PROT_RW, costs=self.costs)
        return tag

    def smalloc(self, size, tag):
        """Allocate *size* bytes of memory carrying *tag*."""
        st = self.current()
        tag = self.tags.resolve(tag)
        prot = st.ctx.mem.get(tag.id, 0)
        self.costs.charge("policy_check")
        if not prot & PROT_READ or not prot & 2:  # needs RW to manage heap
            raise PolicyError(
                f"{st.name} lacks read-write access to tag {tag.id} "
                f"and so cannot smalloc from it")
        if tag.heap is None:
            raise TagError(f"tag {tag.id} is a boundary section; "
                           f"it cannot back smalloc")
        self._check_quota(st, size)
        if self.faults is not None and self.faults.enabled:
            self._fault_point("smalloc")
        from repro.core.allocator import Heap
        view = TableView(self.bus, st.table, tag.segment, tag.segment.size)
        heap = Heap(view, tag.segment.size, costs=self.costs)
        with tag.lock:
            offset = heap.alloc(size)
        addr = tag.segment.base + offset
        self._fire_alloc("alloc", addr, size, tag.segment, st)
        return addr

    def malloc(self, size):
        """Allocate from the private heap — or, under ``smalloc_on``,
        from the active tag (paper section 3.2's legacy-tagging aid)."""
        st = self.current()
        if st.smalloc_tag is not None:
            return self.smalloc(size, st.smalloc_tag)
        if self.faults is not None and self.faults.enabled:
            self._fault_point("malloc")
        self._check_quota(st, size)
        heap = self._heap_for(st)
        offset = heap.alloc(size)
        addr = st.heap_segment.base + offset
        self._fire_alloc("alloc", addr, size, st.heap_segment, st)
        return addr

    def sfree(self, addr):
        """Free a tagged or private-heap allocation by address."""
        st = self.current()
        segment, offset = self.space.find(addr)
        from repro.core.allocator import Heap
        if segment.tag_id is not None:
            tag = self.tags.get(segment.tag_id)
            if tag is None:
                raise TagError(f"address 0x{addr:x} belongs to a deleted tag")
            prot = st.ctx.mem.get(tag.id, 0)
            if not prot & 2:
                raise PolicyError(
                    f"{st.name} lacks write access to tag {tag.id}")
            view = TableView(self.bus, st.table, segment, segment.size)
            with tag.lock:
                Heap(view, segment.size, costs=self.costs).free(offset)
        elif segment is st.heap_segment:
            self._heap_for(st).free(offset)
        else:
            raise TagError(
                f"address 0x{addr:x} is not a heap allocation of {st.name}")
        self._fire_alloc("free", addr, 0, segment, st)

    #: ``free`` is an alias: the LD_PRELOAD shim routes both names here.
    free = sfree

    def smalloc_on(self, tag):
        """Route subsequent ``malloc`` calls to *tag* (paper section 4.1).

        Per the paper, this is a single per-sthread flag: not recursive,
        not signal- or thread-safe within one sthread.  Use
        :meth:`smalloc_state` / :meth:`smalloc_restore` to save and
        restore around signal handlers or recursion.
        """
        st = self.current()
        tag = self.tags.resolve(tag)
        if st.smalloc_tag is not None:
            raise WedgeError(
                "smalloc_on is not recursive (paper section 4.1); "
                "save and restore the state instead")
        st.smalloc_tag = tag

    def smalloc_off(self):
        st = self.current()
        if st.smalloc_tag is None:
            raise WedgeError("smalloc_off without smalloc_on")
        st.smalloc_tag = None

    def smalloc_state(self):
        return self.current().smalloc_tag

    def smalloc_restore(self, state):
        self.current().smalloc_tag = state

    def alloc_buf(self, size, tag=None, init=None):
        """Allocate and return a :class:`Buffer` (tagged if *tag* given)."""
        addr = self.malloc(size) if tag is None else self.smalloc(size, tag)
        buf = Buffer(self, addr, size)
        if init is not None:
            buf.write(init)
        return buf

    def _fire_alloc(self, event, addr, size, segment, st):
        if event == "alloc":
            self.live_allocations[addr] = (size, segment)
            st.alloc_bytes += size
        else:
            freed = self.live_allocations.pop(addr, None)
            if freed is not None:
                st.alloc_bytes = max(0, st.alloc_bytes - freed[0])
        for hook in self.alloc_hooks:
            hook(event, addr, size, segment, st)

    def _check_quota(self, st, size):
        """Enforce the compartment's allocation cap, if it has one.

        An extension beyond the paper (which offers no DoS protection,
        §7): an exploited compartment cannot consume unbounded memory.
        """
        quota = st.ctx.mem_quota
        if quota is not None and st.alloc_bytes + size > quota:
            from repro.core.errors import QuotaExceeded
            raise QuotaExceeded(
                f"{st.name}: allocation of {size} bytes exceeds its "
                f"{quota}-byte quota ({st.alloc_bytes} in use)")

    # -- stack allocations (Crowbar's stack category) ---------------------

    class _StackFrame:
        def __init__(self, kernel, name):
            self.kernel = kernel
            self.name = name

        def __enter__(self):
            self.kernel.current().push_frame(self.name)
            return self

        def __exit__(self, *exc):
            self.kernel.current().pop_frame()
            return False

    def stack_frame(self, func_name):
        """Context manager declaring a simulated stack frame."""
        return self._StackFrame(self, func_name)

    def stack_alloc(self, size):
        """Bump-allocate in the current frame (``alloca`` equivalent)."""
        st = self.current()
        if not st.stack_frames:
            raise WedgeError("stack_alloc outside a stack_frame")
        self._check_quota(st, size)
        size = (size + 7) & ~7
        if st.stack_sp + size > st.stack_segment.size:
            raise WedgeError(f"stack overflow in {st.name}")
        addr = st.stack_segment.base + st.stack_sp
        st.stack_sp += size
        self._fire_alloc("alloc", addr, size, st.stack_segment, st)
        return addr

    # ------------------------------------------------------------------
    # sthreads, fork, pthreads
    # ------------------------------------------------------------------

    @_traced_syscall
    def sthread_create(self, sc, body, arg=None, *, name="",
                       spawn="thread", emulate=False, supervise=None,
                       heap_size=None, stack_size=None):
        """Create a compartment with exactly the privileges in *sc*.

        ``spawn="thread"`` runs *body* concurrently; ``spawn="inline"``
        runs it to completion on the calling thread before returning.
        Either way a :class:`CompartmentFault` or other
        :class:`WedgeError` ends only the child; inline, any other
        exception propagates to the caller.
        ``emulate=True`` uses the sthread emulation library: the child
        gets grant-all memory and its violations are recorded on
        ``child.table.violations`` instead of killing it (paper §3.4).
        ``supervise=RestartPolicy(...)`` wraps the compartment in a
        supervisor that restarts it from the COW snapshot on a
        :class:`CompartmentFault`, up to the policy's budget; the
        returned handle is a
        :class:`~repro.faults.supervise.SupervisedSthread`.

        ``heap_size``/``stack_size`` (bytes, page-granular) override the
        default private-region sizes — the 10k-connection campaigns
        spawn per-connection sthreads with page-sized regions so memory
        stays linear in live connections, not in default heap size.

        Under ``scheduler="reactor"``, a *generator-function* body is
        scheduled as a cooperative continuation on the kernel's
        readiness loop instead of an OS thread; plain callables keep
        their thread (the escape hatch for blocking bodies).
        """
        parent = self._syscall("sthread_create")
        check_subset_of(sc, parent, self.selinux)
        if supervise is not None:
            from repro.faults.supervise import SupervisedSthread
            handle = SupervisedSthread(
                self, sc, parent, body, arg,
                name=name or f"sup{self._next_sthread_id}",
                policy=supervise, spawn=spawn, emulate=emulate)
            return handle.start()
        child = self._build_sthread(sc, parent, name=name or None,
                                    kind="sthread", heap_size=heap_size,
                                    stack_size=stack_size)
        child.table.emulation = emulate
        self.costs.charge("task_create")
        self._start(child, body, arg, spawn)
        return child

    def _build_sthread(self, sc, parent, *, name, kind, span_parent=None,
                       heap_size=None, stack_size=None):
        """Construct the compartment state for a bound security context.

        *span_parent* overrides the trace linkage (default: the
        spawner's current span); supervision passes the crashed
        incarnation's span here so restarts chain visibly.
        """
        uid = sc.uid if sc.uid is not None else parent.uid
        root = sc.root if sc.root is not None else parent.root
        sel_sid = sc.sid if sc.sid is not None else parent.sel_sid
        ctx = SecurityContext(uid=uid, root=root, sid=sel_sid,
                              mem_quota=sc.mem_quota)
        ctx.mem = dict(sc.mem)
        ctx.fds = dict(sc.fds)
        child = self._new_compartment(
            name or f"sthread{self._next_sthread_id}", ctx, uid=uid,
            root=root, sel_sid=sel_sid, kind=kind, parent=parent)
        self.costs.charge("mm_create")
        # COW view of the pristine pre-main snapshot (paper section 4.1)
        child.table.map_segment(self.image.segment,
                                PROT_READ | PROT_COW, costs=self.costs,
                                frames=self.image.snapshot_frames)
        self._give_private_regions(
            child,
            heap_size=HEAP_SIZE if heap_size is None else heap_size,
            stack_size=STACK_SIZE if stack_size is None else stack_size)
        # policy-granted tagged memory
        for tag_id, prot in sc.mem.items():
            tag = self.tags.resolve(tag_id)
            child.table.map_segment(tag.segment, prot, costs=self.costs)
        # policy-granted descriptors
        child.fdtable = parent.fdtable.dup_subset(sc.fds, costs=self.costs)
        # callgates: new instantiations plus delegated existing gates
        for spec in sc.gate_specs:
            record = self._instantiate_gate(spec, parent)
            child.gates.add(record.id)
        for gate_id in sc.gate_ids:
            child.gates.add(gate_id)
        self._observe_spawn(child, parent, span_parent=span_parent)
        if self._cert_templates:
            self._maybe_certify(child)
        return child

    def _observe_spawn(self, child, parent, *, span_parent=None):
        """Emit the spawn event and open the child's span (if tracing)."""
        obs = self.observe
        if obs.enabled:
            obs.emit(ev.STHREAD_SPAWN, comp=parent.name,
                     child=child.name, kind=child.kind)
        tracer = obs.tracer
        if tracer is not None:
            origin = span_parent if span_parent is not None \
                else parent.span
            child.span = tracer.begin(f"{child.kind}:{child.name}",
                                      comp=child.name, parent=origin)

    def _start(self, child, body, arg, spawn):
        if spawn == "inline":
            child.run_body(self, body, arg)
        elif spawn == "thread":
            if (self.scheduler == "reactor"
                    and inspect.isgeneratorfunction(body)):
                child.start_coop(self, body, arg)
            else:
                child.start_thread(self, body, arg)
        else:
            raise WedgeError(f"unknown spawn mode {spawn!r}")

    def sthread_join(self, st, timeout=30.0):
        """Wait for *st*; returns its result.

        Raises typed errors instead of burying failure in ``None``:

        * :class:`~repro.core.errors.JoinTimeout` — *st* is still
          running after *timeout*;
        * :class:`~repro.core.errors.SthreadFaulted` — *st* died of a
          :class:`CompartmentFault` (chained as ``__cause__``);
        * :class:`~repro.core.errors.CompartmentDown` — a supervised
          *st* exhausted its restart budget.
        """
        result = st.join(timeout)
        self.costs.charge("task_destroy")
        if st.kind != "pthread":  # pthreads share the mm; nothing to tear down
            self.costs.charge("mm_destroy")
        if getattr(st, "degraded", False):
            raise st.down_error() from st.last_fault
        if st.faulted:
            raise SthreadFaulted(
                f"sthread {st.name!r} faulted: {st.fault}",
                sthread=st, fault=st.fault) from st.fault
        return result

    @_traced_syscall
    def fork(self, body, arg=None, *, name="", spawn="thread"):
        """UNIX fork: the child inherits *everything* — which is the
        paper's core criticism of processes as compartments."""
        parent = self._syscall("fork")
        ctx = parent.ctx.copy()
        child = self._new_compartment(name or f"{parent.name}:fork", ctx,
                                      uid=parent.uid, root=parent.root,
                                      sel_sid=parent.sel_sid,
                                      kind="process", parent=parent)
        self.costs.charge("task_create")
        self.costs.charge("mm_create")
        child.table = parent.table.clone(costs=self.costs,
                                         owner_name=child.name)
        # private (non-shared) regions become COW on both sides; the
        # downgrade narrows rights, so it shoots down cached translations
        for table in (parent.table, child.table):
            table.downgrade_to_cow(("heap", "stack", "globals"),
                                   costs=self.costs)
        child.heap_segment = parent.heap_segment
        child.stack_segment = parent.stack_segment
        child.stack_sp = parent.stack_sp
        child.stack_frames = list(parent.stack_frames)
        child.fdtable = parent.fdtable.dup_all(costs=self.costs)
        child.gates = set(parent.gates)
        child.table.observe = self.observe  # the clone replaced the table
        self._observe_spawn(child, parent)
        self._start(child, body, arg, spawn)
        return child

    @_traced_syscall
    def pthread_create(self, body, arg=None, *, name="", spawn="thread"):
        """POSIX thread: shares the address space, fds and privileges."""
        parent = self._syscall("pthread_create")
        child = self._new_compartment(name or f"{parent.name}:pthread",
                                      parent.ctx, uid=parent.uid,
                                      root=parent.root,
                                      sel_sid=parent.sel_sid,
                                      kind="pthread", parent=parent)
        self.costs.charge("task_create")
        child.table = parent.table            # shared address space
        child.fdtable = parent.fdtable
        child.gates = parent.gates
        child.heap_segment = parent.heap_segment
        # pthreads do get their own stack
        stack_seg = self.space.create_segment(
            STACK_SIZE, name=f"{child.name}:stack", kind="stack")
        child.stack_segment = stack_seg
        parent.table.map_segment(stack_seg, PROT_RW, costs=self.costs)
        self._observe_spawn(child, parent)
        self._start(child, body, arg, spawn)
        return child

    # ------------------------------------------------------------------
    # callgates
    # ------------------------------------------------------------------

    def _instantiate_gate(self, spec, creator):
        """Create the kernel-side record for a callgate spec.

        The gate's permissions must be a subset of its *creator's* (paper
        section 3.3), and the record captures the creator's uid, root and
        SID plus resolved descriptor objects so the eventual caller can
        tamper with none of them.
        """
        if spec.gate_sc.gate_specs:
            raise PolicyError(
                "a callgate's context may delegate existing gates but "
                "not define new ones")
        check_subset_of(spec.gate_sc, creator, self.selinux,
                        what="callgate")
        fd_files = []
        for fd, perms in spec.gate_sc.fds.items():
            entry = creator.fdtable.lookup(fd)
            fd_files.append((fd, entry.file, perms))
        with self._spawn_lock:
            gate_id = self._next_gate_id
            self._next_gate_id += 1
        record = CallgateRecord(
            gate_id, spec.entry, spec.gate_sc, spec.trusted_arg,
            creator_uid=creator.uid, creator_root=creator.root,
            creator_sid=(spec.gate_sc.sid or creator.sel_sid),
            fd_files=fd_files, recycled=spec.recycled,
            supervise=spec.supervise)
        self._gates[gate_id] = record
        return record

    def create_gate(self, entry, gate_sc, trusted_arg=None, *,
                    recycled=False, supervise=None):
        """Create a callgate for the *current* compartment.

        The paper's primary idiom: "after a privileged sthread creates a
        callgate, it may spawn a child sthread with reduced privilege,
        but grant that child permission to invoke the callgate" (section
        3.3).  The creator itself receives invocation rights; delegate to
        children with ``sc_cgate_add(sc, gate.id)``.
        """
        from repro.core.policy import CallgateSpec
        creator = self.current()
        spec = CallgateSpec(entry, gate_sc, trusted_arg, recycled=recycled,
                            supervise=supervise)
        record = self._instantiate_gate(spec, creator)
        creator.gates.add(record.id)
        return record

    @_traced_syscall
    def cgate(self, gate_id, perms=None, arg=None):
        """Invoke a callgate (paper Table 1's ``cgate``).

        *perms* grants the gate additional access from the *caller's* own
        privileges — normally read access to the tag holding *arg* — and
        is validated as a subset of the caller's permissions.  The caller
        blocks until the gate returns.
        """
        caller = self._syscall("cgate")
        self.costs.charge("cgate_lookup")
        record = self._gates.get(int(gate_id))
        if record is None:
            raise CallgateError(f"no such callgate: {gate_id}")
        if record.id not in caller.gates:
            raise CallgateError(
                f"{caller.name} has not been granted callgate "
                f"{record.name!r}")
        if perms is not None:
            check_subset_of(perms, caller, self.selinux,
                            what="cgate arg perms")
            if perms.gate_specs or perms.gate_ids:
                raise PolicyError("cgate arg perms cannot carry callgates")
        record.invocations += 1
        deadline = current_deadline()
        if deadline is not None and deadline.expired:
            # fail at the trust boundary, before any compartment is
            # built: the caller is out of end-to-end budget
            if self.observe.enabled:
                self.observe.emit(ev.DEADLINE_EXCEEDED, comp=caller.name,
                                  gate=record.name, op="cgate")
            raise DeadlineExceeded(
                f"deadline expired before invoking callgate "
                f"{record.name!r}", op="cgate", deadline=deadline)
        if record.supervise is not None:
            return self._invoke_supervised(record, caller, perms, arg)
        return self._invoke_once(record, caller, perms, arg)

    def _invoke_once(self, record, caller, perms, arg):
        if record.recycled:
            return self._invoke_recycled(record, caller, perms, arg)
        return self._invoke_fresh(record, caller, perms, arg)

    def _gate_base_context(self, record):
        ctx = SecurityContext(uid=record.creator_uid,
                              root=record.creator_root,
                              sid=record.creator_sid,
                              mem_quota=record.sc.mem_quota)
        ctx.mem = dict(record.sc.mem)
        ctx.fds = dict(record.sc.fds)
        gate = self._new_compartment(
            f"cg:{record.name}", ctx, uid=record.creator_uid,
            root=record.creator_root, sel_sid=record.creator_sid,
            kind="callgate")
        self.costs.charge("mm_create")
        gate.table.map_segment(self.image.segment,
                               PROT_READ | PROT_COW, costs=self.costs,
                               frames=self.image.snapshot_frames)
        self._give_private_regions(gate)
        for tag_id, prot in record.sc.mem.items():
            tag = self.tags.resolve(tag_id)
            gate.table.map_segment(tag.segment, prot, costs=self.costs)
        gate.fdtable = FdTable()
        for fd, file, fperms in record.fd_files:
            gate.fdtable.install(file, fperms, fd=fd)
            self.costs.charge("fd_copy")
        gate.gates = set(record.sc.gate_ids)
        if self._cert_templates:
            self._maybe_certify(gate)
        return gate

    def _apply_caller_perms(self, gate, caller, perms):
        """Map the caller-supplied extra grants into the gate."""
        if perms is None:
            return []
        mapped = []
        for tag_id, prot in perms.mem.items():
            tag = self.tags.resolve(tag_id)
            if tag_id in gate.ctx.mem:
                continue
            gate.table.map_segment(tag.segment, prot, costs=self.costs)
            gate.ctx.mem[tag_id] = prot
            mapped.append(tag)
        for fd, fperms in perms.fds.items():
            entry = caller.fdtable.lookup(fd)
            gate.fdtable.install(entry.file, fperms, fd=fd)
        return mapped

    def _run_gate(self, gate, record, arg, caller=None):
        gate.status = "running"
        obs = self.observe
        if obs.enabled:
            obs.emit(ev.CGATE_ENTER,
                     comp=caller.name if caller is not None else None,
                     gate=record.name, recycled=record.recycled)
        tracer = obs.tracer
        if tracer is not None:
            # the span context crosses the trust boundary with the call
            gate.span = tracer.begin(
                record.span_name, comp=gate.name,
                parent=caller.span if caller is not None else None)
        with self._as_current(gate):
            try:
                if self.faults is not None and self.faults.enabled:
                    self._fault_point("cgate")
                result = record.entry(record.trusted_arg, arg)
                gate.status = "exited"
                return result
            except CompartmentFault as fault:
                gate.fault = fault
                gate.status = "faulted"
                # the incarnation is dead; none of its cached
                # translations may survive into a rebuilt/reused gate
                gate.table.flush_tlb(costs=self.costs)
                raise CallgateError(
                    f"callgate {record.name!r} faulted: {fault}") from fault
            finally:
                # "running" here means the entry raised an ordinary
                # application error rather than exiting or faulting
                status = ("error" if gate.status == "running"
                          else gate.status)
                if tracer is not None:
                    tracer.end(gate.span, status=status)
                if obs.enabled:
                    obs.emit(ev.CGATE_EXIT, comp=gate.name,
                             gate=record.name, status=status)

    def _invoke_fresh(self, record, caller, perms, arg):
        self.costs.charge("task_create")
        gate = self._gate_base_context(record)
        self._apply_caller_perms(gate, caller, perms)
        try:
            return self._run_gate(gate, record, arg, caller)
        finally:
            gate.fdtable.close_all()
            self.costs.charge("task_destroy")
            self.costs.charge("mm_destroy")

    def _invoke_recycled(self, record, caller, perms, arg):
        """Recycled gates reuse one long-lived compartment (paper §3.3).

        Only a futex round trip is charged per call.  The persistent
        private heap is *not* scrubbed between invocations — the isolation
        trade-off the paper warns about, demonstrated in the tests.
        """
        self.costs.charge("futex_roundtrip")
        if record.persistent is None:
            # first use pays the construction cost, amortised thereafter
            self.costs.charge("task_create")
            record.persistent = self._gate_base_context(record)
        gate = record.persistent
        mapped = self._apply_caller_perms(gate, caller, perms)
        extra_fds = list(perms.fds) if perms is not None else []
        try:
            return self._run_gate(gate, record, arg, caller)
        finally:
            for tag in mapped:
                gate.table.unmap_segment(tag.segment, costs=self.costs)
                gate.ctx.mem.pop(tag.id, None)
            for fd in extra_fds:
                if fd in gate.fdtable:
                    gate.fdtable.close(fd)
            if gate.status == "faulted":
                record.persistent = None  # a dead gate is not reused
            else:
                gate.status = "running"

    def _invoke_supervised(self, record, caller, perms, arg):
        """Invoke a supervised gate: watchdog, restart-on-fault, degrade.

        A faulted (or watchdog-abandoned) incarnation is discarded —
        ``record.persistent = None`` forces the next attempt to rebuild
        the compartment from the pristine COW snapshot — and the call is
        retried after a backoff, up to the policy's cumulative restart
        budget.  Past the budget the gate turns terminally *degraded*:
        this and every later invocation raise
        :class:`~repro.core.errors.CallgateDegraded`.

        Only compartment deaths count: a gate that raises an ordinary
        application error (bad password, handshake failure) finished its
        job and is not restarted.

        When the policy carries a :class:`~repro.resilience.BreakerPolicy`
        the degraded state is no longer terminal: the degrade trips a
        circuit breaker, calls fail fast while it is open, and once the
        cooldown elapses exactly one caller is admitted as a half-open
        probe.  A successful probe closes the breaker — the gate rebuilds
        from the pristine COW snapshot with a fresh restart budget; a
        failed probe re-opens it with an escalated cooldown.
        """
        policy = record.supervise
        if record.degraded:
            breaker = record.breaker
            if breaker is None or not breaker.try_probe():
                # no breaker (terminal, the pre-breaker contract), still
                # cooling down, or another probe is in flight: fail fast
                raise CallgateDegraded(
                    f"callgate {record.name!r} is degraded after "
                    f"{record.restarts} restart(s)",
                    name=record.name, restarts=record.restarts,
                    last_fault=record.last_fault)
            return self._invoke_probe(record, caller, perms, arg, breaker)
        delay = policy.backoff
        while True:
            try:
                if policy.watchdog is not None:
                    return self._invoke_with_watchdog(
                        record, caller, perms, arg, policy.watchdog)
                return self._invoke_once(record, caller, perms, arg)
            except CallgateError as exc:
                # CallgateError here means the incarnation died (a
                # CompartmentFault surfaced by _run_gate, or a watchdog
                # GateTimeout); application-level errors pass through
                record.last_fault = exc
                record.persistent = None   # restart = rebuild from COW
                if record.restarts >= policy.max_restarts:
                    record.degraded = True
                    if policy.breaker is not None:
                        if record.breaker is None:
                            record.breaker = CircuitBreaker(policy.breaker)
                        record.breaker.trip()
                        if self.observe.enabled:
                            self.observe.emit(
                                ev.BREAKER_OPEN, comp=caller.name,
                                gate=record.name,
                                cooldown=record.breaker.current_cooldown)
                    if self.observe.enabled:
                        self.observe.emit(
                            ev.CGATE_DEGRADED, comp=caller.name,
                            gate=record.name, restarts=record.restarts)
                    raise CallgateDegraded(
                        f"callgate {record.name!r} degraded after "
                        f"{record.restarts} restart(s): {exc}",
                        name=record.name, restarts=record.restarts,
                        last_fault=exc) from exc
                record.restarts += 1
                if self.observe.enabled:
                    self.observe.emit(
                        ev.SUPERVISE_RESTART, comp=caller.name,
                        gate=record.name, generation=record.restarts)
                if delay > 0:
                    time.sleep(delay)
                delay *= policy.backoff_factor

    def _invoke_probe(self, record, caller, perms, arg, breaker):
        """One admitted half-open invocation of a degraded gate."""
        policy = record.supervise
        if self.observe.enabled:
            self.observe.emit(ev.BREAKER_HALF_OPEN, comp=caller.name,
                              gate=record.name,
                              probes=breaker.probe_count)
        try:
            if policy.watchdog is not None:
                result = self._invoke_with_watchdog(
                    record, caller, perms, arg, policy.watchdog)
            else:
                result = self._invoke_once(record, caller, perms, arg)
        except CallgateError as exc:
            record.last_fault = exc
            record.persistent = None
            breaker.probe_failed()
            if self.observe.enabled:
                self.observe.emit(ev.BREAKER_OPEN, comp=caller.name,
                                  gate=record.name, reopened=True,
                                  cooldown=breaker.current_cooldown)
            raise CallgateDegraded(
                f"callgate {record.name!r} half-open probe failed: {exc}",
                name=record.name, restarts=record.restarts,
                last_fault=exc) from exc
        breaker.probe_succeeded()
        record.degraded = False
        record.restarts = 0
        record.last_fault = None
        if self.observe.enabled:
            self.observe.emit(ev.BREAKER_CLOSE, comp=caller.name,
                              gate=record.name,
                              recoveries=breaker.recoveries)
        return result

    def _invoke_with_watchdog(self, record, caller, perms, arg, watchdog):
        """Run one invocation on a worker thread; abandon it on timeout.

        The worker's compartment-context stack is pre-seeded with the
        real caller so ``kernel.caller()`` keeps resolving correctly for
        promote-style gates, and the caller's ambient deadline (if any)
        is carried onto the worker thread so gate-internal net ops keep
        honouring the end-to-end budget.  The effective wait is the
        *smaller* of the watchdog and the remaining budget; a wait cut
        short by the deadline raises
        :class:`~repro.core.errors.DeadlineExceeded` (the request is out
        of time), a genuine watchdog expiry raises
        :class:`~repro.core.errors.GateTimeout` (the gate hung).  Either
        way the hung incarnation is simply abandoned (daemon thread) and
        the persistent compartment, if any, is dropped so it cannot be
        reused mid-invocation.
        """
        box = {}
        ambient = current_deadline()

        def run():
            self._stack().append(caller)
            try:
                with deadline_scope(ambient):
                    box["result"] = self._invoke_once(record, caller,
                                                      perms, arg)
            except BaseException as exc:  # re-raised on the caller thread
                box["error"] = exc

        worker = threading.Thread(target=run, name=f"wd:{record.name}",
                                  daemon=True)
        worker.start()
        budget = (watchdog if ambient is None
                  else ambient.clamp(watchdog))
        worker.join(budget)
        if worker.is_alive():
            record.persistent = None   # never reuse a hung incarnation
            if ambient is not None and ambient.expired:
                if self.observe.enabled:
                    self.observe.emit(ev.DEADLINE_EXCEEDED,
                                      comp=caller.name, gate=record.name,
                                      op="watchdog")
                raise DeadlineExceeded(
                    f"deadline expired inside callgate {record.name!r} "
                    f"(incarnation abandoned)", op="watchdog",
                    deadline=ambient)
            raise GateTimeout(
                f"callgate {record.name!r} exceeded its {watchdog}s "
                f"watchdog", gate_id=record.id, timeout=watchdog)
        if "error" in box:
            raise box["error"]
        return box.get("result")

    def gate_record(self, gate_id):
        return self._gates.get(int(gate_id))

    # ------------------------------------------------------------------
    # identity syscalls
    # ------------------------------------------------------------------

    def getuid(self):
        return self.current().uid

    @_traced_syscall
    def setuid(self, uid):
        st = self._syscall("setuid")
        if st.uid != 0 and uid != st.uid:
            raise SyscallDenied(f"setuid({uid}) as uid {st.uid}",
                                syscall="setuid", sid=st.sel_sid)
        st.uid = uid

    @_traced_syscall
    def chroot(self, path):
        st = self._syscall("chroot")
        if st.uid != 0:
            raise SyscallDenied("chroot requires uid 0", syscall="chroot",
                                sid=st.sel_sid)
        st.root = self.vfs.resolve(st.root, path)

    def promote(self, target, *, uid=None, root=None):
        """Change another compartment's uid/root — the authentication-
        callgate idiom (paper section 5.2, crediting Privtrans)."""
        st = self.current()
        if st.uid != 0:
            raise SyscallDenied("promote requires uid 0",
                                syscall="promote", sid=st.sel_sid)
        if uid is not None:
            target.uid = uid
            target.ctx.uid = uid
        if root is not None:
            target.root = root
            target.ctx.root = root

    # ------------------------------------------------------------------
    # files
    # ------------------------------------------------------------------

    @_traced_syscall
    def open(self, path, mode="r"):
        """Open a VFS file; returns an fd with matching permission bits."""
        st = self._syscall("open")
        real = self.vfs.resolve(st.root, path)
        if mode == "r":
            node = self.vfs.open_read(real, st.uid)
            file = VfsOpenFile(node, real)
            return st.fdtable.install(file, FD_READ)
        if mode in ("w", "a"):
            node = self.vfs.open_write(real, st.uid,
                                       truncate=(mode == "w"))
            file = VfsOpenFile(node, real, append=(mode == "a"))
            return st.fdtable.install(file, FD_WRITE)
        if mode == "rw":
            node = self.vfs.open_write(real, st.uid)
            if not node.readable_by(st.uid):
                raise VfsError(f"permission denied reading {real}")
            return st.fdtable.install(VfsOpenFile(node, real), FD_RW)
        raise VfsError(f"bad open mode {mode!r}")

    @_traced_syscall
    def read(self, fd, size):
        st = self._syscall("read")
        entry = st.fdtable.lookup(fd, needed=FD_READ)
        return entry.file.read(size)

    @_traced_syscall
    def write(self, fd, data):
        st = self._syscall("write")
        entry = st.fdtable.lookup(fd, needed=FD_WRITE)
        return entry.file.write(bytes(data))

    @_traced_syscall
    def close(self, fd):
        st = self._syscall("close")
        st.fdtable.close(fd)

    @_traced_syscall
    def pipe(self):
        """Create a pipe; returns ``(read_fd, write_fd)``."""
        st = self._syscall("pipe")
        stream = ByteStream("pipe")
        rfd = st.fdtable.install(PipeOpenFile(stream, readable=True),
                                 FD_READ)
        wfd = st.fdtable.install(PipeOpenFile(stream, readable=False),
                                 FD_WRITE)
        return rfd, wfd

    # ------------------------------------------------------------------
    # disk (repro.disk): the sc_disk_* family
    # ------------------------------------------------------------------
    #
    # Offset-addressed, barrier-ordered block I/O.  The descriptor is an
    # ordinary fd-table entry, so disk rights are granted, delegated and
    # linted exactly like socket or pipe rights: `sc_fd_add` puts the fd
    # in one compartment's SecurityContext and the three-way analyzer
    # proves nobody else can reach the platter.

    @_traced_syscall
    def disk_open(self, disk):
        """Attach a :class:`~repro.disk.SimDisk`; returns an FD_RW fd.

        The device registers with this kernel so :meth:`kill` can crash
        it (drop or tear unflushed writes); the device object itself is
        never destroyed and may be re-opened by a later incarnation.
        """
        st = self._syscall("disk_open")
        if disk not in self._disks:
            self._disks.append(disk)
        return st.fdtable.install(DiskOpenFile(disk), FD_RW)

    @_traced_syscall
    def disk_read(self, fd, offset, size):
        """Read through the buffer cache (pending writes included)."""
        st = self._syscall("disk_read")
        entry = st.fdtable.lookup(fd, needed=FD_READ)
        disk = entry.file.disk
        data = disk.read(offset, size)
        self.costs.charge("disk_sector_read",
                          disk.sector_span(offset, len(data)))
        return data

    @_traced_syscall
    def disk_write(self, fd, offset, data):
        """Buffer one write; NOT durable until :meth:`disk_fsync`."""
        st = self._syscall("disk_write")
        entry = st.fdtable.lookup(fd, needed=FD_WRITE)
        disk = entry.file.disk
        data = bytes(data)
        n = disk.write(offset, data)
        self.costs.charge("disk_sector_write",
                          disk.sector_span(offset, n))
        if self.observe.enabled:
            self.observe.emit(ev.DISK_WRITE, comp=st.name,
                              disk=disk.name, offset=offset, nbytes=n,
                              pending=disk.pending_count)
        return n

    @_traced_syscall
    def disk_fsync(self, fd):
        """The barrier: every buffered write becomes durable, in order.

        Returns the number of sector sub-writes flushed.  This is the
        only operation after which a write is guaranteed to survive
        ``kill(power_loss=True)``.
        """
        st = self._syscall("disk_fsync")
        entry = st.fdtable.lookup(fd, needed=FD_WRITE)
        disk = entry.file.disk
        flushed = disk.fsync()
        self.costs.charge("disk_fsync")
        if self.observe.enabled:
            self.observe.emit(ev.DISK_FSYNC, comp=st.name,
                              disk=disk.name, flushed=flushed)
        return flushed

    # ------------------------------------------------------------------
    # network
    # ------------------------------------------------------------------

    def _need_net(self):
        if self.net is None:
            raise WedgeError("kernel has no network attached")
        return self.net

    @_traced_syscall
    def listen(self, addr, backlog=None):
        st = self._syscall("listen")
        listener = self._need_net().listen(addr, backlog=backlog)
        self._owned_listeners.append(listener)
        fd = st.fdtable.install(ListenerOpenFile(listener), FD_READ)
        if self.observe.enabled:
            self.observe.emit(ev.NET_LISTEN, comp=st.name, addr=addr,
                              fd=fd, backlog=listener.backlog)
        return fd

    @_traced_syscall
    def accept(self, listen_fd, timeout=30.0):
        st = self._syscall("accept")
        entry = st.fdtable.lookup(listen_fd, needed=FD_READ)
        sock = entry.file.listener.accept(timeout)
        self._owned_socks.append(sock)
        fd = st.fdtable.install(SocketOpenFile(sock), FD_RW)
        obs = self.observe
        if obs.enabled:
            obs.emit(ev.NET_ACCEPT, comp=st.name, fd=fd,
                     addr=getattr(sock, "addr", None), cid=sock.cid)
        tracer = obs.tracer
        if tracer is not None:
            # one inbound connection, one trace: a fresh root span
            # replaces the accepting compartment's previous request root
            if st.span is not None and st.span.parent_id is None:
                tracer.end(st.span)
            st.span = tracer.begin("request", comp=st.name,
                                   addr=getattr(sock, "addr", None),
                                   cid=sock.cid)
        return fd

    @_traced_syscall
    def connect(self, addr):
        st = self._syscall("connect")
        sock = self._need_net().connect(addr)
        self._owned_socks.append(sock)
        fd = st.fdtable.install(SocketOpenFile(sock), FD_RW)
        if self.observe.enabled:
            self.observe.emit(ev.NET_CONNECT, comp=st.name, addr=addr,
                              fd=fd, cid=sock.cid)
        if st.span is not None and sock.cid is not None:
            # the outbound hop's cid joins this span's trace to the
            # accepting span on the remote kernel (observe.stitch)
            st.span.fields.setdefault("cids", []).append(sock.cid)
        return fd

    @_traced_syscall
    def send(self, fd, data):
        st = self._syscall("send")
        entry = st.fdtable.lookup(fd, needed=FD_WRITE)
        if self.observe.enabled:
            # nbytes only: payload bytes never enter the event stream
            self.observe.emit(ev.NET_SEND, comp=st.name, fd=fd,
                              nbytes=len(data))
        return entry.file.write(bytes(data))

    @_traced_syscall
    def shutdown(self, fd):
        """Half-close: end the write direction of a socket fd.

        The peer's reads drain buffered bytes and then see EOF, while
        this side can keep reading — the forwarding idiom the lb app's
        splice compartments rely on.  Demands FD_WRITE (it is the write
        direction being retired).
        """
        st = self._syscall("shutdown")
        entry = st.fdtable.lookup(fd, needed=FD_WRITE)
        if entry.file.kind != "socket":
            raise WedgeError(f"shutdown on non-socket fd {fd}")
        entry.file.sock.shutdown_write()

    @_traced_syscall
    def recv(self, fd, size, timeout=None):
        st = self._syscall("recv")
        entry = st.fdtable.lookup(fd, needed=FD_READ)
        if timeout is not None and entry.file.kind == "socket":
            data = entry.file.sock.recv(size, timeout)
            if data is None:
                from repro.core.errors import ConnectionClosed
                raise ConnectionClosed("peer closed the connection")
        else:
            data = entry.file.read(size)
        if self.observe.enabled:
            # nbytes only: payload bytes never enter the event stream
            self.observe.emit(ev.NET_RECV, comp=st.name, fd=fd,
                              nbytes=len(data))
        return data

    def recv_exact(self, fd, size, timeout=30.0):
        """Framing helper: exactly *size* bytes or ConnectionClosed."""
        out = bytearray()
        while len(out) < size:
            out += self.recv(fd, size - len(out), timeout)
        return bytes(out)

    # ------------------------------------------------------------------
    # cooperative network syscalls (repro.core.reactor)
    # ------------------------------------------------------------------
    #
    # Each co_* helper is a generator for reactor tasks to ``yield
    # from``.  The contract is *readiness, then syscall*: the helper
    # waits silently (no cycle charges, no events — a parked waiter
    # costs nothing, like a thread asleep in the threaded oracle) until
    # the endpoint's level-triggered predicate guarantees the unchanged
    # blocking syscall above completes without blocking, then calls it.
    # Everything observable — bytes, model cycles, emitted events,
    # SELinux checks — therefore happens in the real syscall, identical
    # to the threaded path by construction.

    def _co_endpoint(self, fd, needed):
        """Resolve *fd* to its waitable endpoint without charging.

        ``FdTable.lookup`` is cost-free (the trap is charged by the
        eventual real syscall); it still enforces the fd permission
        bits, so a policy violation surfaces at the wait site too.
        """
        st = self.current()
        entry = st.fdtable.lookup(fd, needed=needed)
        file = entry.file
        if file.kind == "socket":
            return file.sock.rx if needed == FD_READ else file.sock.tx
        if file.kind == "pipe":
            return file.stream
        if file.kind == "listener":
            return file.listener
        raise WedgeError(f"fd {fd} ({file.kind}) is not waitable")

    def _co_stall(self, op, deadline, timeout, give_up):
        """Typed timeout/deadline handling for a still-blocked wait;
        returns the wake_at for the next Wait descriptor."""
        now = time.monotonic()
        if deadline is not None and deadline.expired:
            deadline.check(op)
        if give_up is not None and now >= give_up:
            raise NetTimeout(f"{op} timed out after {timeout}s",
                             op=op, timeout=timeout)
        wake_at = give_up
        if deadline is not None:
            expiry = now + max(0.0, deadline.remaining())
            wake_at = expiry if wake_at is None else min(wake_at, expiry)
        return wake_at

    def co_accept(self, listen_fd, timeout=None):
        """Cooperative :meth:`accept`: wait acceptable, then accept.

        ``timeout=None`` waits indefinitely (the accept-loop idiom —
        the listener closing wakes the waiter with the typed
        closed-listener error instead of a poll timeout).
        """
        deadline = current_deadline()
        give_up = (None if timeout is None
                   else time.monotonic() + float(timeout))
        while True:
            listener = self._co_endpoint(listen_fd, FD_READ)
            if listener.acceptable:
                # readiness guaranteed: cannot block (a raced-away
                # connection re-enters the wait loop via NetTimeout)
                try:
                    return self.accept(listen_fd, timeout=0.05)
                except NetTimeout:
                    continue
            wake_at = self._co_stall("accept", deadline, timeout, give_up)
            yield wait_acceptable(listener, wake_at=wake_at)

    def co_wait_readable(self, fd, timeout=None):
        """Cooperatively park until *fd* has bytes (or EOF) to read.

        Unlike :meth:`co_recv` this consumes nothing — it exists so a
        cooperative job can front an ordinary *blocking* handler:
        first-byte readiness guarantees the handler's opening read
        returns without parking the loop, and a client that connects
        but never speaks costs no pool thread while it dawdles.
        """
        eff = DEFAULT_STREAM_TIMEOUT if timeout is None else timeout
        deadline = current_deadline()
        give_up = time.monotonic() + float(eff)
        while True:
            stream = self._co_endpoint(fd, FD_READ)
            if stream.readable:
                return
            wake_at = self._co_stall("recv", deadline, eff, give_up)
            yield wait_readable(stream, wake_at=wake_at)

    def co_sthread_join(self, st, timeout=30.0):
        """Cooperative twin of :meth:`sthread_join`.

        Parks the calling reactor task on the compartment's exit event
        (sthreads are joinable endpoints, like tasks) instead of tying
        up an OS thread — a connection job can spawn worker sthreads
        and wait for them while thousands of its siblings share the
        loop.  Once the child settles, the blocking join runs inline:
        identical cost charging and the same typed errors
        (:class:`~repro.core.errors.SthreadFaulted`,
        :class:`~repro.core.errors.CompartmentDown`).
        """
        give_up = time.monotonic() + float(timeout)
        while not st.done:
            if time.monotonic() >= give_up:
                raise JoinTimeout(f"join of {st.name} timed out "
                                  f"after {timeout}s",
                                  sthread=st, timeout=timeout)
            yield wait_done(st, wake_at=give_up)
        return self.sthread_join(st, timeout=max(1.0, float(timeout)))

    def co_recv(self, fd, size, timeout=None):
        """Cooperative :meth:`recv`: wait readable, then recv."""
        eff = DEFAULT_STREAM_TIMEOUT if timeout is None else timeout
        deadline = current_deadline()
        give_up = time.monotonic() + float(eff)
        while True:
            stream = self._co_endpoint(fd, FD_READ)
            if stream.readable:
                return self.recv(fd, size, timeout=eff)
            wake_at = self._co_stall("recv", deadline, eff, give_up)
            yield wait_readable(stream, wake_at=wake_at)

    def co_recv_exact(self, fd, size, timeout=30.0):
        """Cooperative :meth:`recv_exact`."""
        out = bytearray()
        while len(out) < size:
            out += yield from self.co_recv(fd, size - len(out), timeout)
        return bytes(out)

    def co_send(self, fd, data, timeout=None):
        """Cooperative :meth:`send`: wait for room, then send.

        Fully cooperative for payloads up to the stream's high-water
        mark (the wait guarantees the whole payload fits, so the real
        send never blocks).  Larger payloads fall back to the blocking
        chunk loop inside :meth:`send` once high-water bytes of room
        exist — callers moving bulk data under the reactor should
        offload or frame their writes below the mark.
        """
        eff = DEFAULT_STREAM_TIMEOUT if timeout is None else timeout
        deadline = current_deadline()
        give_up = time.monotonic() + float(eff)
        need = len(data)
        while True:
            stream = self._co_endpoint(fd, FD_WRITE)
            if stream.has_room(need):
                return self.send(fd, data)
            stream.backpressure_waits += 1
            wake_at = self._co_stall("send", deadline, eff, give_up)
            yield wait_writable(stream, need, wake_at=wake_at)
