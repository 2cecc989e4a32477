"""Simulated physical memory, segments, page tables and the memory bus.

This module is the simulation's stand-in for the MMU.  All application
state that matters for isolation lives in :class:`Segment` objects inside a
single kernel-wide :class:`AddressSpace`.  Each sthread owns a
:class:`PageTable`; every load and store issued on behalf of an sthread
goes through :class:`MemoryBus`, which resolves the address through that
page table and enforces the page protections — raising
:class:`~repro.core.errors.MemoryViolation` exactly where real hardware
would deliver a page fault.

Copy-on-write is modelled at page granularity: a PTE carrying
:data:`PROT_COW` shares the pristine frame until the first write, at which
point the frame is copied privately into that page table (and the copy is
charged to the cost account).

Frames are demand-zero, as Linux backs the anonymous memory that
``tag_new`` models (paper section 4.1): a frame holds no bytes until its
first access faults in a zeroed page.  Nothing is charged for it — the
model prices mappings and accesses, which are the same either way.

Like a real MMU, the bus amortises the page-table walk with a simulated
per-table TLB: resolved ``(frame, prot, segment)`` translations are
cached so repeated accesses skip the walk.  Correctness rests on one
rule, enforced by tests: **every** PTE mutation goes through
:meth:`PageTable._invalidate` (the single choke point), so rights can
never be exercised through a stale cached translation — not after a
revocation (``unmap_segment``), a protection narrowing (remap), a COW
first-write frame replacement, a fork downgrade, or a compartment fault.
"""

from __future__ import annotations

import bisect
import threading

from repro.core.errors import BadAddress, MemoryViolation
from repro.observe.events import (ANALYSIS_REVOKED, COW_BREAK,
                                  MEM_VIOLATION, TLB_HIT, TLB_MISS,
                                  TLB_SHOOTDOWN)

PAGE_SIZE = 4096
PAGE_SHIFT = 12
PAGE_MASK = PAGE_SIZE - 1

#: Page / tag protection bits.  Wedge has no write-only memory (paper
#: section 3.1): :data:`PROT_WRITE` alone is rejected at the policy layer.
PROT_NONE = 0
PROT_READ = 1
PROT_WRITE = 2
PROT_RW = PROT_READ | PROT_WRITE
PROT_COW = 4  # readable; private copy made on first write

_PROT_NAMES = {
    PROT_NONE: "none",
    PROT_READ: "r",
    PROT_WRITE: "w",
    PROT_RW: "rw",
    PROT_COW: "cow",
    PROT_READ | PROT_COW: "cow",
}


def prot_name(prot):
    """Human-readable name for a protection value (for logs and errors)."""
    return _PROT_NAMES.get(prot, f"prot({prot})")


def page_count(size):
    """Number of pages needed to back *size* bytes."""
    return (size + PAGE_SIZE - 1) >> PAGE_SHIFT


#: Serialises first touches: two compartments may fault in one shared
#: tag page from different OS threads, and both must land on one page.
_FIRST_TOUCH = threading.Lock()


class Frame:
    """One 4 KiB physical frame, demand-zero like anonymous ``mmap``.

    ``Frame()`` holds no page: it is an :class:`_UntouchedFrame` until
    the first access to ``data`` faults in a zeroed page and turns it
    into a plain ``Frame``, whose ``data`` is an ordinary slot read.
    ``Frame(data)`` holds a copy of *data* from the start.
    """

    __slots__ = ("data",)
    touched = True

    def __new__(cls, data=None):
        if data is None:
            return object.__new__(_UntouchedFrame)
        if len(data) != PAGE_SIZE:
            raise ValueError("frame data must be exactly one page")
        frame = object.__new__(Frame)
        frame.data = bytearray(data)
        return frame

    def copy(self):
        return Frame(self.data)


class _UntouchedFrame(Frame):
    """A frame whose zero page has not been faulted in yet.

    ``__getattr__`` runs only while the ``data`` slot is empty.  Under
    the first-touch lock it fills the slot and swaps the instance's
    class to :class:`Frame`, so every later access skips this hook; a
    racing thread re-checks the class and returns the winner's page.
    """

    __slots__ = ()
    touched = False

    def __getattr__(self, name):
        if name != "data":
            raise AttributeError(name)
        with _FIRST_TOUCH:
            if self.__class__ is _UntouchedFrame:
                self.data = bytearray(PAGE_SIZE)
                self.__class__ = Frame
        return self.data

    def copy(self):
        # a COW break or snapshot of a zero page copies no bytes
        return Frame()


class Segment:
    """A contiguous, page-aligned region of the simulated address space.

    Segments are the unit of tagging: a tag maps to one segment (paper
    section 3.2, ``tag_new`` behaves like anonymous mmap).  ``kind`` is a
    descriptive label: ``"tag"``, ``"heap"``, ``"stack"``, ``"globals"``,
    ``"boundary"``.
    """

    def __init__(self, seg_id, base, size, *, name="", kind="anon",
                 tag_id=None):
        if base % PAGE_SIZE:
            raise ValueError("segment base must be page aligned")
        self.id = seg_id
        self.base = base
        self.size = size
        self.npages = page_count(size)
        self.name = name
        self.kind = kind
        self.tag_id = tag_id
        self.frames = [Frame() for _ in range(self.npages)]
        self.live = True

    @property
    def limit(self):
        """One past the last mapped byte (page-granular)."""
        return self.base + self.npages * PAGE_SIZE

    def contains(self, addr):
        return self.base <= addr < self.limit

    # -- kernel-level raw access (bypasses page tables) -------------------
    #
    # Used by trusted runtime components that conceptually live inside the
    # kernel or operate on memory before any sthread exists (snapshotting,
    # tag scrubbing).  Application code never calls these; it goes through
    # MemoryBus.

    def read_raw(self, offset, size):
        if offset < 0 or offset + size > self.npages * PAGE_SIZE:
            raise BadAddress(f"raw read outside segment {self.name!r}",
                             addr=self.base + offset, op="read")
        out = bytearray()
        while size:
            page, off = divmod(offset, PAGE_SIZE)
            take = min(size, PAGE_SIZE - off)
            out += self.frames[page].data[off:off + take]
            offset += take
            size -= take
        return bytes(out)

    def write_raw(self, offset, data):
        if offset < 0 or offset + len(data) > self.npages * PAGE_SIZE:
            raise BadAddress(f"raw write outside segment {self.name!r}",
                             addr=self.base + offset, op="write")
        pos = 0
        while pos < len(data):
            page, off = divmod(offset + pos, PAGE_SIZE)
            take = min(len(data) - pos, PAGE_SIZE - off)
            self.frames[page].data[off:off + take] = data[pos:pos + take]
            pos += take

    def scrub(self):
        """Zero every page in place (tag reuse).  An untouched page
        already reads zero, so it stays untouched."""
        zero_page = bytes(PAGE_SIZE)
        for frame in self.frames:
            if frame.touched:
                frame.data[:] = zero_page

    def snapshot_frames(self):
        """Deep-copy the backing frames (used for the pre-main snapshot)."""
        return [frame.copy() for frame in self.frames]

    def __repr__(self):
        return (f"<Segment #{self.id} {self.name!r} kind={self.kind} "
                f"base=0x{self.base:x} size={self.size}>")


class AddressSpace:
    """Kernel-wide registry of segments and allocator of base addresses.

    Bases are handed out bump-pointer style with a one-page guard gap, so
    no two segments are ever adjacent — ``tag_new`` must not merge
    neighbouring mappings (paper section 4.1) because they may be used in
    different security contexts.
    """

    _BASE = 0x1000_0000

    def __init__(self):
        self._segments = {}
        self._bases = []      # sorted bases for bisect lookup
        self._by_base = {}
        self._next_base = self._BASE
        self._next_id = 1
        # creation/destruction may happen from concurrent masters
        self._lock = threading.Lock()

    def create_segment(self, size, *, name="", kind="anon", tag_id=None):
        if size <= 0:
            raise ValueError("segment size must be positive")
        with self._lock:
            base = self._next_base
            seg = Segment(self._next_id, base, size, name=name,
                          kind=kind, tag_id=tag_id)
            self._next_id += 1
            # guard page gap after the segment
            self._next_base = seg.limit + PAGE_SIZE
            self._segments[seg.id] = seg
            bisect.insort(self._bases, base)
            self._by_base[base] = seg
            return seg

    def destroy_segment(self, seg):
        with self._lock:
            if not seg.live:
                return
            seg.live = False
            del self._segments[seg.id]
            self._bases.remove(seg.base)
            del self._by_base[seg.base]

    def find(self, addr):
        """Resolve *addr* to ``(segment, offset)`` or raise BadAddress."""
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            seg = self._by_base[self._bases[idx]]
            if seg.contains(addr):
                return seg, addr - seg.base
        raise BadAddress(f"address 0x{addr:x} is not mapped by any segment",
                         addr=addr)

    def segments(self):
        return list(self._segments.values())

    def __len__(self):
        return len(self._segments)


class PTE:
    """One page-table entry: a frame reference plus protection bits."""

    __slots__ = ("frame", "prot", "segment")

    def __init__(self, frame, prot, segment):
        self.frame = frame
        self.prot = prot
        self.segment = segment

    def copy(self):
        return PTE(self.frame, self.prot, self.segment)


class VerifiedMap:
    """Certificate-proven translations for the verified bus fast path.

    Built by :meth:`~repro.core.kernel.Kernel.enter_verified` from a
    signed :class:`~repro.analysis.verify.PolicyCertificate` and
    installed on a table via :meth:`PageTable.install_certificate`.
    ``rpages`` / ``wpages`` map absolute page numbers to
    ``(memoryview, segment)`` pairs over the proven frames — accesses
    they cover need no permission resolution and no TLB lookup at all.
    ``syscalls`` is the certificate's syscall allow-set, consulted by
    the kernel's syscall gate for the matching fast path.
    """

    __slots__ = ("rpages", "wpages", "syscalls", "cert")

    def __init__(self, rpages, wpages, syscalls, cert=None):
        self.rpages = rpages
        self.wpages = wpages
        self.syscalls = frozenset(syscalls)
        self.cert = cert

    def __repr__(self):
        return (f"<VerifiedMap r={len(self.rpages)}p "
                f"w={len(self.wpages)}p "
                f"syscalls={len(self.syscalls)}>")


class PageTable:
    """Per-sthread virtual-to-physical mapping with protections.

    ``emulation`` switches the table into the sthread emulation library's
    grant-all mode: violations are recorded on ``violations`` instead of
    raised, so Crowbar can report every missing permission in one run
    (paper section 3.4).
    """

    #: EventBus emitting tlb.shootdown, or None.  A class default so
    #: tables built outside a kernel (unit tests) stay silent; the
    #: kernel stamps every compartment table with its bus.
    observe = None

    def __init__(self, owner_name=""):
        self.entries = {}   # absolute page number -> PTE
        self.owner_name = owner_name
        self.emulation = False
        self.violations = []
        #: simulated TLB: absolute page number -> (frame, prot, segment).
        #: Filled by the memory bus; invalidated only via _invalidate().
        self.tlb = {}
        self.tlb_shootdowns = 0
        #: bound :class:`VerifiedMap`, or None (checked mode).  Installed
        #: only via install_certificate(); revoked only via _invalidate().
        self.verified = None
        self.cert_revocations = 0

    # -- TLB maintenance (the single invalidation choke point) -------------

    def _invalidate(self, first_page, npages, *, costs=None):
        """Drop cached translations for ``[first_page, first_page+npages)``.

        This is the **only** way TLB entries leave the cache, and every
        PTE mutation below funnels through it — so a mapping can never
        move or narrow while a stale translation survives.  Returns the
        number of entries shot down (0 when nothing was cached, in which
        case nothing is charged either).

        A bound policy certificate is proven against the *current*
        mappings, so any invalidation — even one that finds no cached
        translation, on a ``tlb=False`` kernel — voids the proof first:
        the table atomically drops back to the checked path.
        """
        if self.verified is not None:
            self.verified = None
            self.cert_revocations += 1
            obs = self.observe
            if obs is not None and obs.enabled:
                obs.emit(ANALYSIS_REVOKED, comp=self.owner_name,
                         pages=npages)
        tlb = self.tlb
        if not tlb:
            return 0
        dropped = 0
        if npages > len(tlb):
            last = first_page + npages
            for pageno in [p for p in tlb if first_page <= p < last]:
                del tlb[pageno]
                dropped += 1
        else:
            for pageno in range(first_page, first_page + npages):
                if tlb.pop(pageno, None) is not None:
                    dropped += 1
        if dropped:
            self.tlb_shootdowns += dropped
            if costs is not None:
                costs.charge("tlb_shootdown", dropped)
            obs = self.observe
            if obs is not None and obs.enabled:
                obs.emit(TLB_SHOOTDOWN, comp=self.owner_name,
                         pages=dropped)
        return dropped

    def flush_tlb(self, *, costs=None):
        """Drop every cached translation (compartment fault / teardown).

        Delegates to :meth:`_invalidate` so shootdown accounting and
        certificate revocation have exactly one home: the choke point.
        """
        tlb = self.tlb
        if not tlb:
            if self.verified is not None:
                self._invalidate(0, 0, costs=costs)
            return 0
        first = min(tlb)
        return self._invalidate(first, max(tlb) - first + 1, costs=costs)

    def install_certificate(self, vmap, *, costs=None):
        """Bind a :class:`VerifiedMap` (kernel-only; the single install
        site, mirroring ``_invalidate`` as the single revocation site).

        Emulation-mode tables record violations instead of raising, so
        a check-free path would change behaviour there: refuse.
        """
        if self.emulation:
            raise ValueError(
                f"cannot certify emulation-mode table {self.owner_name!r}")
        self.verified = vmap
        if costs is not None:
            costs.charge("cert_bind")

    def revoke_certificate(self, *, costs=None):
        """Void the bound certificate, if any (delegates to the
        :meth:`_invalidate` choke point).  Returns True if one was bound.
        """
        if self.verified is None:
            return False
        self._invalidate(0, 0, costs=costs)
        return True

    # -- construction ------------------------------------------------------

    def map_segment(self, seg, prot, *, costs=None, frames=None):
        """Map every page of *seg* with *prot*.

        *frames* overrides the segment's own frames (used to map the
        pristine snapshot image rather than the live globals).  A remap
        over live pages may narrow rights or move frames, so the mapped
        range is shot down from the TLB.
        """
        source = frames if frames is not None else seg.frames
        first_page = seg.base >> PAGE_SHIFT
        for i in range(seg.npages):
            self.entries[first_page + i] = PTE(source[i], prot, seg)
        self._invalidate(first_page, seg.npages, costs=costs)
        if costs is not None:
            costs.charge("pte_copy", seg.npages)
            if prot & PROT_COW:
                costs.charge("cow_mark", seg.npages)
        return seg.npages

    def unmap_segment(self, seg, *, costs=None):
        """Remove *seg*'s pages — revocation, so shoot down the range."""
        first_page = seg.base >> PAGE_SHIFT
        for i in range(seg.npages):
            self.entries.pop(first_page + i, None)
        self._invalidate(first_page, seg.npages, costs=costs)

    def clone(self, *, costs=None, owner_name=""):
        """Full copy of this table (what ``fork`` does).

        The clone starts with a cold TLB: translations are an execution
        artefact of the original compartment, never inherited state.
        """
        other = PageTable(owner_name=owner_name)
        for pageno, pte in self.entries.items():
            other.entries[pageno] = pte.copy()
        if costs is not None:
            costs.charge("pte_copy", len(self.entries))
        return other

    def mark_all_cow(self, *, costs=None):
        """Downgrade every writable mapping to COW (fork semantics)."""
        marked = 0
        for pageno, pte in self.entries.items():
            if pte.prot & PROT_WRITE:
                pte.prot = PROT_READ | PROT_COW
                self._invalidate(pageno, 1, costs=costs)
                marked += 1
        if costs is not None and marked:
            costs.charge("cow_mark", marked)
        return marked

    def downgrade_to_cow(self, kinds, *, costs=None):
        """Downgrade writable mappings of the given segment *kinds* to
        COW (fork's treatment of private, non-shared regions)."""
        marked = 0
        for pageno, pte in self.entries.items():
            if pte.segment.kind in kinds and pte.prot & PROT_WRITE:
                pte.prot = PROT_READ | PROT_COW
                if costs is not None:
                    costs.charge("cow_mark")
                self._invalidate(pageno, 1, costs=costs)
                marked += 1
        return marked

    def cow_break(self, pageno, *, costs=None):
        """First write to a COW page: copy the frame privately.

        The frame reference changes, so the old cached translation (which
        still points at the shared pristine frame) is shot down; the bus
        refills it with the private copy.  Returns the updated PTE.
        """
        pte = self.entries[pageno]
        pte.frame = pte.frame.copy()
        pte.prot = PROT_RW
        if costs is not None:
            costs.charge("page_copy")
        self._invalidate(pageno, 1, costs=costs)
        return pte

    # -- lookup -------------------------------------------------------------

    def lookup(self, pageno):
        return self.entries.get(pageno)

    def mapped_segments(self):
        return {id(pte.segment): pte.segment for pte in
                self.entries.values()}.values()

    def __len__(self):
        return len(self.entries)


class MemoryBus:
    """The load/store path: resolves, checks, and (optionally) traces.

    ``hooks`` is the Crowbar attachment point: each hook is called as
    ``hook(op, table, addr, size, segment, offset)`` for every access that
    passes the permission check (and for emulated violations).

    With ``tlb=True`` (the default) the bus caches resolved translations
    in the accessing table's :attr:`PageTable.tlb` and serves single-page
    accesses whose cached protection already admits the operation without
    walking ``entries`` at all.  The fast path may change *cycles*, never
    *behaviour*: any access that could fault, break COW, span pages, or
    run under emulation falls through to the walk path, and every PTE
    mutation shoots down its cached translation (see module docstring).
    """

    def __init__(self, space, costs, *, tlb=True):
        self.space = space
        self.costs = costs
        #: EventBus for mem.violation / cow.break / tlb.* events, or
        #: None (buses built outside a kernel).  The high-volume
        #: tlb.hit/tlb.miss kinds additionally require a sink that
        #: subscribed to them (``observe.tlb_active``).
        self.observe = None
        self.hooks = []
        self.tlb_enabled = tlb
        #: lifetime translation counters (plain ints on the hot path;
        #: the cost account absorbs them lazily via the drain below).
        self.tlb_hits = 0
        self.tlb_walks = 0
        #: accesses served check-free from a policy certificate.  One
        #: unit per bus call, however many pages the range spans —
        #: the certificate proves the whole range at bind time, so the
        #: model charges range-batched, not per-page.
        self.verified_ops = 0
        self._drained_hits = 0
        self._drained_walks = 0
        self._drained_verified = 0
        register = getattr(costs, "register_source", None)
        if register is not None:
            register(self._drain_translation_work)

    def _drain_translation_work(self):
        """Batched-work source for :meth:`CostAccount.register_source`."""
        hits = self.tlb_hits - self._drained_hits
        walks = self.tlb_walks - self._drained_walks
        verified = self.verified_ops - self._drained_verified
        self._drained_hits = self.tlb_hits
        self._drained_walks = self.tlb_walks
        self._drained_verified = self.verified_ops
        return {"tlb_hit": hits, "pt_walk": walks,
                "verified_access": verified}

    def _translate(self, table, pageno):
        """Resolve *pageno* to ``(frame, prot, segment)``, TLB first.

        Returns ``None`` for unmapped pages.  Fills the TLB on a miss so
        the next access to the page can take the fast path.
        """
        if self.tlb_enabled:
            entry = table.tlb.get(pageno)
            if entry is not None:
                self.tlb_hits += 1
                return entry
        self.tlb_walks += 1
        obs = self.observe
        if obs is not None and obs.tlb_active:
            obs.emit(TLB_MISS, comp=table.owner_name, pageno=pageno,
                     walk_only=not self.tlb_enabled)
        pte = table.lookup(pageno)
        if pte is None:
            return None
        entry = (pte.frame, pte.prot, pte.segment)
        if self.tlb_enabled:
            table.tlb[pageno] = entry
        return entry

    # -- hook management ----------------------------------------------------

    def add_hook(self, hook):
        self.hooks.append(hook)

    def remove_hook(self, hook):
        self.hooks.remove(hook)

    def _fire(self, op, table, addr, size, segment, offset):
        for hook in self.hooks:
            hook(op, table, addr, size, segment, offset)

    # -- faults -------------------------------------------------------------

    def _violation(self, table, addr, op, message, segment=None):
        fault = MemoryViolation(message, addr=addr, op=op,
                                sthread=table.owner_name, segment=segment)
        obs = self.observe
        if obs is not None and obs.enabled:
            obs.emit(MEM_VIOLATION, comp=table.owner_name,
                     addr=addr, op=op, emulated=table.emulation,
                     segment=segment.name if segment is not None
                     else None)
        if table.emulation:
            table.violations.append(fault)
            return False
        raise fault

    # -- loads and stores ----------------------------------------------------

    # -- the verified fast path (certificate-covered, check-free) ------------
    #
    # A bound VerifiedMap is a *proof* that this table may access the
    # covered pages, established once at bind time and voided by the
    # _invalidate choke point the instant any mapping narrows.  Accesses
    # it covers therefore skip permission resolution and TLB lookup
    # entirely; anything it does not cover (unproven page, emulation,
    # COW first-write, zero-size) falls through to the checked path
    # unchanged.  Each helper snapshots ``table.verified`` once: a
    # concurrent shootdown linearises *between* bus calls — this call
    # completes under the proof it started with, the next call walks.

    def _verified_read_span(self, table, ver, addr, size):
        """Bulk read across proven pages; None if any page is unproven."""
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        rpages = ver.rpages
        if any(p not in rpages for p in range(first, last + 1)):
            return None
        out = bytearray()
        pos, remaining = addr, size
        while remaining:
            off = pos & PAGE_MASK
            take = min(remaining, PAGE_SIZE - off)
            view, seg = rpages[pos >> PAGE_SHIFT]
            out += view[off:off + take]
            if self.hooks:
                self._fire("read", table, pos, take, seg, pos - seg.base)
            pos += take
            remaining -= take
        self.verified_ops += 1
        return bytes(out)

    def _verified_write_span(self, table, ver, addr, data):
        """Bulk write across proven pages; False if any is unproven."""
        size = len(data)
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        wpages = ver.wpages
        if any(p not in wpages for p in range(first, last + 1)):
            return False
        view = memoryview(bytes(data))
        pos, offset = addr, 0
        while offset < size:
            off = pos & PAGE_MASK
            take = min(size - offset, PAGE_SIZE - off)
            page_view, seg = wpages[pos >> PAGE_SHIFT]
            page_view[off:off + take] = view[offset:offset + take]
            if self.hooks:
                self._fire("write", table, pos, take, seg, pos - seg.base)
            pos += take
            offset += take
        self.verified_ops += 1
        return True

    def read(self, table, addr, size):
        """Read *size* bytes at *addr* under *table*'s protections."""
        if size < 0:
            raise ValueError("negative read size")
        ver = table.verified
        if ver is not None and size > 0:
            off = addr & PAGE_MASK
            if size <= PAGE_SIZE - off:
                page = ver.rpages.get(addr >> PAGE_SHIFT)
                if page is not None:
                    self.verified_ops += 1
                    if self.hooks:
                        seg = page[1]
                        self._fire("read", table, addr, size, seg,
                                   addr - seg.base)
                    return bytes(page[0][off:off + size])
            else:
                data = self._verified_read_span(table, ver, addr, size)
                if data is not None:
                    return data
        if self.tlb_enabled:
            # Fast path: single-page access through a cached translation
            # whose protection already admits the read.  Anything else
            # (miss, prot fault, page-spanning, size 0) walks below.
            entry = table.tlb.get(addr >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_READ:
                off = addr & PAGE_MASK
                if 0 < size <= PAGE_SIZE - off:
                    self.tlb_hits += 1
                    obs = self.observe
                    if obs is not None and obs.tlb_active:
                        obs.emit(TLB_HIT, comp=table.owner_name,
                                 addr=addr, op="read")
                    if self.hooks:
                        seg = entry[2]
                        self._fire("read", table, addr, size, seg,
                                   addr - seg.base)
                    return bytes(entry[0].data[off:off + size])
        out = bytearray()
        pos = addr
        remaining = size
        while remaining:
            pageno, off = divmod(pos, PAGE_SIZE)
            take = min(remaining, PAGE_SIZE - off)
            entry = self._translate(table, pageno)
            if entry is None:
                seg, seg_off = self._find_for_fault(pos)
                denied = self._violation(
                    table, pos, "read",
                    f"sthread {table.owner_name!r} read of unmapped "
                    f"address 0x{pos:x}"
                    + (f" (segment {seg.name!r})" if seg else ""),
                    segment=seg)
                if not denied and seg is not None:
                    # emulation mode: satisfy from the live segment
                    out += seg.read_raw(seg_off, take)
                    self._fire("read", table, pos, take, seg, seg_off)
                    pos += take
                    remaining -= take
                    continue
                out += b"\x00" * take
                pos += take
                remaining -= take
                continue
            frame, prot, segment = entry
            if not prot & PROT_READ:
                self._violation(
                    table, pos, "read",
                    f"sthread {table.owner_name!r} read of "
                    f"{prot_name(prot)} page at 0x{pos:x} "
                    f"(segment {segment.name!r})",
                    segment=segment)
            out += frame.data[off:off + take]
            self._fire("read", table, pos, take, segment,
                       pos - segment.base)
            pos += take
            remaining -= take
        return bytes(out)

    def write(self, table, addr, data):
        """Write *data* at *addr* under *table*'s protections (with COW)."""
        ver = table.verified
        if ver is not None and data:
            off = addr & PAGE_MASK
            size = len(data)
            if size <= PAGE_SIZE - off:
                page = ver.wpages.get(addr >> PAGE_SHIFT)
                if page is not None:
                    self.verified_ops += 1
                    page[0][off:off + size] = bytes(data)
                    if self.hooks:
                        seg = page[1]
                        self._fire("write", table, addr, size, seg,
                                   addr - seg.base)
                    return
            elif self._verified_write_span(table, ver, addr, data):
                return
        if self.tlb_enabled:
            # Fast path: single-page store through a cached translation
            # that is already privately writable.  COW pages never carry
            # PROT_WRITE, so first writes always take the walk path and
            # break the COW there.
            entry = table.tlb.get(addr >> PAGE_SHIFT)
            if entry is not None and entry[1] & PROT_WRITE:
                off = addr & PAGE_MASK
                size = len(data)
                if 0 < size <= PAGE_SIZE - off:
                    self.tlb_hits += 1
                    obs = self.observe
                    if obs is not None and obs.tlb_active:
                        obs.emit(TLB_HIT, comp=table.owner_name,
                                 addr=addr, op="write")
                    entry[0].data[off:off + size] = bytes(data)
                    if self.hooks:
                        seg = entry[2]
                        self._fire("write", table, addr, size, seg,
                                   addr - seg.base)
                    return
        pos = addr
        view = memoryview(bytes(data))
        offset = 0
        total = len(view)
        while offset < total:
            pageno, page_off = divmod(pos, PAGE_SIZE)
            take = min(total - offset, PAGE_SIZE - page_off)
            entry = self._translate(table, pageno)
            if entry is None:
                seg, seg_off = self._find_for_fault(pos)
                denied = self._violation(
                    table, pos, "write",
                    f"sthread {table.owner_name!r} write to unmapped "
                    f"address 0x{pos:x}"
                    + (f" (segment {seg.name!r})" if seg else ""),
                    segment=seg)
                if not denied and seg is not None:
                    seg.write_raw(seg_off, bytes(view[offset:offset + take]))
                    self._fire("write", table, pos, take, seg, seg_off)
                pos += take
                offset += take
                continue
            frame, prot, segment = entry
            if prot & PROT_WRITE:
                pass
            elif prot & PROT_COW:
                # first write to a COW page: copy the frame privately
                # (shoots down the stale shared-frame translation, then
                # re-caches the private copy)
                pte = table.cow_break(pageno, costs=self.costs)
                frame = pte.frame
                obs = self.observe
                if obs is not None and obs.enabled:
                    obs.emit(COW_BREAK, comp=table.owner_name,
                             pageno=pageno, segment=pte.segment.name)
                if self.tlb_enabled:
                    table.tlb[pageno] = (pte.frame, pte.prot, pte.segment)
            else:
                self._violation(
                    table, pos, "write",
                    f"sthread {table.owner_name!r} write to "
                    f"{prot_name(prot)} page at 0x{pos:x} "
                    f"(segment {segment.name!r})",
                    segment=segment)
                pos += take
                offset += take
                continue
            frame.data[page_off:page_off + take] = view[offset:offset + take]
            self._fire("write", table, pos, take, segment,
                       pos - segment.base)
            pos += take
            offset += take

    def _find_for_fault(self, addr):
        """Best-effort resolve for diagnostics / emulation mode."""
        try:
            return self.space.find(addr)
        except BadAddress:
            return None, None
