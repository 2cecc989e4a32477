"""Demand-zero frames: a page costs nothing until it is first touched.

``tag_new`` behaves like anonymous ``mmap`` (paper section 4.1), and
Linux backs anonymous memory demand-zero.  So does the simulation: a
segment's frames hold no bytes until their first access faults in a
zeroed page (DESIGN.md §2, "Demand-zero frames").  These tests pin:

* a fresh segment holds no page and reads back zeros; a write faults in
  exactly the pages it touches;
* copy-on-write and the pre-main snapshot copy no bytes for an untouched
  page, and a COW break leaves the snapshot page untouched;
* the verified views and the checked bus share one page, whichever of
  them touched it first;
* racing first touches from two OS threads land on one page;
* a recycled tag reads back zeros plus its pristine bookkeeping;
* the model charges exactly what it charged for eagerly zeroed frames;
* one resumed https request touches a handful of the frames it builds.
"""

import sys
import threading
import time

from repro.analysis.verify import PolicyCertificate
from repro.apps.httpd import MitmPartitionHttpd
from repro.apps.httpd.content import build_request
from repro.core import memory
from repro.core.costs import CostAccount
from repro.core.kernel import Kernel
from repro.core.memory import (PAGE_SHIFT, PAGE_SIZE, PROT_COW, PROT_READ,
                               PROT_RW, AddressSpace, Frame, MemoryBus,
                               PageTable)
from repro.core.policy import SecurityContext, sc_mem_add
from repro.crypto import DetRNG
from repro.net import Network
from repro.tls import TlsClient


def touched_pages(seg):
    return [i for i, frame in enumerate(seg.frames) if frame.touched]


def touched_frames(kernel):
    return sum(frame.touched for seg in kernel.space.segments()
               for frame in seg.frames)


def mapped(seg, prot, frames=None, name="t"):
    table = PageTable(owner_name=name)
    table.map_segment(seg, prot, frames=frames)
    return table


class TestFrame:
    def test_fresh_frame_faults_in_a_zero_page_once(self):
        frame = Frame()
        assert not frame.touched
        page = frame.data
        assert page == bytearray(PAGE_SIZE)
        assert frame.touched and type(frame) is Frame
        assert frame.data is page

    def test_frame_with_data_is_touched(self):
        frame = Frame(b"\x07" * PAGE_SIZE)
        assert frame.touched and frame.data[0] == 7

    def test_copy_of_untouched_frame_stays_untouched(self):
        frame = Frame()
        copy = frame.copy()
        assert not frame.touched and not copy.touched
        copy.data[0] = 1
        assert not frame.touched
        assert frame.data[0] == 0


class TestFreshSegment:
    def test_holds_no_page_and_reads_back_zeros(self):
        seg = AddressSpace().create_segment(8 * PAGE_SIZE)
        assert touched_pages(seg) == []
        assert seg.read_raw(0, 8 * PAGE_SIZE) == bytes(8 * PAGE_SIZE)

    def test_bus_read_of_untouched_page_is_zero(self):
        space = AddressSpace()
        seg = space.create_segment(2 * PAGE_SIZE)
        bus = MemoryBus(space, CostAccount())
        table = mapped(seg, PROT_READ)
        assert bus.read(table, seg.base + 100, 64) == bytes(64)
        assert bus.read(table, seg.base + PAGE_SIZE - 8, 16) == bytes(16)

    def test_write_materialises_only_the_pages_it_touches(self):
        space = AddressSpace()
        seg = space.create_segment(8 * PAGE_SIZE)
        bus = MemoryBus(space, CostAccount())
        table = mapped(seg, PROT_RW)
        bus.write(table, seg.base + PAGE_SIZE + 10, b"abc")
        assert touched_pages(seg) == [1]
        # a page-spanning write faults in both pages, nothing between
        bus.write(table, seg.base + 4 * PAGE_SIZE - 2, b"wxyz")
        assert touched_pages(seg) == [1, 3, 4]
        assert seg.read_raw(PAGE_SIZE + 10, 3) == b"abc"
        assert seg.read_raw(4 * PAGE_SIZE - 2, 4) == b"wxyz"
        seg.write_raw(7 * PAGE_SIZE, b"raw")
        assert touched_pages(seg) == [1, 3, 4, 7]


class TestCopyOnWrite:
    def test_cow_break_of_untouched_snapshot_page(self):
        space = AddressSpace()
        seg = space.create_segment(2 * PAGE_SIZE)
        seg.write_raw(PAGE_SIZE, b"init")
        snapshot = seg.snapshot_frames()
        assert [f.touched for f in snapshot] == [False, True]
        costs = CostAccount()
        bus = MemoryBus(space, costs)
        writer = mapped(seg, PROT_READ | PROT_COW, snapshot, "writer")
        reader = mapped(seg, PROT_READ | PROT_COW, snapshot, "reader")
        bus.write(writer, seg.base + 5, b"x")
        private = writer.entries[seg.base >> PAGE_SHIFT].frame
        assert private is not snapshot[0]
        assert private.data[5:6] == b"x"
        assert private.data.count(0) == PAGE_SIZE - 1
        assert not snapshot[0].touched
        assert costs.counters["page_copy"] == 1
        assert bus.read(reader, seg.base + 5, 1) == b"\x00"
        # the touched snapshot page is copied byte for byte
        bus.write(writer, seg.base + PAGE_SIZE + 4, b"!")
        assert bus.read(writer, seg.base + PAGE_SIZE, 5) == b"init!"
        assert bus.read(reader, seg.base + PAGE_SIZE, 5) == b"init\x00"

    def test_premain_snapshot_copies_only_initialised_pages(self):
        kernel = Kernel(name="dz-snapshot")
        kernel.declare_global("seeded", 8, init=b"\x01" * 8)
        kernel.declare_global("bss", 4 * PAGE_SIZE)
        kernel.start_main()
        snapshot = kernel.image.snapshot_frames
        assert len(snapshot) >= 5
        assert 0 < sum(f.touched for f in snapshot) < len(snapshot)
        bss = kernel.image.addr_of("bss") - kernel.image.segment.base
        assert not snapshot[(bss >> PAGE_SHIFT) + 2].touched


class TestVerifiedViews:
    """Certified and checked accesses share one page, whichever of the
    two faulted it in."""

    def _setup(self, name):
        kernel = Kernel(name=name)
        kernel.start_main()
        tag = kernel.tag_new(4 * PAGE_SIZE, name="shared")
        page1 = tag.segment.base + PAGE_SIZE
        page2 = tag.segment.base + 2 * PAGE_SIZE
        assert not tag.segment.frames[1].touched
        assert not tag.segment.frames[2].touched
        observer = mapped(tag.segment, PROT_READ, name="observer")
        return kernel, tag, page1, page2, observer

    def _certify(self, kernel, tag):
        main = kernel.main
        cert = PolicyCertificate(main.name, id(main.table),
                                 {tag.id: "rw"}, {}, (), ())
        cert.signature = kernel.sign_policy(cert.payload())
        return kernel.enter_verified(cert, main)

    def test_checked_bus_first_then_views(self):
        kernel, tag, page1, page2, observer = self._setup("dz-bus-first")
        kernel.mem_write(page1 + 7, b"checked")
        vmap = self._certify(kernel, tag)
        view = vmap.rpages[page1 >> PAGE_SHIFT][0]
        assert bytes(view[7:14]) == b"checked"
        before = kernel.bus.verified_ops
        kernel.mem_write(page1 + 20, b"viewed")
        assert kernel.bus.verified_ops == before + 1
        assert kernel.bus.read(observer, page1 + 20, 6) == b"viewed"

    def test_views_first_then_checked_bus(self):
        kernel, tag, page1, page2, observer = self._setup("dz-view-first")
        self._certify(kernel, tag)
        before = kernel.bus.verified_ops
        kernel.mem_write(page2 + 3, b"viewed")
        assert kernel.bus.verified_ops == before + 1
        assert kernel.bus.read(observer, page2 + 3, 6) == b"viewed"
        assert tag.segment.read_raw(2 * PAGE_SIZE + 3, 6) == b"viewed"


class TestFirstTouchRace:
    def test_racing_first_writes_lose_no_byte(self):
        space = AddressSpace()
        bus = MemoryBus(space, CostAccount(), tlb=False)
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(200):
                seg = space.create_segment(PAGE_SIZE, kind="tag")
                tables = [mapped(seg, PROT_RW, name=n) for n in "ab"]
                barrier = threading.Barrier(2, timeout=10.0)

                def first_write(table, offset, fill):
                    barrier.wait()
                    bus.write(table, seg.base + offset, fill * 64)

                threads = [threading.Thread(target=first_write,
                                            args=(tables[0], 0, b"a")),
                           threading.Thread(target=first_write,
                                            args=(tables[1], 2048, b"b"))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                    assert not thread.is_alive()
                assert seg.read_raw(0, 64) == b"a" * 64
                assert seg.read_raw(2048, 64) == b"b" * 64
        finally:
            sys.setswitchinterval(saved)

    def test_loser_of_the_first_touch_returns_the_winners_page(self):
        frame = Frame()
        pages = []

        def touch():
            pages.append(frame.data)

        threads = [threading.Thread(target=touch) for _ in range(2)]
        with memory._FIRST_TOUCH:
            # both threads find the slot empty and queue on the lock
            for thread in threads:
                thread.start()
            time.sleep(0.05)
        for thread in threads:
            thread.join(10.0)
            assert not thread.is_alive()
        assert len(pages) == 2 and pages[0] is pages[1] is frame.data


class TestRecycledTag:
    def test_reads_back_zeros_plus_pristine_bookkeeping(self, kernel):
        tag = kernel.tag_new(8 * PAGE_SIZE, name="first")
        seg = tag.segment
        formatted = touched_pages(seg)
        assert formatted and len(formatted) < 8
        pristine = {i: bytes(seg.frames[i].data) for i in formatted}
        buf = kernel.smalloc(3 * PAGE_SIZE, tag)
        kernel.mem_write(buf, b"secret" * 1000)
        dirty = touched_pages(seg)
        assert len(formatted) < len(dirty) < 8
        kernel.tag_delete(tag)
        again = kernel.tag_new(8 * PAGE_SIZE, name="second")
        assert again.segment is seg
        # the scrub zeroes dirty pages in place and faults in no others
        assert touched_pages(seg) == dirty
        for i in range(8):
            assert bytes(seg.frames[i].data) == pristine.get(
                i, bytes(PAGE_SIZE))


class TestModelCycles:
    """Demand-zero is invisible to the model: a scripted sequence
    charges exactly what eagerly zeroed frames charged."""

    #: ``kernel.costs.counters`` for :meth:`_script`, recorded with
    #: eagerly allocated frames.
    EXPECTED = {
        "alloc_init_byte": 28, "alloc_op": 4, "cow_mark": 12,
        "mm_create": 1, "mm_destroy": 1, "page_copy": 2,
        "policy_check": 2, "pt_walk": 15, "pte_copy": 116,
        "scrub_page": 8, "segment_create": 5, "syscall": 2,
        "task_create": 1, "task_destroy": 1, "tlb_hit": 80,
        "tlb_shootdown": 7,
    }

    @staticmethod
    def _script():
        kernel = Kernel(name="dz-script")
        kernel.declare_global("counter", 8, init=b"\x01" * 8)
        kernel.declare_global("spare", 3 * PAGE_SIZE)
        kernel.start_main()
        tag = kernel.tag_new(8 * PAGE_SIZE, name="shared")
        buf = kernel.smalloc(3 * PAGE_SIZE, tag)
        kernel.mem_write(buf, b"a" * (2 * PAGE_SIZE + 10))
        kernel.mem_read(buf + PAGE_SIZE - 3, 6)
        kernel.mem_read(buf, 16)
        kernel.mem_write(kernel.malloc(64), b"h" * 64)
        sc = SecurityContext()
        sc_mem_add(sc, tag, PROT_RW)

        def child(_arg):
            counter = kernel.image.addr_of("counter")
            kernel.mem_read(counter, 8)
            kernel.mem_write(counter, b"\x02" * 8)      # COW break
            kernel.mem_write(kernel.image.addr_of("spare") + PAGE_SIZE,
                             b"s")                      # untouched COW
            kernel.mem_read(buf + 2 * PAGE_SIZE, 10)
            kernel.mem_write(buf + PAGE_SIZE, b"c" * 32)
            mine = kernel.malloc(128)
            kernel.mem_write(mine, b"m" * 128)
            return kernel.mem_read(mine, 4)

        st = kernel.sthread_create(sc, child, name="dz-child",
                                   spawn="inline")
        assert kernel.sthread_join(st) == b"mmmm"
        kernel.tag_delete(tag)
        kernel.smalloc(16, kernel.tag_new(8 * PAGE_SIZE, name="recycled"))
        return kernel.costs.checkpoint()

    def test_counters_equal_eager_frames(self):
        assert self._script() == self.EXPECTED


class TestHttpsRequest:
    def test_resumed_request_touches_few_frames(self):
        net = Network()
        srv = MitmPartitionHttpd(net, "dz-https:443").start()
        client = TlsClient(DetRNG("dz-client"),
                           expected_server_key=srv.public_key)

        def request(resume):
            sock = net.connect(srv.addr)
            try:
                conn = client.handshake(sock, resume=resume, timeout=20.0)
                conn.send(build_request("/index.html"))
                assert b"It works!" in conn.recv()
                assert conn.resumed == resume
                # the server closes once it has finished the connection
                assert sock.recv(1, 20.0) is None
            finally:
                sock.close()

        try:
            for i in range(3):
                request(resume=i > 0)
            frames = sum(seg.npages for seg in srv.kernel.space.segments())
            touched = touched_frames(srv.kernel)
            request(resume=True)
            built = sum(seg.npages for seg in
                        srv.kernel.space.segments()) - frames
            faulted = touched_frames(srv.kernel) - touched
            # 7 compartments of 40 pages each; the request touches ~14
            assert built >= 200
            assert faulted <= 32
            assert srv.errors == []
        finally:
            srv.stop()
