"""FaultPlan semantics: determinism, exact hits, scoping, limits."""

import pytest

from repro.core.errors import (MemoryViolation, OutOfMemory, SthreadFaulted,
                               WedgeError)
from repro.core.memory import PROT_READ
from repro.core.policy import SecurityContext, sc_mem_add
from repro.faults import FaultPlan


class Comp:
    """A stand-in compartment for unit-level fire() tests."""

    def __init__(self, kind, name="comp"):
        self.kind = kind
        self.name = name


STHREAD = Comp("sthread", "worker")
MAIN = Comp("process", "main")


class TestSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(WedgeError):
            FaultPlan().add("dma_read", "memfault")

    def test_kind_must_match_site(self):
        with pytest.raises(WedgeError):
            FaultPlan().add("smalloc", "crash")

    def test_unknown_scope_rejected(self):
        with pytest.raises(WedgeError):
            FaultPlan(scope="everything")


class TestFiring:
    def test_exact_hits_fire_exactly(self):
        plan = FaultPlan()
        plan.add("mem_read", "memfault", at=(2, 4))
        fired = [plan.fire("mem_read", compartment=STHREAD) is not None
                 for _ in range(6)]
        assert fired == [False, True, False, True, False, False]
        assert [ev.hit for ev in plan.injected] == [2, 4]

    def test_same_seed_same_schedule(self):
        def drive(seed):
            plan = FaultPlan(seed)
            plan.add("net_send", "reset", rate=0.3)
            for _ in range(200):
                plan.fire("net_send")
            return [ev.hit for ev in plan.injected]

        assert drive(7) == drive(7)
        assert drive(7) != drive(8)

    def test_interleaving_across_sites_does_not_move_the_schedule(self):
        """A client's sends and a server compartment's gate entries race
        on different OS threads; each site's injections must depend on
        that site's own hits only."""
        def drive(order):
            plan = FaultPlan(3)
            plan.add("net_send", "reset", rate=0.3)
            plan.add("cgate", "crash", rate=0.3)
            for site in order:
                plan.fire(site, compartment=STHREAD)
            return sorted((ev.site, ev.hit) for ev in plan.injected)

        sends_first = ["net_send"] * 100 + ["cgate"] * 100
        alternating = ["net_send", "cgate"] * 100
        assert drive(sends_first) == drive(alternating)

    def test_limit_caps_injections(self):
        plan = FaultPlan()
        plan.add("cgate", "crash", rate=1.0, limit=3)
        for _ in range(10):
            plan.fire("cgate", compartment=STHREAD)
        assert plan.injection_count == 3

    def test_disabled_plan_is_inert(self):
        plan = FaultPlan()
        plan.add("mem_read", "memfault", rate=1.0)
        plan.enabled = False
        assert plan.fire("mem_read", compartment=STHREAD) is None
        assert plan.injection_count == 0
        assert plan.hits == {}  # not even the hit counter moves


class TestScoping:
    def test_untrusted_scope_spares_the_main_process(self):
        plan = FaultPlan()
        plan.add("mem_read", "memfault", rate=1.0)
        assert plan.fire("mem_read", compartment=MAIN) is None
        assert plan.hits == {}  # ineligible hits do not advance counters
        assert plan.fire("mem_read", compartment=STHREAD) is not None

    def test_network_sites_have_no_compartment(self):
        plan = FaultPlan()
        plan.add("net_connect", "refuse", rate=1.0)
        assert plan.fire("net_connect") is not None

    def test_scope_all_reaches_everything(self):
        plan = FaultPlan(scope="all")
        plan.add("smalloc", "enomem", rate=1.0)
        assert plan.fire("smalloc", compartment=MAIN) is not None


class TestKernelChokepoints:
    def test_mem_read_fault_kills_the_sthread_only(self, kernel):
        tag = kernel.tag_new(name="shared")
        buf = kernel.alloc_buf(16, tag=tag, init=b"x" * 16)
        plan = kernel.install_faults(FaultPlan(1))
        plan.add("mem_read", "memfault", at=(1,))
        sc = sc_mem_add(SecurityContext(), tag, PROT_READ)
        st = kernel.sthread_create(
            sc, lambda a: kernel.mem_read(buf.addr, 16), spawn="inline")
        with pytest.raises(SthreadFaulted) as err:
            kernel.sthread_join(st)
        assert isinstance(err.value.__cause__, MemoryViolation)
        # the trusted process is untouched and can still read the buffer
        assert kernel.mem_read(buf.addr, 16) == b"x" * 16

    def test_smalloc_exhaustion_is_clean(self, kernel):
        tag = kernel.tag_new(name="pool")
        plan = kernel.install_faults(FaultPlan(scope="all"))
        plan.add("smalloc", "enomem", at=(1,))
        with pytest.raises(OutOfMemory):
            kernel.smalloc(64, tag)
        # the failure is transient state, not corruption: the next
        # allocation succeeds and the heap stays consistent
        addr = kernel.smalloc(64, tag)
        assert addr > 0
        kernel.tags.resolve(tag).heap.check_invariants()

    def test_disabled_plan_adds_no_modelled_cost(self, kernel):
        buf = kernel.alloc_buf(32, init=b"y" * 32)

        def cycles_for_reads():
            cp = kernel.costs.checkpoint()
            for _ in range(50):
                kernel.mem_read(buf.addr, 32)
            return kernel.costs.delta(cp)

        bare = cycles_for_reads()
        plan = kernel.install_faults(FaultPlan())
        plan.add("mem_read", "memfault", rate=0.5)
        plan.enabled = False
        assert cycles_for_reads() == bare
        kernel.install_faults(None)
        assert cycles_for_reads() == bare
