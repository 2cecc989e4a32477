"""Seeded fault plans: *where*, *what kind*, and *when* to inject.

A :class:`FaultPlan` is consulted by the kernel (and the simulated
network) at well-known **sites**:

===============  ========================================================
site             chokepoint
===============  ========================================================
``mem_read``     :meth:`Kernel.mem_read` — injects a memory violation
``mem_write``    :meth:`Kernel.mem_write` — injects a memory violation
``smalloc``      :meth:`Kernel.smalloc` — injects allocator exhaustion
``malloc``       :meth:`Kernel.malloc` — injects allocator exhaustion
``cgate``        callgate entry (inside the gate compartment) — injects
                 a crash or a delay (for watchdog testing)
``net_connect``  :meth:`Network.connect` — connection refused
``net_send``     :meth:`DuplexStream.send` — drop / delay / reset
``kernel``       :class:`~repro.faults.KernelFailure` — whole-kernel kill
===============  ========================================================

Each :class:`FaultSpec` fires either probabilistically (``rate``) from
a seeded draw stream of its site, or at **exact hit counts** (``at``,
1-based per site), which is what the deterministic unit tests use.
Firing decisions are made here; the *effect* (which exception, what
delay) is applied by the chokepoint that asked.

Scoping: by default (``scope="untrusted"``) kernel-side sites inject
only into sthread and callgate compartments — the trusted bootstrap
process stays sound, matching the threat model (the paper assumes the
privileged master is correct; it is the exposed compartments that
crash).  Network sites have no compartment context and always qualify.
"""

from __future__ import annotations

import random
import threading

from repro.core.errors import WedgeError
from repro.observe.events import FAULT_FIRED

#: Compartment kinds eligible for injection under the default scope.
UNTRUSTED_KINDS = ("sthread", "callgate")

#: Site -> fault kinds a spec may carry there.
SITE_KINDS = {
    "mem_read": ("memfault",),
    "mem_write": ("memfault",),
    "smalloc": ("enomem",),
    "malloc": ("enomem",),
    "cgate": ("crash", "delay"),
    "net_connect": ("refuse",),
    "net_send": ("drop", "delay", "reset"),
    "kernel": ("kill", "power_loss"),
}


class FaultSpec:
    """One injection rule: fire *kind* at *site*, by rate or hit count."""

    __slots__ = ("site", "kind", "rate", "at", "limit", "delay", "fired")

    def __init__(self, site, kind, *, rate=0.0, at=(), limit=None,
                 delay=0.05):
        if site not in SITE_KINDS:
            raise WedgeError(f"unknown fault site {site!r}")
        if kind not in SITE_KINDS[site]:
            raise WedgeError(
                f"fault kind {kind!r} does not apply at site {site!r} "
                f"(valid: {SITE_KINDS[site]})")
        self.site = site
        self.kind = kind
        self.rate = float(rate)
        self.at = frozenset(int(n) for n in at)
        #: stop firing after this many injections (None = unbounded)
        self.limit = limit
        #: sleep length for ``delay`` kinds, seconds (kept small so
        #: abandoned watchdog threads drain quickly)
        self.delay = float(delay)
        self.fired = 0

    def __repr__(self):
        when = f"rate={self.rate}" if self.rate else f"at={sorted(self.at)}"
        return f"<FaultSpec {self.site}:{self.kind} {when} fired={self.fired}>"


class FaultEvent:
    """One injection that actually happened (the plan's audit log)."""

    __slots__ = ("site", "kind", "hit", "compartment")

    def __init__(self, site, kind, hit, compartment):
        self.site = site
        self.kind = kind
        self.hit = hit
        self.compartment = compartment

    def __repr__(self):
        return (f"<FaultEvent {self.site}:{self.kind} hit={self.hit} "
                f"in {self.compartment!r}>")


class FaultPlan:
    """A deterministic, seeded schedule of faults.

    The same seed over the same sequence of hits at each site reproduces
    the same injections: hit counters and rate draws are both per site,
    so a site's decisions do not depend on how concurrent compartments
    and clients interleave their hits at other sites.  Install with
    :meth:`repro.core.kernel.Kernel.install_faults`; flip
    :attr:`enabled` to pause injection without uninstalling.
    """

    def __init__(self, seed=0, *, scope="untrusted"):
        if scope not in ("untrusted", "all"):
            raise WedgeError(f"unknown fault scope {scope!r}")
        self.seed = seed
        self.scope = scope
        self.enabled = True
        self.specs = []
        self.hits = {}           # site -> eligible-hit counter
        self.injected = []       # FaultEvent log, in firing order
        #: kernel event bus (set by Kernel.install_faults); every
        #: injection that fires is also announced as ``fault.fired``
        self.observer = None
        self._rngs = {}          # site -> its seeded draw stream
        self._lock = threading.Lock()

    def add(self, site, kind, *, rate=0.0, at=(), limit=None, delay=0.05):
        """Register a rule; returns the :class:`FaultSpec`."""
        spec = FaultSpec(site, kind, rate=rate, at=at, limit=limit,
                         delay=delay)
        self.specs.append(spec)
        return spec

    def _eligible(self, compartment):
        if compartment is None:          # network sites: always in scope
            return True
        if self.scope == "all":
            return True
        return compartment.kind in UNTRUSTED_KINDS

    def fire(self, site, *, compartment=None):
        """Should *site* fault right now?  Returns the spec, or None.

        Counts one eligible hit for *site*, then asks each matching spec
        in registration order; the first that fires wins.
        """
        if not self.enabled or not self._eligible(compartment):
            return None
        chosen = None
        hit = 0
        with self._lock:
            hit = self.hits.get(site, 0) + 1
            self.hits[site] = hit
            for spec in self.specs:
                if spec.site != site:
                    continue
                if spec.limit is not None and spec.fired >= spec.limit:
                    continue
                if hit in spec.at or \
                        (spec.rate and self._draw(site) < spec.rate):
                    spec.fired += 1
                    name = getattr(compartment, "name", None)
                    self.injected.append(
                        FaultEvent(site, spec.kind, hit, name))
                    chosen = spec
                    break
        if chosen is not None:
            obs = self.observer
            if obs is not None and obs.enabled:
                obs.emit(FAULT_FIRED,
                         comp=getattr(compartment, "name", None),
                         site=site, kind=chosen.kind, hit=hit)
        return chosen

    def _draw(self, site):
        """The next rate draw at *site* (the caller holds the lock)."""
        rng = self._rngs.get(site)
        if rng is None:
            rng = self._rngs[site] = random.Random(f"{self.seed}/{site}")
        return rng.random()

    @property
    def injection_count(self):
        return len(self.injected)

    def __repr__(self):
        return (f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
                f"injected={len(self.injected)} enabled={self.enabled}>")
