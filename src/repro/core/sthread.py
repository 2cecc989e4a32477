"""Sthread objects: compartments with a thread of control and a policy.

An :class:`Sthread` bundles the paper's section 3.1 state: a page table
built strictly from the security context it was created with, a private
stack and heap, a file-descriptor table holding only policy-granted
descriptors, the set of callgates it may invoke, and UNIX uid / filesystem
root / SELinux SID.

The *thread of control* has two spawn modes (see DESIGN.md): ``"thread"``
runs the body on a real OS thread (servers need master/worker overlap);
``"inline"`` runs it to completion on the spawner's thread, for a
compartment the spawner would only wait for (httpd's per-connection
phases) and for deterministic tests.  Either way the body executes with
this sthread as the current compartment, and a
:class:`~repro.core.errors.CompartmentFault` terminates only this
compartment.
"""

from __future__ import annotations

import threading

from repro.core.errors import CompartmentFault, JoinTimeout, SthreadError
from repro.core.memory import PAGE_SIZE, PageTable
from repro.observe.events import STHREAD_EXIT

#: Default private-region sizes (paper: every sthread receives a private
#: stack and heap as part of its pristine snapshot).
STACK_SIZE = 8 * PAGE_SIZE
HEAP_SIZE = 32 * PAGE_SIZE

STATUS_NEW = "new"
STATUS_RUNNING = "running"
STATUS_EXITED = "exited"
STATUS_FAULTED = "faulted"
STATUS_ERROR = "error"


class Sthread:
    """One compartment.  Created only by the kernel; never directly."""

    def __init__(self, sid_counter, name, ctx, *, uid, root, sel_sid,
                 kind="sthread", parent=None):
        self.id = sid_counter
        self.name = name or f"sthread{sid_counter}"
        self.ctx = ctx                      # effective SecurityContext
        self.kind = kind                    # sthread | process | pthread | callgate
        self.parent = parent
        self.uid = uid
        self.root = root
        self.sel_sid = sel_sid
        self.table = PageTable(owner_name=self.name)
        self.fdtable = None                 # set by the kernel
        self.gates = set()                  # callgate ids this sthread may invoke
        self.heap_segment = None
        self.stack_segment = None
        self.stack_sp = 0                   # bump pointer into the stack
        self.stack_frames = []              # (func_name, saved_sp, base_off)
        self.smalloc_tag = None             # smalloc_on state
        self.alloc_bytes = 0                # live allocation accounting
        self.status = STATUS_NEW
        self.result = None
        self.fault = None
        self.error = None
        #: current trace span (repro.observe): the request root set at
        #: accept time, or the spawn span this compartment was born with
        self.span = None
        self._thread = None
        self._task = None                   # reactor Task (coop spawn)
        self._done = threading.Event()
        self._watchers = []                 # reactor endpoint protocol
        self._watch_lock = threading.Lock()
        self._joined = False

    # -- lifecycle ----------------------------------------------------------------

    def run_body(self, kernel, body, arg):
        """Execute *body(arg)* as this compartment (kernel-internal)."""
        from repro.core.errors import WedgeError
        self.status = STATUS_RUNNING
        with kernel._as_current(self):
            try:
                self.result = body(arg)
                self.status = STATUS_EXITED
            except CompartmentFault as fault:
                # the kernel kills a faulting sthread; the parent learns of
                # it at join time.  Its cached translations die with it —
                # a supervised restart must start translation-cold.
                self.fault = fault
                self.status = STATUS_FAULTED
                self.table.flush_tlb(costs=kernel.costs)
            except WedgeError as exc:
                # an ordinary runtime error (peer hung up, protocol
                # violation): the compartment exits abnormally but it is
                # not a protection fault
                self.error = exc
                self.status = STATUS_ERROR
            finally:
                # exiting closes this compartment's descriptor copies
                # (private copies: the parent is unaffected, paper §4.1);
                # pthreads share the parent's table and must not close it
                if self.kind != "pthread" and self.fdtable is not None:
                    self.fdtable.close_all()
                obs = kernel.observe
                if obs.enabled:
                    obs.emit(STHREAD_EXIT, comp=self.name,
                             status=self.status)
                if obs.tracer is not None:
                    obs.tracer.end(self.span, status=self.status)
                self._exit_done()

    def start_thread(self, kernel, body, arg):
        self._thread = threading.Thread(
            target=self.run_body, args=(kernel, body, arg),
            name=self.name, daemon=True)
        self._thread.start()

    def coop_body(self, kernel, body, arg):
        """Generator twin of :meth:`run_body` for the reactor scheduler.

        *body* is a generator function; its yields (Wait descriptors)
        pass straight through to the reactor, which re-enters this
        compartment's context around every step — so the status machine,
        fd teardown and exit events here are line-for-line the threaded
        path's, just suspendable.
        """
        from repro.core.errors import WedgeError
        self.status = STATUS_RUNNING
        try:
            self.result = yield from body(arg)
            self.status = STATUS_EXITED
        except CompartmentFault as fault:
            self.fault = fault
            self.status = STATUS_FAULTED
            self.table.flush_tlb(costs=kernel.costs)
        except WedgeError as exc:
            self.error = exc
            self.status = STATUS_ERROR
        finally:
            if self.kind != "pthread" and self.fdtable is not None:
                self.fdtable.close_all()
            obs = kernel.observe
            if obs.enabled:
                obs.emit(STHREAD_EXIT, comp=self.name,
                         status=self.status)
            if obs.tracer is not None:
                obs.tracer.end(self.span, status=self.status)
            self._exit_done()

    def start_coop(self, kernel, body, arg):
        """Schedule *body* as a cooperative task on the kernel's reactor.

        The reactor pushes this sthread as the current compartment
        around every step, so kernel syscalls made by the body are
        attributed (and policy-checked) exactly as on an OS thread.
        Nothing runs until something drives the loop —
        ``reactor.run_until_idle()`` or ``reactor.ensure_running()``.
        """
        self._task = kernel.reactor.spawn(
            self.coop_body(kernel, body, arg),
            name=self.name, sthread=self)
        return self._task

    def join(self, timeout=30.0):
        """Block until the compartment exits; return its result.

        A faulted sthread yields ``None`` (the real kernel reaps a killed
        child without a return value); inspect :attr:`fault` for the
        violation.  Double joins raise, like ``pthread_join``.
        """
        if self._joined:
            raise SthreadError(f"{self.name} already joined")
        if not self._done.wait(timeout):
            raise JoinTimeout(f"join of {self.name} timed out "
                              f"after {timeout}s",
                              sthread=self, timeout=timeout)
        self._joined = True
        if self._thread is not None:
            self._thread.join(timeout)
        return self.result

    @property
    def done(self):
        return self._done.is_set()

    @property
    def faulted(self):
        return self.status == STATUS_FAULTED

    # -- reactor endpoint protocol (so parents can park on the exit) ---------

    def _exit_done(self):
        """Mark the compartment finished and wake any reactor waiters."""
        with self._watch_lock:
            self._done.set()
            watchers = list(self._watchers)
        for cb in watchers:
            cb(self)

    def ready(self):
        return self._done.is_set()

    def add_watcher(self, cb):
        with self._watch_lock:
            if cb not in self._watchers:
                self._watchers.append(cb)

    def remove_watcher(self, cb):
        with self._watch_lock:
            try:
                self._watchers.remove(cb)
            except ValueError:
                pass

    # -- stack frames (Crowbar's stack category) -----------------------------------

    def push_frame(self, func_name):
        self.stack_frames.append((func_name, self.stack_sp))

    def pop_frame(self):
        _, saved = self.stack_frames.pop()
        self.stack_sp = saved

    def frame_for_offset(self, offset):
        """Which function's frame covers *offset* in the stack segment?"""
        for i, (name, base) in enumerate(self.stack_frames):
            end = (self.stack_frames[i + 1][1]
                   if i + 1 < len(self.stack_frames) else self.stack_sp)
            if base <= offset < end:
                return name
        return None

    def __repr__(self):
        return (f"<Sthread #{self.id} {self.name!r} kind={self.kind} "
                f"uid={self.uid} status={self.status}>")
