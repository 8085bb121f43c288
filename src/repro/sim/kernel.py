"""Discrete-event simulation kernel.

This module provides the deterministic execution substrate for the whole
reproduction.  The 1988 paper ran on real Argus nodes; we instead run every
guardian, agent and network link inside a single simulated timeline so that
per-message overheads, wire latencies and handler compute times are explicit,
controllable model parameters (see DESIGN.md section 2).

The calendar is a **bucket calendar queue** (DESIGN.md section 13): a heap
of *distinct* pending timestamps plus a dict mapping each timestamp to its
bucket of entries.  Simulation workloads schedule overwhelmingly at small
deltas from *now* — network deliveries at ``now + latency``, RTO timers,
flush alarms, ``call_soon`` continuations — so timestamps repeat heavily
and the heap stays tiny (one entry per distinct time, not per event).
Each bucket holds two append-only FIFO lanes (urgent, normal) drained with
a cursor, which reproduces the previous global-heap ``(time, priority,
seq)`` ordering exactly: insertion order within a lane *is* seq order, and
the urgent lane is re-checked before every fire so urgent events always
run before normal events at the same timestamp.  Far-future timers need no
special overflow tier — a far timestamp is simply one more heap entry that
sits unexamined until the clock reaches it.

A lane is a flat ring of ``(head, payload)`` slot pairs, not a list of
entry objects:

* ``head is _EV``      — *payload* is an Event to fire;
* ``head`` is a pooled :class:`_Callback` record — a cancellable timer;
  *payload* is its argument tuple (the record itself only carries the
  function and a generation counter);
* otherwise ``head`` is a plain callable and *payload* its argument
  tuple — the common case, costing zero allocations beyond the argument
  tuple Python builds anyway.

Cancellable timers are pooled: consumed ``_Callback`` records go on a free
list and are reissued by the next ``call_at_cancellable``, so steady-state
timer traffic allocates nothing.  The generation counter on each record
lets holders (e.g. :class:`~repro.sim.alarm.Alarm`) cancel a pending timer
in O(1) by nulling its function slot — the drain loop skips dead records
at their slot — without being fooled by record reuse.

Simulated processes are Python generators that yield
:class:`~repro.sim.events.Event` objects to block; the machinery for that
lives in :mod:`repro.sim.process`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Environment",
    "EmptySchedule",
    "StopSimulation",
    "Infinity",
    "URGENT",
    "NORMAL",
]

#: Scheduling priority for events that must fire before ordinary events at
#: the same timestamp (e.g. process resumption after an interrupt).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1

#: A time later than any other; used as the default run-until bound.
Infinity = float("inf")

#: Lane sentinel: the slot after an ``_EV`` head holds an Event to fire.
_EV = object()

#: Maximum number of drained bucket structures kept for reuse.
_BUCKET_POOL_LIMIT = 4096

# Bucket layout: [normal_lane, normal_cursor, urgent_lane_or_None,
# urgent_cursor].  Cursors index slots (they advance by 2 per entry).  The
# urgent lane is lazily allocated because most timestamps only ever see
# normal-priority entries (three list allocations per network message would
# be measurable; DESIGN.md §8).

# Filled in by repro.sim.events at import time so the run loop can inline
# the (hot, exact-class) Event/Timeout fire path without an import cycle.
_EVENT_CLASS: Any = None
_TIMEOUT_CLASS: Any = None


class _Callback:
    """A cancellable calendar timer record.

    Records are pooled (``Environment._cb_pool``) and reused; ``gen`` is
    bumped every time a record is consumed, so a holder that remembered
    ``(record, gen)`` can tell whether the record still belongs to it.
    ``fn is None`` marks a cancelled entry, skipped in O(1) at its slot.
    The argument tuple lives in the lane's payload slot, not here.
    """

    __slots__ = ("fn", "gen")

    def __init__(self, fn: Callable[..., None]) -> None:
        self.fn = fn
        self.gen = 0

    def __repr__(self) -> str:
        return "<_Callback %r gen=%d at 0x%x>" % (self.fn, self.gen, id(self))


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopSimulation(Exception):
    """Raised internally to stop :meth:`Environment.run` at a trigger event."""

    def __init__(self, value: Any) -> None:
        super().__init__(value)
        self.value = value


class Environment:
    """A simulation environment: clock plus event calendar.

    The environment is deliberately small; everything else (timeouts,
    processes, synchronization, networks, guardians) is built on
    :meth:`schedule` and :meth:`run`.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        #: Heap of *distinct* pending timestamps; one entry per bucket.
        self._times: list = []
        #: time -> bucket; see the lane-layout comment at module top.
        self._buckets: dict = {}
        #: Free list of consumed _Callback records awaiting reuse.
        self._cb_pool: list = []
        #: Free list of drained bucket structures ([lane, 0, None, 0],
        #: lanes emptied) awaiting reuse.  Workloads whose timestamps are
        #: mostly distinct (e.g. NIC-serialized network sends) would
        #: otherwise allocate two fresh lists per calendar slot, which is
        #: pure garbage-collector pressure; recycling keeps those
        #: workloads allocation-free in steady state.  Capped so a burst
        #: of distinct times cannot pin unbounded memory.
        self._bucket_pool: list = []
        self._active_process = None
        #: Per-environment process serial numbers: deterministic both
        #: across runs *and* across environments in one interpreter, so
        #: golden-trace tests can compare full traces of two worlds.
        self._next_pid = 0
        #: Other per-environment serial families (promises, agents, ...),
        #: kept per-environment for the same golden-trace reason.
        self._serials: dict = {}
        #: Attached :class:`~repro.obs.trace.Tracer`, or None (the default:
        #: tracing disabled).  Every instrumented layer reads this through
        #: its environment, so one attribute enables tracing everywhere.
        self.tracer = None
        #: Attached :class:`~repro.concurrency.vat.Vat`, or None until the
        #: first promise continuation is registered.  The vat drains its
        #: callback queue through :meth:`call_soon`, so continuation
        #: dispatch rides the fast callback lane with no per-promise
        #: process overhead.
        self.vat = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self):
        """The :class:`~repro.sim.process.Process` currently executing."""
        return self._active_process

    def new_pid(self) -> int:
        """Next deterministic process serial number for this environment."""
        self._next_pid += 1
        return self._next_pid

    def new_serial(self, kind: str) -> int:
        """Next serial in the per-environment counter family *kind*.

        Trace-visible identifiers (promise ids, agent serials) must come
        from here rather than module-level counters, so that two worlds
        built in the same interpreter produce identical traces.
        """
        serials = self._serials
        value = serials.get(kind, 0) + 1
        serials[kind] = value
        return value

    def peek(self) -> float:
        """Time of the next scheduled event, or :data:`Infinity` if none.

        Lazily discards buckets whose every entry has already been
        consumed (possible when an exception stopped :meth:`run` on the
        last entry of a bucket).
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            b = buckets[t]
            u = b[2]
            if b[1] < len(b[0]) or (u is not None and b[3] < len(u)):
                return t
            heappop(times)
            del buckets[t]
            bpool = self._bucket_pool
            if len(bpool) < _BUCKET_POOL_LIMIT:
                del b[0][:]
                b[1] = 0
                if u is not None:
                    b[2] = None
                    b[3] = 0
                bpool.append(b)
        return Infinity

    def queued_event_count(self) -> int:
        """Number of entries waiting on the calendar (for tests/stats).

        Counts lazily-cancelled timers still occupying their slots, just
        as the previous heap-based kernel counted stale alarm entries.
        """
        count = 0
        for b in self._buckets.values():
            count += len(b[0]) - b[1]
            u = b[2]
            if u is not None:
                count += len(u) - b[3]
        return count // 2

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Any, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Place *event* on the calendar ``delay`` time units from now.

        Ties at the same timestamp are broken first by *priority* then by
        insertion order, which keeps the simulation fully deterministic.
        Only the two documented priorities (:data:`URGENT`, :data:`NORMAL`)
        exist; anything else raises ``ValueError``.
        """
        if delay < 0:
            raise ValueError("cannot schedule an event in the past (delay=%r)" % delay)
        t = self._now + delay
        buckets = self._buckets
        if priority == NORMAL:
            b = buckets.get(t)
            if b is None:
                bpool = self._bucket_pool
                if bpool:
                    b = bpool.pop()
                    lane = b[0]
                    lane.append(_EV)
                    lane.append(event)
                    buckets[t] = b
                else:
                    buckets[t] = [[_EV, event], 0, None, 0]
                heappush(self._times, t)
            else:
                lane = b[0]
                lane.append(_EV)
                lane.append(event)
        elif priority == URGENT:
            b = buckets.get(t)
            if b is None:
                bpool = self._bucket_pool
                if bpool:
                    b = bpool.pop()
                    b[2] = [_EV, event]
                    buckets[t] = b
                else:
                    buckets[t] = [[], 0, [_EV, event], 0]
                heappush(self._times, t)
            else:
                u = b[2]
                if u is None:
                    b[2] = [_EV, event]
                else:
                    u.append(_EV)
                    u.append(event)
        else:
            raise ValueError(
                "unsupported priority %r (use URGENT or NORMAL)" % (priority,)
            )

    # ------------------------------------------------------------------
    # Fast callback lane
    # ------------------------------------------------------------------
    # Timers that only need to invoke a function do not need an Event: no
    # callbacks list, no outcome, nothing to wait on.  These entry points
    # drop the callable and its argument tuple straight into the bucket's
    # lane — zero allocations beyond the argument tuple itself.  The lane
    # is NORMAL priority (nothing in the system needs an urgent bare
    # timer; urgent scheduling stays on :meth:`schedule`).
    #
    # Timers that may need cancelling go through
    # :meth:`call_at_cancellable`, which wraps the callable in a pooled
    # record whose function slot can be nulled in O(1).

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time *when*."""
        if when < self._now:
            raise ValueError(
                "cannot schedule a callback in the past (when=%r, now=%r)"
                % (when, self._now)
            )
        buckets = self._buckets
        b = buckets.get(when)
        if b is None:
            bpool = self._bucket_pool
            if bpool:
                b = bpool.pop()
                lane = b[0]
                lane.append(fn)
                lane.append(args)
                buckets[when] = b
            else:
                buckets[when] = [[fn, args], 0, None, 0]
            heappush(self._times, when)
        else:
            lane = b[0]
            lane.append(fn)
            lane.append(args)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` *delay* time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule a callback in the past (delay=%r)" % delay)
        when = self._now + delay
        buckets = self._buckets
        b = buckets.get(when)
        if b is None:
            bpool = self._bucket_pool
            if bpool:
                b = bpool.pop()
                lane = b[0]
                lane.append(fn)
                lane.append(args)
                buckets[when] = b
            else:
                buckets[when] = [[fn, args], 0, None, 0]
            heappush(self._times, when)
        else:
            lane = b[0]
            lane.append(fn)
            lane.append(args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after pending events."""
        when = self._now
        buckets = self._buckets
        b = buckets.get(when)
        if b is None:
            bpool = self._bucket_pool
            if bpool:
                b = bpool.pop()
                lane = b[0]
                lane.append(fn)
                lane.append(args)
                buckets[when] = b
            else:
                buckets[when] = [[fn, args], 0, None, 0]
            heappush(self._times, when)
        else:
            lane = b[0]
            lane.append(fn)
            lane.append(args)

    def call_at_cancellable(
        self, when: float, fn: Callable[..., None], *args: Any
    ) -> _Callback:
        """Like :meth:`call_at`, but returns a cancellation handle.

        Capture the returned record together with its ``gen`` immediately;
        the pair can later be passed to :meth:`cancel_callback` for an
        O(1) lazy cancel.  Costs one pooled record on top of
        :meth:`call_at` (nothing once the free list is warm).
        """
        if when < self._now:
            raise ValueError(
                "cannot schedule a callback in the past (when=%r, now=%r)"
                % (when, self._now)
            )
        pool = self._cb_pool
        if pool:
            cb = pool.pop()
            cb.fn = fn
        else:
            cb = _Callback(fn)
        buckets = self._buckets
        b = buckets.get(when)
        if b is None:
            bpool = self._bucket_pool
            if bpool:
                b = bpool.pop()
                lane = b[0]
                lane.append(cb)
                lane.append(args)
                buckets[when] = b
            else:
                buckets[when] = [[cb, args], 0, None, 0]
            heappush(self._times, when)
        else:
            lane = b[0]
            lane.append(cb)
            lane.append(args)
        return cb

    def cancel_callback(self, handle: _Callback, gen: int) -> bool:
        """Lazily cancel a pending cancellable timer in O(1).

        *handle* and *gen* must be the record returned by
        :meth:`call_at_cancellable` and its ``gen`` captured at scheduling
        time.  If the record has since fired (and possibly been reissued
        to someone else) the generation no longer matches and this is a
        no-op.  Returns True if the entry was live and is now dead.
        """
        if handle.gen == gen and handle.fn is not None:
            handle.fn = None
            return True
        return False

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Fire the single next entry.

        Raises :class:`EmptySchedule` if the calendar is empty.  A
        lazily-cancelled timer counts as one (no-op) entry, exactly as the
        previous kernel fired the stale timer's guard function.
        """
        times = self._times
        buckets = self._buckets
        while times:
            t = times[0]
            b = buckets[t]
            u = b[2]
            if u is not None and b[3] < len(u):
                cur = b[3]
                head = u[cur]
                payload = u[cur + 1]
                b[3] = cur + 2
            elif b[1] < len(b[0]):
                lane = b[0]
                cur = b[1]
                head = lane[cur]
                payload = lane[cur + 1]
                b[1] = cur + 2
            else:
                heappop(times)
                del buckets[t]
                bpool = self._bucket_pool
                if len(bpool) < _BUCKET_POOL_LIMIT:
                    del b[0][:]
                    b[1] = 0
                    if u is not None:
                        b[2] = None
                        b[3] = 0
                    bpool.append(b)
                continue
            self._now = t
            if head is _EV:
                payload._fire(self)
            elif head.__class__ is _Callback:
                fn = head.fn
                head.fn = None
                head.gen += 1
                self._cb_pool.append(head)
                if fn is not None:
                    fn(*payload)
            else:
                head(*payload)
            return
        raise EmptySchedule()

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        *until* may be ``None`` (run until the calendar drains), a number
        (run until that simulated time), or an event (run until it fires and
        return its value).
        """
        stop_event = None
        if until is None:
            limit = Infinity
        elif hasattr(until, "callbacks"):
            stop_event = until
            limit = Infinity
            if until.triggered:
                return until.value_or_raise()
            until.callbacks.append(_Stopper(until))
        else:
            limit = float(until)
            if limit < self._now:
                raise ValueError(
                    "until (%r) must not be earlier than now (%r)" % (limit, self._now)
                )

        # Inlined event loop (the hottest code in the whole simulator;
        # DESIGN.md §8).  Per bucket: drain the urgent lane, then the
        # normal lane, re-checking the urgent lane before every fire so a
        # same-time URGENT insert made by a callback still runs first —
        # exactly the ordering the old (time, priority, seq) heap
        # produced.  Cursors are written back in `finally` so an exception
        # escaping a callback (including StopSimulation from run-until-
        # event) leaves the calendar resumable.
        times = self._times
        buckets = self._buckets
        pool = self._cb_pool
        bpool = self._bucket_pool
        cb_cls = _Callback
        ev_cls = _EVENT_CLASS
        to_cls = _TIMEOUT_CLASS
        ev_mark = _EV
        try:
            while times:
                t = times[0]
                if t > limit:
                    self._now = limit
                    break
                self._now = t
                b = buckets[t]
                nlane = b[0]
                i = b[1]
                try:
                    while True:
                        u = b[2]
                        if u is not None and b[3] < len(u):
                            cur = b[3]
                            head = u[cur]
                            payload = u[cur + 1]
                            b[3] = cur + 2
                        elif i < len(nlane):
                            head = nlane[i]
                            payload = nlane[i + 1]
                            i += 2
                        else:
                            break
                        if head is ev_mark:
                            cls = payload.__class__
                            if cls is to_cls or cls is ev_cls:
                                # Exact inline of events.Event._fire.
                                callbacks = payload.callbacks
                                payload.callbacks = None
                                if callbacks is None:  # pragma: no cover
                                    raise RuntimeError(
                                        "event %r fired twice" % payload
                                    )
                                for callback in callbacks:
                                    callback(payload)
                                if not payload._ok and not payload.defused:
                                    raise payload._value
                            else:
                                payload._fire(self)
                        elif head.__class__ is cb_cls:
                            fn = head.fn
                            head.fn = None
                            head.gen += 1
                            pool.append(head)
                            if fn is not None:
                                fn(*payload)
                        else:
                            head(*payload)
                finally:
                    b[1] = i
                heappop(times)
                del buckets[t]
                # Recycle the drained bucket (both lanes are exhausted —
                # the inner loop only exits when nothing is left).
                if len(bpool) < _BUCKET_POOL_LIMIT:
                    del nlane[:]
                    b[1] = 0
                    if b[2] is not None:
                        b[2] = None
                        b[3] = 0
                    bpool.append(b)
        except StopSimulation as stop:
            return stop.value

        if stop_event is not None:
            raise RuntimeError(
                "simulation ran out of events before %r fired" % (stop_event,)
            )
        if limit is not Infinity:
            self._now = max(self._now, limit)
        return None

    # ------------------------------------------------------------------
    # Factory helpers (populated by sibling modules to avoid import cycles)
    # ------------------------------------------------------------------
    def event(self):
        """Create a fresh untriggered :class:`~repro.sim.events.Event`."""
        from repro.sim.events import Event

        return Event(self)

    def timeout(self, delay: float, value: Any = None):
        """Create a :class:`~repro.sim.events.Timeout` firing after *delay*."""
        from repro.sim.events import Timeout

        return Timeout(self, delay, value)

    def process(self, generator: Generator):
        """Spawn a new simulated :class:`~repro.sim.process.Process`."""
        from repro.sim.process import Process

        return Process(self, generator)

    def all_of(self, events: Iterable[Any]):
        """Condition event that fires when every event in *events* has."""
        from repro.sim.events import AllOf

        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Any]):
        """Condition event that fires when any event in *events* has."""
        from repro.sim.events import AnyOf

        return AnyOf(self, list(events))


class _Stopper:
    """Callback object that stops :meth:`Environment.run` at an event."""

    def __init__(self, event: Any) -> None:
        self._event = event

    def __call__(self, event: Any) -> None:
        raise StopSimulation(event.value_or_raise())
