"""Discrete-event simulation kernel.

This module provides the deterministic execution substrate for the whole
reproduction.  The 1988 paper ran on real Argus nodes; we instead run every
guardian, agent and network link inside a single simulated timeline so that
per-message overheads, wire latencies and handler compute times are explicit,
controllable model parameters (see DESIGN.md section 2).

The calendar is a heap of the *distinct* pending timestamps plus a dict
mapping each timestamp to its **lane**: one flat list of ``(head,
payload)`` slot pairs in insertion order (DESIGN.md section 8).  Workloads
schedule overwhelmingly at small deltas from *now* — network deliveries
at ``now + latency``, RTO timers, ``call_soon`` continuations — so
timestamps repeat heavily and the heap stays tiny (one entry per distinct
time, not per event); a far-future timer is simply one more heap entry
that sits unexamined until the clock reaches it.  A slot pair is one of
two kinds:

* ``head is _EV`` — *payload* is an Event to fire;
* otherwise *head* is a plain callable and *payload* its argument tuple —
  the common case, costing nothing beyond the tuple Python builds anyway.

URGENT events live apart, in a second ``time -> list of events`` dict that
is almost always empty (a process start or an interrupt sits there only
until the next fire).  The drain loop looks at it before every fire, so an
URGENT event always runs before the NORMAL entries left at its timestamp
and the order is exactly ``(time, priority, insertion order)``.  Nothing is
ever removed from the middle of a lane: holders that need to cancel (see
:class:`~repro.sim.alarm.Alarm`) make their callback a no-op instead.

Simulated processes are Python generators that yield
:class:`~repro.sim.events.Event` objects to block; the machinery for that
lives in :mod:`repro.sim.process`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Environment",
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

# Filled in by repro.sim.events at import time so the run loop can inline
# the (hot, exact-class) Event/Timeout fire path without an import cycle.
_EVENT_CLASS: Any = None
_TIMEOUT_CLASS: Any = None


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
        #: Heap of the *distinct* pending timestamps: exactly the keys of
        #: ``_lanes``.
        self._times: list = []
        #: time -> NORMAL lane, a flat list of (head, payload) slot pairs;
        #: see the module docstring.  Empty only while every entry pending
        #: at its timestamp is URGENT.
        self._lanes: dict = {}
        #: time -> pending URGENT events, oldest first.  Its keys are a
        #: subset of ``_lanes``' (an URGENT insert creates an empty lane
        #: if need be), so only ``_lanes`` inserts touch the heap.
        self._urgent: dict = {}
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
        """Time of the next scheduled event, or :data:`Infinity` if none."""
        times = self._times
        return times[0] if times else Infinity

    def queued_event_count(self) -> int:
        """Number of entries waiting on the calendar (for tests/stats).

        Counts timers whose holder has since disarmed them: they still
        occupy their slots until their timestamp comes up.
        """
        count = sum(len(lane) for lane in self._lanes.values()) // 2
        return count + sum(len(events) for events in self._urgent.values())

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
        when = self._now + delay
        lanes = self._lanes
        if priority == NORMAL:
            lane = lanes.get(when)
            if lane is None:
                lanes[when] = [_EV, event]
                heappush(self._times, when)
            else:
                lane.append(_EV)
                lane.append(event)
        elif priority == URGENT:
            if when not in lanes:
                lanes[when] = []
                heappush(self._times, when)
            self._urgent.setdefault(when, []).append(event)
        else:
            raise ValueError(
                "unsupported priority %r (use URGENT or NORMAL)" % (priority,)
            )

    # Timers that only need to invoke a function do not need an Event: no
    # callbacks list, no outcome, nothing to wait on.  These three drop the
    # callable and its argument tuple straight into the lane, at NORMAL
    # priority (urgent scheduling stays on :meth:`schedule`).  The insert
    # is spelled out in each: they are the hottest calls in the simulator
    # and a shared helper would cost every one of them a second frame.

    def call_at(self, when: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at absolute simulated time *when*."""
        if when < self._now:
            raise ValueError(
                "cannot schedule a callback in the past (when=%r, now=%r)"
                % (when, self._now)
            )
        lane = self._lanes.get(when)
        if lane is None:
            self._lanes[when] = [fn, args]
            heappush(self._times, when)
        else:
            lane.append(fn)
            lane.append(args)

    def call_in(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` *delay* time units from now."""
        if delay < 0:
            raise ValueError("cannot schedule a callback in the past (delay=%r)" % delay)
        when = self._now + delay
        lane = self._lanes.get(when)
        if lane is None:
            self._lanes[when] = [fn, args]
            heappush(self._times, when)
        else:
            lane.append(fn)
            lane.append(args)

    def call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current time, after pending events."""
        when = self._now
        lane = self._lanes.get(when)
        if lane is None:
            self._lanes[when] = [fn, args]
            heappush(self._times, when)
        else:
            lane.append(fn)
            lane.append(args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        *until* may be ``None`` (run until the calendar drains), a number
        (run until that simulated time), or an event (run until it fires and
        return its value).  A run bounded by time also stops early, with
        that event's value, when an event carrying a :class:`_Stopper`
        fires first; the rest of its lane stays queued for the next run
        (the wallclock driver drains in such slices).
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
        # DESIGN.md §8).  Per timestamp: walk the lane by index, looking
        # at the urgent dict before every fire so a same-time URGENT
        # insert made by a callback still runs first.  A callback may
        # append to the lane being walked (``call_soon``), hence the
        # ``len`` per entry.  The walked prefix is only cut off when an
        # exception escapes a callback (StopSimulation from run-until-
        # event included), which leaves the calendar resumable.
        times = self._times
        lanes = self._lanes
        urgent = self._urgent
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
                lane = lanes[t]
                i = 0
                try:
                    while True:
                        if urgent and t in urgent:
                            events = urgent[t]
                            head = ev_mark
                            payload = events.pop(0)
                            if not events:
                                del urgent[t]
                        elif i < len(lane):
                            head = lane[i]
                            payload = lane[i + 1]
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
                        else:
                            head(*payload)
                except BaseException:
                    del lane[:i]
                    if not lane and t not in urgent:
                        heappop(times)
                        del lanes[t]
                    raise
                heappop(times)
                del lanes[t]
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
