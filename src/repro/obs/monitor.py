"""Online invariant monitors: check transport guarantees as events flow.

The trace layer already records *what happened*; the monitors check that
what happened is *allowed*.  A :class:`MonitorSuite` attaches to a
:class:`~repro.obs.trace.Tracer` and observes every event at emission
time, so an invariant violation surfaces at the simulated moment it
occurs — with the offending event in hand — instead of as a mysterious
wrong answer at the end of the run.

The monitored invariants are the paper's transport guarantees:

* **exactly-once delivery** — a receiver never delivers the same call
  serial twice within one stream incarnation (duplicates on the wire are
  fine and show up as ``stream.call_duplicate``; a second
  ``stream.call_delivered`` is the bug);
* **FIFO call order** — within a stream incarnation, calls are delivered
  in exactly the order they were buffered (seq 1, 2, 3, ... with no gap
  and no reordering);
* **no claim before resolve** — a promise never claims *ready* before a
  resolution was recorded for it;
* **resolve once** — a promise is never resolved twice.

By default violations *raise* :class:`MonitorViolation` immediately.
Raises from emit sites inside handler bodies are converted to handler
failures by the dispatcher's catch-all, so every violation is also
recorded in :attr:`MonitorSuite.violations`; the traced test fixtures
assert that list is empty at teardown, catching both paths.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.trace import (
    EV_CALL_BUFFERED,
    EV_CALL_DELIVERED,
    EV_PROMISE_CLAIMED,
    EV_PROMISE_RESOLVED,
)

__all__ = [
    "MonitorViolation",
    "Monitor",
    "ExactlyOnceMonitor",
    "FifoOrderMonitor",
    "PromiseLifecycleMonitor",
    "MonitorSuite",
    "DEFAULT_MONITORS",
]


class MonitorViolation(AssertionError):
    """A transport invariant was broken.

    Subclasses ``AssertionError`` so a violation fails a test even if it
    escapes through generic ``except Exception`` plumbing.  Carries the
    structured context of the offense.
    """

    def __init__(
        self, monitor: str, message: str, time: float, etype: str, fields: Dict[str, Any]
    ) -> None:
        super().__init__(
            "[%s] %s (at t=%.6f on %s %r)" % (monitor, message, time, etype, fields)
        )
        self.monitor = monitor
        self.message = message
        self.time = time
        self.etype = etype
        self.fields = dict(fields)


class Monitor:
    """Base class: override :meth:`observe`, call :meth:`report` on a
    violation."""

    name = "monitor"

    def __init__(self, suite: "MonitorSuite") -> None:
        self.suite = suite

    def observe(self, etype: str, time: float, fields: Dict[str, Any]) -> None:
        raise NotImplementedError

    def report(
        self, message: str, time: float, etype: str, fields: Dict[str, Any]
    ) -> None:
        self.suite._record(
            MonitorViolation(self.name, message, time, etype, fields)
        )


class ExactlyOnceMonitor(Monitor):
    """Each call serial is delivered at most once per stream incarnation."""

    name = "exactly-once"

    def __init__(self, suite: "MonitorSuite") -> None:
        super().__init__(suite)
        self._delivered: Set[Tuple[str, int, int]] = set()

    def observe(self, etype: str, time: float, fields: Dict[str, Any]) -> None:
        if etype != EV_CALL_DELIVERED:
            return
        seq = fields.get("seq")
        if seq is None:
            return  # synthetic/partial event: nothing to check
        key = (fields.get("stream"), fields.get("incarnation", 0), seq)
        if key in self._delivered:
            self.report(
                "call seq=%d delivered twice on %s (incarnation %d)"
                % (key[2], key[0], key[1]),
                time,
                etype,
                fields,
            )
            return
        self._delivered.add(key)


class FifoOrderMonitor(Monitor):
    """Within a stream incarnation, delivery order equals call order.

    Call serials start at 1 per incarnation and the receiver must deliver
    them gaplessly ascending; buffered serials must likewise ascend on the
    sending side (a regression there would fake FIFO delivery trivially).
    """

    name = "fifo-order"

    def __init__(self, suite: "MonitorSuite") -> None:
        super().__init__(suite)
        self._last_delivered: Dict[Tuple[str, int], int] = {}
        self._last_buffered: Dict[Tuple[str, int], int] = {}

    def observe(self, etype: str, time: float, fields: Dict[str, Any]) -> None:
        seq = fields.get("seq")
        if seq is None:
            return  # synthetic/partial event: nothing to check
        if etype == EV_CALL_DELIVERED:
            key = (fields.get("stream"), fields.get("incarnation", 0))
            expected = self._last_delivered.get(key, 0) + 1
            if seq != expected:
                self.report(
                    "out-of-order delivery on %s: got seq=%d, expected %d"
                    % (key[0], seq, expected),
                    time,
                    etype,
                    fields,
                )
            self._last_delivered[key] = seq
        elif etype == EV_CALL_BUFFERED:
            key = (fields.get("stream"), fields.get("incarnation", 0))
            last = self._last_buffered.get(key, 0)
            if seq <= last:
                self.report(
                    "non-ascending call serial on %s: seq=%d after %d"
                    % (key[0], seq, last),
                    time,
                    etype,
                    fields,
                )
            self._last_buffered[key] = seq


class PromiseLifecycleMonitor(Monitor):
    """Promises resolve at most once and never claim ready unresolved."""

    name = "promise-lifecycle"

    def __init__(self, suite: "MonitorSuite") -> None:
        super().__init__(suite)
        self._resolved: Set[int] = set()

    def observe(self, etype: str, time: float, fields: Dict[str, Any]) -> None:
        promise_id = fields.get("promise_id")
        if promise_id is None:
            return  # synthetic/partial event: nothing to check
        if etype == EV_PROMISE_RESOLVED:
            if promise_id in self._resolved:
                self.report(
                    "promise #%d resolved twice" % promise_id, time, etype, fields
                )
                return
            self._resolved.add(promise_id)
        elif etype == EV_PROMISE_CLAIMED:
            if fields.get("ready") and promise_id not in self._resolved:
                self.report(
                    "promise #%d claimed ready before any resolution" % promise_id,
                    time,
                    etype,
                    fields,
                )


#: The monitors every suite starts with: the paper's transport guarantees.
DEFAULT_MONITORS: List[Any] = [
    ExactlyOnceMonitor,
    FifoOrderMonitor,
    PromiseLifecycleMonitor,
]


class MonitorSuite:
    """A set of online monitors attached to one tracer.

    With ``strict=True`` (the default) the first violation raises
    immediately at the emit site; either way every violation is appended
    to :attr:`violations` for end-of-run assertions.

    The roster is :data:`DEFAULT_MONITORS` unless ``monitors=`` names
    another.  The chaos engine (:mod:`repro.chaos`) installs the default
    roster non-strict and runs its end-to-end oracles after the run.
    """

    def __init__(
        self, strict: bool = True, monitors: Optional[List[Any]] = None
    ) -> None:
        self.strict = strict
        self.violations: List[MonitorViolation] = []
        factories = DEFAULT_MONITORS if monitors is None else monitors
        self.monitors: List[Monitor] = [factory(self) for factory in factories]

    # ------------------------------------------------------------------
    @classmethod
    def install(
        cls,
        tracer: Any,
        strict: bool = True,
        monitors: Optional[List[Any]] = None,
    ) -> "MonitorSuite":
        """Create a suite and attach it as ``tracer.monitors``."""
        suite = cls(strict=strict, monitors=monitors)
        tracer.monitors = suite
        return suite

    def observe(self, etype: str, time: float, fields: Dict[str, Any]) -> None:
        """Called by :meth:`Tracer.emit` for every event."""
        for monitor in self.monitors:
            monitor.observe(etype, time, fields)

    def _record(self, violation: MonitorViolation) -> None:
        self.violations.append(violation)
        if self.strict:
            raise violation

    def assert_clean(self) -> None:
        """Raise the first recorded violation, if any."""
        if self.violations:
            raise self.violations[0]

    def __repr__(self) -> str:
        return "<MonitorSuite monitors=%d violations=%d>" % (
            len(self.monitors),
            len(self.violations),
        )
