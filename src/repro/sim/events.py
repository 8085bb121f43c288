"""Events for the simulation kernel.

An :class:`Event` is the unit of blocking: simulated processes yield events
and are resumed when the event *fires*.  Events pass through three states:

* **untriggered** — created, not yet scheduled;
* **triggered** — given an outcome (a value or an exception) and placed on
  the environment's calendar;
* **processed** — fired; its callbacks have run and waiting processes have
  been resumed.

Once triggered an event's outcome never changes, mirroring the monotonicity
that the paper requires of promises ("once a promise is ready it remains
ready from then on and its value never changes again").
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.kernel import Environment, NORMAL

__all__ = ["Event", "Timeout"]

_PENDING = object()


class Event:
    """A one-shot occurrence that processes can wait for."""

    __slots__ = ("env", "callbacks", "_value", "_ok", "defused")

    def __init__(self, env: Environment) -> None:
        self.env = env
        #: List of callables invoked (with the event) when the event fires,
        #: or ``None`` once the event has been processed.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: Set ``True`` by a handler that has dealt with a failed event so
        #: the kernel does not re-raise the exception at the top level.
        self.defused = False

    def __repr__(self) -> str:
        state = (
            "untriggered"
            if not self.triggered
            else ("processed" if self.processed else "triggered")
        )
        return "<%s %s at 0x%x>" % (type(self).__name__, state, id(self))

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has an outcome."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the outcome is a success value (only valid if triggered)."""
        if self._ok is None:
            raise RuntimeError("event %r has not yet been triggered" % self)
        return self._ok

    @property
    def value(self) -> Any:
        """The outcome: the success value or the exception object."""
        if self._value is _PENDING:
            raise RuntimeError("event %r has not yet been triggered" % self)
        return self._value

    def value_or_raise(self) -> Any:
        """Return the success value, or raise the failure exception."""
        if self._value is _PENDING:
            raise RuntimeError("event %r has not yet been triggered" % self)
        if not self._ok:
            self.defused = True
            raise self._value
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event with a success *value*."""
        if self.triggered:
            raise RuntimeError("event %r has already been triggered" % self)
        self._ok = True
        self._value = value
        self.env.schedule(self, 0.0, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with a failure *exception*."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception, got %r" % (exception,))
        if self.triggered:
            raise RuntimeError("event %r has already been triggered" % self)
        self._ok = False
        self._value = exception
        self.env.schedule(self, 0.0, priority)
        return self

    def trigger(self, outcome: "Event") -> None:
        """Copy another event's outcome onto this one (callback-compatible)."""
        if outcome._ok:
            self.succeed(outcome._value)
        else:
            self.fail(outcome._value)

    # ------------------------------------------------------------------
    # Firing (kernel internal)
    # ------------------------------------------------------------------
    def _fire(self, env: Environment) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise RuntimeError("event %r fired twice" % self)
        for callback in callbacks:
            callback(self)
        if not self._ok and not self.defused:
            raise self._value


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: Environment, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError("negative timeout delay: %r" % (delay,))
        super().__init__(env)
        self._delay = delay
        self._ok = True
        self._value = value
        env.schedule(self, delay)

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:
        return "<Timeout delay=%r at 0x%x>" % (self._delay, id(self))


# Let the kernel's run loop inline the exact-class fire path for these two
# hot classes without an import cycle (subclasses still dispatch through
# their own _fire).
from repro.sim import kernel as _kernel  # noqa: E402

_kernel._EVENT_CLASS = Event
_kernel._TIMEOUT_CLASS = Timeout
