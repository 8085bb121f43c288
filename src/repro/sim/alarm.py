"""Cancellable one-shot alarms.

Timer-driven behaviour (buffer flush deadlines, retransmission timeouts,
acknowledgement delays) needs a primitive that can be armed, re-armed and
cancelled cheaply without leaking processes.  ``Alarm`` wraps the pattern:
one alarm object, one deadline, cancel/re-arm at will.

The alarm never removes anything from the calendar.  Its timers are plain
:meth:`~repro.sim.kernel.Environment.call_at` entries that all run
:meth:`Alarm._on_timer`, which acts on the alarm's *current* state:
cancelling clears the deadline, so a timer that comes up disarmed does
nothing, and one that comes up early (the alarm was re-armed later
meanwhile) reschedules itself once for the new deadline.  Re-arming
therefore reuses a pending timer whenever that timer fires at or before the
new deadline — a hot alarm re-armed on every packet (the RTO pattern) keeps
a single calendar entry instead of piling up one dead timer per packet.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import Environment

__all__ = ["Alarm"]


class Alarm:
    """A re-armable one-shot timer firing a callback at a deadline."""

    __slots__ = ("env", "_callback", "_deadline", "_next_fire")

    def __init__(self, env: Environment, callback: Callable[[], None]) -> None:
        self.env = env
        self._callback = callback
        #: When the callback should run, or None when disarmed.
        self._deadline: Optional[float] = None
        #: Earliest pending calendar timer known to cover the deadline, or
        #: None if no timer is known to be pending.  Invariant: whenever
        #: ``_deadline`` is set, some pending timer fires at or before it.
        self._next_fire: Optional[float] = None

    @property
    def armed(self) -> bool:
        return self._deadline is not None

    @property
    def deadline(self) -> Optional[float]:
        return self._deadline

    def arm(self, delay: float) -> None:
        """(Re-)arm the alarm to fire *delay* from now, replacing any
        earlier deadline."""
        if delay < 0:
            raise ValueError("alarm delay must be >= 0, got %r" % (delay,))
        env = self.env
        deadline = env._now + delay
        self._deadline = deadline
        next_fire = self._next_fire
        if next_fire is None or next_fire > deadline:
            self._next_fire = deadline
            env.call_at(deadline, self._on_timer)

    def arm_if_idle(self, delay: float) -> None:
        """Arm only if no deadline is currently pending."""
        if self._deadline is None:
            self.arm(delay)

    def cancel(self) -> None:
        """Cancel any pending deadline (its timer stays queued and comes
        up as a no-op, or is reused by the next :meth:`arm`)."""
        self._deadline = None

    def _on_timer(self) -> None:
        self._next_fire = None
        deadline = self._deadline
        if deadline is None:
            return  # disarmed since this timer was scheduled
        env = self.env
        if deadline > env._now:
            # Re-armed to a later deadline: this timer covers it by
            # rescheduling once, instead of one timer per arm().
            self._next_fire = deadline
            env.call_at(deadline, self._on_timer)
            return
        self._deadline = None
        self._callback()
