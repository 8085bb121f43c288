"""The wallclock driver: runs a simulator calendar against real time.

Every layer above the kernel — alarms, stream senders/receivers,
promises, the vat, guardians — schedules exclusively through
:class:`~repro.sim.kernel.Environment`'s calendar.  That makes the
backend seam exactly one object wide: instead of
:meth:`Environment.run` draining the calendar as fast as possible,
:class:`WallclockDriver` drains it *paced against the asyncio clock*,
firing each entry once real time has caught up with its simulated
timestamp.  Nothing above the kernel changes; the same transport state
machines that run deterministically under simulation run here against
real sockets (DESIGN.md §14).

Time mapping: one simulated time unit corresponds to ``time_unit`` real
seconds (default 1 ms, so the stream transport's default RTO of 20 sim
units becomes a 20 ms initial RTO).  The driver never lets simulated
time run *ahead* of the mapped real clock; external happenings (frames
arriving from a socket) enter the calendar through :meth:`inject`,
which first advances simulated "now" to the mapped real time so timers
armed afterwards measure genuine wallclock intervals.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.sim.kernel import EmptySchedule, Infinity, StopSimulation
from repro.sim.kernel import _Stopper  # noqa: F401  (re-exported pattern)

__all__ = ["WallclockDriver", "WallclockTimeout"]

#: Calendar entries fired back-to-back before yielding to the asyncio
#: loop, so socket IO keeps flowing during a burst of due timers.
_STEPS_PER_YIELD = 64


class WallclockTimeout(Exception):
    """A :meth:`WallclockDriver.run` call exceeded its real-time budget."""


class WallclockDriver:
    """Drains one environment's calendar in step with the asyncio clock."""

    def __init__(
        self,
        env: Any,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        time_unit: float = 0.001,
    ) -> None:
        if time_unit <= 0:
            raise ValueError("time_unit must be positive, got %r" % (time_unit,))
        self.env = env
        self.loop = loop or asyncio.new_event_loop()
        #: Real seconds per simulated time unit.
        self.time_unit = time_unit
        self._wake = asyncio.Event()
        #: loop.time() at which simulated time 0 sits; refreshed at the
        #: start of every drain so simulated time never jumps across the
        #: gaps between two ``run`` calls.
        self._t0: Optional[float] = None
        self._stopped = False
        #: Entries fired, for tests and the bench report.
        self.steps = 0

    # ------------------------------------------------------------------
    # Clock mapping
    # ------------------------------------------------------------------
    def real_now(self) -> float:
        """Current real time mapped into simulated units (>= env.now)."""
        if self._t0 is None:
            return self.env._now
        mapped = (self.loop.time() - self._t0) / self.time_unit
        return mapped if mapped > self.env._now else self.env._now

    def _rebase(self) -> None:
        self._t0 = self.loop.time() - self.env._now * self.time_unit

    # ------------------------------------------------------------------
    # External entry point (socket callbacks)
    # ------------------------------------------------------------------
    def inject(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` from outside the calendar (same thread).

        Advances simulated "now" to the mapped real clock first, so the
        callback — and every timer it arms — sees wallclock-accurate
        timestamps, then wakes the drain loop.
        """
        env = self.env
        now = self.real_now()
        if now > env._now:
            env._now = now
        env.call_soon(fn, *args)
        self._wake.set()

    def stop(self) -> None:
        """Make the current (or next) drain return promptly."""
        self._stopped = True
        self._wake.set()

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    async def drain(
        self,
        until: Any = None,
        timeout: Optional[float] = None,
        idle_exit: bool = False,
    ) -> Any:
        """Drain the calendar against real time.

        *until* mirrors :meth:`Environment.run`: ``None`` (run until
        :meth:`stop` or — with ``idle_exit`` — until the calendar is
        empty), a number (simulated-time bound), or an event (run until
        it fires; returns its value).  *timeout* is a **real-seconds**
        budget; exceeding it raises :class:`WallclockTimeout`.
        """
        env = self.env
        self._stopped = False
        self._rebase()
        deadline = None if timeout is None else self.loop.time() + timeout

        stop_event = None
        limit = Infinity
        if until is None:
            pass
        elif hasattr(until, "callbacks"):
            stop_event = until
            if until.triggered:
                return until.value_or_raise()
            until.callbacks.append(_Stopper(until))
        else:
            limit = float(until)

        steps_since_yield = 0
        while not self._stopped:
            t = env.peek()
            # The next simulated moment anything happens: the next
            # calendar entry, clamped by the run-until time bound.
            target = t if t < limit else limit
            if target == Infinity:
                if idle_exit and stop_event is None:
                    return None
                await self._wait(None, deadline)
                continue
            now = self.real_now()
            if target > now:
                await self._wait((target - now) * self.time_unit, deadline)
                continue
            if t > limit:
                # Real time reached the bound with nothing due before it.
                env._now = limit
                return None
            try:
                env.step()
            except StopSimulation as stop:
                return stop.value
            except EmptySchedule:
                continue
            self.steps += 1
            steps_since_yield += 1
            if steps_since_yield >= _STEPS_PER_YIELD:
                steps_since_yield = 0
                if deadline is not None and self.loop.time() > deadline:
                    raise WallclockTimeout(
                        "drain exceeded its %.3fs budget" % (timeout,)
                    )
                # Let socket callbacks run between bursts of due timers.
                await asyncio.sleep(0)

        if stop_event is not None and not stop_event.triggered:
            raise WallclockTimeout("driver stopped before %r fired" % (stop_event,))
        return None

    async def _wait(self, delay: Optional[float], deadline: Optional[float]) -> None:
        """Sleep until woken, *delay* elapses, or *deadline* passes."""
        if deadline is not None:
            budget = deadline - self.loop.time()
            if budget <= 0:
                raise WallclockTimeout("real-time budget exhausted")
            delay = budget if delay is None else min(delay, budget)
            timed_out_is_deadline = delay >= budget
        else:
            timed_out_is_deadline = False
        self._wake.clear()
        try:
            await asyncio.wait_for(self._wake.wait(), delay)
        except asyncio.TimeoutError:
            if timed_out_is_deadline:
                raise WallclockTimeout("real-time budget exhausted") from None

    # ------------------------------------------------------------------
    # Synchronous facade
    # ------------------------------------------------------------------
    def run(
        self, until: Any = None, timeout: Optional[float] = None, idle_exit: bool = False
    ) -> Any:
        """Blocking wrapper over :meth:`drain` on the driver's loop."""
        return self.loop.run_until_complete(
            self.drain(until=until, timeout=timeout, idle_exit=idle_exit)
        )
