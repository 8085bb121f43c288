"""The wallclock driver: runs a simulator calendar against real time.

Every layer above the kernel — alarms, stream senders/receivers,
promises, the vat, guardians — schedules exclusively through
:class:`~repro.sim.kernel.Environment`'s calendar.  That makes the
backend seam exactly one object wide: :class:`WallclockDriver` drains
the calendar with :meth:`Environment.run` itself, in slices bounded by
the asyncio clock — each slice fires everything due by the mapped real
"now" — and returns to the event loop between slices, so socket
callbacks run there and the driver sleeps until the next entry comes
due.  Nothing above the kernel changes; the same transport state
machines that run deterministically under simulation run here against
real sockets (DESIGN.md §14).

Time mapping: one simulated time unit corresponds to ``time_unit`` real
seconds (default 1 ms, so the stream transport's default RTO of 20 sim
units becomes a 20 ms initial RTO).  The driver never lets simulated
time run *ahead* of the mapped real clock, nor ever back; external
happenings (frames arriving from a socket) enter the calendar through
:meth:`inject`, which first advances simulated "now" to the mapped real
time so timers armed afterwards measure genuine wallclock intervals.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Optional

from repro.sim.kernel import Infinity, _Stopper

__all__ = ["WallclockDriver", "WallclockTimeout"]


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
        #: The future a sleeping drain awaits; :meth:`inject`,
        #: :meth:`stop` or the sleep's own timer settles it.
        self._waiter: Optional[asyncio.Future] = None
        #: loop.time() at which simulated time 0 sits; refreshed at the
        #: start of every drain so simulated time never jumps across the
        #: gaps between two ``run`` calls.
        self._t0: Optional[float] = None
        self._stopped = False

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
        self._wake()

    def stop(self) -> None:
        """Make the current (or next) drain return promptly."""
        self._stopped = True
        self._wake()

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

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
        loop = self.loop
        self._stopped = False
        self._rebase()
        deadline = None if timeout is None else loop.time() + timeout

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

        while not self._stopped:
            if deadline is not None and loop.time() >= deadline:
                raise WallclockTimeout("drain exceeded its %.3fs budget" % (timeout,))
            now = self.real_now()
            bound = now if now < limit else limit
            if bound < env._now:
                # A socket callback's inject() already carried "now" past
                # the bound: the bound has passed, and what it queued
                # waits for the next drain.
                return None
            # One slice: everything due by real "now".  A stop event that
            # fires ends the slice early, with its value.
            value = env.run(until=bound)
            if stop_event is not None and stop_event.processed:
                return value
            if bound == limit:
                return None
            target = env.peek()
            if target > limit:
                target = limit
            if target == Infinity:
                if idle_exit and stop_event is None:
                    return None
                delay = None
            else:
                delay = (target - self.real_now()) * self.time_unit
            if deadline is not None:
                budget = deadline - loop.time()
                delay = budget if delay is None or delay > budget else delay
            # Back to the loop, so socket callbacks run between slices,
            # until the next entry is due or inject()/stop() wakes us.
            waiter = self._waiter = loop.create_future()
            timer = None if delay is None else loop.call_later(delay, self._wake)
            try:
                await waiter
            finally:
                self._waiter = None
                if timer is not None:
                    timer.cancel()

        if stop_event is not None and not stop_event.triggered:
            raise WallclockTimeout("driver stopped before %r fired" % (stop_event,))
        return None

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
