"""The wallclock driver: runs a simulator calendar against real time.

Every layer above the kernel — alarms, stream senders/receivers,
promises, the vat, guardians — schedules exclusively through
:class:`~repro.sim.kernel.Environment`'s calendar.  That makes the
backend seam exactly one object wide: :class:`WallclockDriver` drains
the calendar with :meth:`Environment.run` itself, in slices bounded by
the asyncio clock — each slice fires everything due by the mapped real
"now".  A slice runs in the event-loop callback that makes it due: the
sleep timer (set for the next calendar entry or the deadline), or the
socket callback that hands a frame to :meth:`inject`, so a frame is
delivered in the loop turn that read it.  The drain coroutine only
sleeps until a slice (or :meth:`stop`) settles its outcome.  Nothing
above the kernel changes; the same transport state machines that run
deterministically under simulation run here against real sockets
(DESIGN.md §14).

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
from typing import Any, Callable, Iterable, Optional, Tuple

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
        #: The future a sleeping drain awaits, settled with its outcome.
        #: None while no drain sleeps -- also while a slice runs, so an
        #: inject() made inside a slice only queues.
        self._waiter: Optional[asyncio.Future] = None
        #: The sleeping drain's wake-up: its next entry or its deadline.
        self._timer: Optional[asyncio.TimerHandle] = None
        #: loop.time() at which simulated time 0 sits; refreshed at the
        #: start of every drain so simulated time never jumps across the
        #: gaps between two ``run`` calls.
        self._t0: Optional[float] = None
        self._stopped = False
        #: The current drain's bounds: simulated, real and event.
        self._limit = self._deadline = Infinity
        self._stop_event: Any = None
        self._idle_exit = False

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
    # External entry points (socket callbacks)
    # ------------------------------------------------------------------
    def inject(self, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` from outside the calendar (same thread)."""
        self.inject_each(fn, (args,))

    def inject_each(self, fn: Callable[..., None], arg_tuples: Iterable[tuple]) -> None:
        """Schedule ``fn(*args)`` per tuple, then run one slice if a drain
        sleeps.  Each entry first advances simulated "now" to the mapped
        real clock, so the callback -- and every timer it arms -- sees
        wallclock-accurate timestamps."""
        env = self.env
        for args in arg_tuples:
            now = self.real_now()
            if now > env._now:
                env._now = now
            env.call_soon(fn, *args)
        if self._waiter is not None:
            self._slice()

    def stop(self) -> None:
        """Make the current drain return promptly."""
        self._stopped = True
        if self._waiter is not None:
            self._slice()

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
        loop = self.loop
        self._stopped = False
        self._rebase()
        self._deadline = Infinity if timeout is None else loop.time() + timeout
        self._limit, self._stop_event, self._idle_exit = Infinity, None, idle_exit
        if hasattr(until, "callbacks"):
            if until.triggered:
                return until.value_or_raise()
            self._stop_event = until
            until.callbacks.append(_Stopper(until))
        elif until is not None:
            self._limit = float(until)
        # The first slice runs here; the later ones run in the loop
        # callback that needs them -- the sleep timer, inject() or stop()
        # -- and the coroutine wakes only once one of them settles it.
        waiter = self._waiter = loop.create_future()
        try:
            self._slice()
            return await waiter
        finally:
            self._waiter = None
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None

    def _slice(self) -> None:
        waiter, self._waiter = self._waiter, None
        try:
            done, result = self._step()
        except Exception as exc:
            waiter.set_exception(exc)
            return
        if done:
            waiter.set_result(result)
            return
        self._waiter = waiter
        # Back to the loop, so socket callbacks run between slices.  The
        # timer only moves when this slice made an earlier entry due.
        timer = self._timer
        if timer is not None:
            if timer.when() <= result:
                return
            timer.cancel()
        self._timer = None if result == Infinity else self.loop.call_at(result, self._wake)

    def _wake(self) -> None:
        self._timer = None
        if self._waiter is not None:
            self._slice()

    def _step(self) -> Tuple[bool, Any]:
        """Fire everything due by real "now": ``(True, value)`` ends the
        drain, ``(False, when)`` sleeps it until loop time *when*."""
        env = self.env
        limit = self._limit
        stop_event = self._stop_event
        if not self._stopped:
            t = self.loop.time()
            if t >= self._deadline:
                raise WallclockTimeout("drain exceeded its real-seconds budget")
            if limit < env._now:
                # An inject() carried "now" past the bound: the bound has
                # passed, and what it queued waits for the next drain.
                return True, None
            now = (t - self._t0) / self.time_unit
            bound = limit if limit < now else (now if now > env._now else env._now)
            # A stop event that fires ends the slice early, with its value.
            value = env.run(until=bound)
            if stop_event is not None and stop_event.processed:
                return True, value
            if bound == limit:
                return True, None
        if self._stopped:
            if stop_event is not None and not stop_event.triggered:
                raise WallclockTimeout("driver stopped before %r fired" % (stop_event,))
            return True, None
        target = min(env.peek(), limit)
        if target == Infinity and self._idle_exit and stop_event is None:
            return True, None
        return False, min(self._t0 + target * self.time_unit, self._deadline)

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
