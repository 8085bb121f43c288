"""MultiLisp-style futures: the §3.3 comparison baseline.

    "In MultiLisp, an object of any type can be a future for a value that
     will arrive later.  When the value is needed in a computation (e.g.,
     for an addition), it is claimed automatically ...  However, futures
     have two disadvantages.  First, they are inefficient to implement
     unless specialized hardware is available, since every object must be
     examined each time it is accessed to determine whether or not it is a
     future.  Second, it is difficult to do anything very useful with
     exceptions.  In MultiLisp, exceptions are turned into error values
     automatically, and information about the error value propagates
     through the expression that caused the future to be claimed."

This module reproduces both disadvantages so benchmark E7 can measure
the first and the tests can demonstrate the second:

* :meth:`FutureRuntime.touch` is the implicit claim.  It is applied to
  *every* access, charges ``check_cost`` simulated time per examination
  (the software tag check), and counts the examinations;
* exceptions raised inside a future's computation become
  :class:`ErrorValue` objects, not raises: the claimer finds out only by
  looking at the value.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.sim.events import Event
from repro.sim.kernel import Environment

__all__ = ["MLFuture", "ErrorValue", "FutureRuntime"]


class ErrorValue:
    """An error turned into a value (MultiLisp error propagation).

    ``history`` records the expressions the error value came through,
    which is all that is left of the reason for it.
    """

    __slots__ = ("cause", "history")

    def __init__(self, cause: BaseException, history: Optional[List[str]] = None) -> None:
        self.cause = cause
        self.history = list(history or [])

    def __repr__(self) -> str:
        return "<ErrorValue %r via %r>" % (self.cause, self.history)


class MLFuture:
    """An untyped future: a placeholder any expression may encounter."""

    __slots__ = ("env", "_resolved", "_value", "_waiters")

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._resolved = False
        self._value: Any = None
        self._waiters: List[Event] = []

    @property
    def resolved(self) -> bool:
        return self._resolved

    def resolve(self, value: Any) -> None:
        """Deliver the future's value, waking implicit claimers."""
        if self._resolved:
            raise RuntimeError("future already resolved")
        self._resolved = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.triggered:
                waiter.succeed(value)

    def _wait(self) -> Event:
        event = Event(self.env)
        if self._resolved:
            event.succeed(self._value)
        else:
            self._waiters.append(event)
        return event

    def __repr__(self) -> str:
        return "<MLFuture %s>" % ("resolved" if self._resolved else "pending")


class FutureRuntime:
    """The implicit-claim machinery plus its cost accounting."""

    def __init__(self, env: Environment, check_cost: float = 0.0) -> None:
        if check_cost < 0:
            raise ValueError("check_cost must be >= 0")
        self.env = env
        self.check_cost = check_cost
        #: How many times any value was examined for future-ness.
        self.examinations = 0
        #: How many of those examinations actually found a future.
        self.futures_found = 0

    # ------------------------------------------------------------------
    # Creating futures
    # ------------------------------------------------------------------
    def future(self, ctx: Any, procedure: Callable, *args: Any) -> MLFuture:
        """``(future (procedure args...))`` — compute in parallel.

        An exception inside *procedure* becomes an :class:`ErrorValue`,
        not a raise: the caller finds out only by looking at the value.
        """
        fut = MLFuture(self.env)

        def runner():
            try:
                result = yield from procedure(ctx.spawn_context("future"), *args)
            except Exception as exc:
                fut.resolve(ErrorValue(exc, ["future body"]))
            else:
                fut.resolve(result)

        process = self.env.process(runner())
        ctx.guardian._track(process)
        return fut

    def wrap_promise(self, promise: Any) -> MLFuture:
        """View a stream-call promise as an untyped future (for E7)."""
        fut = MLFuture(self.env)

        def transfer(outcome) -> None:
            if outcome.is_normal:
                fut.resolve(outcome.apply())
            else:
                fut.resolve(ErrorValue(outcome.exception, ["remote call"]))

        promise.on_resolved(transfer)
        return fut

    # ------------------------------------------------------------------
    # Touching (the implicit claim)
    # ------------------------------------------------------------------
    def touch(self, value: Any) -> Event:
        """Examine *value*; wait if it is an unresolved future.

        Yieldable.  Charges ``check_cost`` for the examination whether or
        not the value is a future — that is the paper's complaint.
        """
        self.examinations += 1
        done = Event(self.env)

        def after_check(_event: Optional[Event]) -> None:
            if isinstance(value, MLFuture):
                self.futures_found += 1
                inner = value._wait()

                def deliver(event: Event) -> None:
                    done.succeed(event.value)

                if inner.triggered:
                    deliver(inner)
                else:
                    inner.callbacks.append(deliver)
            else:
                done.succeed(value)

        if self.check_cost > 0:
            timer = self.env.timeout(self.check_cost)
            timer.callbacks.append(after_check)
        else:
            after_check(None)
        return done
