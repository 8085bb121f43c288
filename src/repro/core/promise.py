"""The promise data type (the paper's primary contribution).

    "A promise is a place holder for a value that will exist in the future.
     It is created at the time a call is made.  The call computes the value
     of the promise, running in parallel with the program that made the
     call.  When it completes, its results are stored in the promise and
     can then be 'claimed' by the caller."

A promise is in one of two states, *blocked* or *ready*.  Once ready it
stays ready and its value never changes.  ``claim`` waits for readiness and
then returns the normal result or raises the call's exception; ``ready`` is
the non-blocking probe.  Promises are strongly typed: a
:class:`~repro.types.signatures.PromiseType` says what the normal results
and declared exceptions may be, and the runtime enforces it when the promise
resolves — so, unlike MultiLisp futures, no per-access runtime check is ever
needed (benchmark E7 measures exactly this difference).

Beyond the paper's blocking ``claim``, this module provides a
*continuation* layer modelled on the E-rights vat scheme (0install's
``async.mli``; see SNIPPETS.md Snippet 3): :meth:`Promise.when_resolved`,
:meth:`Promise.when_fulfilled` and :meth:`Promise.when_broken` register
callbacks dispatched through the environment's
:class:`~repro.concurrency.vat.Vat`, returning *derived* promises for the
callback results so chains compose; :meth:`Promise.all` gathers many
promises into one.  Continuations cost one vat-queue entry per
registration instead of one simulated process per outstanding promise,
which is what lets a single process hold 10^5+ pending promises
(``tests/concurrency/test_vat_stress.py`` measures exactly this difference).

A blocked promise keeps everyone waiting on it in one field, ``_pending``:
None, a single ``(first, second)`` entry, or a list of them.  A blocked
claim parks ``(event, claimed_at)``; a continuation parks ``(fn, span)``.
:meth:`Promise.resolve` wakes the entries in registration order, in one
loop: a claim event is scheduled on the calendar at the resolving
timestamp, a continuation is enqueued on the vat.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.exceptions import ArgusError, PromiseError, PromiseNotReady, Signal
from repro.core.outcome import Outcome
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.types.checking import TypeViolation, check_results, check_value
from repro.types.signatures import PromiseType

__all__ = ["Promise", "BLOCKED", "READY"]

#: Lazily bound :func:`repro.concurrency.vat.vat_of` (broken import cycle:
#: the concurrency package imports this module at load time).
_vat_of = None


def _get_vat(env: Environment):
    global _vat_of
    if _vat_of is None:
        from repro.concurrency.vat import vat_of

        _vat_of = vat_of
    return _vat_of(env)


def _ambient_span(env: Environment):
    """The causal span of the currently running activity, if any.

    Inside a simulated process this is the process's span; inside a vat
    callback it is the span the continuation was registered under — so
    continuation chains keep threading the original caller's trace.
    """
    active = env.active_process
    if active is not None:
        return active.span
    vat = env.vat
    if vat is not None:
        return vat.current_span
    return None

#: State constants (the paper's two promise states).
BLOCKED = "blocked"
READY = "ready"


class Promise:
    """A typed placeholder for the outcome of an asynchronous call.

    Instances are created by the runtime — by a stream call
    (:mod:`repro.streams`), by ``fork`` (:mod:`repro.concurrency.fork`) — or
    directly by tests.  The *resolver* side calls :meth:`resolve` exactly
    once; the *claimer* side calls :meth:`claim` any number of times.
    """

    __slots__ = (
        "env", "ptype", "label", "promise_id", "created_at", "_outcome", "_pending", "claim_count"
    )

    def __init__(
        self,
        env: Environment,
        ptype: Optional[PromiseType] = None,
        label: str = "",
    ) -> None:
        if ptype is not None and not isinstance(ptype, PromiseType):
            raise TypeError("ptype must be a PromiseType, got %r" % (ptype,))
        self.env = env
        self.ptype = ptype
        self.label = label
        self.promise_id = env.new_serial("promise")
        #: Simulated time the promise came into existence (call time).
        self.created_at = env.now
        self._outcome: Optional[Outcome] = None
        #: The one wake-up list: None while nobody waits, a single
        #: ``(event, claimed_at)`` or ``(fn, span)`` tuple for one waiter
        #: (the overwhelmingly common case — at 10^5 pending promises the
        #: saved list is megabytes), a list of such tuples beyond that.
        self._pending: Any = None
        #: Number of claim operations performed (used by benchmarks).
        self.claim_count = 0
        tracer = env.tracer
        if tracer is not None:
            tracer.emit("promise.created", promise_id=self.promise_id, label=label)

    def __repr__(self) -> str:
        tag = " %r" % self.label if self.label else ""
        return "<Promise #%d%s %s>" % (self.promise_id, tag, self.state)

    # ------------------------------------------------------------------
    # Claimer-side interface
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        """``'blocked'`` or ``'ready'``."""
        return READY if self._outcome is not None else BLOCKED

    def ready(self) -> bool:
        """The paper's ``ready`` operation: non-blocking readiness probe."""
        return self._outcome is not None

    def outcome(self) -> Outcome:
        """The stored outcome; raises :class:`PromiseNotReady` if blocked."""
        if self._outcome is None:
            raise PromiseNotReady("promise %r is not ready" % self)
        return self._outcome

    def claim(self) -> Event:
        """The paper's ``claim`` operation, as a yieldable event.

        From a simulated process::

            value = yield promise.claim()

        The yield blocks until the promise is ready, then delivers the
        normal result — or raises the call's exception (a user
        :class:`~repro.core.exceptions.Signal`, ``unavailable`` or
        ``failure``) into the claiming process.  A promise may be claimed
        multiple times; the same outcome occurs each time.
        """
        self.claim_count += 1
        event = Event(self.env)
        outcome = self._outcome
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit("promise.claimed", promise_id=self.promise_id, ready=outcome is not None)
        if outcome is None:
            # Woken by resolve(), which also records the claim latency.
            self._park((event, self.env.now))
        else:
            if tracer is not None:
                tracer.emit("promise.claim_latency", promise_id=self.promise_id, wait=0.0)
            self._deliver(event, outcome)
        return event

    def wait(self) -> Event:
        """Block until ready, delivering the :class:`Outcome` (never raises).

        Useful for code that wants to inspect the termination condition
        without exception handling.  It is a continuation: the outcome
        rides a derived promise as its one normal result, so the event
        fires on the vat turn after resolution, at the same timestamp.
        """
        return self.when_resolved(Outcome.normal).claim()

    # ------------------------------------------------------------------
    # Resolver-side interface
    # ------------------------------------------------------------------
    def resolve(self, outcome: Outcome) -> None:
        """Move the promise from blocked to ready with *outcome*.

        The transition happens at most once; a second resolution is a
        programming error.  If the promise is typed, the outcome is checked
        against the promise type; a nonconforming outcome is *replaced* by a
        ``failure`` outcome (mirroring the paper's treatment of decode
        errors: bad data arriving for a promise becomes
        ``failure("could not decode")``, never a type hole).
        """
        if not isinstance(outcome, Outcome):
            raise TypeError("resolve requires an Outcome, got %r" % (outcome,))
        if self._outcome is not None:
            raise PromiseError("promise %r is already ready; its value never changes" % self)
        self._outcome = outcome = self._coerce(outcome)
        pending, self._pending = self._pending, None
        if pending is None:
            pending = ()
        elif type(pending) is tuple:
            pending = (pending,)
        env = self.env
        tracer = env.tracer
        if tracer is not None:
            tracer.emit(
                "promise.resolved",
                promise_id=self.promise_id,
                status=outcome.condition,
                age=env.now - self.created_at,
                waiters=sum(1 for first, _ in pending if type(first) is Event),
            )
        # One loop, registration order: a blocked claim is scheduled at
        # this timestamp, a continuation is enqueued on the vat.
        for first, second in pending:
            if type(first) is Event:
                if tracer is not None:
                    tracer.emit(
                        "promise.claim_latency", promise_id=self.promise_id, wait=env.now - second
                    )
                self._deliver(first, outcome)
            else:
                _get_vat(env).do_soon(first, outcome, span=second)

    def resolve_normal(self, *results: Any) -> None:
        """Convenience: resolve with a normal outcome."""
        self.resolve(Outcome.normal(*results))

    def resolve_exceptional(self, exception: ArgusError) -> None:
        """Convenience: resolve with an exceptional outcome."""
        self.resolve(Outcome.exceptional(exception))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _coerce(self, outcome: Outcome) -> Outcome:
        if self.ptype is None:
            return outcome
        if outcome.is_normal:
            try:
                check_results(self.ptype.returns, outcome.results)
            except TypeViolation as violation:
                return Outcome.failure("could not decode: %s" % (violation,))
            return outcome
        exc = outcome.exception
        if isinstance(exc, Signal):
            declared = self.ptype.signals.get(exc.condition)
            if declared is None:
                return Outcome.failure(
                    "undeclared exception %r raised by call" % exc.condition
                )
            sig_args = exc.exception_args()
            if len(sig_args) != len(declared):
                return Outcome.failure(
                    "exception %r has %d results, %d expected"
                    % (exc.condition, len(sig_args), len(declared))
                )
            try:
                for i, (tp, value) in enumerate(zip(declared, sig_args)):
                    check_value(tp, value, "exception result %d" % i)
            except TypeViolation as violation:
                return Outcome.failure("could not decode: %s" % (violation,))
        return outcome

    @staticmethod
    def _deliver(event: Event, outcome: Outcome) -> None:
        """Trigger a claim event: the claim value, or the call's exception."""
        if outcome.is_normal:
            event.succeed(outcome.apply())
        else:
            event.defused = True
            event.fail(outcome.exception)

    def _park(self, entry: Tuple[Any, Any]) -> None:
        """Append *entry* to the wake-up list (see ``_pending``)."""
        pending = self._pending
        if pending is None:
            self._pending = entry
        elif type(pending) is tuple:
            self._pending = [pending, entry]
        else:
            pending.append(entry)

    # ------------------------------------------------------------------
    # Continuations (the vat layer; see module docstring)
    # ------------------------------------------------------------------
    def on_resolved(self, fn: Callable[[Outcome], None]) -> None:
        """Fire-and-forget continuation: ``fn(outcome)`` on the vat.

        The consumption primitive under :meth:`when_resolved`, without
        the derived promise — one ``(fn, span)`` wake-up entry is the
        *entire* per-promise cost, which is what the 10^5-pending-promise
        benchmark measures.  Use this when nothing downstream chains on
        the callback's result; use :meth:`when_resolved` when something
        does.  Fires exactly once, even if already ready.

        The registering activity's causal span is captured so the callback
        runs under it (continuation hops stay on the caller's trace).  If
        the promise is already ready, the callback is still deferred to the
        vat — continuations *never* run synchronously inside the register
        call, which is what makes registration order the only ordering a
        caller has to reason about.
        """
        span = None
        if self.env.tracer is not None:
            span = _ambient_span(self.env)
        if self._outcome is not None:
            _get_vat(self.env).do_soon(fn, self._outcome, span=span)
        else:
            self._park((fn, span))

    def _chain(self, kind: str, callback: Callable[[Outcome], Any]) -> "Promise":
        """Register *callback* and return the derived promise for its result.

        *kind* only names things: the derived promise, its trace event and
        the crash message.
        """
        derived = Promise(self.env, label="%s(#%d)" % (kind, self.promise_id))
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(
                "promise.chained",
                promise_id=self.promise_id,
                derived_id=derived.promise_id,
                kind=kind,
                ready=self._outcome is not None,
            )

        def run(outcome: Outcome) -> None:
            # A continuation observing the value is a claim: count it and
            # trace it, tagged so the lifecycle monitor can tell it apart
            # from a blocking claim (it is always ready=True by nature).
            self.claim_count += 1
            active = self.env.tracer
            if active is not None:
                active.emit(
                    "promise.claimed", promise_id=self.promise_id, ready=True, via="continuation"
                )
            try:
                result = callback(outcome)
            except ArgusError as exc:
                derived.resolve(Outcome.exceptional(exc))
                return
            except Exception as exc:
                derived.resolve(
                    Outcome.failure(
                        "%s continuation for promise #%d crashed: %r" % (kind, self.promise_id, exc)
                    )
                )
                return
            self._settle(derived, result)

        self.on_resolved(run)
        return derived

    def when_resolved(self, callback: Callable[[Outcome], Any]) -> "Promise":
        """Run ``callback(outcome)`` on the vat once this promise is ready.

        Fires exactly once, whether the promise fulfils or breaks, and
        even if it was already ready at registration time.  Returns a
        derived promise for the callback's result: return a plain value
        (or None) to fulfil it, return a :class:`Promise` to forward that
        promise's eventual outcome (flattening), return an
        :class:`~repro.core.outcome.Outcome` to resolve it verbatim, or
        raise an :class:`~repro.core.exceptions.ArgusError` to break it.
        """
        return self._chain("when_resolved", callback)

    def when_fulfilled(self, callback: Callable[[Any], Any]) -> "Promise":
        """Run ``callback(value)`` once this promise fulfils.

        *value* is the claim value (no results → None, one → the value,
        several → a tuple).  If this promise breaks instead, *callback*
        is skipped and the broken outcome passes through to the derived
        promise — so exceptions propagate down a ``when_fulfilled`` chain
        exactly like values do.
        """

        def fulfilled(outcome: Outcome) -> Any:
            return callback(outcome.apply()) if outcome.is_normal else outcome

        return self._chain("when_fulfilled", fulfilled)

    def when_broken(self, callback: Callable[[ArgusError], Any]) -> "Promise":
        """Run ``callback(exception)`` once this promise breaks.

        The catch arm: if this promise fulfils, *callback* is skipped and
        the normal outcome passes through to the derived promise.  The
        callback's return value fulfils the derived promise (recovery);
        raising breaks it again.
        """

        def broken(outcome: Outcome) -> Any:
            return outcome if outcome.is_normal else callback(outcome.exception)

        return self._chain("when_broken", broken)

    def _settle(self, derived: "Promise", result: Any) -> None:
        """Resolve *derived* from a continuation callback's return value."""
        if isinstance(result, Promise):
            result.on_resolved(derived.resolve)
        elif isinstance(result, Outcome):
            derived.resolve(result)
        elif result is None:
            derived.resolve(Outcome.normal())
        else:
            derived.resolve(Outcome.normal(result))

    # ------------------------------------------------------------------
    # Gather (vat-dispatched)
    # ------------------------------------------------------------------
    @staticmethod
    def all(env: Environment, promises: Iterable["Promise"]) -> "Promise":
        """A promise for the list of all claim values.

        Fulfils with a list (in input order) once every input fulfils;
        breaks with the first broken input's outcome as soon as any input
        breaks (remaining inputs are not waited for).  ``all`` of no
        promises fulfils immediately with ``[]``.  Duplicate inputs each
        contribute their own slot.
        """
        inputs = list(promises)
        gathered = Promise(env, label="all[%d]" % len(inputs))
        count = len(inputs)
        if count == 0:
            gathered.resolve(Outcome.normal([]))
            return gathered
        values: List[Any] = [None] * count
        state = {"remaining": count, "done": False}

        def arm(index: int) -> Callable[[Outcome], None]:
            def on_outcome(outcome: Outcome) -> None:
                if state["done"]:
                    return
                if not outcome.is_normal:
                    state["done"] = True
                    gathered.resolve(outcome)
                    return
                values[index] = outcome.apply()
                state["remaining"] -= 1
                if state["remaining"] == 0:
                    state["done"] = True
                    gathered.resolve(Outcome.normal(values))

            return on_outcome

        for index, promise in enumerate(inputs):
            promise.on_resolved(arm(index))
        return gathered
