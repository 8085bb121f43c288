"""The vat: an idle-queue callback scheduler for promise continuations.

The blocking ``claim`` of the paper costs one simulated :class:`~repro.sim.process.Process`
per outstanding promise — a generator, an event subscription, and a
calendar entry each.  That is faithful to 1988 Argus, but it is the
bottleneck the ROADMAP names for million-client workloads: you cannot
hold 10^5 pending promises if every one of them needs its own process
just to be told its value arrived.

The vat is the alternative consumption substrate, modelled on the
E-rights scheme as distilled by 0install's ``async.mli`` (SNIPPETS.md
Snippet 3): a single idle queue of callbacks, drained in FIFO order on
the kernel's fast callback lane (:meth:`~repro.sim.kernel.Environment.call_soon`).
Registering a continuation on a promise costs one queue entry — no
process, no generator, no per-promise event machinery — so one driving
process can hold hundreds of thousands of pending promises.

Execution model (documented guarantees, relied on by the combinator
property tests and DESIGN.md section 12):

* **run-to-completion turns** — each queued callback runs to completion
  before the next starts; a callback is never preempted by simulated
  time passing or by another callback;
* **FIFO ordering** — callbacks run in the order they were enqueued;
  two continuations registered on the same promise fire in registration
  order, and continuations of a promise resolved earlier fire before
  continuations of a promise resolved later;
* **same-timestamp dispatch** — a drain occupies one calendar slot at
  the current simulated time: callbacks enqueued while the simulation is
  at time *t* run at time *t*, after already-scheduled events at *t*
  (``call_soon`` semantics).  Continuations therefore observe the same
  simulated timestamps a blocking ``claim`` would;
* **nested enqueues join the current drain** — a callback that enqueues
  further callbacks (a chained ``when_fulfilled``, a gather resolving)
  extends the same drain rather than scheduling a new calendar entry, so
  an entire continuation cascade settles within one timestamp.

The vat also carries the causal span context of the callback being run
(:attr:`current_span`), so calls made from inside a continuation nest
under the span of the activity that registered it — this is how
``repro.obs`` phase timelines keep summing to end-to-end latency across
continuation hops (see :func:`repro.obs.trace.mint_span`).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional, Tuple

__all__ = ["Vat", "vat_of"]


class Vat:
    """One environment's idle queue of promise-continuation callbacks.

    The queue is a :class:`collections.deque` of ``(fn, arg, span)``
    tuples: one small tuple per entry, appended and popped from the left
    in C, so a resolver flooding 10^5 continuations in one burst costs
    no more than the tuples themselves.
    """

    __slots__ = ("env", "_queue", "_scheduled", "current_span", "turns", "callbacks_run")

    def __init__(self, env: Any) -> None:
        self.env = env
        self._queue: deque = deque()
        self._scheduled = False
        #: Causal span context of the callback currently executing, or
        #: None outside a drain (observability only; never set unless the
        #: registering side captured a span).
        self.current_span: Optional[Tuple[int, int, int]] = None
        #: Number of drains performed (one drain = one calendar slot).
        self.turns = 0
        #: Total callbacks executed across all drains.
        self.callbacks_run = 0

    def __repr__(self) -> str:
        return "<Vat pending=%d turns=%d run=%d>" % (
            len(self._queue),
            self.turns,
            self.callbacks_run,
        )

    def pending(self) -> int:
        """Number of callbacks waiting to run (for tests and stats)."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Enqueueing
    # ------------------------------------------------------------------
    def do_soon(
        self,
        fn: Callable[[Any], None],
        arg: Any = None,
        span: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        """Queue ``fn(arg)`` to run as soon as the simulation is idle
        at the current timestamp.

        Exactly one argument, by design: a queue entry is one
        ``(fn, arg, span)`` tuple, and at 10^5 pending promises the
        resolver can flood the queue in a single burst — a varargs tuple
        per entry on top would be measurable in the benchmark's
        peak-memory comparison.  Bind extra state in a closure if you
        need more.

        *span*, if given, is the causal span context the callback should
        run under (it becomes :attr:`current_span` for the duration of
        the call).  The first enqueue of a burst schedules a single
        drain on the kernel's callback lane; subsequent enqueues — and
        enqueues made from inside callbacks — ride the same drain.
        """
        self._queue.append((fn, arg, span))
        if not self._scheduled:
            self._scheduled = True
            self.env.call_soon(self._drain)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Run every queued callback (including ones enqueued mid-drain).

        Each entry is popped *before* its callback runs, so an entry
        whose callback raises counts as consumed.
        """
        queue = self._queue
        popleft = queue.popleft
        count = 0
        try:
            while queue:
                fn, arg, span = popleft()
                self.current_span = span
                fn(arg)
                count += 1
        finally:
            self.current_span = None
            self._scheduled = False
            self.turns += 1
            self.callbacks_run += count
            tracer = self.env.tracer
            if tracer is not None:
                tracer.emit("vat.turn", callbacks=count, pending=len(queue))
            # A callback that escaped with an exception (strict monitors,
            # programming errors) aborts the drain; anything still queued
            # must get a fresh calendar slot so no continuation is lost.
            if queue and not self._scheduled:
                self._scheduled = True
                self.env.call_soon(self._drain)


def vat_of(env: Any) -> Vat:
    """The environment's vat, created (and attached) on first use."""
    vat = env.vat
    if vat is None:
        vat = env.vat = Vat(env)
    return vat
