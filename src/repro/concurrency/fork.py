"""Local forks: promises for local procedure calls (§3.2).

    "A fork causes a call of a local procedure to run in parallel with the
     caller.  When the procedure terminates, its results are stored in the
     promise, which then becomes claimable."

Arguments are passed by sharing (ordinary Python references — objects live
on the heap, so there are no lifetime problems), no encoding happens, and
the forked process gets its own agent.  Exceptions raised by the procedure
— user signals, ``unavailable``, ``failure`` — propagate through the
promise to whoever claims it, which is the type-safe exception propagation
the paper highlights as missing from Mesa and Modula-2+.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.core.exceptions import ArgusError
from repro.core.outcome import Outcome
from repro.core.promise import Promise
from repro.obs.trace import mint_span
from repro.sim.process import Interrupt, ProcessKilled
from repro.types.signatures import PromiseType

__all__ = ["fork"]


def fork(
    ctx: Any,
    procedure: Callable,
    *args: Any,
    ptype: Optional[PromiseType] = None,
    label: str = "",
) -> Promise:
    """``p: pt := fork foo(args)``.

    *procedure* is a generator function ``procedure(child_ctx, *args)``; it
    runs in a new process with a new agent of the same guardian.  Returns
    the promise for its result, typed by *ptype* when given.
    """
    env = ctx.env
    name = label or getattr(procedure, "__name__", "fork")
    tracer = env.tracer
    # The fork is a span of its own: minted in the forking process (so it
    # nests under whatever call is running) and inherited by the forked
    # process, so calls the forked procedure makes nest under the fork.
    span = mint_span(env) if tracer is not None else None
    child_ctx = ctx.spawn_context(name)
    promise = Promise(env, ptype, label="fork:%s" % name)
    process = env.process(procedure(child_ctx, *args))
    if span is not None:
        process.span = span
        tracer.emit(
            "fork.spawned",
            label=name,
            pid=process.pid,
            trace_id=span[0],
            span_id=span[1],
            parent_span_id=span[2],
            promise_id=promise.promise_id,
        )
    ctx.guardian._track(process)

    def complete(event) -> None:
        if promise.ready():
            return
        if event.ok:
            returns = ptype.returns if ptype is not None else None
            promise.resolve(Outcome.of_return(returns, event.value, "procedure"))
            return
        exc = event.value
        event.defused = True
        if isinstance(exc, ArgusError):
            promise.resolve(Outcome.exceptional(exc))
        elif isinstance(exc, (ProcessKilled, Interrupt)):
            promise.resolve(Outcome.unavailable("forked process terminated early"))
        else:
            promise.resolve(Outcome.failure("procedure crashed: %r" % (exc,)))

    if process.triggered:
        complete(process)
    else:
        process.callbacks.append(complete)
    return promise
