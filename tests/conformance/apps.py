"""Shared scenario applications for the backend-conformance suite.

Every scenario here is expressed purely against the facade both
backends present (``create_guardian`` / ``create_handler`` / ``lookup``
on the owner object), so the *same* guardian setup functions build the
world on a traced :class:`~repro.entities.system.ArgusSystem` and
inside an :class:`~repro.rt.host.RtHost` worker process.  Setup
functions must stay module-level: the wallclock backend ships them to
spawned worker interpreters by pickling them *by reference*.

A :class:`World` bundles the server setups with the topology
declarations the wallclock client needs (guardian -> handler -> type);
the simulator backend ignores the topology because its registry is
shared.  :func:`argus_row` derives both, and the client, from a
mini-Argus module.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang import Interpreter, load_module
from repro.types.signatures import INT, ArrayOf, HandlerType

__all__ = [
    "World",
    "argus_row",
    "roster_info",
    "ECHO_T",
    "APPEND_T",
    "DUMP_T",
    "CLIENT_NODE",
    "ECHO_WORLD",
    "LOCAL_ECHO_WORLD",
    "SEQ_WORLD",
    "client_exactly_once",
    "client_ordering",
    "client_effects_exactly_once",
    "client_promise_claims",
    "client_coenter",
    "client_sequential_rpcs",
    "client_flow_control",
    "client_burst",
    "client_span_flow",
]

#: The node both backends put the client guardian on.
CLIENT_NODE = "node:client"

ECHO_T = HandlerType(args=[INT], returns=[INT])
APPEND_T = HandlerType(args=[INT], returns=[])
DUMP_T = HandlerType(args=[], returns=[ArrayOf(INT)])


class World:
    """One conformance scenario's server side.

    ``servers`` maps guardian name -> module-level ``setup(owner)``
    function; ``topology`` maps guardian name -> {handler: type} so the
    wallclock client host can :meth:`~repro.rt.host.RtHost.declare` the
    remote handlers.  Guardian *g* always lives on node ``node:g`` —
    the default both backends use.  ``local`` maps guardian name ->
    setup for guardians on the client's own node, :data:`CLIENT_NODE`:
    both backends build them beside the client, so calls to them take
    the same-node delivery path.
    """

    def __init__(
        self,
        name: str,
        servers: Dict[str, Callable],
        topology: Dict[str, Dict[str, HandlerType]],
        local: Optional[Dict[str, Callable]] = None,
    ) -> None:
        self.name = name
        self.servers = dict(servers)
        self.topology = {g: dict(h) for g, h in topology.items()}
        self.local = dict(local or {})


# ----------------------------------------------------------------------
# Server guardians
# ----------------------------------------------------------------------
def setup_echo(owner, node: Optional[str] = None) -> None:
    """A pure-function guardian: ``echo(n) = 3n + 1``."""
    guardian = owner.create_guardian("echo", node)

    def echo_impl(ctx, n):
        return 3 * n + 1
        yield  # pragma: no cover - marks impl as a generator

    guardian.create_handler("echo", ECHO_T, echo_impl)


def setup_seq(owner) -> None:
    """A side-effecting guardian: ``append`` logs, ``dump`` reads back.

    The log makes duplicate execution *observable*: a call delivered or
    executed twice shows up as a repeated entry, which no end-value
    check on a pure function could ever catch.
    """
    guardian = owner.create_guardian("seq")

    def append_impl(ctx, n):
        guardian.state.setdefault("log", []).append(n)
        return None
        yield  # pragma: no cover

    def dump_impl(ctx):
        return list(guardian.state.get("log", ()))
        yield  # pragma: no cover

    guardian.create_handler("append", APPEND_T, append_impl)
    guardian.create_handler("dump", DUMP_T, dump_impl)


ECHO_WORLD = World("echo", {"echo": setup_echo}, {"echo": {"echo": ECHO_T}})
LOCAL_ECHO_WORLD = World(
    "local_echo", {}, {}, local={"echo": functools.partial(setup_echo, node=CLIENT_NODE)}
)
SEQ_WORLD = World(
    "seq", {"seq": setup_seq}, {"seq": {"append": APPEND_T, "dump": DUMP_T}}
)


def setup_argus_guardian(source: str, name: str, owner) -> None:
    """Interpret guardian *name* of the mini-Argus *source* on *owner*."""
    Interpreter(load_module(source)).guardian(owner, name)


def argus_row(source: str, *args: Any) -> Tuple[World, Callable]:
    """A mini-Argus module as a conformance row: its guardians as the
    world, its ``main`` program on *args* as the client.

    Each guardian's setup is :func:`setup_argus_guardian` bound to the
    source text, so a wallclock worker re-reads the module itself; the
    topology comes from each handler's declared type.
    """
    module = load_module(source)
    world = World(
        "argus",
        {
            decl.name: functools.partial(setup_argus_guardian, source, decl.name)
            for decl in module.guardians
        },
        {
            decl.name: {h.name: h.handler_type for h in decl.handlers}
            for decl in module.guardians
        },
    )
    return world, Interpreter(module).program("main", *args)


def roster_info(roster: Sequence[Tuple[str, int]]) -> List[Dict[str, Any]]:
    """*roster* as the grades sources' ``info`` argument (an array of
    ``sinfo`` records)."""
    return [{"stu": student, "grade": grade} for student, grade in roster]


# ----------------------------------------------------------------------
# Client procedures (run in the test process on both backends)
# ----------------------------------------------------------------------
def client_ordering(ctx):
    """40 buffered sends, a synch barrier, then a read-back RPC."""
    append = ctx.lookup("seq", "append")
    for i in range(40):
        append.send(i)
    yield append.synch()
    dump = ctx.lookup("seq", "dump")
    log = yield dump.call()
    return log


def client_effects_exactly_once(ctx):
    """Like :func:`client_ordering` but sized for a disturbed link."""
    append = ctx.lookup("seq", "append")
    for i in range(30):
        append.send(i)
    yield append.synch()
    dump = ctx.lookup("seq", "dump")
    log = yield dump.call()
    return log


def client_exactly_once(ctx):
    """50 stream calls claimed in order; values betray re-execution."""
    echo = ctx.lookup("echo", "echo")
    promises = [echo.stream(i) for i in range(50)]
    echo.flush()
    values = []
    for promise in promises:
        value = yield promise.claim()
        values.append(value)
    return values


def client_promise_claims(ctx):
    """Out-of-order claims, repeated claims, and a continuation chain."""
    echo = ctx.lookup("echo", "echo")
    p1 = echo.stream(1)
    p2 = echo.stream(2)
    p3 = echo.stream(3)
    echo.flush()
    derived = p1.when_fulfilled(lambda v: v * 10)
    v3 = yield p3.claim()  # claim newest first: no ordering constraint
    v1 = yield p1.claim()
    v1_again = yield p1.claim()  # a promise claims the same value forever
    dv = yield derived.claim()
    v2 = yield p2.claim()
    return [v1, v1_again, v2, v3, dv]


def _coenter_arm(arm_ctx, n):
    echo = arm_ctx.lookup("echo", "echo")
    value = yield echo.call(n)
    return value


def client_coenter(ctx):
    """Three concurrent arms each doing a blocking RPC (§4.2)."""
    co = ctx.coenter()
    for n in (5, 6, 7):
        co.arm(_coenter_arm, n)
    results = yield co.run()
    return results


def client_sequential_rpcs(ctx):
    """20 blocking RPCs, one at a time."""
    echo = ctx.lookup("echo", "echo")
    values = []
    for i in range(20):
        value = yield echo.call(i)
        values.append(value)
    return values


def _claimed_burst(ctx, n):
    """*n* stream calls issued without yielding, flushed, claimed in
    order; returns the values and the sender's stats."""
    echo = ctx.lookup("echo", "echo")
    promises = [echo.stream(i) for i in range(n)]
    echo.flush()
    values = []
    for promise in promises:
        value = yield promise.claim()
        values.append(value)
    return {"values": values, "sender": echo.stream_sender.stats.snapshot()}


def client_flow_control(ctx):
    """60 stream calls through a 4-call window; returns sender stats."""
    return (yield from _claimed_burst(ctx, 60))


def client_burst(ctx):
    """One 256-call burst: exactly the default window."""
    return (yield from _claimed_burst(ctx, 256))


def client_span_flow(ctx):
    """A handful of calls whose spans must surface server-side."""
    echo = ctx.lookup("echo", "echo")
    promises = [echo.stream(i) for i in range(5)]
    echo.flush()
    values = []
    for promise in promises:
        value = yield promise.claim()
        values.append(value)
    return values
