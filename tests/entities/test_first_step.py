"""A stream dispatcher runs each handler's first step in its own turn.

The stream dispatcher has no driver process: it drains its queue in kernel
callbacks, runs a handler's first step (up to its first ``yield``, or to
its end) where the call is started, and goes on from the handler's
completion event.  These tests pin what that path must keep: the outcome
mapping, the handler's identity as the active process (pid, span,
critical sections), guardian destruction, orphan destruction, a parallel
group's overlap, and the spawn overhead's delayed start.
"""

import pytest

from repro.concurrency.critical import critical_depth, is_wounded, terminate
from repro.core import Failure, Signal, Unavailable
from repro.entities import ArgusSystem
from repro.obs.spans import build_trees
from repro.sim.process import Interrupt
from repro.types import INT, HandlerType

from ..conftest import run_client

ECHO = HandlerType(args=[INT], returns=[INT])
RISKY = HandlerType(args=[INT], returns=[INT], signals={"neg": [INT]})


def claim_all(ref, values):
    """Client body: stream every value, flush, and claim each promise;
    returns ``("ok", value)`` or ``(exception type name, str)`` per call."""
    promises = [ref.stream(value) for value in values]
    ref.flush()
    outcomes = []
    for promise in promises:
        try:
            outcomes.append(("ok", (yield promise.claim())))
        except Exception as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def serve(handler, handler_type=ECHO, **options):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.05, tracing=True, **options)
    server = system.create_guardian("server")
    server.state["ran"] = []
    server.create_handler("h", handler_type, handler)
    return system, server


def handler_pids(system):
    """pid of every handler execution, from ``stream.call_executing``."""
    return [event.fields["pid"] for event in system.tracer.events_of("stream.call_executing")]


def resumptions(system, pid):
    return sum(
        1 for event in system.tracer.events_of("process.resumed") if event.fields["pid"] == pid
    )


def test_handler_that_returns_in_its_first_step():
    def h(ctx, x):
        ctx.guardian.state["ran"].append(x)
        return x * 2
        yield  # a generator that never blocks

    system, server = serve(h)
    outcomes = run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), range(5)))
    assert outcomes == [("ok", 2 * x) for x in range(5)]
    assert server.state["ran"] == list(range(5))
    # One process per call, resumed once (its first step), and no other
    # process on the server: the client's main is the only other one.
    pids = handler_pids(system)
    assert len(pids) == 5
    assert system.tracer.count("process.created") == 5 + 1
    assert all(resumptions(system, pid) == 1 for pid in pids)


@pytest.mark.parametrize(
    "raised, expected",
    [
        (Signal("neg", -7), ("Signal", "neg(-7)")),
        (Failure("disk on fire"), ("Failure", "failure('disk on fire')")),
        (Unavailable("backend gone"), ("Unavailable", "unavailable('backend gone')")),
        (ZeroDivisionError("oops"), ("Failure", "failure(\"handler crashed: ZeroDivisionError('oops')\")")),
    ],
    ids=["signal", "failure", "unavailable", "crash"],
)
def test_first_step_exception_maps_to_its_outcome(raised, expected):
    def h(ctx, x):
        if x == 1:
            raise raised
        return x
        yield

    system, _server = serve(h, handler_type=RISKY)
    outcomes = run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), range(3)))
    # The failing call gets its outcome; the calls around it are unaffected.
    assert outcomes[0] == ("ok", 0)
    assert outcomes[2] == ("ok", 2)
    assert outcomes[1] == expected
    assert system.tracer.count("stream.call_completed") == 3


@pytest.mark.parametrize("blocks", [False, True], ids=["then-returns", "then-blocks"])
def test_handler_that_destroys_its_guardian_in_its_first_step(blocks):
    """No later queued call runs.  A destroying handler that then blocks
    is killed at that suspension point and never replies; one that returns
    without blocking has finished its call before the kill takes hold, and
    its reply still goes out."""

    def h(ctx, x):
        ctx.guardian.state["ran"].append(x)
        if x == 1:
            ctx.guardian.destroy()
            if blocks:
                yield ctx.compute(1.0)
        return x
        yield

    system, server = serve(h)
    outcomes = run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), range(4)))
    assert server.state["ran"] == [0, 1]
    gone = ("Failure", "failure('guardian server does not exist')")
    assert outcomes[0] == ("ok", 0)
    assert outcomes[1] == (gone if blocks else ("ok", 1))
    assert outcomes[2:] == [gone, gone]


def test_critical_section_entered_in_the_first_step_belongs_to_the_handler():
    """Wounding targets the handler: the first step runs with the handler
    as the active process, so its critical section is the handler's."""
    seen = {}

    def h(ctx, x):
        with ctx.critical():
            seen["process"] = ctx.env.active_process
            yield ctx.compute(10.0)
            seen["wounded"] = is_wounded(ctx.env.active_process)
        seen["left"] = True  # never reached: the wound is delivered at exit
        return x

    system, server = serve(h)

    def wounder(ctx):
        yield ctx.sleep(5.0)  # the handler is blocked inside its section
        process = seen["process"]
        seen["depth"] = critical_depth(process)
        terminate(process, "stop")

    def main(ctx):
        ctx.lookup("server", "h").stream(1)
        ctx.lookup("server", "h").flush()
        yield ctx.sleep(30.0)

    server.spawn(wounder)
    run_client(system, main)
    process = seen["process"]
    assert [process.pid] == handler_pids(system)
    assert seen["depth"] == 1
    assert seen["wounded"] is True
    assert "left" not in seen
    assert not process.ok and isinstance(process.value, Interrupt)
    # The terminated call still stands, so it completes with failure.
    (completed,) = system.tracer.events_of("stream.call_completed")
    assert completed.fields["status"] == "failure"


def test_terminated_handler_fails_its_call_and_the_stream_goes_on():
    """A handler terminated while its call stands posts ``failure``; the
    sequential drain goes on, so the next call runs and the stream holds."""
    running = {}

    def h(ctx, x):
        running[x] = ctx.env.active_process
        yield ctx.compute(10.0)
        return x

    system = ArgusSystem(latency=1.0, tracing=True)
    server = system.create_guardian("server")
    server.create_handler("h", ECHO, h)

    def terminator(ctx):
        yield ctx.sleep(15.0)
        terminate(running[2], "stop")

    server.spawn(terminator)
    outcomes = run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), [1, 2, 3]))
    assert outcomes == [
        ("ok", 1),
        ("Failure", "failure('handler terminated')"),
        ("ok", 3),
    ]
    completed = system.tracer.events_of("stream.call_completed")
    assert [event.fields["status"] for event in completed] == ["normal", "failure", "normal"]
    assert system.tracer.count("stream.break") == 0


def test_stream_call_in_the_first_step_nests_under_the_calling_span():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.05, tracing=True)
    backend = system.create_guardian("backend")

    def echo(ctx, x):
        return x
        yield

    backend.create_handler("echo", ECHO, echo)
    frontend = system.create_guardian("frontend")

    def relay(ctx, x):
        promise = ctx.lookup("backend", "echo").stream(x + 1)  # before any yield
        ctx.lookup("backend", "echo").flush()
        value = yield promise.claim()
        return value

    frontend.create_handler("relay", ECHO, relay)
    assert run_client(system, lambda ctx: (yield ctx.lookup("frontend", "relay").call(41))) == 42
    (root,) = build_trees(system.tracer.events)
    (child,) = root.children
    assert (root.call.port, child.call.port) == ("relay", "echo")
    assert child.trace_id == root.trace_id
    assert child.parent_span_id == root.span_id


def test_call_executing_pid_is_the_handler_process_pid():
    def h(ctx, x):
        if x % 2:
            yield ctx.compute(0.5)
        return x

    system, _server = serve(h)
    run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), range(4)))
    created = {
        e.fields["pid"]: e.fields["name"] for e in system.tracer.events_of("process.created")
    }
    pids = handler_pids(system)
    assert len(set(pids)) == 4
    assert all(created[pid] == "h" for pid in pids)


def test_parallel_group_runs_each_first_step_inline_and_overlaps_the_calls():
    system = ArgusSystem(latency=1.0, kernel_overhead=0.05, tracing=True)
    server = system.create_guardian("server")
    server.create_group("work", parallel=True)
    server.state["ran"] = []

    def h(ctx, x):
        ctx.guardian.state["ran"].append((x, ctx.now))
        yield ctx.compute(2.0)
        return x

    server.create_handler("h", ECHO, h, group="work")
    outcomes = run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), range(4)))
    assert outcomes == [("ok", x) for x in range(4)]
    delivered = system.tracer.events_of("stream.call_delivered")[0].time
    # Every call started at the delivery instant: none waited for another.
    assert server.state["ran"] == [(x, delivered) for x in range(4)]
    completed = [event.time for event in system.tracer.events_of("stream.call_completed")]
    assert completed == pytest.approx([delivered + 2.0] * 4)
    # One resumption per handler beyond its inline first step, which runs
    # before the next call's process is made.
    pids = handler_pids(system)
    assert [resumptions(system, pid) for pid in pids] == [2] * 4
    order = [
        (event.type, event.fields["pid"])
        for event in system.tracer.events_of("process.created", "process.resumed")
        if event.fields["pid"] in pids
    ]
    assert order[:8] == [
        (kind, pid) for pid in pids for kind in ("process.created", "process.resumed")
    ]


def test_spawn_overhead_delays_each_start_by_the_overhead():
    def h(ctx, x):
        ctx.guardian.state["ran"].append((x, ctx.now))
        return x
        yield

    system, server = serve(h, process_spawn_overhead=0.25)
    outcomes = run_client(system, lambda ctx: claim_all(ctx.lookup("server", "h"), range(3)))
    assert outcomes == [("ok", x) for x in range(3)]
    delivered = system.tracer.events_of("stream.call_delivered")[0].time
    starts = [time for _x, time in server.state["ran"]]
    assert starts == pytest.approx([delivered + 0.25 * (k + 1) for k in range(3)])
    executing = [event.time for event in system.tracer.events_of("stream.call_executing")]
    assert executing == starts


def test_stop_kills_a_blocked_handler():
    def h(ctx, x):
        ctx.guardian.state["ran"].append(x)
        yield ctx.compute(50.0)
        ctx.guardian.state["finished"] = True
        return x

    system, server = serve(h)

    def main(ctx):
        ref = ctx.lookup("server", "h")
        ref.stream(1)
        ref.flush()
        yield ctx.sleep(10.0)

    run_client(system, main)
    (receiver,) = server.endpoint._receivers.values()
    (process,) = receiver.dispatcher._running
    assert process.is_alive
    receiver.dispatcher.stop("test")
    system.run(until=system.now + 100.0)
    assert not process.is_alive and not process.ok
    assert "finished" not in server.state
    assert system.tracer.count("stream.call_completed") == 0


def test_call_stopped_during_its_spawn_overhead_never_starts():
    def h(ctx, x):
        ctx.guardian.state["ran"].append(x)
        yield ctx.compute(100.0)
        return x

    system, server = serve(h, process_spawn_overhead=5.0)

    def main(ctx):
        ref = ctx.lookup("server", "h")
        ref.stream(1)
        ref.flush()
        yield ctx.sleep(3.0)  # delivered, still inside the overhead

    run_client(system, main)
    (receiver,) = server.endpoint._receivers.values()
    receiver.dispatcher.stop("test")
    system.run(until=system.now + 10.0)
    assert server.state["ran"] == []
    assert not receiver.dispatcher._running
