"""Trace-based pins on what one handler call costs the simulator.

A sequential group's handler call is one process whose first step runs in
the dispatcher's turn: no start event of its own, no driver process and
no driver wake-up when it completes (DESIGN.md section 8).  These tests
pin the exact ``process.created`` and ``process.resumed`` totals of a
64-call echo stream, so a change that puts a per-call start event or a
dispatcher process back fails here.  The simulated time and the wire
count are pinned too: dropping those events must not move a call.
"""

import pytest

from repro.entities import ArgusSystem
from repro.types import INT, HandlerType

ECHO = HandlerType(args=[INT], returns=[INT])

CALLS = 64

#: blocks -> (process.created, process.resumed, message.sent, final sim time).
#: created: one process per call plus the client's main.  resumed: one
#: first step per call, a second step per call that blocks on
#: ``ctx.compute``, and the client's 65 steps (one start and one per claim).
PINNED = {
    False: (CALLS + 1, CALLS + 65, 4, 13.0),
    True: (CALLS + 1, 2 * CALLS + 65, 4, 15.3),
}


def run_echo_stream(blocks):
    system = ArgusSystem(latency=5.0, kernel_overhead=0.5, tracing=True)
    server = system.create_guardian("server")

    def echo(ctx, x):
        if blocks:
            yield ctx.compute(0.05)
        return x
        yield  # a generator even when it never blocks

    server.create_handler("echo", ECHO, echo)

    def main(ctx):
        ref = ctx.lookup("server", "echo")
        promises = [ref.stream(i) for i in range(CALLS)]
        ref.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    process = system.create_guardian("client").spawn(main)
    assert system.run(until=process) == list(range(CALLS))
    return system


@pytest.mark.parametrize("blocks", sorted(PINNED), ids=["returns-at-once", "computes"])
def test_echo_stream_process_counts_are_pinned(blocks):
    system = run_echo_stream(blocks)
    tracer = system.tracer
    created, resumed, sent, sim_time = PINNED[blocks]
    assert tracer.count("process.created") == created
    assert tracer.count("process.resumed") == resumed
    assert tracer.metrics.total("sim.processes_created") == created
    assert tracer.metrics.total("sim.process_resumptions") == resumed
    assert tracer.count("message.sent") == sent
    assert system.now == pytest.approx(sim_time, abs=1e-9)
