"""Trace-based wire-traffic regression pins.

The paper's efficiency claims are per-message-overhead claims, so these
tests pin the *exact* number of physical messages the two headline
scenarios put on the wire (the simulation is deterministic).  If a
transport change alters these counts, the change must be intentional and
re-pinned here — silent per-message regressions fail loudly.
"""

import json

import pytest

from repro.apps import build_grades_world, make_roster, program_fig_3_1
from repro.streams import StreamConfig
from repro.types import INT, HandlerType

ECHO = HandlerType(args=[INT], returns=[INT])

#: E3 world parameters (benchmarks/test_bench_grades_fig31.py).
GRADES_PARAMS = dict(
    latency=5.0, kernel_overhead=0.5, record_cost=0.3, print_cost=0.1
)

#: Pinned physical-message counts for the Fig 3-1 grades run.
FIG31_WIRE_MESSAGES = {5: 4, 20: 10, 80: 24}

#: E1 scenario (benchmarks/test_bench_stream_vs_rpc.py): 32 echo calls.
E1_CALLS = 32
E1_RPC_WIRE_MESSAGES = 64  # 2 per call: request + reply (which carries the ack)
E1_STREAM_WIRE_MESSAGES = 5


def run_grades_fig31(n_students):
    world = build_grades_world(tracing=True, **GRADES_PARAMS)
    roster = make_roster(n_students)

    def main(ctx):
        count = yield from program_fig_3_1(ctx, roster)
        return count

    process = world.client.spawn(main)
    world.system.run(until=process)
    assert len(world.printed) == n_students
    return world.system


def build_echo_system(stream_config):
    from repro.entities import ArgusSystem

    system = ArgusSystem(
        latency=5.0, kernel_overhead=0.5, stream_config=stream_config, tracing=True
    )
    server = system.create_guardian("server")

    def echo(ctx, x):
        yield ctx.compute(0.05)
        return x

    server.create_handler("echo", ECHO, echo)
    return system


@pytest.mark.parametrize("n_students", sorted(FIG31_WIRE_MESSAGES))
def test_fig31_wire_message_count_is_pinned(n_students):
    system = run_grades_fig31(n_students)
    tracer = system.tracer
    expected = FIG31_WIRE_MESSAGES[n_students]
    # Trace, metrics and the network's own counters must all agree.
    assert tracer.count("message.sent") == expected
    assert tracer.metrics.total("net.messages_sent") == expected
    assert system.stats()["messages_sent"] == expected
    # Each student produces 2 stream calls (record_grade + print send);
    # buffering amortizes them so the ratio falls as the roster grows.
    derived = tracer.summary()["derived"]
    assert derived["stream_calls"] == 2 * n_students
    assert derived["messages_per_call"] == expected / (2 * n_students)


def test_fig31_traced_run_exports_jsonl_and_summary(tmp_path):
    system = run_grades_fig31(20)
    trace_path = tmp_path / "fig31.jsonl"
    summary_path = tmp_path / "fig31.summary.json"
    written = system.export_trace(str(trace_path))
    assert written == len(system.tracer.events) > 0
    records = [
        json.loads(line) for line in trace_path.read_text().splitlines()
    ]
    assert len(records) == written
    types = {record["type"] for record in records}
    # Every instrumented layer shows up in the trace.
    assert {
        "process.created",
        "message.sent",
        "message.delivered",
        "stream.call_buffered",
        "stream.packet_sent",
        "stream.call_delivered",
        "promise.created",
        "promise.resolved",
        "promise.claimed",
    } <= types
    # Timestamps are simulated and monotone.
    times = [record["t"] for record in records]
    assert times == sorted(times)

    report = system.tracer.summary_json(str(summary_path))
    parsed = json.loads(summary_path.read_text())
    assert parsed["derived"] == json.loads(json.dumps(report["derived"]))
    assert parsed["derived"]["wire_messages"] == FIG31_WIRE_MESSAGES[20]


def test_fig31_grades_delivery_is_exactly_once_and_ordered():
    system = run_grades_fig31(20)
    tracer = system.tracer
    delivered = [
        (event.fields["stream"], event.fields["incarnation"], event.fields["seq"])
        for event in tracer.events_of("stream.call_delivered")
    ]
    assert len(delivered) == len(set(delivered)), "duplicate delivery!"
    assert tracer.metrics.total("stream.duplicates") == 0
    # 20 record_grade calls + 20 print sends, delivered in order per stream.
    assert len(delivered) == 40
    per_stream = {}
    for stream, incarnation, seq in delivered:
        per_stream.setdefault((stream, incarnation), []).append(seq)
    for seqs in per_stream.values():
        assert seqs == list(range(1, len(seqs) + 1))


def test_e1_rpc_wire_message_count_is_pinned():
    system = build_echo_system(StreamConfig().unbuffered())

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        for index in range(E1_CALLS):
            yield echo.call(index)

    process = system.create_guardian("client").spawn(main)
    system.run(until=process)
    assert system.tracer.count("message.sent") == E1_RPC_WIRE_MESSAGES
    assert system.stats()["messages_sent"] == E1_RPC_WIRE_MESSAGES


def test_e1_stream_wire_message_count_is_pinned():
    config = StreamConfig(
        batch_size=16,
        reply_batch_size=16,
        max_buffer_delay=2.0,
        reply_max_delay=2.0,
    )
    system = build_echo_system(config)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(index) for index in range(E1_CALLS)]
        echo.flush()
        for promise in promises:
            yield promise.claim()

    process = system.create_guardian("client").spawn(main)
    system.run(until=process)
    tracer = system.tracer
    assert tracer.count("message.sent") == E1_STREAM_WIRE_MESSAGES
    assert system.stats()["messages_sent"] == E1_STREAM_WIRE_MESSAGES
    # The amortization the paper claims: over 10x fewer messages than RPC.
    assert E1_RPC_WIRE_MESSAGES / E1_STREAM_WIRE_MESSAGES > 10.0
    # All 32 calls were delivered exactly once, in order.
    seqs = [
        event.fields["seq"] for event in tracer.events_of("stream.call_delivered")
    ]
    assert seqs == list(range(1, E1_CALLS + 1))
