"""Crash recovery, same-node streams, incarnation hygiene, stats."""


from repro.core import ExceptionReply, Signal, Unavailable
from repro.entities import ArgusSystem
from repro.net import schedule_crash
from repro.streams import StreamConfig
from repro.types import INT, HandlerType

from .helpers import build_echo_world, run_main

FAST = StreamConfig(batch_size=4, max_buffer_delay=0.5, rto=4.0, max_retries=2)


def test_calls_succeed_after_crash_and_recovery():
    """Guardians survive crashes (Argus stable state); once the node is
    back and the stream reincarnates, calls flow again."""
    system, server, client = build_echo_world(stream_config=FAST)
    schedule_crash(system.network, "node:server", at=0.0, recover_at=20.0)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        doomed = echo.stream(1)
        echo.flush()
        try:
            yield doomed.claim()
            first = "normal"
        except Unavailable:
            first = "unavailable"
        yield ctx.sleep(30.0)  # node recovered
        value = yield echo.call(2)
        return (first, value, echo.stream_sender.incarnation)

    first, value, incarnation = run_main(system, client, main)
    assert first == "unavailable"
    assert value == 2
    assert incarnation >= 1
    # The server's state dict survived the crash (stable storage).
    assert server.state["echo_calls"] >= 1


def test_receiver_state_cleared_on_crash():
    system, server, client = build_echo_world(stream_config=FAST)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        yield echo.call(1)
        assert len(server.endpoint._receivers) == 1
        server.node.crash()
        assert len(server.endpoint._receivers) == 0
        server.node.recover()
        yield ctx.sleep(1.0)

    run_main(system, client, main)


def test_datagram_for_previous_incarnation_is_dropped():
    """A crash flushes the NIC: a datagram sent to incarnation N is never
    delivered to incarnation N+1, even if the node is back up when it
    arrives — otherwise an in-flight first transmission could re-open a
    stream on the recovered node and re-execute pre-crash calls."""
    system, server, client = build_echo_world(stream_config=FAST)
    # Crash and recover entirely while the first packet is on the wire
    # (sent ~0.1, latency 1.0): at arrival the node is alive again but
    # one incarnation later.
    schedule_crash(system.network, "node:server", at=0.5, recover_at=0.7)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        doomed = echo.stream(1)
        echo.flush()
        try:
            yield doomed.claim()
            first = "normal"
        except Unavailable:
            first = "unavailable"
        value = yield echo.call(2)
        return (first, value)

    first, value = run_main(system, client, main)
    # The stale datagram was dropped; the retransmission was refused
    # (receiver state lost), breaking the stream.  The follow-up call
    # rode the next incarnation.
    assert first == "unavailable"
    assert value == 2
    assert system.network.stats.messages_dropped_crash >= 1
    # Exactly-once held throughout: only the follow-up call executed.
    assert server.state["echo_calls"] == 1


def test_mid_stream_open_after_recovery_is_refused_not_replayed():
    """A first-transmission packet that does not start at seq 1 must not
    open a fresh receiver on a recovered node: entries below its window
    may have executed pre-crash, and accepting it would let a later
    retransmission replay them."""
    system, server, client = build_echo_world(stream_config=FAST)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        value1 = yield echo.call(1)  # seq 1 delivered and executed
        server.node.crash()  # receiver state lost
        server.node.recover()  # incarnation 1
        doomed = echo.stream(2)  # seq 2, attempt 0: a mid-stream open
        echo.flush()
        try:
            yield doomed.claim()
            second = "normal"
        except Unavailable:
            second = "unavailable"
        value3 = yield echo.call(3)  # next incarnation restarts at seq 1
        return (value1, second, value3, echo.stream_sender.incarnation)

    value1, second, value3, incarnation = run_main(system, client, main)
    assert (value1, value3) == (1, 3)
    assert second == "unavailable"
    assert incarnation >= 1
    # seq 1 executed once, the refused call never executed, the
    # follow-up executed once: exactly two executions, no replays.
    assert server.state["echo_calls"] == 2


def test_same_node_stream_uses_local_fast_path():
    """Guardians on one node talk without network messages."""
    system = ArgusSystem(latency=5.0, kernel_overhead=0.5, stream_config=FAST)
    server = system.create_guardian("server", node="shared")

    def echo(ctx, x):
        yield ctx.compute(0.1)
        return x

    server.create_handler("echo", HandlerType(args=[INT], returns=[INT]), echo)
    client = system.create_guardian("client", node="shared")

    def main(ctx):
        ref = ctx.lookup("server", "echo")
        promises = [ref.stream(index) for index in range(5)]
        ref.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    process = client.spawn(main)
    assert system.run(until=process) == list(range(5))
    stats = system.stats()
    assert stats["messages_sent"] == 0  # all local
    assert stats["kernel_calls"] == 0
    assert system.now < 2.0  # no latency paid


def test_stale_incarnation_replies_ignored():
    system, server, client = build_echo_world(stream_config=FAST)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        sender = echo.stream_sender
        old = echo.stream(1)
        echo.restart()  # incarnation bumps; old promise unavailable
        new = echo.stream(2)
        echo.flush()
        value = yield new.claim()
        # The old reply (if it arrives late) must not corrupt anything.
        yield ctx.sleep(10.0)
        return (old.outcome().condition, value, sender.incarnation)

    condition, value, incarnation = run_main(system, client, main)
    assert condition == "unavailable"
    assert value == 2
    assert incarnation == 1


def test_rpc_on_partitioned_network_raises_unavailable():
    system, server, client = build_echo_world(stream_config=FAST)
    system.network.partition("node:client", "node:server")

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        try:
            yield echo.call(1)
            return "normal"
        except Unavailable:
            return "unavailable"

    assert run_main(system, client, main) == "unavailable"


def test_sender_stats_track_activity():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        note = ctx.lookup("server", "note")
        yield echo.call(1)
        echo.stream_statement(2)
        note.send("hi")
        echo.flush()
        yield echo.synch()
        stats = echo.stream_sender.stats
        return (
            stats.calls_made,
            stats.rpcs_made,
            stats.sends_made,
            stats.flushes,
            stats.synchs,
        )

    calls, rpcs, sends, flushes, synchs = run_main(system, client, main)
    assert calls == 3
    assert rpcs == 1
    assert sends == 1
    assert flushes == 1
    assert synchs == 1


def test_receiver_stats_track_activity():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        for index in range(5):
            echo.stream_statement(index)
        yield echo.synch()

    run_main(system, client, main)
    (receiver,) = server.endpoint._receivers.values()
    assert receiver.stats.calls_delivered == 5
    assert receiver.stats.reply_packets_sent >= 1
    assert receiver.stats.breaks == 0


def test_want_promise_send_claims_abnormal_outcome():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promise = echo.stream_sender.send(
            "echo", echo.handler_type, (-1,), want_promise=True
        )
        echo.flush()
        try:
            yield promise.claim()
            return "normal"
        except Signal as sig:
            return sig.condition

    assert run_main(system, client, main) == "negative"


def test_break_during_synch_wait_raises_exception_reply():
    system, server, client = build_echo_world(stream_config=FAST)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        echo.stream_statement(1)
        system.network.partition("node:client", "node:server")
        try:
            yield echo.synch()
            return "normal"
        except ExceptionReply:
            return "exception_reply"

    assert run_main(system, client, main) == "exception_reply"


def test_many_streams_one_endpoint_are_isolated():
    """One guardian endpoint multiplexes many concurrent streams."""
    system, server, client = build_echo_world(echo_cost=0.5)

    def worker(ctx, base):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(base + index) for index in range(4)]
        echo.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    def main(ctx):
        forks = [ctx.fork(worker, base) for base in (0, 100, 200)]
        results = []
        for fork_promise in forks:
            results.append((yield fork_promise.claim()))
        return results

    results = run_main(system, client, main)
    assert results == [
        [0, 1, 2, 3],
        [100, 101, 102, 103],
        [200, 201, 202, 203],
    ]


def test_idle_stream_reply_log_is_garbage_collected():
    """After replies are resolved, the sender eventually acknowledges them
    even with no further calls, letting the receiver drop its reply log."""
    config = StreamConfig(
        batch_size=4, max_buffer_delay=0.5, reply_ack_delay=5.0
    )
    system, server, client = build_echo_world(stream_config=config)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(index) for index in range(3)]
        echo.flush()
        for promise in promises:
            yield promise.claim()
        (receiver,) = server.endpoint._receivers.values()
        before = len(receiver._reply_log)
        # Go idle; the reply-ack deadline must drain the log.
        yield ctx.sleep(30.0)
        after = len(receiver._reply_log)
        return (before, after)

    before, after = run_main(system, client, main)
    assert before > 0
    assert after == 0
