"""Stream-call semantics: promises, ordering, batching, sends (§2-§3)."""


from repro.core import Failure, Signal
from repro.streams import StreamConfig
from repro.types import REAL, STRING, HandlerType

from .helpers import build_echo_world, run_main


def test_stream_call_returns_blocked_promise_immediately():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promise = echo.stream(1)
        # The caller continues immediately; the promise is still blocked.
        assert not promise.ready()
        assert ctx.now == 0.0
        echo.flush()
        value = yield promise.claim()
        return value

    assert run_main(system, client, main) == 1


def test_rpc_waits_for_reply():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        value = yield echo.call(9)
        assert ctx.now > 0.0
        return value

    assert run_main(system, client, main) == 9


def test_promises_resolve_in_call_order():
    """'if the i+1st result is ready, then so is the ith.'"""
    system, server, client = build_echo_world()
    observed = []

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(index) for index in range(8)]
        echo.flush()
        # Wait for the *last* promise, then check all earlier are ready.
        yield promises[-1].claim()
        observed.extend(promise.ready() for promise in promises)

    run_main(system, client, main)
    assert observed == [True] * 8


def test_claims_in_any_order():
    """'Claims can be done in any convenient order.'"""
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(index) for index in range(5)]
        echo.flush()
        values = []
        for promise in reversed(promises):
            values.append((yield promise.claim()))
        return values

    assert run_main(system, client, main) == [4, 3, 2, 1, 0]


def test_batching_reduces_message_count():
    """Buffering amortizes per-message overhead (§2)."""
    n = 32
    unbuffered = StreamConfig().unbuffered()
    buffered = StreamConfig(batch_size=n, reply_batch_size=n, max_buffer_delay=50.0)
    counts = {}
    for name, config in [("rpc-like", unbuffered), ("stream", buffered)]:
        system, server, client = build_echo_world(stream_config=config)

        def main(ctx):
            echo = ctx.lookup("server", "echo")
            promises = [echo.stream(index) for index in range(n)]
            echo.flush()
            for promise in promises:
                yield promise.claim()

        run_main(system, client, main)
        counts[name] = system.stats()["messages_sent"]
    assert counts["stream"] < counts["rpc-like"] / 4


def test_statement_form_creates_no_promise():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        echo.stream_statement(5)
        yield echo.synch()
        return ctx.guardian.system.guardians["server"].state["echo_calls"]

    assert run_main(system, client, main) == 1


def test_no_result_handler_goes_as_send():
    """'whenever a stream call is made to a handler with no normal
    results, the Argus implementation makes the call as a send.'"""
    system, server, client = build_echo_world()

    def main(ctx):
        note = ctx.lookup("server", "note")
        promise = note.stream("hello")
        note.flush()
        value = yield promise.claim()  # send still resolves (normally, no data)
        yield note.synch()
        return (value, note.stream_sender.stats.sends_made)

    value, sends = run_main(system, client, main)
    assert value is None
    assert sends == 1
    assert server.state["notes"] == ["hello"]


def test_sends_omit_normal_replies():
    """Normal replies of sends never travel as reply entries."""
    config = StreamConfig(batch_size=64, max_buffer_delay=5.0, ack_delay=3.0)
    system, server, client = build_echo_world(stream_config=config)

    def main(ctx):
        note = ctx.lookup("server", "note")
        for index in range(16):
            note.send("note%d" % index)
        note.flush()
        yield note.synch()

    run_main(system, client, main)
    assert len(server.state["notes"]) == 16
    # Replies (if any packets flowed back) carried no entries, only acks.
    receivers = list(server.endpoint._receivers.values())
    assert receivers
    assert all(len(receiver._reply_log) == 0 for receiver in receivers)


def test_send_abnormal_termination_reports_back():
    """Sends report abnormal termination (the caller cares only then)."""
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        echo.send(-1)  # negative -> Signal("negative")
        try:
            yield echo.synch()
            return "normal"
        except Exception as exc:
            return type(exc).__name__

    assert run_main(system, client, main) == "ExceptionReply"


def test_exception_propagates_through_promise():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promise = echo.stream(-5)
        echo.flush()
        try:
            yield promise.claim()
        except Signal as sig:
            return sig.condition

    assert run_main(system, client, main) == "negative"


def test_encode_failure_raises_immediately_no_promise():
    """§3 step 1: encoding failure -> immediate failure, no promise."""
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        try:
            echo.stream("not an int")
            return "created a promise (wrong)"
        except Failure as failure:
            assert "could not encode" in failure.reason
            yield ctx.sleep(0)
            return "failed fast"

    assert run_main(system, client, main) == "failed fast"


def test_untransmissible_values_fail_the_call_not_the_run():
    """A lone surrogate (which UTF-8 cannot carry) in a reply, and a real
    beyond float range in an argument, are encode failures like any
    other: the reply resolves its call ``failure("could not encode: ...")``
    and the argument fails the call at once."""
    system, server, client = build_echo_world()

    def label(ctx):
        return "bad\ud800"
        yield

    def scale(ctx, x):
        return x
        yield

    server.create_handler("label", HandlerType(args=[], returns=[STRING]), label)
    server.create_handler("scale", HandlerType(args=[REAL], returns=[REAL]), scale)

    def main(ctx):
        try:
            ctx.lookup("server", "scale").stream(10**400)
            return "created a promise (wrong)"
        except Failure as failure:
            assert "could not encode: real out of range" in failure.reason
        try:
            yield ctx.lookup("server", "label").call()
            return "claimed a value (wrong)"
        except Failure as failure:
            return failure.reason

    reason = run_main(system, client, main)
    assert reason.startswith("could not encode: cannot encode 'bad\\ud800' as UTF-8")


def test_same_agent_same_group_shares_stream():
    system, server, client = build_echo_world()

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        note = ctx.lookup("server", "note")
        assert echo.stream_sender is note.stream_sender
        yield ctx.sleep(0)

    run_main(system, client, main)


def test_different_agents_use_different_streams():
    system, server, client = build_echo_world()

    def main(ctx):
        other = ctx.spawn_context("sibling")
        echo_a = ctx.lookup("server", "echo")
        echo_b = other.lookup("server", "echo")
        assert echo_a.stream_sender is not echo_b.stream_sender
        yield ctx.sleep(0)

    run_main(system, client, main)


def test_buffer_delay_sends_without_flush():
    """'Even without the flush, the system will send these messages
    eventually.'"""
    config = StreamConfig(batch_size=100, max_buffer_delay=3.0)
    system, server, client = build_echo_world(stream_config=config)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promise = echo.stream(1)
        # No flush: the buffer deadline must push it out.
        value = yield promise.claim()
        return (value, ctx.now)

    value, now = run_main(system, client, main)
    assert value == 1
    assert now >= 3.0  # waited for the buffer deadline


def test_interleaved_rpc_and_stream_calls_are_sequenced():
    system, server, client = build_echo_world()
    order = []

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        p1 = echo.stream(1)
        value = yield echo.call(2)  # RPC on the same stream
        order.append(("rpc", value))
        # The stream call made before the RPC must already be ready
        # (in-order processing and in-order reply release).
        assert p1.ready()
        order.append(("stream", (yield p1.claim())))

    run_main(system, client, main)
    assert order == [("rpc", 2), ("stream", 1)]
