"""Edge interleavings the chaos campaigns exercise, pinned as unit tests:
back-to-back breaks, breaks racing restart, breaks with buffered replies,
and crashes racing in-flight flush/synch."""

from dataclasses import replace

from repro.core import ExceptionReply, Failure, Unavailable
from repro.net import schedule_crash, schedule_partition
from repro.streams import StreamConfig

from .helpers import build_echo_world, run_main

# A fixed retransmission ladder (min_rto == max_rto: 5.0 + 5.0 + 5.0
# before a break), so each interleaving lands where its fault windows
# expect; exponential backoff shifting break times is covered separately
# in test_adaptive_transport.py.
FAST = StreamConfig(
    batch_size=4,
    max_buffer_delay=1.0,
    rto=5.0,
    min_rto=5.0,
    max_rto=5.0,
    max_retries=2,
    auto_restart=True,
)


def test_back_to_back_breaks_reincarnate_twice_and_drain():
    """Two disjoint partition windows: each break resolves its outstanding
    calls, each heal lets the reincarnated stream deliver again."""
    system, server, client = build_echo_world(stream_config=FAST)
    schedule_partition(system.network, "node:client", "node:server", at=2.0, heal_at=25.0)
    schedule_partition(system.network, "node:client", "node:server", at=50.0, heal_at=75.0)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        rounds = []
        for start in (0.0, 30.0, 55.0, 80.0):
            yield ctx.sleep(max(0.0, start - ctx.now))
            try:
                promise = echo.stream(int(start))
                echo.flush()
                rounds.append((yield promise.claim()))
            except Unavailable:
                rounds.append("unavailable")
        return (rounds, echo.stream_sender.incarnation)

    rounds, incarnation = run_main(system, client, main)
    # Rounds 1 and 3 hit partitions; rounds 2 and 4 ran on fresh
    # incarnations after each heal.
    assert rounds[0] == "unavailable"
    assert rounds[1] == 30
    assert rounds[2] == "unavailable"
    assert rounds[3] == 80
    assert incarnation >= 2


def test_break_during_restart_window():
    """A call made immediately after a break (while the restart
    announcement is still in flight through a dead network) must itself
    break cleanly and leave the stream usable after the heal."""
    system, server, client = build_echo_world(stream_config=FAST)
    schedule_partition(system.network, "node:client", "node:server", at=1.0, heal_at=40.0)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        p1 = echo.stream(1)
        echo.flush()
        try:
            yield p1.claim()
            first = "ok"
        except Unavailable:
            first = "unavailable"
        # The stream auto-restarted into the same partition: the next call
        # rides the new incarnation and must break too (not hang).
        try:
            p2 = echo.stream(2)
            echo.flush()
            yield p2.claim()
            second = "ok"
        except Unavailable:
            second = "unavailable"
        yield ctx.sleep(50.0 - ctx.now)
        value = yield echo.call(3)
        return (first, second, value, echo.stream_sender.incarnation)

    first, second, value, incarnation = run_main(system, client, main)
    assert first == "unavailable"
    assert second == "unavailable"
    assert value == 3
    assert incarnation >= 2


def test_manual_restart_storm():
    """restart() twice in a row (the second while the first announcement
    is still in flight) stays consistent: each outstanding call resolves
    exactly once and the final incarnation still works."""
    system, server, client = build_echo_world(stream_config=FAST)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        p1 = echo.stream(1)
        echo.restart()
        p2 = echo.stream(2)
        echo.restart()
        outcomes = []
        for promise in (p1, p2):
            try:
                outcomes.append((yield promise.claim()))
            except Unavailable:
                outcomes.append("unavailable")
        value = yield echo.call(3)
        return (outcomes, value)

    outcomes, value = run_main(system, client, main)
    assert outcomes == ["unavailable", "unavailable"]
    assert value == 3


def test_break_with_nonempty_reply_buffer():
    """Replies executed but still sitting in the receiver's reply batch
    when the link dies: the client's break must resolve those promises
    (to unavailable), and exactly-once must hold across the heal."""
    # Large reply batch + long reply delay: replies linger server-side.
    config = replace(
        FAST, reply_batch_size=16, reply_max_delay=30.0, reply_ack_delay=60.0
    )
    system, server, client = build_echo_world(stream_config=config, echo_cost=0.1)
    # Cut the link after the calls arrive but before the reply batch flushes.
    schedule_partition(system.network, "node:client", "node:server", at=3.0, heal_at=60.0)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        # The batch trigger ships all four calls; an explicit flush would
        # pull their replies out as soon as they complete.
        promises = [echo.stream(index) for index in range(4)]
        outcomes = []
        for promise in promises:
            try:
                outcomes.append((yield promise.claim()))
            except Unavailable:
                outcomes.append("unavailable")
        yield ctx.sleep(70.0 - ctx.now)
        value = yield echo.call(99)
        return (outcomes, value)

    outcomes, value = run_main(system, client, main)
    # Every promise resolved (none hung), all to unavailable since the
    # replies never escaped the partition.
    assert outcomes == ["unavailable"] * 4
    assert value == 99
    # The handler executed each delivered call exactly once — buffered
    # replies dying with the break never cause re-execution visible here.
    assert server.state["echo_calls"] in (4, 5)  # 4 + the post-heal call


def test_crash_races_inflight_flush():
    """Node.crash() landing while flushed packets are on the wire: every
    promise resolves, nothing executes twice."""
    system, server, client = build_echo_world(stream_config=FAST)
    # Crash just after the flush leaves the client (latency is 1.0, so
    # packets are mid-flight), recover shortly after.
    schedule_crash(system.network, "node:server", at=1.05, recover_at=10.0)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        yield ctx.sleep(0.9)
        promises = [echo.stream(index) for index in range(4)]
        echo.flush()
        outcomes = []
        for promise in promises:
            try:
                outcomes.append((yield promise.claim()))
            except Unavailable:
                outcomes.append("unavailable")
        yield ctx.sleep(30.0 - ctx.now)
        value = yield echo.call(7)
        return (outcomes, value)

    outcomes, value = run_main(system, client, main)
    assert len(outcomes) == 4
    assert value == 7
    # Exactly-once: each of the 4 calls ran at most once, plus the late call.
    assert server.state["echo_calls"] <= 5


def test_crash_races_inflight_synch():
    """A synch racing a receiver crash must raise, not hang.

    The nasty interleaving: the first send is executed *and acked* before
    the crash, so the sender never notices the receiver's state died.  The
    next send rides the stale incarnation; its retransmission into the
    recovered node is refused (an asynchronous break — re-executing
    already-processed calls would violate exactly-once), the synch resolves
    exceptionally, and the reincarnated stream works on retry."""
    system, server, client = build_echo_world(stream_config=FAST)
    schedule_crash(system.network, "node:server", at=1.5, recover_at=20.0)

    def main(ctx):
        note = ctx.lookup("server", "note")
        note.send("before-crash")
        note.flush()
        try:
            yield note.synch()
            first = "ok"
        except (Unavailable, ExceptionReply, Failure):
            first = "broken"
        yield ctx.sleep(30.0 - ctx.now)
        attempts = []
        for _ in range(3):
            try:
                note.send("after-recover")
                note.flush()
                yield note.synch()
                attempts.append("ok")
                break
            except (Unavailable, ExceptionReply, Failure):
                attempts.append("broken")
                yield ctx.sleep(10.0)
        return first, attempts

    first, attempts = run_main(system, client, main)
    assert first in ("ok", "broken")  # resolved either way, never hung
    assert attempts[-1] == "ok"  # the reincarnated stream drained
    assert "after-recover" in server.state["notes"]
    # Exactly-once held throughout: each note executed at most once per
    # accepted delivery (a broken synch may or may not have delivered).
    assert server.state["notes"].count("before-crash") <= 1
