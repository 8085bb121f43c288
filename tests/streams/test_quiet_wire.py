"""The quiet wire: a stream datagram travels only when it carries news.

Default :class:`StreamConfig` throughout (the adaptive transport), on
the simulator.  Each test pins one of the mechanisms DESIGN.md §11
describes:

* sender-side window accounting — a claimed window never stalls the
  next one, and the receiver's backlog stays under the cap under loss,
  duplication and reordering;
* reply batches mirror call batches — a steady 256-call window costs a
  dozen datagrams, and reply packets shrink when loss halves the
  sender's batch;
* an empty ``flush`` covers the calls still executing;
* no pure ack ahead of an imminent reply — an RPC is two datagrams, and
  a handler that outlasts ``ack_delay`` still gets its delayed ack.
"""

from __future__ import annotations

import pytest

from repro.net.faults import LinkFaultInjector, LinkFaultProfile
from repro.obs.monitor import MonitorSuite
from repro.streams import StreamConfig
from repro.streams.receiver import StreamReceiver

from .helpers import build_echo_world, run_main

WINDOW = 256


def claim_window(echo, values):
    """Issue one flushed window of stream calls and claim it in order."""
    promises = [echo.stream(value) for value in values]
    echo.flush()
    got = []
    for promise in promises:
        got.append((yield promise.claim()))
    return got


def events_of(system, etype, since=0.0):
    return [
        event
        for event in system.tracer.events
        if event.type == etype and event.time >= since
    ]


def entries_of(system, etype, since=0.0):
    return [event.fields["entries"] for event in events_of(system, etype, since)]


def test_steady_windows_never_stall_and_cost_a_dozen_datagrams():
    """Ten fault-free 256-call windows: the claimed window's replies are
    resolved, so the next window flies at once; once AIMD has grown the
    batch (8 -> 47 over the first two windows), a window is 5 or 6 call
    packets and as many reply packets."""
    system, server, client = build_echo_world(
        latency=5.0, kernel_overhead=0.5, echo_cost=0.05
    )

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        per_window = []
        for index in range(10):
            before = system.stats()["messages_sent"]
            values = list(range(index * WINDOW, (index + 1) * WINDOW))
            assert (yield from claim_window(echo, values)) == values
            per_window.append(system.stats()["messages_sent"] - before)
        return per_window, echo.stream_sender.stats.snapshot()

    per_window, stats = run_main(system, client, main)
    assert stats["window_stalls"] == 0
    assert stats["retransmissions"] == 0
    assert max(per_window[2:]) <= 13 and per_window[-1] == 10, per_window


def test_rpc_costs_two_datagrams():
    """Call out, reply back: the reply carries the acknowledgement."""
    system, server, client = build_echo_world(echo_cost=0.05)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        values = []
        for value in range(20):
            values.append((yield echo.call(value)))
        return values

    assert run_main(system, client, main) == list(range(20))
    assert system.stats()["messages_sent"] == 40


def test_empty_flush_covers_calls_still_executing():
    """The batch trigger has already pushed every call, so ``flush``
    travels in an entry-less packet — and still releases the tail reply
    on its completion instead of after ``reply_max_delay``."""
    config = StreamConfig(batch_size=4, min_batch_size=4, max_batch_size=4)
    cost = 0.5
    system, server, client = build_echo_world(
        stream_config=config, echo_cost=cost, tracing=True
    )

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        return (yield from claim_window(echo, list(range(12))))

    assert run_main(system, client, main) == list(range(12))
    flush = events_of(system, "stream.packet_sent")[-1].fields
    assert flush["entries"] == 0 and flush["flush_replies"]
    # 8 replies leave on the size trigger, the last 4 with the flush.
    assert entries_of(system, "stream.reply_packet_sent") == [8, 4]
    last_reply = events_of(system, "stream.reply_packet_sent")[-1].time
    last_completion = events_of(system, "stream.call_completed")[-1].time
    assert last_reply - last_completion < cost < config.reply_max_delay


@pytest.mark.parametrize("window", [64, 512, 1024])
def test_receiver_backlog_stays_under_the_cap(window, monkeypatch):
    """Under drop/dup/reorder, with application windows up to 4x the
    cap, the receiver never holds more than ``max_inflight_calls`` calls
    (executing + unacknowledged replies + out of order), and delivery
    stays exactly-once and FIFO."""
    config = StreamConfig(
        max_buffer_delay=2.0,
        reply_max_delay=2.0,
        ack_delay=2.0,
        reply_ack_delay=6.0,
        max_retries=20,
    )
    system, server, client = build_echo_world(
        stream_config=config,
        latency=5.0,
        bandwidth=1000.0,
        seed=7,
        tracing=True,
    )
    suite = MonitorSuite.install(system.tracer, strict=True)
    system.network.install_link_faults(
        LinkFaultInjector(
            system.rng.stream("chaos.link"),
            default=LinkFaultProfile(drop_rate=0.02, dup_rate=0.01, reorder_rate=0.02),
        )
    )
    backlogs = []
    intake = StreamReceiver.on_call_packet

    def measured_intake(receiver, packet):
        intake(receiver, packet)
        backlogs.append(
            (receiver.expected_seq - 1 - receiver.completed_seq)
            + len(receiver._reply_log)
            + len(receiver._out_of_order)
        )

    monkeypatch.setattr(StreamReceiver, "on_call_packet", measured_intake)
    total = 2048

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        got = []
        for start in range(0, total, window):
            got.extend((yield from claim_window(echo, range(start, start + window))))
        return got, echo.stream_sender.stats.snapshot()

    got, stats = run_main(system, client, main)
    assert got == list(range(total))
    assert server.state["echo_calls"] == total
    assert stats["breaks"] == 0
    assert stats["max_inflight"] <= config.max_inflight_calls
    assert max(backlogs) <= config.max_inflight_calls
    assert suite.violations == []


def test_reply_batches_shrink_when_loss_halves_the_call_batch():
    system, server, client = build_echo_world(
        latency=5.0, kernel_overhead=0.5, echo_cost=0.05, tracing=True
    )
    marks = {}

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        for index in range(4):  # clean windows: AIMD grows the batch
            yield from claim_window(echo, range(index * WINDOW, (index + 1) * WINDOW))
        marks["grown"] = max(entries_of(system, "stream.reply_packet_sent"))
        # A black-holed burst: the RTO fires, the batch limit halves.
        system.network.install_link_faults(
            LinkFaultInjector(
                system.rng.stream("chaos.link"), default=LinkFaultProfile(drop_rate=0.999)
            )
        )
        promises = [echo.stream(value) for value in range(8)]
        echo.flush()
        while echo.stream_sender.stats.retransmissions == 0:
            yield ctx.sleep(1.0)
        system.network.install_link_faults(None)
        for promise in promises:
            yield promise.claim()
        marks["after"] = ctx.env.now
        yield from claim_window(echo, range(WINDOW))
        return echo.stream_sender.stats.snapshot()

    stats = run_main(system, client, main)
    assert stats["breaks"] == 0
    calls = entries_of(system, "stream.packet_sent", marks["after"])
    replies = entries_of(system, "stream.reply_packet_sent", marks["after"])
    assert max(replies) <= max(calls) < marks["grown"], (calls, replies, marks)


def test_long_handler_gets_one_delayed_ack():
    """The pure ack skipped on arrival is only deferred: a handler that
    outlasts ``ack_delay`` is acknowledged by the ack alarm, so the
    sender neither retransmits nor breaks."""
    config = StreamConfig()
    system, server, client = build_echo_world(
        echo_cost=config.ack_delay + 2.0, tracing=True
    )

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        value = yield echo.call(7)
        return value, echo.stream_sender.stats.snapshot()

    value, stats = run_main(system, client, main)
    assert value == 7
    assert stats["retransmissions"] == 0 and stats["breaks"] == 0
    replies = events_of(system, "stream.reply_packet_sent")
    assert [event.fields["entries"] for event in replies] == [0, 1]
    assert replies[0].time >= config.ack_delay
