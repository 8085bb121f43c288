"""Send when convenient: a call packet is held while the kernel is busy.

"Stream calls are buffered and sent when convenient" (§2).  When the
count trigger fires but the node's kernel is still sending an earlier
datagram, a packet handed over now would only queue behind it, so the
sender lets it grow — up to a full batch — and hands it over when the
path frees (DESIGN.md §11, "When a packet leaves").  The rule is
work-conserving, engages only on a busy path, and ends at the first
loss signal.  The same file pins the RTO alarm's arm/cancel order.
"""

from __future__ import annotations

import pytest

from repro.apps import build_grades_world, make_roster, program_rpc
from repro.net import schedule_partition
from repro.net.network import Network
from repro.streams import StreamConfig
from repro.streams.wire import CallPacket

from .helpers import build_echo_world, run_main

BURST = 256
#: The stream_echo / E1 world: a datagram keeps the kernel 0.5 tu.
SLOW_KERNEL = dict(latency=5.0, kernel_overhead=0.5, echo_cost=0.05)


def burst_main(ctx, n=BURST, think=0.0, flush=True):
    """Issue *n* stream calls (*think* apart), flush, claim in order."""
    echo = ctx.lookup("server", "echo")
    promises = []
    for value in range(n):
        promises.append(echo.stream(value))
        if think:
            yield ctx.sleep(think)
    if flush:
        echo.flush()
    values = []
    for promise in promises:
        values.append((yield promise.claim()))
    return values, echo.stream_sender.stats.snapshot()


def first_transmissions(system):
    """(time, entries) of every first-transmission call packet."""
    return [
        (event.time, event.fields["entries"])
        for event in system.tracer.events_of("stream.packet_sent")
        if event.fields["attempt"] == 0 and event.fields["entries"]
    ]


def record_handovers(system):
    """Log ``(now, tx_free_at after the send)`` per client call datagram."""
    network = system.network
    handovers = []
    send = network.send

    def recording_send(message):
        send(message)
        if isinstance(message.payload, CallPacket) and message.payload.entries:
            handovers.append((system.now, network.tx_free_at(message.src)))

    network.send = recording_send
    return handovers


def assert_work_conserving(handovers):
    """No packet is handed over after the datagram ahead of it is done:
    the hold never leaves the path idle with a triggered packet waiting."""
    assert len(handovers) > 1
    for (_, ahead_done), (handed, _) in zip(handovers, handovers[1:]):
        assert handed <= ahead_done + 1e-9, handovers


def packet_trace(system):
    return [
        (event.time, event.type, sorted(event.fields.items()))
        for event in system.tracer.events
        if event.type.startswith(("stream.packet", "stream.reply_packet", "message."))
    ]


def test_burst_leaves_in_full_batches():
    """(i) 8 leave at once on the idle path; the rest go as full batches
    behind them instead of 31 more packets of 8."""
    system, server, client = build_echo_world(tracing=True, **SLOW_KERNEL)
    handovers = record_handovers(system)
    values, stats = run_main(system, client, burst_main)
    assert values == list(range(BURST))
    assert server.state["echo_calls"] == BURST
    assert stats["window_stalls"] == 0 and stats["retransmissions"] == 0
    sizes = [entries for _time, entries in first_transmissions(system)]
    assert sizes == [8, 64, 64, 64, 56]
    delivered = [
        event.fields["seq"]
        for event in system.tracer.events_of("stream.call_delivered")
    ]
    assert delivered == list(range(1, BURST + 1))
    assert_work_conserving(handovers)


@pytest.mark.parametrize(
    "world, think",
    [
        (dict(latency=5.0, kernel_overhead=0.5), 0.7),  # computes > one send
        (dict(latency=5.0, kernel_overhead=0.5), 1.3),
        (dict(latency=5.0, kernel_overhead=0.0), 0.0),  # free kernel, pure burst
        (dict(latency=1.0, kernel_overhead=0.0), 0.01),
    ],
)
def test_idle_path_never_holds(world, think, monkeypatch):
    """(ii) With the path idle at every trigger the packet trace is the
    count trigger's, event for event: the same run with a network that
    always reports an idle path is the reference.  (Idle means not
    receiving either: the think times keep triggers clear of the reply
    datagrams' kernel calls.)"""

    def run():
        system, server, client = build_echo_world(
            tracing=True, echo_cost=0.05, **world
        )
        values, stats = run_main(system, client, burst_main, 96, think)
        assert values == list(range(96))
        return packet_trace(system), stats

    with_hold = run()
    monkeypatch.setattr(Network, "tx_free_at", lambda self, node: 0.0)
    assert with_hold == run()


def test_held_buffer_leaves_when_the_path_frees():
    """(iii) Burst, then wait without flushing: the held calls leave when
    the first datagram's kernel call ends, not at ``max_buffer_delay``."""
    system, server, client = build_echo_world(tracing=True, **SLOW_KERNEL)
    handovers = record_handovers(system)
    values, stats = run_main(system, client, burst_main, 20, 0.0, False)
    assert values == list(range(20))
    (first_at, first), (second_at, second) = first_transmissions(system)
    assert (first_at, first, second) == (0.0, 8, 12)
    assert second_at == pytest.approx(SLOW_KERNEL["kernel_overhead"])
    assert second_at < system.stream_config.max_buffer_delay
    assert_work_conserving(handovers)


def test_after_a_loss_signal_aimd_alone_sizes_packets():
    """(iv) The first retransmission ends the hold for good: from then on
    no first-transmission packet is larger than the AIMD limit."""
    system, server, client = build_echo_world(tracing=True, **SLOW_KERNEL)
    # The first call packet dies in a partition; the RTO repairs it.
    schedule_partition(
        system.network, "node:client", "node:server", at=0.0, heal_at=8.0
    )
    oversized = []

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        lost = echo.stream(7)
        echo.flush()
        assert (yield lost.claim()) == 7
        sender = echo.stream_sender
        assert sender.stats.retransmissions > 0
        transmit = sender._transmit

        def checking_transmit(entries, flush_replies, synch_seq, attempt=0):
            if attempt == 0 and len(entries) > int(sender._batch_limit):
                oversized.append((len(entries), sender._batch_limit))
            transmit(entries, flush_replies, synch_seq, attempt)

        sender._transmit = checking_transmit
        return (yield from burst_main(ctx))

    values, _stats = run_main(system, client, main)
    assert values == list(range(BURST))
    assert oversized == []
    sizes = [entries for time, entries in first_transmissions(system) if time > 8.0]
    assert len(sizes) > 6, sizes  # small packets again, as before the hold


@pytest.mark.parametrize(
    "config, expected",
    [
        (StreamConfig(batch_size=8, min_batch_size=8, max_batch_size=8), [8] * 12),
        (StreamConfig().unbuffered(), [1] * 96),
    ],
)
def test_pinned_batch_is_never_held(config, expected):
    """(v) A degenerate batch range is a full batch at every trigger."""
    system, server, client = build_echo_world(
        stream_config=config, tracing=True, **SLOW_KERNEL
    )
    values, stats = run_main(system, client, burst_main, 96)
    assert values == list(range(96))
    assert [entries for _time, entries in first_transmissions(system)] == expected


def test_rto_alarm_is_idle_after_the_last_reply():
    """(vi) Arm/cancel is decided after the in-order release: with the
    exchange over, nothing is outstanding and the alarm is off."""
    system, server, client = build_echo_world(echo_cost=0.05)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        armed = []
        for value in range(15):
            assert (yield echo.call(value)) == value
            armed.append(echo.stream_sender._rto_alarm.armed)
        return armed, echo.stream_sender.stats.snapshot()

    armed, stats = run_main(system, client, main)
    assert armed == [False] * 15
    assert stats["retransmissions"] == 0
    assert system.stats()["messages_sent"] == 30


def test_e3_rpc_baseline_costs_four_datagrams_a_student():
    """(vi) E3's RPC grades world at 20 students: 40 RPCs, 80 datagrams.
    The stale alarm used to fire early from the 11th RPC on (100)."""
    world = build_grades_world(
        latency=5.0, kernel_overhead=0.5, record_cost=0.3, print_cost=0.1
    )
    roster = make_roster(20)

    def main(ctx):
        count = yield from program_rpc(ctx, roster)
        senders = [
            ctx.lookup(guardian, handler).stream_sender.stats.retransmissions
            for guardian, handler in (("grades_db", "record_grade"), ("printer", "print"))
        ]
        return count, senders

    process = world.client.spawn(main)
    _count, retransmissions = world.system.run(until=process)
    assert len(world.printed) == 20
    assert retransmissions == [0, 0]
    assert world.system.stats()["messages_sent"] == 80
