"""The PR 5 adaptive windowed transport: SACK, flow control, AIMD, RTT.

Four families of tests:

* SACK correctness under each chaos link-fault flavour (drop, duplicate,
  reorder, delay) across a small seed corpus — exactly-once, in-order
  resolution must survive selective retransmission, with the strict
  monitor suite watching every event;
* window back-pressure — a slow receiver bounds the sender's in-flight
  count, promises still resolve FIFO, and a one-call window cannot
  deadlock (zero-window probe);
* AIMD batching — the effective batch limit grows on clean acks, shrinks
  on loss, and never leaves the configured [floor, ceiling] band;
* the RTT estimator — samples accumulate, track the link latency, and
  the derived RTO stays inside [min_rto, max_rto].
"""

from __future__ import annotations

import pytest

from repro.core import Unavailable
from repro.net.faults import LinkFaultInjector, LinkFaultProfile
from repro.obs.monitor import MonitorSuite
from repro.streams import StreamConfig

from .helpers import build_echo_world, run_main

ADAPTIVE = StreamConfig(
    batch_size=4,
    reply_batch_size=4,
    max_buffer_delay=1.0,
    reply_max_delay=1.0,
    rto=5.0,
    ack_delay=2.0,
    reply_ack_delay=6.0,
    max_batch_size=16,
    min_rto=1.0,
    max_rto=30.0,
    max_inflight_calls=32,
)

N_CALLS = 40

LINK_PROFILES = {
    "drop": LinkFaultProfile(drop_rate=0.15),
    "duplicate": LinkFaultProfile(dup_rate=0.25),
    "reorder": LinkFaultProfile(reorder_rate=0.3, delay_min=1.0, delay_max=6.0),
    "delay": LinkFaultProfile(delay_rate=0.3, delay_min=1.0, delay_max=6.0),
}


def build_chaotic_echo_world(profile, seed, config=ADAPTIVE, **kwargs):
    system, server, client = build_echo_world(
        stream_config=config, tracing=True, seed=seed, **kwargs
    )
    suite = MonitorSuite.install(system.tracer, strict=True)
    system.network.install_link_faults(
        LinkFaultInjector(system.rng.stream("chaos.link"), default=profile)
    )
    return system, server, client, suite


def streaming_driver(ctx, n=N_CALLS, chunk=8):
    """Stream *n* echo calls in chunks, flush each chunk, claim in order."""
    echo = ctx.lookup("server", "echo")
    values = []
    for base in range(0, n, chunk):
        promises = [echo.stream(i) for i in range(base, base + chunk)]
        echo.flush()
        for promise in promises:
            values.append((yield promise.claim()))
    return values


def pipelined_driver(ctx, n=N_CALLS, chunk=4):
    """Keep many call packets in flight at once (claims only at the end),
    so link chaos can actually interleave, reorder and duplicate them."""
    echo = ctx.lookup("server", "echo")
    promises = []
    for base in range(0, n, chunk):
        promises.extend(echo.stream(i) for i in range(base, base + chunk))
        echo.flush()
        yield ctx.sleep(0.3)
    values = []
    for promise in promises:
        values.append((yield promise.claim()))
    return values


@pytest.mark.parametrize("fault", sorted(LINK_PROFILES))
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_sack_exactly_once_in_order_under_link_chaos(fault, seed):
    """Whatever the link does, every call executes exactly once and every
    promise resolves in order with the right value — with selective
    retransmission doing the repairing."""
    system, server, client, suite = build_chaotic_echo_world(
        LINK_PROFILES[fault], seed
    )
    values = run_main(system, client, streaming_driver)
    assert values == list(range(N_CALLS))
    # Exactly-once at the application: the handler body ran once per call.
    assert server.state["echo_calls"] == N_CALLS
    # The strict monitor suite saw no duplicate delivery, no reordering,
    # no promise-lifecycle violation (strict=True would have raised, but
    # assert anyway so a future monitor-mode change cannot silence this).
    assert suite.violations == []


def test_reorder_produces_sack_traffic():
    """A reordering link leaves the receiver holding out-of-order seqs: it
    must advertise them as SACK ranges immediately."""
    system, server, client, suite = build_chaotic_echo_world(
        LINK_PROFILES["reorder"], seed=7
    )

    def main(ctx):
        values = yield from pipelined_driver(ctx)
        sender = ctx.lookup("server", "echo").stream_sender
        return values, sender.stats.snapshot()

    values, stats = run_main(system, client, main)
    assert values == list(range(N_CALLS))
    [receiver] = server.endpoint._receivers.values()
    assert receiver.stats.sack_ranges_sent > 0
    assert suite.violations == []


def test_duplicate_link_traffic_is_absorbed():
    system, server, client, suite = build_chaotic_echo_world(
        LINK_PROFILES["duplicate"], seed=7
    )
    values = run_main(system, client, pipelined_driver)
    assert values == list(range(N_CALLS))
    assert server.state["echo_calls"] == N_CALLS
    [receiver] = server.endpoint._receivers.values()
    # Stray duplicates reached the receiver and were recognized, not
    # re-executed.
    assert receiver.stats.duplicates > 0
    assert suite.violations == []


def test_drop_link_sack_spares_retransmissions():
    # A seed whose draws lose a call packet (seed 23 loses nothing).
    system, server, client, suite = build_chaotic_echo_world(
        LINK_PROFILES["drop"], seed=1
    )

    def main(ctx):
        values = yield from streaming_driver(ctx)
        sender = ctx.lookup("server", "echo").stream_sender
        return values, sender.stats.snapshot()

    values, stats = run_main(system, client, main)
    assert values == list(range(N_CALLS))
    assert stats["retransmissions"] > 0
    assert suite.violations == []


# ----------------------------------------------------------------------
# Flow control
# ----------------------------------------------------------------------

def test_window_bounds_sender_inflight_and_keeps_fifo():
    """A slow receiver advertises a shrinking window; the sender must never
    exceed max_inflight_calls in flight, and resolution stays FIFO."""
    config = StreamConfig(
        batch_size=4,
        reply_batch_size=4,
        max_buffer_delay=0.5,
        reply_max_delay=0.5,
        ack_delay=2.0,
        max_inflight_calls=8,
    )
    system, server, client = build_echo_world(
        stream_config=config, echo_cost=0.6, tracing=True
    )
    suite = MonitorSuite.install(system.tracer, strict=True)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(i) for i in range(48)]
        echo.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values, echo.stream_sender.stats.snapshot()

    values, stats = run_main(system, client, main)
    assert values == list(range(48))
    assert stats["max_inflight"] <= 8
    assert stats["window_stalls"] > 0
    assert suite.violations == []


def test_one_call_window_cannot_deadlock():
    """The degenerate window (one call in flight) still makes progress —
    the idle-stream probe allowance prevents a zero-window wedge."""
    config = StreamConfig(
        batch_size=4,
        max_buffer_delay=0.5,
        reply_max_delay=0.5,
        max_inflight_calls=1,
    )
    system, server, client = build_echo_world(
        stream_config=config, echo_cost=0.2, tracing=True
    )
    suite = MonitorSuite.install(system.tracer, strict=True)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(i) for i in range(12)]
        echo.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values, echo.stream_sender.stats.snapshot()

    values, stats = run_main(system, client, main)
    assert values == list(range(12))
    assert stats["max_inflight"] <= 1
    assert suite.violations == []


# ----------------------------------------------------------------------
# AIMD batching
# ----------------------------------------------------------------------

def test_batch_limit_grows_on_clean_acks():
    config = StreamConfig(
        batch_size=2,
        reply_batch_size=2,
        max_buffer_delay=0.5,
        reply_max_delay=0.5,
        max_batch_size=32,
    )
    system, server, client = build_echo_world(stream_config=config)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        # Many small waves with claims in between, so acks flow cleanly
        # and the AIMD controller gets credit after every packet.
        for wave in range(15):
            promises = [echo.stream(wave * 4 + i) for i in range(4)]
            echo.flush()
            for promise in promises:
                yield promise.claim()
        return echo.stream_sender._batch_limit

    batch_limit = run_main(system, client, main)
    assert batch_limit > config.batch_size
    assert batch_limit <= config.max_batch_size


def test_batch_limit_shrinks_on_loss_and_respects_floor():
    system, server, client, suite = build_chaotic_echo_world(
        LINK_PROFILES["drop"], seed=7
    )

    def main(ctx):
        values = yield from streaming_driver(ctx)
        sender = ctx.lookup("server", "echo").stream_sender
        return values, sender._batch_limit, sender.stats.snapshot()

    values, batch_limit, stats = run_main(system, client, main)
    assert values == list(range(N_CALLS))
    assert stats["retransmissions"] > 0
    floor = min(ADAPTIVE.min_batch_size, ADAPTIVE.batch_size)
    ceiling = max(ADAPTIVE.max_batch_size, ADAPTIVE.batch_size)
    assert floor <= batch_limit <= ceiling
    # The multiplicative decrease actually fired: the trace shows at least
    # one downward move of the limit.
    limits = [
        event.fields["limit"]
        for event in system.tracer.events_of("stream.batch_limit")
    ]
    assert any(b < a for a, b in zip(limits, limits[1:]))


def test_degenerate_batch_range_keeps_static_threshold():
    config = StreamConfig(
        batch_size=4,
        max_buffer_delay=0.5,
        reply_max_delay=0.5,
        min_batch_size=4,
        max_batch_size=4,
    )
    system, server, client = build_echo_world(stream_config=config, tracing=True)

    def main(ctx):
        echo = ctx.lookup("server", "echo")
        for wave in range(10):
            promises = [echo.stream(wave * 4 + i) for i in range(4)]
            echo.flush()
            for promise in promises:
                yield promise.claim()
        return echo.stream_sender._batch_limit

    batch_limit = run_main(system, client, main)
    assert batch_limit == config.batch_size
    assert system.tracer.events_of("stream.batch_limit") == []


# ----------------------------------------------------------------------
# RTT estimation
# ----------------------------------------------------------------------

def rtt_probe_driver(ctx):
    echo = ctx.lookup("server", "echo")
    for wave in range(8):
        promises = [echo.stream(wave * 4 + i) for i in range(4)]
        echo.flush()
        for promise in promises:
            yield promise.claim()
    sender = echo.stream_sender
    return sender._srtt, sender._current_rto(), sender.stats.snapshot()


def test_rtt_estimator_accumulates_samples_and_bounds_rto():
    system, server, client = build_echo_world(
        stream_config=ADAPTIVE, tracing=True, latency=2.0
    )
    srtt, rto, stats = run_main(system, client, rtt_probe_driver)
    assert stats["rtt_samples"] > 0
    assert srtt is not None and srtt > 0
    assert ADAPTIVE.min_rto <= rto <= ADAPTIVE.max_rto


def test_rtt_estimator_tracks_link_latency():
    """A 10x slower link must produce a clearly larger SRTT estimate."""
    estimates = {}
    for label, latency in (("fast", 1.0), ("slow", 10.0)):
        system, server, client = build_echo_world(
            stream_config=ADAPTIVE, latency=latency
        )
        srtt, rto, stats = run_main(system, client, rtt_probe_driver)
        estimates[label] = srtt
    assert estimates["slow"] > 2.0 * estimates["fast"]


def test_degenerate_rto_range_uses_fixed_rto():
    """min_rto == max_rto pins the timeout: RTT samples still accumulate
    but neither they nor the backoff can move it."""
    config = StreamConfig(
        batch_size=4,
        max_buffer_delay=0.5,
        reply_max_delay=0.5,
        rto=20.0,
        min_rto=20.0,
        max_rto=20.0,
    )
    system, server, client = build_echo_world(stream_config=config)

    def main(ctx):
        srtt, rto, stats = yield from rtt_probe_driver(ctx)
        sender = ctx.lookup("server", "echo").stream_sender
        sender._rto_backoff = 8.0
        return srtt, rto, sender._current_rto(), stats

    srtt, rto, backed_off, stats = run_main(system, client, main)
    assert stats["rtt_samples"] > 0
    assert srtt is not None and srtt < config.rto
    assert rto == backed_off == config.rto


# ----------------------------------------------------------------------
# Breaks still behave under the adaptive transport
# ----------------------------------------------------------------------

def test_partition_break_resolves_all_promises_adaptively():
    """A partition under the adaptive transport still breaks the stream
    (with exponential backoff lengthening the ladder, not wedging it) and
    every outstanding promise resolves to unavailable."""
    from repro.net import schedule_partition

    system, server, client = build_echo_world(stream_config=ADAPTIVE, tracing=True)
    suite = MonitorSuite.install(system.tracer, strict=True)
    schedule_partition(system.network, "node:client", "node:server", at=1.0)

    def main(ctx):
        yield ctx.sleep(2.0)
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(i) for i in range(6)]
        echo.flush()
        tags = []
        for promise in promises:
            try:
                yield promise.claim()
                tags.append("ok")
            except Unavailable:
                tags.append("unavailable")
        return tags

    tags = run_main(system, client, main)
    assert tags == ["unavailable"] * 6
    assert suite.violations == []


# ----------------------------------------------------------------------
# Reply-gap probe: lost reply packets are recovered at ~RTT, not RTO
# ----------------------------------------------------------------------

class _SingleDropInjector(LinkFaultInjector):
    """Deterministically eat the Nth message towards *victim*."""

    def __init__(self, rng, victim, index):
        super().__init__(rng)
        self._victim = victim
        self._index = index
        self._seen = 0

    def decide(self, src, dst):
        if dst == self._victim:
            self._seen += 1
            if self._seen == self._index:
                self.drops += 1
                return self.DROP
        return None


def test_lost_reply_triggers_reply_gap_probe():
    """When a reply packet is lost mid-stream, a later outcome beyond the
    resolve cursor proves the gap; the sender must probe immediately (the
    receiver then resends its unacked reply log) rather than stall every
    claim behind the RTO."""
    system, server, client = build_echo_world(
        stream_config=ADAPTIVE, tracing=True
    )
    suite = MonitorSuite.install(system.tracer, strict=True)
    # Server->client messages alternate outcome-carrying replies (odd)
    # with pure acks (even); the third is the reply carrying the second
    # chunk's outcomes.  Later chunks' replies still arrive, exposing the
    # gap without any call-packet loss muddying the picture.
    system.network.install_link_faults(
        _SingleDropInjector(system.rng.stream("chaos.link"), "node:client", 3)
    )

    def main(ctx):
        values = yield from pipelined_driver(ctx)
        sender = ctx.lookup("server", "echo").stream_sender
        return values, sender.stats.snapshot()

    values, stats = run_main(system, client, main)
    assert values == list(range(N_CALLS))
    assert server.state["echo_calls"] == N_CALLS
    assert stats["reply_gap_probes"] >= 1
    # The probe is not a call retransmission: no call packet was lost, so
    # selective retransmission had nothing to resend.
    assert stats["retransmissions"] == 0
    assert suite.violations == []


def test_clean_run_sends_no_reply_gap_probes():
    """No loss, no probes: the gap detector must not misfire on a healthy
    pipelined stream."""
    system, server, client = build_echo_world(stream_config=ADAPTIVE)

    def main(ctx):
        values = yield from pipelined_driver(ctx)
        sender = ctx.lookup("server", "echo").stream_sender
        return values, sender.stats.snapshot()

    values, stats = run_main(system, client, main)
    assert values == list(range(N_CALLS))
    assert stats["reply_gap_probes"] == 0
    assert stats["retransmissions"] == 0
