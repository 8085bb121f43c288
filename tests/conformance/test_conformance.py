"""The backend-conformance battery (DESIGN.md §14).

One set of application-level scenarios — call ordering, exactly-once
under disturbance, promise claim semantics, coenter, stream flow
control, same-node delivery, span propagation, the paper's grades figures as interpreted
mini-Argus source — asserted identically against the
deterministic simulator and the real-socket asyncio backend.  The
transport invariants (exactly-once delivery, FIFO order, promise
lifecycle) are additionally replayed through the
:mod:`repro.obs.monitor` oracles over every captured trace.

The simulator rows are ordinary tier-1 tests and must stay
bit-deterministic (see ``test_sim_runs_are_bit_deterministic``); the
asyncio rows carry the ``wallclock`` marker and tolerate real-time
jitter — they assert outcomes and invariants, never timings.
"""

from __future__ import annotations

import pytest

from repro.apps import make_roster
from repro.apps.grades_argus import FIG_3_1_SOURCE, FIG_4_2_SOURCE
from repro.streams.config import StreamConfig

from tests.conformance import apps
from tests.conformance.harness import (
    SimBackend,
    assert_invariants,
    executing_seqs,
    trace_ids,
)


def test_call_ordering(backend):
    """40 buffered sends arrive in order; synch fences the read-back."""
    result = backend.run(apps.SEQ_WORLD, apps.client_ordering)
    assert result.value == list(range(40))
    assert_invariants(result)


def test_exactly_once_effects_under_disturbance(backend):
    """Side effects happen exactly once despite loss/connection resets.

    The server log is the witness: a duplicated execution would append
    twice, a dropped one would leave a gap — the transport must deliver
    ``0..29`` exactly, in order, through retransmission and dedup.
    """
    result = backend.run(
        apps.SEQ_WORLD, apps.client_effects_exactly_once, lossy=True
    )
    assert result.value == list(range(30))
    assert_invariants(result)


def test_exactly_once_stream_claims_under_disturbance(backend):
    """50 claimed stream calls return exact values under disturbance."""
    result = backend.run(apps.ECHO_WORLD, apps.client_exactly_once, lossy=True)
    assert result.value == [3 * i + 1 for i in range(50)]
    assert_invariants(result)
    # Server-side witness: every serial executed exactly once, in order.
    for label, trace in result.traces.items():
        seqs = executing_seqs(trace, "echo")
        if seqs:  # the trace of the process hosting the echo guardian
            assert seqs == list(range(1, 51)), label


def test_promise_claim_semantics(backend):
    """Out-of-order claims, repeated claims, continuation chaining."""
    result = backend.run(apps.ECHO_WORLD, apps.client_promise_claims)
    # echo(n) = 3n+1: p1=4, p2=7, p3=10; derived = p1 * 10 = 40.
    assert result.value == [4, 4, 7, 10, 40]
    assert_invariants(result)


def test_coenter(backend):
    """Concurrent arms each block on an RPC; results in arm order."""
    result = backend.run(apps.ECHO_WORLD, apps.client_coenter)
    assert result.value == [16, 19, 22]
    assert_invariants(result)


def test_stream_flow_control(backend):
    """A 4-call window forces stalls without losing or reordering."""
    config = StreamConfig(max_inflight_calls=4, batch_size=2)
    result = backend.run(
        apps.ECHO_WORLD, apps.client_flow_control, stream_config=config
    )
    assert result.value["values"] == [3 * i + 1 for i in range(60)]
    sender = result.value["sender"]
    assert sender["window_stalls"] > 0, sender
    assert_invariants(result)


def test_burst_fills_the_window_without_stalling(backend):
    """A 256-call burst is exactly the default window: exactly-once, in
    order, no stall.  The simulator's kernel is busy with the first
    datagram, so the rest leave as full batches; a socket write never
    reports a busy path, so there every packet is the count trigger's."""
    result = backend.run(apps.ECHO_WORLD, apps.client_burst)
    assert result.value["values"] == [3 * i + 1 for i in range(256)]
    sender = result.value["sender"]
    assert sender["window_stalls"] == 0, sender
    packets = [
        ev.fields["entries"]
        for ev in result.all_events()
        if ev.type == "stream.packet_sent"
        and ev.fields["attempt"] == 0
        and ev.fields["entries"]
    ]
    assert sum(packets) == 256
    if result.backend == "sim":
        assert len(packets) <= 6, packets
    else:
        assert packets == [8] * 32
    assert_invariants(result)


def test_rpc_costs_two_datagrams(backend):
    """One call packet out, one reply packet back per RPC: the reply
    carries the acknowledgement, the next call carries the reply's.

    Every timer that could add a bare ack or a probe is set far beyond
    the run, so a scheduling hiccup on the wallclock backend cannot."""
    config = StreamConfig(
        rto=2000.0, max_rto=4000.0, ack_delay=1000.0, reply_ack_delay=1000.0
    )
    result = backend.run(
        apps.ECHO_WORLD, apps.client_sequential_rpcs, stream_config=config
    )
    assert result.value == [3 * i + 1 for i in range(20)]
    for etype in ("stream.packet_sent", "stream.reply_packet_sent"):
        sent = [ev for ev in result.all_events() if ev.type == etype]
        assert len(sent) == 20, (etype, len(sent))
    assert_invariants(result)


def test_same_node_call(backend):
    """A guardian on the client's own node: every packet of the stream
    takes the shared same-node delivery path, on the simulator and on
    sockets alike, and none goes on the wire."""
    result = backend.run(apps.LOCAL_ECHO_WORLD, apps.client_promise_claims)
    assert result.value == [4, 4, 7, 10, 40]
    delivered = [ev for ev in result.all_events() if ev.type == "message.delivered"]
    assert delivered and all(ev.fields["local"] for ev in delivered)
    for stats in result.stats.values():
        assert stats["messages_sent"] == 0, stats
        assert stats["messages_delivered"] == len(delivered), stats
    assert_invariants(result)


def test_span_propagation(backend):
    """Client-minted trace ids surface in server-side executing events."""
    result = backend.run(apps.ECHO_WORLD, apps.client_span_flow)
    assert result.value == [3 * i + 1 for i in range(5)]
    client_ids = trace_ids(result.all_events(), "stream.call_buffered")
    assert client_ids, "client emitted no spans on buffered calls"
    server_ids = set()
    for trace in result.traces.values():
        server_ids |= trace_ids(trace, "stream.call_executing")
    assert server_ids, "server executed no spanned calls"
    assert server_ids <= client_ids, (server_ids, client_ids)


@pytest.mark.parametrize(
    "source", [FIG_3_1_SOURCE, FIG_4_2_SOURCE], ids=["fig31", "fig42"]
)
def test_interpreted_grades_figure(backend, source):
    """The paper's Figures 3-1 and 4-2, run as mini-Argus source: every
    guardian and the client program are interpreted, and the printed
    lines come back in roster order."""
    roster = make_roster(12)
    world, client = apps.argus_row(source, apps.roster_info(roster))
    result = backend.run(world, client)
    assert result.value == "".join("%s %d;" % row for row in roster)
    assert_invariants(result)


def test_sim_runs_are_bit_deterministic():
    """The simulator rows above are reproducible event-for-event."""

    def one_run():
        result = SimBackend().run(
            apps.SEQ_WORLD, apps.client_effects_exactly_once, lossy=True
        )
        return [
            (ev.time, ev.type, sorted(ev.fields.items()))
            for ev in result.all_events()
        ]

    assert one_run() == one_run()
