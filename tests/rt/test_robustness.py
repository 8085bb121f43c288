"""Frame-level robustness on real sockets: resets, duplicates, dead peers.

Each test builds a small cluster (real worker processes over TCP) and
injures the transport — forced connection aborts, routes to nowhere,
dead listening ports — then asserts the exactly-once / FIFO oracles
via :mod:`repro.obs.monitor` over the per-process traces, exactly as
the simulator chaos suite does.
"""

from __future__ import annotations

import socket

import pytest

from repro.core.exceptions import Failure, Unavailable
from repro.obs.trace import load_jsonl
from repro.rt import ClusterError, RtCluster, RtHost
from repro.streams.config import StreamConfig

from tests.conformance.apps import ECHO_T, World, setup_echo
from tests.conformance.harness import AsyncioBackend, check_invariants, executing_seqs

pytestmark = pytest.mark.wallclock


def _run_echo_cluster(
    tmp_path,
    reset_after_frames,
    client_proc,
    timeout=60.0,
    setup=setup_echo,
    stream_config=None,
):
    """One echo worker + a client whose connections keep getting cut."""
    trace_dir = str(tmp_path / "traces")
    cluster = RtCluster(
        {"node:echo": setup}, trace_dir=trace_dir, stream_config=stream_config
    )
    cluster.start()
    host = None
    try:
        host = cluster.client_host(tracing=True)
        host.declare("echo", "echo", ECHO_T, node="node:echo")
        host.network.reset_after_frames = reset_after_frames
        client = host.create_guardian("client")
        proc = client.spawn(client_proc)
        value = host.run(until=proc, timeout=timeout)
        client_events = list(host.tracer.events)
        client_stats = {
            "conns_lost": host.network.stats_conns_lost,
            "dials": host.network.stats_dials,
        }
        host.shutdown()
    except BaseException as exc:
        if host is not None:
            host.shutdown()
        crashed = cluster.kill()
        if crashed is not None and isinstance(exc, Exception):
            raise crashed from exc
        raise
    cluster.stop()
    server_events = load_jsonl(cluster.trace_path("node:echo"))
    return value, client_events, server_events, client_stats


def test_connection_reset_mid_call(tmp_path):
    """RPCs survive the connection dying between request and reply."""

    def client_proc(ctx):
        echo = ctx.lookup("echo", "echo")
        values = []
        for i in range(20):
            value = yield echo.call(i)  # blocking round trip each time
            values.append(value)
        return values

    value, client_events, server_events, stats = _run_echo_cluster(
        tmp_path, reset_after_frames=2, client_proc=client_proc
    )
    assert value == [3 * i + 1 for i in range(20)]
    # The injury actually happened: connections died and were redialed.
    assert stats["conns_lost"] > 0, stats
    assert stats["dials"] > 1, stats
    # Every call executed exactly once, in order, despite the resets.
    assert executing_seqs(server_events, "echo") == list(range(1, 21))
    assert not check_invariants(client_events)
    assert not check_invariants(server_events)


def test_duplicate_delivery_after_reconnect_is_deduped(tmp_path):
    """Retransmission after reconnect produces duplicates on the wire;
    the receiver's dedup log absorbs them (delivery stays exactly-once)."""

    def client_proc(ctx):
        echo = ctx.lookup("echo", "echo")
        promises = [echo.stream(i) for i in range(50)]
        echo.flush()
        values = []
        for promise in promises:
            value = yield promise.claim()
            values.append(value)
        return values

    value, client_events, server_events, stats = _run_echo_cluster(
        tmp_path, reset_after_frames=3, client_proc=client_proc
    )
    assert value == [3 * i + 1 for i in range(50)]
    duplicates = [
        ev for ev in server_events if ev.type == "stream.call_duplicate"
    ]
    assert duplicates, "resets every 3 frames must force wire duplicates"
    assert executing_seqs(server_events, "echo") == list(range(1, 51))
    assert not check_invariants(client_events)
    assert not check_invariants(server_events)


FAST_BREAK = StreamConfig(rto=5.0, max_retries=2, min_rto=2.0, max_rto=10.0)


def _single_host_with_route(book):
    host = RtHost("node:client", stream_config=FAST_BREAK, tracing=True)
    host.set_address_book(book)
    host.declare("echo", "echo", ECHO_T, node="node:ghost")
    return host


def _call_once(ctx):
    echo = ctx.lookup("echo", "echo")
    value = yield echo.call(7)
    return value


def test_call_to_unrouted_node_breaks_stream(tmp_path):
    """No address-book entry: sends drop, retries exhaust, stream breaks."""
    host = _single_host_with_route({})
    try:
        client = host.create_guardian("client")
        proc = client.spawn(_call_once)
        with pytest.raises((Failure, Unavailable)):
            host.run(until=proc, timeout=30.0)
        assert host.network.stats.messages_dropped_crash > 0
    finally:
        host.shutdown()


def test_call_to_dead_port_breaks_stream(tmp_path):
    """A routed but unreachable peer: dials fail, the break surfaces."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead_port = probe.getsockname()[1]
    probe.close()  # nobody listens here any more
    host = _single_host_with_route({"node:ghost": ("127.0.0.1", dead_port)})
    try:
        client = host.create_guardian("client")
        proc = client.spawn(_call_once)
        with pytest.raises((Failure, Unavailable)):
            host.run(until=proc, timeout=30.0)
        assert host.network.stats_dial_failures > 0
    finally:
        host.shutdown()


def _explode():
    raise RuntimeError("worker callback exploded")


def setup_crashing_echo(host):
    """The echo guardian, plus a callback that kills the worker's first
    drain (module-level: spawn pickles it by reference)."""
    setup_echo(host)
    host.env.call_soon(_explode)


@pytest.mark.parametrize("harness", ["robustness", "conformance"])
def test_worker_traceback_reaches_the_failed_run(tmp_path, harness):
    """A worker that crashes makes the client's run fail; the failure
    raised names that worker and carries its traceback."""
    with pytest.raises(ClusterError) as info:
        if harness == "robustness":
            _run_echo_cluster(
                tmp_path,
                0,
                _call_once,
                timeout=30.0,
                setup=setup_crashing_echo,
                stream_config=FAST_BREAK,
            )
        else:
            world = World("crash", {"echo": setup_crashing_echo}, {"echo": {"echo": ECHO_T}})
            AsyncioBackend(str(tmp_path / "traces"), timeout=30.0).run(
                world, _call_once, stream_config=FAST_BREAK
            )
    message = str(info.value)
    assert "worker 'node:echo' failed" in message, message
    assert "RuntimeError: worker callback exploded" in message, message
    assert isinstance(info.value.__cause__, (Failure, Unavailable))
