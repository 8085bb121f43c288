"""Deterministic TcpNetwork unit tests: no sockets, no real waits.

These drive the protocol object directly with crafted byte streams and
fake transports, so they run in tier-1 alongside the frame-codec tests
— the wallclock integration paths live in ``test_robustness.py``.
"""

from __future__ import annotations

import pytest

from repro.net.message import Message
from repro.rt.host import RtHost
from repro.rt.transport import _Conn
from repro.streams.frames import encode_frame, encode_hello

from tests.streams.test_frames import sample_call_packets


class FakeTransport:
    def __init__(self):
        self.aborted = False
        self.written = []

    def write(self, data):
        self.written.append(data)

    def abort(self):
        self.aborted = True


@pytest.fixture
def host():
    h = RtHost("node:a")
    yield h
    h.shutdown()


def _accepted_conn(host):
    conn = _Conn(host.network)
    conn.connection_made(FakeTransport())
    return conn


def test_corrupt_byte_stream_aborts_the_connection(host):
    conn = _accepted_conn(host)
    conn.data_received(encode_frame(b"\xff not a frame"))
    assert conn.transport.aborted
    assert host.network.stats_frames_corrupt == 1


def test_torn_frames_reassemble_across_arbitrary_chunks(host):
    conn = _accepted_conn(host)
    data = encode_frame(encode_hello("node:peer"))
    for i in range(len(data)):
        conn.data_received(data[i : i + 1])
    assert host.network._conns.get("node:peer") is conn


def test_hello_newest_connection_wins(host):
    first = _accepted_conn(host)
    second = _accepted_conn(host)
    hello = encode_frame(encode_hello("node:peer"))
    first.data_received(hello)
    second.data_received(hello)
    assert host.network._conns["node:peer"] is second
    assert first.transport.aborted
    assert not second.transport.aborted


def test_connection_loss_unregisters_only_current_conn(host):
    first = _accepted_conn(host)
    second = _accepted_conn(host)
    hello = encode_frame(encode_hello("node:peer"))
    first.data_received(hello)
    second.data_received(hello)
    lost_before = host.network.stats_conns_lost
    first.connection_lost(None)  # the superseded conn dies late
    assert host.network._conns["node:peer"] is second
    second.connection_lost(None)
    assert "node:peer" not in host.network._conns
    assert host.network.stats_conns_lost == lost_before + 2


def test_send_without_route_counts_a_drop(host):
    packet = sample_call_packets()[0]
    message = Message("node:a", "node:ghost", "g:addr", packet, 64)
    before = host.network.stats.messages_dropped_crash
    host.network.send(message)
    assert host.network.stats.messages_dropped_crash == before + 1
    assert host.network.stats.messages_sent == 1  # counted, then dropped
