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
from repro.streams.frames import encode_frame, encode_hello, encode_packet
from repro.streams.wire import CallPacket

from tests.streams.test_frames import make_key, sample_call_packets


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


def _peer_conn(host):
    """An accepted connection that has said HELLO as ``node:peer``."""
    conn = _accepted_conn(host)
    conn.data_received(encode_frame(encode_hello("node:peer")))
    return conn


def test_bytes_sent_counts_the_frames_written(host):
    conn = _peer_conn(host)
    packet = CallPacket(make_key(src_node="node:a", dst_node="node:peer"), 0, [], 0)
    for _ in range(2):
        host.network.send(Message("node:a", "node:peer", "g:server", packet, 999))
    first, second = conn.transport.written
    assert host.network.stats.bytes_sent == len(first) + len(second)
    # The second frame names the stream by its ref alone.
    assert len(second) < len(first)
    assert conn.refs == {packet.key: 0}


def test_a_frame_by_ref_on_a_fresh_connection_kills_it(host):
    refs = {}
    packet = CallPacket(make_key(dst_node="node:a"), 0, [], 0)
    encode_packet(packet, refs)
    by_ref = encode_frame(encode_packet(packet, refs))
    conn = _peer_conn(host)
    conn.data_received(by_ref)
    assert conn.transport.aborted
    assert host.network.stats_frames_corrupt == 1
    assert conn.keys == []


def test_each_connection_keeps_its_own_tables(host):
    packet = CallPacket(make_key(dst_node="node:gone"), 0, [], 0)
    frame = encode_frame(encode_packet(packet, {}))
    first, second = _accepted_conn(host), _accepted_conn(host)
    first.data_received(frame)
    second.data_received(frame)
    assert first.keys == second.keys == [packet.key]
    assert first.keys[0] is not second.keys[0]
