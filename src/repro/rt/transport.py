"""A real TCP transport presenting the simulator's ``Network`` surface.

:class:`TcpNetwork` is a drop-in for :class:`repro.net.network.Network`
as seen by the layers above it — stream senders/receivers and guardian
endpoints call exactly ``.send(message)``, ``.tx_free_at()``, ``.node()``,
``.add_node()``, ``.stats`` and ``._forget_node_clocks()``.  Both extend
one :class:`~repro.net.network.NodeTable`, so the node table and
same-node delivery are the simulator's own code; this module adds only
the carrier between processes: each packet travels as a length-prefixed
frame (:mod:`repro.streams.frames`) over a TCP connection to the process
hosting the destination node.

The crucial design point: **TCP is treated as an unreliable datagram
carrier, not a reliability layer.**  A connection that drops loses the
frames in flight, exactly like the simulator's lossy links; delivery
guarantees come from the stream transport above (RTO retransmission,
SACK, receiver-side dedup), the same state machines the chaos suite
exercises under simulation.  Consequently this layer keeps no send
queue beyond the dial window, performs no handshaking beyond a single
``HELLO`` frame identifying the dialing node, and reconnects simply by
dialing again on the next send.

Connections are bidirectional and deduplicated by peer node: the
acceptor learns the peer's node name from its ``HELLO`` and routes
replies back over the same connection, so a client behind an ephemeral
port (one that never listens) still receives replies.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

from repro.encoding.errors import DecodeError
from repro.net.message import Message
from repro.net.network import NodeDown, NodeTable
from repro.streams.frames import (
    FrameAssembler,
    Hello,
    decode_body,
    encode_frame,
    encode_hello,
    encode_packet,
)
from repro.streams.wire import CallPacket

__all__ = ["TcpNetwork"]


class _Conn(asyncio.Protocol):
    """One TCP connection carrying frames, in either direction."""

    def __init__(self, network: "TcpNetwork", peer: Optional[str] = None) -> None:
        self.network = network
        #: Node name of the far side; None on an accepted connection
        #: until its HELLO arrives.
        self.peer = peer
        self.transport: Optional[asyncio.Transport] = None
        self.assembler = FrameAssembler()
        self.closed = False

    # -- asyncio.Protocol ------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]

    def data_received(self, data: bytes) -> None:
        try:
            bodies = self.assembler.feed(data)
            for body in bodies:
                self.network._on_frame(self, decode_body(body), len(body))
        except DecodeError as exc:
            # A corrupted byte stream: kill the connection; retransmission
            # above recovers whatever was in flight.
            self.network.stats_frames_corrupt += 1
            self.network._trace("rt.conn_corrupt", peer=self.peer, error=str(exc))
            self.abort()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.closed = True
        self.network._on_conn_lost(self)

    # -- sending ---------------------------------------------------------
    def write_frame(self, data: bytes) -> None:
        if not self.closed and self.transport is not None:
            self.transport.write(data)

    def abort(self) -> None:
        self.closed = True
        if self.transport is not None:
            self.transport.abort()


class TcpNetwork(NodeTable):
    """The ``Network`` surface of one process, over real sockets."""

    def __init__(self, driver, local_node: str) -> None:
        super().__init__(driver.env)
        self.driver = driver
        self.local_node = local_node
        #: Frames that failed to decode (corrupt byte streams).
        self.stats_frames_corrupt = 0
        #: Connections torn down (either direction, any reason).
        self.stats_conns_lost = 0
        #: Dials attempted / failed.
        self.stats_dials = 0
        self.stats_dial_failures = 0
        #: node name -> (host, port) for every *listening* peer process.
        self.book: Dict[str, Tuple[str, int]] = {}
        #: peer node -> established connection (either direction).
        self._conns: Dict[str, _Conn] = {}
        #: peer node -> frames waiting while a dial is in progress.
        self._dialing: Dict[str, List[bytes]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        #: Test hook: when > 0, every established connection is aborted
        #: after this many outgoing frames, simulating flaky peers.
        self.reset_after_frames = 0
        self._frames_on_conn: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Listening / dialing
    # ------------------------------------------------------------------
    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Accept connections for this process; returns the bound port."""
        loop = self.driver.loop
        self._server = await loop.create_server(lambda: _Conn(self), host, port)
        return self._server.sockets[0].getsockname()[1]

    async def _dial(self, peer: str) -> None:
        host, port = self.book[peer]
        loop = self.driver.loop
        self.stats_dials += 1
        try:
            _transport, conn = await loop.create_connection(
                lambda: _Conn(self, peer), host, port
            )
        except OSError:
            # Connection refused / unreachable: everything queued for this
            # dial is lost, exactly like datagrams into a partition.
            self.stats_dial_failures += 1
            lost = self._dialing.pop(peer, [])
            self.stats.messages_dropped_crash += len(lost)
            self._trace("rt.dial_failed", peer=peer, frames_lost=len(lost))
            return
        old = self._conns.get(peer)
        if old is not None and not old.closed:
            old.abort()
        self._conns[peer] = conn
        conn.write_frame(encode_frame(encode_hello(self.local_node)))
        for data in self._dialing.pop(peer, []):
            self._write(conn, data)

    # ------------------------------------------------------------------
    # Sending (the simulated-Network surface)
    # ------------------------------------------------------------------
    def tx_free_at(self, node: str) -> float:
        """Always idle: a socket write returns once the kernel holds the
        bytes, so a send never queues behind an earlier one here."""
        return 0.0

    def send(self, message: Message) -> None:
        src = self._nodes.get(message.src)
        if src is None:
            self.node(message.src)  # canonical KeyError
        if not src.alive:
            raise NodeDown("cannot send from crashed node %r" % (message.src,))
        env = self.env
        message.send_time = env._now
        dst_name = message.dst
        local = self._nodes.get(dst_name)
        if local is not None:
            # Same-process delivery: the simulator's same-node path,
            # on the next calendar tick.
            env.call_soon(self._finish_local, message, local)
        else:
            stats = self.stats
            stats.messages_sent += 1
            stats.kernel_calls += 1
            stats.bytes_sent += message.wire_bytes
            tracer = env.tracer
            if tracer is not None:
                tracer.emit(
                    "message.sent",
                    src=message.src,
                    dst=dst_name,
                    address=message.address,
                    bytes=message.wire_bytes,
                    payload=type(message.payload).__name__,
                )
            data = encode_frame(encode_packet(message.payload))
            conn = self._conns.get(dst_name)
            if conn is not None and not conn.closed:
                self._write(conn, data)
            elif dst_name in self._dialing:
                self._dialing[dst_name].append(data)
            elif dst_name in self.book:
                self._dialing[dst_name] = [data]
                self.driver.loop.create_task(self._dial(dst_name))
            else:
                # No route: equivalent to sending to a crashed node.
                stats.messages_dropped_crash += 1
                self._trace(
                    "message.dropped", src=message.src, dst=dst_name, reason="no_route"
                )

    def _write(self, conn: _Conn, data: bytes) -> None:
        conn.write_frame(data)
        if self.reset_after_frames > 0:
            key = id(conn)
            count = self._frames_on_conn.get(key, 0) + 1
            if count >= self.reset_after_frames:
                self._frames_on_conn.pop(key, None)
                conn.abort()
            else:
                self._frames_on_conn[key] = count

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _on_frame(self, conn: _Conn, decoded, nbytes: int) -> None:
        if isinstance(decoded, Hello):
            old = self._conns.get(decoded.node)
            conn.peer = decoded.node
            if old is not None and old is not conn and not old.closed:
                # The peer redialed; the newest connection wins.
                old.abort()
            self._conns[decoded.node] = conn
            return
        key = decoded.key
        if isinstance(decoded, CallPacket):
            src, dst, address = key.src_node, key.dst_node, key.dst_address
        else:
            src, dst, address = key.dst_node, key.src_node, key.src_address
        # Hop into the calendar: simulated "now" advances to real time
        # and the packet is delivered as one calendar entry, so handler
        # dispatch interleaves deterministically with due timers.
        self.driver.inject(self._deliver_remote, src, dst, address, decoded, nbytes)

    def _deliver_remote(
        self, src: str, dst: str, address: str, packet, nbytes: int
    ) -> None:
        node = self._nodes.get(dst)
        if node is None or not node.alive:
            self.stats.messages_dropped_crash += 1
            self._trace("message.dropped", src=src, dst=dst, reason="crash")
            return
        self.stats.messages_delivered += 1
        tracer = self.env.tracer
        if tracer is not None:
            # Clocks are per-process, so one-way latency is unknowable
            # here; charge 0 and let span timelines carry the truth.
            tracer.emit(
                "message.delivered",
                src=src,
                dst=dst,
                local=False,
                latency=0.0,
            )
        message = Message(src, dst, address, packet, nbytes)
        message.send_time = self.env._now
        node._deliver(message)

    # ------------------------------------------------------------------
    # Fault injection / shutdown
    # ------------------------------------------------------------------
    def _on_conn_lost(self, conn: _Conn) -> None:
        self.stats_conns_lost += 1
        self._frames_on_conn.pop(id(conn), None)
        if conn.peer is not None and self._conns.get(conn.peer) is conn:
            del self._conns[conn.peer]

    def drop_connections(self) -> int:
        """Abort every established connection (frames in flight are lost);
        the next send redials.  Returns the number dropped."""
        conns = [c for c in self._conns.values() if not c.closed]
        for conn in conns:
            conn.abort()
        return len(conns)

    def close(self) -> None:
        """Tear down the server and every connection."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for conn in list(self._conns.values()):
            conn.abort()
        self._conns.clear()
        self._dialing.clear()

    def _trace(self, etype: str, **fields) -> None:
        tracer = self.env.tracer
        if tracer is not None:
            tracer.emit(etype, **fields)
