"""Wire-level structures of the stream transport.

A physical network message carries exactly one packet: a
:class:`CallPacket` (sender → receiver: a batch of call requests) or a
:class:`ReplyPacket` (receiver → sender: a batch of replies plus
acknowledgement watermarks and possibly a break notice).  Packing *many*
entries into one packet is the buffering the paper's performance claims
rest on.

Payloads (call arguments, outcomes) are already bytes, produced by
:mod:`repro.encoding`; the header fields of the packets themselves are
charged a fixed byte cost each so message sizes remain honest.

Each packet knows its own ``route`` from its stream key, and
:func:`send_packet` is the one way any end of a stream puts a packet on
the network.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.net.message import Message
from repro.net.network import NodeDown

__all__ = [
    "KIND_RPC",
    "KIND_STREAM",
    "KIND_SEND",
    "KIND_BATCH",
    "StreamKey",
    "CallEntry",
    "CallPacket",
    "ReplyEntry",
    "ReplyPacket",
    "BreakNotice",
    "PACKET_HEADER_BYTES",
    "ENTRY_HEADER_BYTES",
    "SACK_RANGE_BYTES",
    "WINDOW_FIELD_BYTES",
    "send_packet",
]

#: An ordinary remote procedure call: transmitted immediately, caller waits.
KIND_RPC = "rpc"
#: A stream call: buffered, caller continues, reply resolves a promise.
KIND_STREAM = "stream"
#: A send: like a stream call, but a normal completion sends no reply data.
KIND_SEND = "send"
#: A batch frame: one entry carrying a whole epoch of graph routines for
#: one shard (see :mod:`repro.graph`).  Reply semantics are a send's —
#: normal completions are covered by the ``completed_seq`` watermark —
#: but the kind is distinct so traces and metrics can tell an epoch
#: frame from an application-level send.
KIND_BATCH = "batch"

#: Fixed header cost of a packet beyond the datagram header.
PACKET_HEADER_BYTES = 32
#: Fixed header cost of each call/reply entry inside a packet.
ENTRY_HEADER_BYTES = 24
#: Cost of each SACK (lo, hi) range carried on a reply packet.
SACK_RANGE_BYTES = 8
#: Cost of the advertised flow-control window, when present.
WINDOW_FIELD_BYTES = 4


class StreamKey:
    """Identity of a stream: one agent talking to one port group.

    "An agent and a port group together define a stream" (§2).  The key also
    carries the transport coordinates of both ends so replies can be routed
    back without any connection state in the network.
    """

    __slots__ = (
        "src_node",
        "src_address",
        "agent_id",
        "dst_node",
        "dst_address",
        "group_id",
        "_tuple",
        "_hash",
    )

    def __init__(
        self,
        src_node: str,
        src_address: str,
        agent_id: str,
        dst_node: str,
        dst_address: str,
        group_id: str,
    ) -> None:
        self.src_node = src_node
        self.src_address = src_address
        self.agent_id = agent_id
        self.dst_node = dst_node
        self.dst_address = dst_address
        self.group_id = group_id
        # Never mutated, and hashed or compared on every call (sender
        # lookup, packet routing): build the identity tuple once.
        self._tuple = (src_node, src_address, agent_id, dst_node, dst_address, group_id)
        self._hash = hash(self._tuple)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, StreamKey) and self._tuple == other._tuple
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "<StreamKey %s/%s -> %s/%s/%s>" % (
            self.src_node,
            self.agent_id,
            self.dst_node,
            self.dst_address,
            self.group_id,
        )


class CallEntry:
    """One call request inside a :class:`CallPacket`.

    ``span`` is the causal trace context ``(trace_id, span_id,
    parent_span_id)`` minted at the calling agent, or None when tracing is
    disabled.  It rides the entry so receiver-side events attach to the
    originating span; being observability metadata, it is not charged any
    wire bytes (the simulated packet sizes are identical traced or not).
    """

    __slots__ = ("seq", "port_id", "kind", "args_bytes", "span")

    def __init__(
        self,
        seq: int,
        port_id: str,
        kind: str,
        args_bytes: bytes,
        span: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        if kind not in (KIND_RPC, KIND_STREAM, KIND_SEND, KIND_BATCH):
            raise ValueError("unknown call kind %r" % (kind,))
        self.seq = seq
        self.port_id = port_id
        self.kind = kind
        self.args_bytes = args_bytes
        self.span = span

    @property
    def size(self) -> int:
        return ENTRY_HEADER_BYTES + len(self.port_id) + len(self.args_bytes)

    def __repr__(self) -> str:
        return "<CallEntry #%d %s %s %dB>" % (self.seq, self.kind, self.port_id, self.size)


class CallPacket:
    """A batch of call requests, sender → receiver."""

    __slots__ = (
        "key",
        "incarnation",
        "entries",
        "ack_reply_seq",
        "flush_replies",
        "synch_seq",
        "attempt",
    )

    def __init__(
        self,
        key: StreamKey,
        incarnation: int,
        entries: List[CallEntry],
        ack_reply_seq: int,
        flush_replies: bool = False,
        synch_seq: Optional[int] = None,
        attempt: int = 0,
    ) -> None:
        self.key = key
        self.incarnation = incarnation
        self.entries = list(entries)
        #: 0 for a first transmission, >0 for retransmissions and
        #: reply-gap probes.
        #: A receiver whose node has crashed must refuse to start a fresh
        #: stream from a retransmission: the entries may already have
        #: executed before the crash (exactly-once would be violated), so
        #: the stream breaks asynchronously instead.
        self.attempt = attempt
        #: Cumulative: the sender has resolved all replies up to this seq,
        #: so the receiver may garbage-collect its reply buffer.
        self.ack_reply_seq = ack_reply_seq
        #: The paper's ``flush``: "the flushing back of replies at the other
        #: side".
        self.flush_replies = flush_replies
        #: The paper's ``synch``: receiver flushes replies as soon as its
        #: completion watermark reaches this sequence number.
        self.synch_seq = synch_seq

    @property
    def size(self) -> int:
        return PACKET_HEADER_BYTES + sum(entry.size for entry in self.entries)

    @property
    def route(self) -> Tuple[str, str, str]:
        """``(src node, dst node, address)``: calls travel from the
        agent's node to the port group's address."""
        key = self.key
        return key.src_node, key.dst_node, key.dst_address

    def __repr__(self) -> str:
        return "<CallPacket inc=%d n=%d %r>" % (
            self.incarnation,
            len(self.entries),
            [e.seq for e in self.entries],
        )


class ReplyEntry:
    """One call outcome inside a :class:`ReplyPacket`."""

    __slots__ = ("seq", "outcome_bytes")

    def __init__(self, seq: int, outcome_bytes: bytes) -> None:
        self.seq = seq
        self.outcome_bytes = outcome_bytes

    @property
    def size(self) -> int:
        return ENTRY_HEADER_BYTES + len(self.outcome_bytes)

    def __repr__(self) -> str:
        return "<ReplyEntry #%d %dB>" % (self.seq, self.size)


class BreakNotice:
    """Receiver → sender notification that the stream is broken.

    ``synchronous`` breaks happen "after the reply to a call; that call and
    all calls before it will be unaffected"; ``after_seq`` is that boundary.
    ``permanent`` distinguishes ``failure`` causes (no such guardian/port)
    from ``unavailable`` ones.
    """

    __slots__ = ("synchronous", "after_seq", "reason", "permanent")

    def __init__(
        self,
        synchronous: bool,
        after_seq: int,
        reason: str,
        permanent: bool = False,
    ) -> None:
        self.synchronous = synchronous
        self.after_seq = after_seq
        self.reason = reason
        self.permanent = permanent

    def __repr__(self) -> str:
        mode = "sync" if self.synchronous else "async"
        return "<BreakNotice %s after=%d %r>" % (mode, self.after_seq, self.reason)


class ReplyPacket:
    """A batch of replies plus acknowledgement state, receiver → sender.

    ``sack_ranges`` are selective acknowledgements: closed ``(lo, hi)``
    seq ranges the receiver holds *beyond* the cumulative ``ack_call_seq``
    (out-of-order arrivals waiting for the gap to fill).  The sender skips
    them when retransmitting.  ``window`` is the receiver's advertised
    flow-control window: its constant cap (``max_inflight_calls``) on
    transmitted-but-unresolved calls, which the sender does the
    accounting against.  Every packet a receiver builds carries it;
    ``None`` survives only for packets decoded off a socket without the
    window-present flag, and leaves the sender's own cap in force.
    """

    __slots__ = (
        "key",
        "incarnation",
        "entries",
        "ack_call_seq",
        "completed_seq",
        "broken",
        "sack_ranges",
        "window",
    )

    def __init__(
        self,
        key: StreamKey,
        incarnation: int,
        entries: List[ReplyEntry],
        ack_call_seq: int,
        completed_seq: int,
        broken: Optional[BreakNotice] = None,
        sack_ranges: Tuple[Tuple[int, int], ...] = (),
        window: Optional[int] = None,
    ) -> None:
        self.key = key
        self.incarnation = incarnation
        self.entries = list(entries)
        #: Cumulative: all calls up to this seq have been received in order.
        self.ack_call_seq = ack_call_seq
        #: Cumulative: all calls up to this seq have finished executing
        #: (covers sends, whose normal completions carry no reply entry).
        self.completed_seq = completed_seq
        self.broken = broken
        self.sack_ranges = tuple(sack_ranges)
        self.window = window

    @property
    def size(self) -> int:
        size = PACKET_HEADER_BYTES + sum(entry.size for entry in self.entries)
        size += SACK_RANGE_BYTES * len(self.sack_ranges)
        if self.window is not None:
            size += WINDOW_FIELD_BYTES
        return size

    @property
    def route(self) -> Tuple[str, str, str]:
        """``(src node, dst node, address)``: replies travel back from the
        port group's node to the agent's endpoint."""
        key = self.key
        return key.dst_node, key.src_node, key.src_address

    def __repr__(self) -> str:
        extras = ""
        if self.sack_ranges:
            extras += " sack=%r" % (list(self.sack_ranges),)
        if self.window is not None:
            extras += " win=%d" % self.window
        return "<ReplyPacket inc=%d n=%d ack=%d done=%d%s%s>" % (
            self.incarnation,
            len(self.entries),
            self.ack_call_seq,
            self.completed_seq,
            extras,
            " BROKEN" if self.broken else "",
        )


def send_packet(network: Any, packet: Any) -> bool:
    """Put *packet* on *network* as one datagram along its route.

    Returns False when the sending node is down: the packet is lost with
    it, and the guardian that would have sent it is dead anyway.
    """
    src, dst, address = packet.route
    try:
        network.send(Message(src, dst, address, packet, packet.size))
    except NodeDown:
        return False
    return True
