"""Network messages and size accounting.

The paper's performance argument for streams is about *physical* messages:

    "Stream calls and their replies, however, are buffered and sent when
     convenient ...  Buffering allows us to amortize the overhead of kernel
     calls and the transmission delays for messages over several calls,
     especially for small calls and replies."

A :class:`Message` is one physical datagram.  Its payload is opaque to the
network; the transport layer packs one or many call requests / replies /
acks into it.  Sizes are explicit so the cost model can charge transmission
time per byte.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Message", "HEADER_BYTES"]

#: Fixed per-datagram header cost in bytes (addressing, checksums, ...).
HEADER_BYTES = 64


class Message:
    """One physical datagram travelling between two nodes."""

    __slots__ = (
        "src",
        "dst",
        "address",
        "payload",
        "payload_bytes",
        "wire_bytes",
        "send_time",
        "dst_incarnation",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        address: str,
        payload: Any,
        payload_bytes: int,
    ) -> None:
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be >= 0, got %r" % (payload_bytes,))
        self.src = src
        self.dst = dst
        self.address = address
        self.payload = payload
        self.payload_bytes = payload_bytes
        #: Total bytes on the wire including the datagram header.  A plain
        #: attribute (not a property): the network reads it several times
        #: per send on the hot path.
        self.wire_bytes = HEADER_BYTES + payload_bytes
        self.send_time: float = -1.0
        #: Destination node incarnation at send time, stamped by the
        #: network.  A crash flushes the NIC queue: a datagram addressed
        #: to a previous incarnation is never delivered to the next one
        #: (otherwise a chaos-duplicated copy of an old stream's first
        #: packet could re-open the stream on a recovered node and
        #: re-execute already-delivered calls).  -1 until stamped.
        self.dst_incarnation: int = -1

    def __repr__(self) -> str:
        return "<Message %s->%s/%s %dB>" % (
            self.src,
            self.dst,
            self.address,
            self.wire_bytes,
        )
