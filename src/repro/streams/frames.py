"""Binary framing of stream packets for real-socket transports.

The simulator hands :class:`~repro.streams.wire.CallPacket` /
:class:`~repro.streams.wire.ReplyPacket` objects straight to the peer; a
real transport (:mod:`repro.rt`) has to put them on a byte stream.  This
module is that wire format: each packet becomes one **frame** —

    ``[4-byte big-endian body length] [1-byte frame type] [body ...]``

— so a TCP stream of frames is self-delimiting and a reader can recover
packet boundaries from arbitrarily torn reads (:class:`FrameAssembler`).
Call arguments and outcomes inside the packets are already bytes,
produced by the PR 7 compiled flat codecs (:mod:`repro.encoding.xrep`);
this layer only serializes the packet *structure* around them, in the
same big-endian struct style as the value codecs.

Three frame types exist:

* ``HELLO`` — sent once by the dialing side of a TCP connection to
  identify which node it carries traffic for, so the acceptor can route
  replies back over the same connection;
* ``CALL`` — a :class:`CallPacket`;
* ``REPLY`` — a :class:`ReplyPacket`.

Every malformed input — truncation, trailing garbage, unknown type or
kind bytes, invalid UTF-8, oversized length prefixes — raises
:class:`~repro.encoding.errors.DecodeError` and nothing else, so a
transport can treat any decode failure as a corrupted connection.
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional, Tuple, Union

from repro.encoding.errors import DecodeError
from repro.streams.wire import (
    KIND_BATCH,
    KIND_RPC,
    KIND_SEND,
    KIND_STREAM,
    BreakNotice,
    CallEntry,
    CallPacket,
    ReplyEntry,
    ReplyPacket,
    StreamKey,
)

__all__ = [
    "FRAME_HELLO",
    "FRAME_CALL",
    "FRAME_REPLY",
    "MAX_FRAME_BYTES",
    "Hello",
    "encode_hello",
    "encode_packet",
    "encode_frame",
    "decode_body",
    "FrameAssembler",
]

#: Frame type bytes (the first byte of every frame body).
FRAME_HELLO = 0
FRAME_CALL = 1
FRAME_REPLY = 2

#: Hard ceiling on one frame's body size.  A stream that announces more
#: than this is corrupt (or hostile); the assembler refuses it rather
#: than buffering without bound.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct(">I")
_SEQ = struct.Struct(">q")
_U32 = struct.Struct(">I")
_SPAN = struct.Struct(">qqq")

#: Call kinds on the wire; must stay stable across versions.
_KIND_TO_BYTE = {KIND_RPC: 1, KIND_STREAM: 2, KIND_SEND: 3, KIND_BATCH: 4}
_BYTE_TO_KIND = {code: kind for kind, code in _KIND_TO_BYTE.items()}


class Hello:
    """Decoded ``HELLO`` frame: the peer node this connection speaks for."""

    __slots__ = ("node",)

    def __init__(self, node: str) -> None:
        self.node = node

    def __repr__(self) -> str:
        return "<Hello %s>" % (self.node,)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _w_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _LEN.pack(len(data))
    out += data


def _w_bytes(out: bytearray, data: bytes) -> None:
    out += _LEN.pack(len(data))
    out += data


def _w_key(out: bytearray, key: StreamKey) -> None:
    _w_str(out, key.src_node)
    _w_str(out, key.src_address)
    _w_str(out, key.agent_id)
    _w_str(out, key.dst_node)
    _w_str(out, key.dst_address)
    _w_str(out, key.group_id)


def encode_hello(node: str) -> bytes:
    """The body of a ``HELLO`` frame for *node*."""
    out = bytearray((FRAME_HELLO,))
    _w_str(out, node)
    return bytes(out)


def _encode_call(packet: CallPacket) -> bytes:
    out = bytearray((FRAME_CALL,))
    _w_key(out, packet.key)
    out += _U32.pack(packet.incarnation)
    out += _SEQ.pack(packet.ack_reply_seq)
    flags = 0
    if packet.flush_replies:
        flags |= 1
    if packet.synch_seq is not None:
        flags |= 2
    out.append(flags)
    if packet.synch_seq is not None:
        out += _SEQ.pack(packet.synch_seq)
    out += _U32.pack(packet.attempt)
    out += _U32.pack(len(packet.entries))
    for entry in packet.entries:
        out += _SEQ.pack(entry.seq)
        _w_str(out, entry.port_id)
        out.append(_KIND_TO_BYTE[entry.kind])
        _w_bytes(out, bytes(entry.args_bytes))
        if entry.span is None:
            out.append(0)
        else:
            out.append(1)
            out += _SPAN.pack(*entry.span)
    return bytes(out)


def _encode_reply(packet: ReplyPacket) -> bytes:
    out = bytearray((FRAME_REPLY,))
    _w_key(out, packet.key)
    out += _U32.pack(packet.incarnation)
    out += _SEQ.pack(packet.ack_call_seq)
    out += _SEQ.pack(packet.completed_seq)
    flags = 0
    if packet.broken is not None:
        flags |= 1
    if packet.window is not None:
        flags |= 2
    out.append(flags)
    broken = packet.broken
    if broken is not None:
        out.append((1 if broken.synchronous else 0) | (2 if broken.permanent else 0))
        out += _SEQ.pack(broken.after_seq)
        _w_str(out, broken.reason)
    if packet.window is not None:
        out += _U32.pack(packet.window)
    out += _U32.pack(len(packet.sack_ranges))
    for lo, hi in packet.sack_ranges:
        out += _SEQ.pack(lo)
        out += _SEQ.pack(hi)
    out += _U32.pack(len(packet.entries))
    for entry in packet.entries:
        out += _SEQ.pack(entry.seq)
        _w_bytes(out, bytes(entry.outcome_bytes))
    return bytes(out)


def encode_packet(packet: Union[CallPacket, ReplyPacket]) -> bytes:
    """The frame body for *packet* (no length prefix)."""
    if isinstance(packet, CallPacket):
        return _encode_call(packet)
    if isinstance(packet, ReplyPacket):
        return _encode_reply(packet)
    raise TypeError("cannot frame %r" % (packet,))


def encode_frame(body: bytes) -> bytes:
    """A complete frame: 4-byte length prefix plus *body*."""
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError("frame body of %d bytes exceeds limit" % (len(body),))
    return _LEN.pack(len(body)) + body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
class _Reader:
    """Offset-threaded reader over one frame body."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        data = self.data
        pos = self.pos
        end = pos + count
        if end > len(data):
            raise DecodeError(
                "truncated frame: wanted %d bytes at offset %d of %d"
                % (count, pos, len(data))
            )
        self.pos = end
        return data[pos:end]

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def seq(self) -> int:
        return _SEQ.unpack(self.take(8))[0]

    def span(self) -> Tuple[int, int, int]:
        return _SPAN.unpack(self.take(24))

    def str_(self) -> str:
        length = self.u32()
        if length > MAX_FRAME_BYTES:
            raise DecodeError("string length %d exceeds frame limit" % (length,))
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in frame: %s" % (exc,)) from None

    def bytes_(self) -> bytes:
        length = self.u32()
        if length > MAX_FRAME_BYTES:
            raise DecodeError("byte-field length %d exceeds frame limit" % (length,))
        return self.take(length)

    def done(self) -> None:
        if self.pos != len(self.data):
            raise DecodeError(
                "%d trailing bytes after frame payload" % (len(self.data) - self.pos,)
            )


def _r_key(r: _Reader) -> StreamKey:
    return StreamKey(
        src_node=r.str_(),
        src_address=r.str_(),
        agent_id=r.str_(),
        dst_node=r.str_(),
        dst_address=r.str_(),
        group_id=r.str_(),
    )


def _decode_call(r: _Reader) -> CallPacket:
    key = _r_key(r)
    incarnation = r.u32()
    ack_reply_seq = r.seq()
    flags = r.u8()
    if flags & ~3:
        raise DecodeError("unknown call-packet flags 0x%02x" % (flags,))
    synch_seq: Optional[int] = r.seq() if flags & 2 else None
    attempt = r.u32()
    count = r.u32()
    entries: List[CallEntry] = []
    for _ in range(count):
        seq = r.seq()
        port_id = r.str_()
        kind_byte = r.u8()
        kind = _BYTE_TO_KIND.get(kind_byte)
        if kind is None:
            raise DecodeError("unknown call kind byte %d" % (kind_byte,))
        args_bytes = r.bytes_()
        span_flag = r.u8()
        if span_flag > 1:
            raise DecodeError("unknown span-presence byte %d" % (span_flag,))
        span = r.span() if span_flag else None
        entries.append(CallEntry(seq, port_id, kind, args_bytes, span))
    r.done()
    return CallPacket(
        key,
        incarnation,
        entries,
        ack_reply_seq=ack_reply_seq,
        flush_replies=bool(flags & 1),
        synch_seq=synch_seq,
        attempt=attempt,
    )


def _decode_reply(r: _Reader) -> ReplyPacket:
    key = _r_key(r)
    incarnation = r.u32()
    ack_call_seq = r.seq()
    completed_seq = r.seq()
    flags = r.u8()
    if flags & ~3:
        raise DecodeError("unknown reply-packet flags 0x%02x" % (flags,))
    broken: Optional[BreakNotice] = None
    if flags & 1:
        bflags = r.u8()
        if bflags & ~3:
            raise DecodeError("unknown break flags 0x%02x" % (bflags,))
        after_seq = r.seq()
        reason = r.str_()
        broken = BreakNotice(
            synchronous=bool(bflags & 1),
            after_seq=after_seq,
            reason=reason,
            permanent=bool(bflags & 2),
        )
    window: Optional[int] = r.u32() if flags & 2 else None
    sack_count = r.u32()
    sack_ranges = tuple((r.seq(), r.seq()) for _ in range(sack_count))
    count = r.u32()
    entries = [ReplyEntry(r.seq(), r.bytes_()) for _ in range(count)]
    r.done()
    return ReplyPacket(
        key,
        incarnation,
        entries,
        ack_call_seq=ack_call_seq,
        completed_seq=completed_seq,
        broken=broken,
        sack_ranges=sack_ranges,
        window=window,
    )


def decode_body(body: bytes) -> Any:
    """Decode one frame body into a :class:`Hello`, :class:`CallPacket`
    or :class:`ReplyPacket`; :class:`DecodeError` on anything malformed."""
    if not body:
        raise DecodeError("empty frame body")
    r = _Reader(bytes(body))
    ftype = r.u8()
    if ftype == FRAME_HELLO:
        node = r.str_()
        r.done()
        return Hello(node)
    if ftype == FRAME_CALL:
        return _decode_call(r)
    if ftype == FRAME_REPLY:
        return _decode_reply(r)
    raise DecodeError("unknown frame type byte %d" % (ftype,))


class FrameAssembler:
    """Reassembles frames from an arbitrarily chunked byte stream.

    ``feed(data)`` returns the bodies of every frame completed by *data*,
    holding partial length prefixes and partial bodies across calls — a
    torn read anywhere (even mid-prefix) is handled.  The assembler only
    splits the stream; bodies still go through :func:`decode_body`.
    """

    __slots__ = ("_buffer", "_need")

    def __init__(self) -> None:
        self._buffer = bytearray()
        #: Body length of the frame under assembly, or None while the
        #: 4-byte prefix itself is incomplete.
        self._need: Optional[int] = None

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb *data*; return the bodies of all frames now complete."""
        self._buffer += data
        bodies: List[bytes] = []
        buffer = self._buffer
        while True:
            if self._need is None:
                if len(buffer) < 4:
                    break
                need = _LEN.unpack(bytes(buffer[:4]))[0]
                if need > MAX_FRAME_BYTES:
                    raise DecodeError(
                        "announced frame of %d bytes exceeds the %d-byte limit"
                        % (need, MAX_FRAME_BYTES)
                    )
                del buffer[:4]
                self._need = need
            if len(buffer) < self._need:
                break
            bodies.append(bytes(buffer[: self._need]))
            del buffer[: self._need]
            self._need = None
        return bodies
