"""Binary framing of stream packets for real-socket transports.

The simulator hands :class:`~repro.streams.wire.CallPacket` /
:class:`~repro.streams.wire.ReplyPacket` objects straight to the peer; a
real transport (:mod:`repro.rt`) has to put them on a byte stream.  This
module is that wire format: each packet becomes one **frame** —

    ``[4-byte big-endian body length] [1-byte frame type] [body ...]``

— so a TCP stream of frames is self-delimiting and a reader can recover
packet boundaries from arbitrarily torn reads (:class:`FrameAssembler`).
Call arguments and outcomes inside the packets are already bytes,
produced by the compiled flat codecs (:mod:`repro.encoding.xrep`); this
layer only serializes the packet *structure* around them.  Each fixed
part — a packet header, a call or reply entry head — is one struct, so
it costs one ``pack`` to write and one ``unpack_from`` to read.

Three frame types exist:

* ``HELLO`` — sent once by the dialing side of a TCP connection to
  identify which node it carries traffic for, so the acceptor can route
  replies back over the same connection;
* ``CALL`` — a :class:`CallPacket`;
* ``REPLY`` — a :class:`ReplyPacket`.

A packet names its stream by a **per-connection reference**, not by the
six strings of its :class:`StreamKey`.  Each direction of a connection
has its own table: the encoder's ``refs`` dict (key -> ref) and the
decoder's ``keys`` list (ref -> key), both empty when the connection
opens.  The first frame that uses a key carries ``ref == len(table)``
and, after its header, the key's six strings; later frames carry the
``u32`` ref alone, and the decoder hands back the same key object for
every one of them.  A ref beyond ``len(table)`` is malformed.  TCP keeps
one connection's frames in order, and a table lives and dies with its
connection, so a definition always arrives before its uses.

Every malformed input — truncation, trailing garbage, unknown type,
kind or flag bytes, invalid UTF-8, undefined refs, oversized length
prefixes — raises :class:`~repro.encoding.errors.DecodeError` and
nothing else, so a transport can treat any decode failure as a
corrupted connection.  A frame that fails to decode leaves the key
table as it was.
"""

from __future__ import annotations

import struct
from typing import Any, Dict, List, Tuple, Union

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
_SPAN = struct.Struct(">qqq")
#: type, key ref, incarnation, ack_reply_seq, flags, attempt, entry count
_CALL_HEAD = struct.Struct(">BIIqBII")
#: seq, kind byte, span-presence byte, port-id length, args length
_CALL_ENTRY = struct.Struct(">qBBII")
#: type, key ref, incarnation, ack_call_seq, completed_seq, flags,
#: SACK-range count, entry count
_REPLY_HEAD = struct.Struct(">BIIqqBII")
#: seq, outcome length
_REPLY_ENTRY = struct.Struct(">qI")
#: break flags, after_seq, reason length
_BREAK = struct.Struct(">BqI")
_WINDOW = struct.Struct(">I")
_SACK = struct.Struct(">qq")
#: The lengths of a key definition's six strings.
_KEY = struct.Struct(">6I")

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
def encode_hello(node: str) -> bytes:
    """The body of a ``HELLO`` frame for *node*."""
    data = node.encode("utf-8")
    return bytes((FRAME_HELLO,)) + _LEN.pack(len(data)) + data


def _encode_call(packet: CallPacket, ref: int, definition: bytes) -> bytes:
    synch_seq = packet.synch_seq
    flags = (1 if packet.flush_replies else 0) | (0 if synch_seq is None else 2)
    entries = packet.entries
    head = (FRAME_CALL, ref, packet.incarnation, packet.ack_reply_seq, flags, packet.attempt)
    out = bytearray(_CALL_HEAD.pack(*head, len(entries)))
    out += definition
    if synch_seq is not None:
        out += _SEQ.pack(synch_seq)
    for entry in entries:
        port = entry.port_id.encode("utf-8")
        args = entry.args_bytes
        span = entry.span
        out += _CALL_ENTRY.pack(
            entry.seq, _KIND_TO_BYTE[entry.kind], span is not None, len(port), len(args)
        )
        out += port
        out += args
        if span is not None:
            out += _SPAN.pack(*span)
    return bytes(out)


def _encode_reply(packet: ReplyPacket, ref: int, definition: bytes) -> bytes:
    broken = packet.broken
    window = packet.window
    flags = (0 if broken is None else 1) | (0 if window is None else 2)
    entries = packet.entries
    head = (FRAME_REPLY, ref, packet.incarnation, packet.ack_call_seq, packet.completed_seq)
    out = bytearray(_REPLY_HEAD.pack(*head, flags, len(packet.sack_ranges), len(entries)))
    out += definition
    if broken is not None:
        reason = broken.reason.encode("utf-8")
        bflags = (1 if broken.synchronous else 0) | (2 if broken.permanent else 0)
        out += _BREAK.pack(bflags, broken.after_seq, len(reason))
        out += reason
    if window is not None:
        out += _WINDOW.pack(window)
    for lo, hi in packet.sack_ranges:
        out += _SACK.pack(lo, hi)
    for entry in entries:
        outcome = entry.outcome_bytes
        out += _REPLY_ENTRY.pack(entry.seq, len(outcome))
        out += outcome
    return bytes(out)


def encode_packet(
    packet: Union[CallPacket, ReplyPacket], refs: Dict[StreamKey, int]
) -> bytes:
    """The frame body for *packet* (no length prefix), naming its stream
    through the connection's outgoing table *refs*: a key's first frame
    defines it, and the table records it once that frame is built."""
    if isinstance(packet, CallPacket):
        encode = _encode_call
    elif isinstance(packet, ReplyPacket):
        encode = _encode_reply
    else:
        raise TypeError("cannot frame %r" % (packet,))
    key = packet.key
    ref = refs.get(key)
    if ref is not None:
        return encode(packet, ref, b"")
    fields = [text.encode("utf-8") for text in key._tuple]
    body = encode(packet, len(refs), _KEY.pack(*map(len, fields)) + b"".join(fields))
    refs[key] = len(refs)
    return body


def encode_frame(body: bytes) -> bytes:
    """A complete frame: 4-byte length prefix plus *body*."""
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError("frame body of %d bytes exceeds limit" % (len(body),))
    return _LEN.pack(len(body)) + body


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def _take(data: bytes, pos: int, count: int) -> Tuple[bytes, int]:
    end = pos + count
    if end > len(data):
        raise DecodeError(
            "truncated frame: wanted %d bytes at offset %d of %d" % (count, pos, len(data))
        )
    return data[pos:end], end


def _text(raw: bytes) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid UTF-8 in frame: %s" % (exc,)) from None


def _r_key(data: bytes, pos: int, ref: int, keys: List[StreamKey]) -> Tuple[StreamKey, int]:
    """The key *ref* names and the offset after it; a key the frame
    defines comes back as a new :class:`StreamKey`, not yet in *keys*."""
    if ref < len(keys):
        return keys[ref], pos
    if ref > len(keys):
        raise DecodeError("stream ref %d is beyond the %d defined" % (ref, len(keys)))
    lengths = _KEY.unpack_from(data, pos)
    pos += _KEY.size
    fields = []
    for length in lengths:
        raw, pos = _take(data, pos, length)
        fields.append(_text(raw))
    return StreamKey(*fields), pos


def _done(data: bytes, pos: int) -> None:
    if pos != len(data):
        raise DecodeError("%d trailing bytes after frame payload" % (len(data) - pos,))


def _decode_call(data: bytes, keys: List[StreamKey]) -> CallPacket:
    _, ref, incarnation, ack_reply_seq, flags, attempt, count = _CALL_HEAD.unpack_from(data)
    if flags & ~3:
        raise DecodeError("unknown call-packet flags 0x%02x" % (flags,))
    key, pos = _r_key(data, _CALL_HEAD.size, ref, keys)
    synch_seq = None
    if flags & 2:
        (synch_seq,) = _SEQ.unpack_from(data, pos)
        pos += _SEQ.size
    entries: List[CallEntry] = []
    for _ in range(count):
        seq, kind_byte, span_flag, port_len, args_len = _CALL_ENTRY.unpack_from(data, pos)
        kind = _BYTE_TO_KIND.get(kind_byte)
        if kind is None:
            raise DecodeError("unknown call kind byte %d" % (kind_byte,))
        if span_flag > 1:
            raise DecodeError("unknown span-presence byte %d" % (span_flag,))
        port, pos = _take(data, pos + _CALL_ENTRY.size, port_len)
        args, pos = _take(data, pos, args_len)
        span = None
        if span_flag:
            span = _SPAN.unpack_from(data, pos)
            pos += _SPAN.size
        entries.append(CallEntry(seq, _text(port), kind, args, span))
    _done(data, pos)
    if ref == len(keys):
        keys.append(key)
    return CallPacket(
        key,
        incarnation,
        entries,
        ack_reply_seq=ack_reply_seq,
        flush_replies=bool(flags & 1),
        synch_seq=synch_seq,
        attempt=attempt,
    )


def _decode_reply(data: bytes, keys: List[StreamKey]) -> ReplyPacket:
    (_, ref, incarnation, ack_call_seq, completed_seq, flags, sack_count, count) = (
        _REPLY_HEAD.unpack_from(data)
    )
    if flags & ~3:
        raise DecodeError("unknown reply-packet flags 0x%02x" % (flags,))
    key, pos = _r_key(data, _REPLY_HEAD.size, ref, keys)
    broken = None
    if flags & 1:
        bflags, after_seq, reason_len = _BREAK.unpack_from(data, pos)
        if bflags & ~3:
            raise DecodeError("unknown break flags 0x%02x" % (bflags,))
        reason, pos = _take(data, pos + _BREAK.size, reason_len)
        broken = BreakNotice(
            synchronous=bool(bflags & 1),
            after_seq=after_seq,
            reason=_text(reason),
            permanent=bool(bflags & 2),
        )
    window = None
    if flags & 2:
        (window,) = _WINDOW.unpack_from(data, pos)
        pos += _WINDOW.size
    sack_ranges = []
    for _ in range(sack_count):
        sack_ranges.append(_SACK.unpack_from(data, pos))
        pos += _SACK.size
    entries = []
    for _ in range(count):
        seq, length = _REPLY_ENTRY.unpack_from(data, pos)
        outcome, pos = _take(data, pos + _REPLY_ENTRY.size, length)
        entries.append(ReplyEntry(seq, outcome))
    _done(data, pos)
    if ref == len(keys):
        keys.append(key)
    return ReplyPacket(
        key,
        incarnation,
        entries,
        ack_call_seq=ack_call_seq,
        completed_seq=completed_seq,
        broken=broken,
        sack_ranges=tuple(sack_ranges),
        window=window,
    )


def decode_body(body: bytes, keys: List[StreamKey]) -> Any:
    """Decode one frame body into a :class:`Hello`, :class:`CallPacket`
    or :class:`ReplyPacket`, resolving stream refs through the
    connection's incoming table *keys* (a definition is appended once
    the whole frame has decoded); :class:`DecodeError` on anything
    malformed."""
    if not body:
        raise DecodeError("empty frame body")
    data = bytes(body)
    ftype = data[0]
    try:
        if ftype == FRAME_CALL:
            return _decode_call(data, keys)
        if ftype == FRAME_REPLY:
            return _decode_reply(data, keys)
        if ftype == FRAME_HELLO:
            (length,) = _LEN.unpack_from(data, 1)
            node, pos = _take(data, 1 + _LEN.size, length)
            _done(data, pos)
            return Hello(_text(node))
    except struct.error as exc:
        raise DecodeError("truncated frame: %s" % (exc,)) from None
    raise DecodeError("unknown frame type byte %d" % (ftype,))


class FrameAssembler:
    """Reassembles frames from an arbitrarily chunked byte stream.

    ``feed(data)`` returns the bodies of every frame completed by *data*,
    holding partial length prefixes and partial bodies across calls — a
    torn read anywhere (even mid-prefix) is handled.  The assembler only
    splits the stream; bodies still go through :func:`decode_body`.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered toward an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb *data*; return the bodies of all frames now complete."""
        buffer = self._buffer
        buffer += data
        bodies: List[bytes] = []
        pos = 0
        end = len(buffer)
        while end - pos >= 4:
            (need,) = _LEN.unpack_from(buffer, pos)
            if need > MAX_FRAME_BYTES:
                raise DecodeError(
                    "announced frame of %d bytes exceeds the %d-byte limit"
                    % (need, MAX_FRAME_BYTES)
                )
            if end - pos - 4 < need:
                break
            pos += 4
            bodies.append(bytes(buffer[pos : pos + need]))
            pos += need
        # One cut per read, however many frames it held.
        del buffer[:pos]
        return bodies
