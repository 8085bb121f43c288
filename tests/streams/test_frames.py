"""The socket frame codec: round trips, torn reads, malformed input.

These tests are fully deterministic (no sockets, no clocks) and run in
tier-1; the real-socket integration lives in ``tests/rt`` behind the
``wallclock`` marker.
"""

import random
import struct

import pytest

from repro.encoding.errors import DecodeError
from repro.streams.frames import (
    MAX_FRAME_BYTES,
    FrameAssembler,
    Hello,
    decode_body,
    encode_frame,
    encode_hello,
    encode_packet,
)
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


def make_key(**overrides):
    fields = dict(
        src_node="node:client",
        src_address="g:client",
        agent_id="client/7",
        dst_node="node:server",
        dst_address="g:server",
        group_id="main",
    )
    fields.update(overrides)
    return StreamKey(**fields)


def sample_call_packets():
    key = make_key()
    return [
        CallPacket(key, 0, [], ack_reply_seq=0),
        CallPacket(
            key,
            3,
            [
                CallEntry(1, "echo", KIND_STREAM, b"\x01\x02\x03", (7, 8, 0)),
                CallEntry(2, "put", KIND_SEND, b"", None),
                CallEntry(3, "get", KIND_RPC, b"\xff" * 100, (7, 9, 8)),
            ],
            ack_reply_seq=41,
            flush_replies=True,
            synch_seq=17,
            attempt=2,
        ),
        CallPacket(
            make_key(agent_id="agént/☃", group_id="grp"),
            1,
            [CallEntry(10**12, "h" * 50, KIND_STREAM, bytes(range(256)))],
            ack_reply_seq=10**12 - 1,
        ),
        # A graph epoch frame, as GraphRuntime hands it to TcpNetwork.
        CallPacket(key, 0, [CallEntry(1, "epoch", KIND_BATCH, b"zz")], ack_reply_seq=0),
    ]


def sample_reply_packets():
    key = make_key()
    return [
        ReplyPacket(key, 0, [], ack_call_seq=0, completed_seq=0),
        ReplyPacket(
            key,
            2,
            [ReplyEntry(4, b"ok"), ReplyEntry(5, b"")],
            ack_call_seq=5,
            completed_seq=4,
            sack_ranges=((8, 9), (12, 15)),
            window=64,
        ),
        ReplyPacket(
            key,
            1,
            [],
            ack_call_seq=3,
            completed_seq=3,
            broken=BreakNotice(
                synchronous=True, after_seq=3, reason="no such port", permanent=True
            ),
        ),
        ReplyPacket(
            key,
            1,
            [],
            ack_call_seq=0,
            completed_seq=0,
            broken=BreakNotice(
                synchronous=False, after_seq=0, reason="crash ☠", permanent=False
            ),
            window=0,
        ),
    ]


def assert_packets_equal(a, b):
    assert type(a) is type(b)
    assert a.key == b.key
    assert a.incarnation == b.incarnation
    if isinstance(a, CallPacket):
        assert a.ack_reply_seq == b.ack_reply_seq
        assert a.flush_replies == b.flush_replies
        assert a.synch_seq == b.synch_seq
        assert a.attempt == b.attempt
        assert len(a.entries) == len(b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert (ea.seq, ea.port_id, ea.kind, bytes(ea.args_bytes), ea.span) == (
                eb.seq,
                eb.port_id,
                eb.kind,
                bytes(eb.args_bytes),
                eb.span,
            )
    else:
        assert a.ack_call_seq == b.ack_call_seq
        assert a.completed_seq == b.completed_seq
        assert a.sack_ranges == b.sack_ranges
        assert a.window == b.window
        assert (a.broken is None) == (b.broken is None)
        if a.broken is not None:
            assert (
                a.broken.synchronous,
                a.broken.after_seq,
                a.broken.reason,
                a.broken.permanent,
            ) == (
                b.broken.synchronous,
                b.broken.after_seq,
                b.broken.reason,
                b.broken.permanent,
            )
        assert len(a.entries) == len(b.entries)
        for ea, eb in zip(a.entries, b.entries):
            assert (ea.seq, bytes(ea.outcome_bytes)) == (eb.seq, bytes(eb.outcome_bytes))


ALL_PACKETS = sample_call_packets() + sample_reply_packets()


def torn(rng, stream, max_step):
    """*stream* as a socket might deliver it: in random-sized reads."""
    pos = 0
    while pos < len(stream):
        step = rng.randint(1, max_step)
        yield bytes(stream[pos : pos + step])
        pos += step


@pytest.mark.parametrize("index", range(len(ALL_PACKETS)))
def test_packet_round_trip(index):
    packet = ALL_PACKETS[index]
    body = encode_packet(packet)
    assert_packets_equal(packet, decode_body(body))


def test_hello_round_trip():
    body = encode_hello("node:écho-1")
    hello = decode_body(body)
    assert isinstance(hello, Hello)
    assert hello.node == "node:écho-1"


def test_encoding_is_deterministic():
    for packet in ALL_PACKETS:
        assert encode_packet(packet) == encode_packet(packet)


def test_assembler_byte_by_byte():
    bodies = [encode_packet(p) for p in ALL_PACKETS] + [encode_hello("n")]
    stream = b"".join(encode_frame(b) for b in bodies)
    assembler = FrameAssembler()
    out = []
    for i in range(len(stream)):
        out.extend(assembler.feed(stream[i : i + 1]))
    assert out == bodies
    assert assembler.pending_bytes == 0


def test_assembler_random_chunking():
    rng = random.Random(1234)
    bodies = [encode_packet(p) for p in ALL_PACKETS for _ in range(3)]
    stream = b"".join(encode_frame(b) for b in bodies)
    for _ in range(20):
        assembler = FrameAssembler()
        out = []
        for chunk in torn(rng, stream, 40):
            out.extend(assembler.feed(chunk))
        assert out == bodies


def test_assembler_single_feed_many_frames():
    bodies = [encode_hello("a"), encode_packet(ALL_PACKETS[1]), encode_hello("b")]
    stream = b"".join(encode_frame(b) for b in bodies)
    assert FrameAssembler().feed(stream) == bodies


def test_assembler_rejects_oversized_announcement():
    assembler = FrameAssembler()
    with pytest.raises(DecodeError):
        assembler.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


def test_truncation_raises_decode_error():
    body = encode_packet(ALL_PACKETS[1])
    for cut in range(len(body)):
        with pytest.raises(DecodeError):
            decode_body(body[:cut])


def test_trailing_garbage_raises_decode_error():
    body = encode_packet(ALL_PACKETS[1])
    with pytest.raises(DecodeError):
        decode_body(body + b"\x00")


def test_unknown_frame_type_raises():
    with pytest.raises(DecodeError):
        decode_body(b"\x7fgarbage")


def test_unknown_call_kind_raises():
    # The kind byte is the one byte two single-entry packets differing
    # only in kind disagree on; wire bytes 1-4 are the four kinds.
    def single(kind):
        entry = CallEntry(1, "p", kind, b"zz")
        return encode_packet(CallPacket(make_key(), 0, [entry], ack_reply_seq=0))

    rpc, batch = single(KIND_RPC), single(KIND_BATCH)
    (kind_at,) = [i for i in range(len(rpc)) if rpc[i] != batch[i]]
    assert (rpc[kind_at], batch[kind_at]) == (1, 4)
    for code in [0] + list(range(5, 256)):
        corrupted = bytearray(rpc)
        corrupted[kind_at] = code
        with pytest.raises(DecodeError, match="unknown call kind"):
            decode_body(bytes(corrupted))

    body = bytearray(encode_packet(sample_call_packets()[1]))
    # Beyond the kind byte: corrupt every byte and require that no
    # corruption decodes to a *different* valid packet silently while
    # also round-tripping — decode must either raise or produce a packet
    # that re-encodes identically.
    for index in range(1, len(body)):
        corrupted = bytearray(body)
        corrupted[index] ^= 0xA5
        try:
            decoded = decode_body(bytes(corrupted))
        except DecodeError:
            continue
        if isinstance(decoded, (CallPacket, ReplyPacket)):
            assert encode_packet(decoded) == bytes(corrupted)


def test_invalid_utf8_raises():
    key_blob = encode_hello("x")
    # Replace the string payload with invalid UTF-8 of the same length.
    corrupted = key_blob[:-1] + b"\xff"
    with pytest.raises(DecodeError):
        decode_body(corrupted)


def test_empty_body_raises():
    with pytest.raises(DecodeError):
        decode_body(b"")


def test_zero_length_frame_yields_empty_body():
    assembler = FrameAssembler()
    bodies = assembler.feed(struct.pack(">I", 0))
    assert bodies == [b""]
    with pytest.raises(DecodeError):
        decode_body(bodies[0])


# ----------------------------------------------------------------------
# Hostile-input totality: decode returns or raises DecodeError, nothing else
# ----------------------------------------------------------------------
CORPUS_BODIES = [encode_packet(p) for p in ALL_PACKETS] + [
    encode_hello("node:client"),
    encode_hello(""),
]

#: Values a hostile peer would put in a count, sack_count or length field.
HOSTILE_U32 = (0xFFFFFFFF, 0x80000000, MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES, 0x10000)


def decode_is_total(body):
    """Decode *body*; anything but a packet or DecodeError fails the test."""
    try:
        decoded = decode_body(body)
    except DecodeError:
        return None
    assert isinstance(decoded, (Hello, CallPacket, ReplyPacket))
    return decoded


def mutate(rng, body):
    data = bytearray(body)
    choice = rng.randrange(4)
    if choice == 0:  # overwrite a few bytes
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
    elif choice == 1:  # truncate
        del data[rng.randrange(len(data)) :]
    elif choice == 2:  # splice onto the tail of another frame
        other = rng.choice(CORPUS_BODIES)
        data = data[: rng.randrange(len(data) + 1)] + other[rng.randrange(len(other)) :]
    else:  # plant a hostile count / length prefix
        at = rng.randrange(max(1, len(data) - 3))
        data[at : at + 4] = struct.pack(">I", rng.choice(HOSTILE_U32))
    return bytes(data)


def test_hostile_u32_at_every_offset_is_total():
    """Every count, sack_count and length prefix sits at *some* offset:
    plant each hostile value at all of them."""
    for body in CORPUS_BODIES:
        for at in range(len(body) - 3):
            for value in HOSTILE_U32:
                hostile = bytearray(body)
                hostile[at : at + 4] = struct.pack(">I", value)
                decode_is_total(bytes(hostile))


@pytest.mark.parametrize("seed", range(8))
def test_mutated_frames_through_the_assembler_are_total(seed):
    """Seeded mutation/truncation/splice fuzz, delivered the way a socket
    would: framed, concatenated, torn into random chunks."""
    rng = random.Random(seed)
    bodies = [mutate(rng, rng.choice(CORPUS_BODIES)) for _ in range(400)]
    stream = b"".join(encode_frame(body) for body in bodies)
    assembler = FrameAssembler()
    out = []
    for chunk in torn(rng, stream, 200):
        out.extend(assembler.feed(chunk))
    # The framing is intact, so the assembler hands back every body
    # verbatim, however hostile its contents.
    assert out == bodies
    for body in out:
        decoded = decode_is_total(body)
        # A packet that survives decoding re-encodes to the bytes it came
        # from: no mutation is silently normalised away.
        if isinstance(decoded, (CallPacket, ReplyPacket)):
            assert encode_packet(decoded) == body


@pytest.mark.parametrize("seed", range(8))
def test_mutated_byte_stream_is_total(seed):
    """Corrupt the framed stream itself (length prefixes included): the
    assembler yields bodies or raises DecodeError, and whatever it
    yields decodes totally."""
    rng = random.Random(1000 + seed)
    stream = bytearray(
        b"".join(encode_frame(rng.choice(CORPUS_BODIES)) for _ in range(200))
    )
    for _ in range(40):
        stream[rng.randrange(len(stream))] = rng.randrange(256)
    assembler = FrameAssembler()
    for chunk in torn(rng, stream, 200):
        try:
            bodies = assembler.feed(chunk)
        except DecodeError:
            break  # oversized announcement: the connection is dropped
        for body in bodies:
            decode_is_total(body)
