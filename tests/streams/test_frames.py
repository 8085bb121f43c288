"""The socket frame codec: round trips, torn reads, malformed input.

A packet names its stream by a per-connection ref (the key's first frame
on a connection defines it), so every encode here goes through an
outgoing table and every decode through an incoming one.  These tests
are fully deterministic (no sockets, no clocks) and run in tier-1; the
real-socket integration lives in ``tests/rt`` behind the ``wallclock``
marker.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def encode(packet, refs=None):
    """*packet*'s body on a connection whose outgoing table is *refs*
    (a fresh connection by default)."""
    return encode_packet(packet, {} if refs is None else refs)


def decode(body, keys=None):
    """*body* decoded on a connection whose incoming table is *keys*."""
    return decode_body(body, [] if keys is None else keys)


def refs_for(keys):
    """The outgoing table that produced the incoming table *keys*."""
    return {key: ref for ref, key in enumerate(keys)}


def framed_in_order(packets):
    """*packets* encoded in order on one connection, each with a copy of
    the incoming table its receiver holds just before it arrives."""
    refs, out = {}, []
    for packet in packets:
        keys = sorted(refs, key=refs.get)
        out.append((keys, encode(packet, refs)))
    return out


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
    body = encode(packet)
    assert_packets_equal(packet, decode(body))


def test_hello_round_trip():
    body = encode_hello("node:écho-1")
    hello = decode(body)
    assert isinstance(hello, Hello)
    assert hello.node == "node:écho-1"


def test_encoding_is_deterministic():
    for packet in ALL_PACKETS:
        assert encode(packet) == encode(packet)
    assert framed_in_order(ALL_PACKETS) == framed_in_order(ALL_PACKETS)


def test_assembler_byte_by_byte():
    bodies = CORPUS_BODIES + [encode_hello("n")]
    stream = b"".join(encode_frame(b) for b in bodies)
    assembler = FrameAssembler()
    out = []
    for i in range(len(stream)):
        out.extend(assembler.feed(stream[i : i + 1]))
    assert out == bodies
    assert assembler.pending_bytes == 0


def test_assembler_random_chunking():
    rng = random.Random(1234)
    bodies = [body for _, body in framed_in_order(ALL_PACKETS * 3)]
    stream = b"".join(encode_frame(b) for b in bodies)
    for _ in range(20):
        assembler = FrameAssembler()
        out = []
        for chunk in torn(rng, stream, 40):
            out.extend(assembler.feed(chunk))
        assert out == bodies


def test_assembler_single_feed_many_frames():
    bodies = [encode_hello("a"), encode(ALL_PACKETS[1]), encode_hello("b")]
    stream = b"".join(encode_frame(b) for b in bodies)
    assert FrameAssembler().feed(stream) == bodies


def test_assembler_rejects_oversized_announcement():
    assembler = FrameAssembler()
    with pytest.raises(DecodeError):
        assembler.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))


def test_truncation_raises_decode_error():
    # Both layouts: the key's defining frame, and a later frame by ref.
    # A frame that fails leaves the table as it was.
    for keys, body in framed_in_order([ALL_PACKETS[1], ALL_PACKETS[1]]):
        table = list(keys)
        for cut in range(len(body)):
            with pytest.raises(DecodeError):
                decode(body[:cut], table)
        assert table == keys


def test_trailing_garbage_raises_decode_error():
    for keys, body in framed_in_order([ALL_PACKETS[1], ALL_PACKETS[1]]):
        table = list(keys)
        with pytest.raises(DecodeError):
            decode(body + b"\x00", table)
        assert table == keys


def test_unknown_frame_type_raises():
    with pytest.raises(DecodeError):
        decode(b"\x7fgarbage")


def test_unknown_call_kind_raises():
    # The kind byte is the one byte two single-entry packets differing
    # only in kind disagree on; wire bytes 1-4 are the four kinds.
    def single(kind):
        entry = CallEntry(1, "p", kind, b"zz")
        return encode(CallPacket(make_key(), 0, [entry], ack_reply_seq=0))

    rpc, batch = single(KIND_RPC), single(KIND_BATCH)
    (kind_at,) = [i for i in range(len(rpc)) if rpc[i] != batch[i]]
    assert (rpc[kind_at], batch[kind_at]) == (1, 4)
    for code in [0] + list(range(5, 256)):
        corrupted = bytearray(rpc)
        corrupted[kind_at] = code
        with pytest.raises(DecodeError, match="unknown call kind"):
            decode(bytes(corrupted))

    # Beyond the kind byte: corrupt every byte and require that no
    # corruption decodes to a *different* valid packet silently while
    # also round-tripping — decode must either raise or produce a packet
    # that re-encodes identically, on the table it was decoded against.
    for keys, body in framed_in_order([sample_call_packets()[1]] * 2):
        for index in range(1, len(body)):
            corrupted = bytearray(body)
            corrupted[index] ^= 0xA5
            try:
                decoded = decode(bytes(corrupted), list(keys))
            except DecodeError:
                continue
            if isinstance(decoded, (CallPacket, ReplyPacket)):
                assert encode(decoded, refs_for(keys)) == bytes(corrupted)


def test_invalid_utf8_raises():
    key_blob = encode_hello("x")
    # Replace the string payload with invalid UTF-8 of the same length.
    corrupted = key_blob[:-1] + b"\xff"
    with pytest.raises(DecodeError):
        decode(corrupted)


def test_empty_body_raises():
    with pytest.raises(DecodeError):
        decode(b"")


def test_zero_length_frame_yields_empty_body():
    assembler = FrameAssembler()
    bodies = assembler.feed(struct.pack(">I", 0))
    assert bodies == [b""]
    with pytest.raises(DecodeError):
        decode(bodies[0])


# ----------------------------------------------------------------------
# Per-connection stream refs
# ----------------------------------------------------------------------
def key_definition_bytes(key):
    return 24 + sum(len(text.encode("utf-8")) for text in key._tuple)


def test_a_key_is_defined_once_then_named_by_its_ref():
    refs = {}
    packet = sample_call_packets()[1]
    first, second = encode(packet, refs), encode(packet, refs)
    assert refs == {packet.key: 0}
    assert len(first) - len(second) == key_definition_bytes(packet.key)
    # The ref sits right after the type byte, in every layout.
    assert first[1:5] == second[1:5] == b"\x00\x00\x00\x00"
    keys = []
    a, b = decode(first, keys), decode(second, keys)
    assert keys == [packet.key]
    assert a.key is b.key is keys[0]


def test_rpc_shaped_frames_are_short():
    """An ``rt_rpc`` call and its reply once the key is defined: an
    ``[INT]`` argument and a one-value outcome."""
    refs = {}
    call = CallPacket(make_key(), 1, [CallEntry(7, "echo", KIND_RPC, b"\x00" * 8)], 6)
    reply = ReplyPacket(make_key(), 1, [ReplyEntry(7, b"\x00" * 9)], 7, 7, window=64)
    encode(call, refs)
    assert len(encode_frame(encode(call, refs))) == 60
    assert len(encode_frame(encode(reply, refs))) == 63


def test_ref_beyond_the_table_raises_and_leaves_it_unchanged():
    packet = sample_call_packets()[1]
    (_, body), (_, by_ref) = framed_in_order([packet, packet])
    keys = []
    # A frame by ref arriving before its definition: ref 0 on an empty
    # table reads as a definition, and the bytes after it are no key.
    with pytest.raises(DecodeError):
        decode(by_ref, keys)
    assert keys == []
    for ref in (1, 2, 0xFFFFFFFF):
        hostile = body[:1] + struct.pack(">I", ref) + body[5:]
        with pytest.raises(DecodeError, match="beyond"):
            decode(hostile, keys)
        assert keys == []
    decode(body, keys)
    with pytest.raises(DecodeError, match="beyond"):
        decode(by_ref[:1] + struct.pack(">I", 2) + by_ref[5:], keys)
    assert keys == [packet.key]


def test_definition_with_invalid_utf8_raises_and_leaves_the_table_unchanged():
    body = encode(CallPacket(make_key(), 0, [], ack_reply_seq=0))
    # The definition follows the 26-byte call header: six u32 lengths,
    # then the src_node text, whose first byte turns into a stray
    # continuation byte.
    at = 26 + 24
    assert body[at : at + 5] == b"node:"
    corrupted = body[:at] + b"\xff" + body[at + 1 :]
    keys = []
    with pytest.raises(DecodeError, match="UTF-8"):
        decode(corrupted, keys)
    assert keys == []


@st.composite
def packets_over_keys(draw):
    """Random packets on 1-5 streams, each key built afresh per packet."""
    nkeys = draw(st.integers(1, 5))
    fields = [dict(agent_id="agent/%d" % n, group_id="g%d" % (n % 2)) for n in range(nkeys)]
    packets = []
    for index in draw(st.lists(st.integers(0, nkeys - 1), min_size=1, max_size=12)):
        key = make_key(**fields[index])
        template = draw(st.sampled_from(ALL_PACKETS))
        if isinstance(template, CallPacket):
            packet = CallPacket(
                key,
                template.incarnation,
                template.entries,
                template.ack_reply_seq,
                template.flush_replies,
                template.synch_seq,
                template.attempt,
            )
        else:
            packet = ReplyPacket(
                key,
                template.incarnation,
                template.entries,
                template.ack_call_seq,
                template.completed_seq,
                template.broken,
                template.sack_ranges,
                template.window,
            )
        packets.append((index, packet))
    return packets


@settings(max_examples=100, deadline=None)
@given(packets_over_keys())
def test_packets_over_many_keys_round_trip_through_fresh_tables(indexed):
    refs, keys = {}, []
    decoded = [decode(encode(packet, refs), keys) for _, packet in indexed]
    by_index = {}
    for (index, packet), got in zip(indexed, decoded):
        assert_packets_equal(packet, got)
        # Equal keys come back as one object.
        assert by_index.setdefault(index, got.key) is got.key
    assert len(keys) == len(refs) == len(by_index)


# ----------------------------------------------------------------------
# Hostile-input totality: decode returns or raises DecodeError, nothing else
# ----------------------------------------------------------------------
#: The sample packets in order on one connection, twice over so the
#: corpus holds both defining frames and frames by ref, each paired with
#: the incoming table it decodes against.
CORPUS = framed_in_order(ALL_PACKETS * 2) + [
    ([], encode_hello("node:client")),
    ([], encode_hello("")),
]
CORPUS_BODIES = [body for _, body in CORPUS]

#: Values a hostile peer would put in a ref, count, sack_count or length field.
HOSTILE_U32 = (0xFFFFFFFF, 0x80000000, MAX_FRAME_BYTES + 1, MAX_FRAME_BYTES, 0x10000)


def decode_is_total(body, keys):
    """Decode *body* against *keys*; anything but a packet or DecodeError
    fails the test, and a failed decode must leave *keys* as it was."""
    before = list(keys)
    try:
        decoded = decode(body, keys)
    except DecodeError:
        assert keys == before
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
    else:  # plant a hostile ref / count / length prefix
        at = rng.randrange(max(1, len(data) - 3))
        data[at : at + 4] = struct.pack(">I", rng.choice(HOSTILE_U32))
    return bytes(data)


def test_hostile_u32_at_every_offset_is_total():
    """Every ref, count, sack_count and length prefix sits at *some*
    offset: plant each hostile value at all of them."""
    for keys, body in CORPUS:
        for at in range(len(body) - 3):
            for value in HOSTILE_U32:
                hostile = bytearray(body)
                hostile[at : at + 4] = struct.pack(">I", value)
                decode_is_total(bytes(hostile), list(keys))


@pytest.mark.parametrize("seed", range(8))
def test_mutated_frames_through_the_assembler_are_total(seed):
    """Seeded mutation/truncation/splice fuzz, delivered the way a socket
    would: framed, concatenated, torn into random chunks."""
    rng = random.Random(seed)
    cases = []
    for _ in range(400):
        keys, body = rng.choice(CORPUS)
        cases.append((keys, mutate(rng, body)))
    bodies = [body for _, body in cases]
    stream = b"".join(encode_frame(body) for body in bodies)
    assembler = FrameAssembler()
    out = []
    for chunk in torn(rng, stream, 200):
        out.extend(assembler.feed(chunk))
    # The framing is intact, so the assembler hands back every body
    # verbatim, however hostile its contents.
    assert out == bodies
    for (keys, _), body in zip(cases, out):
        decoded = decode_is_total(body, list(keys))
        # A packet that survives decoding re-encodes to the bytes it came
        # from: no mutation is silently normalised away.
        if isinstance(decoded, (CallPacket, ReplyPacket)):
            assert encode(decoded, refs_for(keys)) == body


@pytest.mark.parametrize("seed", range(8))
def test_mutated_byte_stream_is_total(seed):
    """Corrupt the framed stream itself (length prefixes included): the
    assembler yields bodies or raises DecodeError, and whatever it
    yields decodes totally through the one table the connection keeps."""
    rng = random.Random(1000 + seed)
    refs = {}
    stream = bytearray(
        b"".join(encode_frame(encode(rng.choice(ALL_PACKETS), refs)) for _ in range(200))
    )
    for _ in range(40):
        stream[rng.randrange(len(stream))] = rng.randrange(256)
    assembler = FrameAssembler()
    keys = []
    for chunk in torn(rng, stream, 200):
        try:
            bodies = assembler.feed(chunk)
        except DecodeError:
            break  # oversized announcement: the connection is dropped
        for body in bodies:
            decode_is_total(body, keys)
