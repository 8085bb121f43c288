"""Seeded fuzz suite for the compiled flat codecs (PR 7).

Three properties, over randomly generated values of every signature
kind in :mod:`repro.types`:

1. **byte identity** — the compiled :class:`ArgsCodec`/:class:`OutcomeCodec`
   closures produce exactly the bytes the reference per-value encoder
   (:func:`repro.encoding.xrep.encode_values`) produces;
2. **round trip** — decoding the encoding yields the original values;
3. **decode totality** — truncating the buffer at *every* prefix length,
   or corrupting any single byte, raises :class:`DecodeError` and never
   ``struct.error``/``IndexError``/``UnicodeDecodeError``.

``ArrayOf(INT)`` crosses the codec in one struct call when every element
is an exact ``int``; its own tests hold that path and the per-element one
it falls back to to the same bytes and the same error messages.

Deterministic by construction: one ``random.Random`` seeded per test, no
time- or hash-order-dependence, so a failure replays exactly.
"""

import random

import pytest

from repro.core.exceptions import Failure, Signal, Unavailable
from repro.core.outcome import Outcome
from repro.encoding import DecodeError, EncodeError, PortDescriptor, encode_values, type_fingerprint
from repro.encoding.transmit import ArgsCodec, OutcomeCodec, failing_user_type
from repro.encoding.xrep import compile_decoder, compile_encoder, encode_value
from repro.types import (
    BOOL,
    CHAR,
    INT,
    NULL,
    REAL,
    STRING,
    ArrayOf,
    HandlerType,
    PortRefType,
    RecordOf,
    UserType,
)

SEED = 19880207  # Liskov & Shrira submission era; fixed for replayability.

ECHO = HandlerType(args=[INT], returns=[INT])

#: One signature per type kind, plus nesting and a mixed tuple.  NULL is
#: kept away from the tail: a signature ending in zero-width types has
#: valid proper prefixes, which would make the truncation property vacuous
#: to state (truncation must *always* fail for these signatures).
SIGNATURES = [
    [INT],
    [REAL],
    [BOOL],
    [CHAR],
    [STRING],
    [ArrayOf(INT)],
    [ArrayOf(STRING)],
    [ArrayOf(ArrayOf(INT))],
    [RecordOf({"name": STRING, "score": REAL})],
    [RecordOf({"xs": ArrayOf(INT), "flag": BOOL, "who": STRING})],
    [failing_user_type("fuzzuser")],
    [PortRefType(ECHO)],
    [NULL, INT, STRING],
    [INT, STRING, ArrayOf(REAL), RecordOf({"a": INT, "b": ArrayOf(STRING)}), BOOL],
]

_CHARS = "ab\n\x00 é字𐍈xyz0123456789"


def _value_for(tp, rng, depth=0):
    if tp is INT:
        return rng.choice(
            (0, 1, -1, rng.randrange(-(2**63), 2**63), 2**63 - 1, -(2**63))
        )
    if tp is REAL:
        return rng.choice((0.0, -1.5, 1e300, -1e-300, rng.uniform(-1e6, 1e6)))
    if tp is BOOL:
        return rng.random() < 0.5
    if tp is CHAR:
        return rng.choice(_CHARS)
    if tp is STRING:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(0, 12)))
    if tp is NULL:
        return None
    if isinstance(tp, ArrayOf):
        count = rng.randrange(0, 3 if depth >= 2 else 5)
        return [_value_for(tp.element, rng, depth + 1) for _ in range(count)]
    if isinstance(tp, RecordOf):
        return {
            name: _value_for(field, rng, depth + 1) for name, field in tp.fields
        }
    if isinstance(tp, UserType):
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(0, 8)))
    if isinstance(tp, PortRefType):
        return PortDescriptor(
            node="node%d" % rng.randrange(4),
            group_address="addr%d" % rng.randrange(4),
            group_id="g%d" % rng.randrange(4),
            port_id="p%d" % rng.randrange(4),
            fingerprint=type_fingerprint(tp.handler_type),
            handler_type=tp.handler_type,
        )
    raise AssertionError("no generator for %r" % (tp,))


def _assert_decode_total(decode, data):
    """decode() over every truncation and single-byte corruption of *data*
    must either succeed or raise DecodeError — nothing else escapes."""
    for cut in range(len(data)):
        with pytest.raises(DecodeError):
            decode(data[:cut])
    for index in range(len(data)):
        corrupt = bytearray(data)
        corrupt[index] ^= 0xFF
        try:
            decode(bytes(corrupt))
        except DecodeError:
            pass


@pytest.mark.parametrize("case", range(len(SIGNATURES)))
def test_args_codec_fuzz(case):
    args_types = SIGNATURES[case]
    handler_type = HandlerType(args=args_types, returns=[])
    codec = ArgsCodec.for_type(handler_type)
    rng = random.Random(SEED + case)
    for _ in range(50):
        values = tuple(_value_for(tp, rng) for tp in args_types)
        data = codec.encode(values)
        assert data == encode_values(args_types, values)  # byte identity
        assert codec.decode(data) == values  # round trip
        assert codec.decode(memoryview(data)) == values
    _assert_decode_total(codec.decode, data)


def test_args_codec_truncation_every_signature():
    # The loop above only fuzzes the last buffer; pin one full pass here
    # with a fresh value per signature so every decoder branch sees its
    # truncations even if the parametrized cases are filtered.
    rng = random.Random(SEED)
    for args_types in SIGNATURES:
        handler_type = HandlerType(args=args_types, returns=[])
        codec = ArgsCodec.for_type(handler_type)
        values = tuple(_value_for(tp, rng) for tp in args_types)
        _assert_decode_total(codec.decode, codec.encode(values))


OUTCOME_TYPE = HandlerType(
    args=[],
    returns=[INT, STRING, ArrayOf(REAL)],
    signals={"overflow": [INT, STRING], "empty": []},
)


def _random_outcome(rng):
    roll = rng.randrange(5)
    if roll == 0:
        return Outcome.normal(
            *(_value_for(tp, rng) for tp in OUTCOME_TYPE.returns)
        )
    if roll == 1:
        return Outcome.exceptional(
            Signal("overflow", _value_for(INT, rng), _value_for(STRING, rng))
        )
    if roll == 2:
        return Outcome.exceptional(Signal("empty"))
    if roll == 3:
        return Outcome.exceptional(Unavailable(_value_for(STRING, rng)))
    return Outcome.exceptional(Failure(_value_for(STRING, rng)))


def _reference_outcome_bytes(outcome):
    """The pre-PR-7 outcome encoding, reconstructed value-by-value."""
    if outcome.is_normal:
        return bytes([0]) + encode_values(OUTCOME_TYPE.returns, outcome.results)
    exc = outcome.exception
    if isinstance(exc, Unavailable):
        return bytes([2]) + encode_values([STRING], (exc.reason,))
    if isinstance(exc, Failure):
        return bytes([3]) + encode_values([STRING], (exc.reason,))
    types = OUTCOME_TYPE.signals[exc.condition]
    return (
        bytes([1])
        + encode_values([STRING], (exc.condition,))
        + encode_values(types, exc.exception_args())
    )


def _outcomes_equal(left, right):
    if left.is_normal != right.is_normal:
        return False
    if left.is_normal:
        return left.results == right.results
    a, b = left.exception, right.exception
    if type(a) is not type(b):
        return False
    if isinstance(a, Signal):
        return a.condition == b.condition and a.exception_args() == b.exception_args()
    return a.reason == b.reason


def test_outcome_codec_fuzz_all_tags():
    codec = OutcomeCodec.for_type(OUTCOME_TYPE)
    rng = random.Random(SEED)
    seen_tags = set()
    for _ in range(200):
        outcome = _random_outcome(rng)
        data = codec.encode(outcome)
        seen_tags.add(data[0])
        assert data == _reference_outcome_bytes(outcome)  # byte identity
        assert _outcomes_equal(codec.decode(data), outcome)  # round trip
        assert _outcomes_equal(codec.decode(memoryview(data)), outcome)
    assert seen_tags == {0, 1, 2, 3}
    _assert_decode_total(codec.decode, data)


def test_outcome_codec_truncation_per_tag():
    codec = OutcomeCodec.for_type(OUTCOME_TYPE)
    rng = random.Random(SEED + 1)
    for outcome in (
        Outcome.normal(7, "hi", [1.5, -2.5]),
        Outcome.exceptional(Signal("overflow", 3, "too big")),
        Outcome.exceptional(Signal("empty")),
        Outcome.exceptional(Unavailable("node down")),
        Outcome.exceptional(Failure("refused")),
        _random_outcome(rng),
    ):
        _assert_decode_total(codec.decode, codec.encode(outcome))


def test_user_type_codecs_are_cached_per_object_not_per_key():
    # Two user types with identical wire keys but different callables:
    # the compiled-closure cache must not hand one the other's codec.
    benign = failing_user_type("twin")
    poisoned = failing_user_type("twin", fail_encode=True)
    ok = HandlerType(args=[benign], returns=[])
    bad = HandlerType(args=[poisoned], returns=[])
    assert ArgsCodec.for_type(ok).encode(("poison",)) == encode_values(
        [benign], ("poison",)
    )
    with pytest.raises(EncodeError):
        ArgsCodec.for_type(bad).encode(("poison",))


class _Int(int):
    """An int subclass: valid for ``int``, but not the one-struct-call path."""


def _int_array(rng):
    """An ArrayOf(INT) value, sometimes with an element the fast path
    must not take: a bool, an int outside 64 bits, an int subclass."""
    items = [_value_for(INT, rng) for _ in range(rng.randrange(0, 40))]
    roll = rng.randrange(6)
    if items and roll < 4:
        odd = (True, 2**63, -(2**63) - 1, _Int(rng.randrange(-99, 99)))[roll]
        items[rng.randrange(len(items))] = odd
    return tuple(items) if rng.random() < 0.3 else items


def _encoded_or_error(encode, value):
    out = bytearray()
    try:
        encode(value, out)
    except EncodeError as exc:
        return "error", str(exc), bytes(out)
    return "ok", bytes(out)


def test_int_array_encodes_as_the_reference_does():
    tp = ArrayOf(INT)
    encode = compile_encoder(tp)
    rng = random.Random(SEED + 7)
    cases = [[], (), [0], (1, 2), [False], [2**64], [_Int(5), 6]]
    cases += [_int_array(rng) for _ in range(300)]
    outcomes = set()
    for value in cases:
        got = _encoded_or_error(encode, value)
        assert got == _encoded_or_error(lambda v, out: encode_value(tp, v, out), value)
        outcomes.add(got[0])
    assert outcomes == {"ok", "error"}


def test_int_array_decode_is_total():
    tp = ArrayOf(INT)
    decode = compile_decoder(tp)
    rng = random.Random(SEED + 8)
    for count in (0, 1, 2, 33):
        values = [_value_for(INT, rng) for _ in range(count)]
        data = bytearray()
        compile_encoder(tp)(values, data)
        data = bytes(data)
        out = []
        assert decode(data, 0, out) == len(data) and out == [values]
        assert decode(memoryview(data), 0, []) == len(data)
        for cut in range(len(data)):
            with pytest.raises(DecodeError):
                decode(data[:cut], 0, [])


@pytest.mark.parametrize(
    "tp, value, message",
    [
        (STRING, "bad\ud800", "cannot encode 'bad\\ud800' as UTF-8: surrogates not allowed"),
        (CHAR, "\udfff", "cannot encode '\\udfff' as UTF-8: surrogates not allowed"),
        (ArrayOf(STRING), ["ok", "\ud800"], "cannot encode '\\ud800' as UTF-8"),
        (RecordOf({"name": STRING}), {"name": "\udc80"}, "cannot encode '\\udc80' as UTF-8"),
        (REAL, 10**400, "real out of range: 1000"),
        (ArrayOf(REAL), [1.0, -(10**309)], "real out of range: -1000"),
    ],
)
def test_untransmissible_values_raise_only_encode_error(tp, value, message):
    """A lone surrogate and an int beyond float range are EncodeErrors,
    with the same message from the compiled and the reference encoder."""
    compiled = _encoded_or_error(compile_encoder(tp), value)
    reference = _encoded_or_error(lambda v, out: encode_value(tp, v, out), value)
    assert compiled[:2] == reference[:2]
    assert compiled[0] == "error" and compiled[1].startswith(message)
