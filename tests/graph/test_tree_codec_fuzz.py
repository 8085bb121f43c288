"""Seeded fuzz suite for the flat routine-tree codec.

The graph twin of ``tests/encoding/test_codec_fuzz.py``, with the same
three properties over randomly generated (but always type-correct)
routine trees and the two payloads (units, results):

1. **round trip** — decoding the encoding yields an equal tree / payload;
2. **decode totality** — truncating the buffer at *every* prefix length
   raises :class:`DecodeError` and nothing else;
3. **corruption totality** — flipping any single byte either still
   decodes or raises :class:`DecodeError` — never ``struct.error``,
   ``IndexError``, ``KeyError`` or ``UnicodeDecodeError``.

Deterministic by construction: one ``random.Random`` seeded per test.
"""

import random

import pytest

import repro.graph.codec as codec_module
from repro.encoding import DecodeError
from repro.graph.codec import (
    FLAG_COLLECTOR,
    FLAG_EMIT,
    TreeNode,
    decode_results,
    decode_tree,
    decode_units,
    encode_results,
    encode_tree,
    encode_units,
    register_routine,
    routine,
)
from repro.types import BOOL, CHAR, INT, REAL, STRING, ArrayOf, RecordOf


SEED = 19880207  # same era pin as the transmit fuzz suite

_CHARS = "ab\n\x00 é字𐍈xyz0123456789"

R1 = (INT,)
R2 = (STRING, INT)
R3 = (ArrayOf(INT),)
R4 = (REAL, BOOL)


def _nop(state, captures, inputs):
    return ()


#: name -> (capture row, input row, output row).  Every output row has at
#: least one routine consuming it, so random chains always extend.
ROUTINES = {
    "fz.src1": ((STRING,), (), R1),
    "fz.src2": ((RecordOf({"xs": ArrayOf(INT), "who": STRING}),), (), R2),
    "fz.chain": ((), R1, R1),
    "fz.widen": ((INT,), R1, R2),
    "fz.pack": ((STRING, ArrayOf(INT)), R2, R3),
    "fz.fold": ((RecordOf({"a": INT, "b": STRING}),), R3, R1),
    "fz.split": ((), R1, R4),
    "fz.norm": ((BOOL, REAL, CHAR), R4, R1),
}
for _name, (_caps, _ins, _outs) in ROUTINES.items():
    register_routine(
        _name, _nop, capture_types=_caps, input_types=_ins, output_types=_outs
    )

#: input row -> routine names that consume it.
_CONSUMERS = {}
for _name, (_caps, _ins, _outs) in ROUTINES.items():
    _CONSUMERS.setdefault(_ins, []).append(_name)


def _value_for(tp, rng, depth=0):
    if tp is INT:
        return rng.choice((0, 1, -1, rng.randrange(-(2**63), 2**63)))
    if tp is REAL:
        return rng.choice((0.0, -1.5, 1e300, rng.uniform(-1e6, 1e6)))
    if tp is BOOL:
        return rng.random() < 0.5
    if tp is CHAR:
        return rng.choice(_CHARS)
    if tp is STRING:
        return "".join(rng.choice(_CHARS) for _ in range(rng.randrange(0, 12)))
    if isinstance(tp, ArrayOf):
        count = rng.randrange(0, 3 if depth >= 2 else 5)
        return [_value_for(tp.element, rng, depth + 1) for _ in range(count)]
    if isinstance(tp, RecordOf):
        return {name: _value_for(field, rng, depth + 1) for name, field in tp.fields}
    raise AssertionError("no generator for %r" % (tp,))


def _row_values(row, rng):
    return tuple(_value_for(tp, rng) for tp in row)


def _random_tree(rng, name=None, depth=0, next_id=None):
    """A random type-correct tree rooted at *name* (or a random source)."""
    if next_id is None:
        next_id = iter(range(10_000))
    if name is None:
        name = rng.choice(("fz.src1", "fz.src2"))
    spec = routine(name)
    collector = len(spec.input_types) > 0 and rng.random() < 0.25
    if collector:
        flags = FLAG_COLLECTOR
        n_inputs = rng.randrange(2, 5)
    else:
        flags = 0
        n_inputs = 0 if not spec.input_types else 1
    if rng.random() < 0.4:
        flags |= FLAG_EMIT
    children = []
    if depth < 3:
        for _ in range(rng.randrange(0, 3)):
            child_name = rng.choice(_CONSUMERS[spec.output_types])
            child = _random_tree(rng, child_name, depth + 1, next_id)
            children.append((rng.randrange(max(1, child.n_inputs)), child))
    return TreeNode(
        spec,
        next(next_id),
        rng.randrange(-(2**32), 2**32),
        flags,
        n_inputs,
        _row_values(spec.capture_types, rng),
        tuple(children),
    )


def _random_units(rng, count):
    units = []
    for _ in range(count):
        node = _random_tree(rng)
        units.append((rng.randrange(max(1, node.n_inputs)), node,
                      _row_values(node.spec.input_types, rng)))
    return units


def _assert_decode_total(decode, data):
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


def test_tree_round_trip():
    rng = random.Random(SEED)
    for _ in range(100):
        tree = _random_tree(rng)
        out = bytearray()
        encode_tree(tree, out)
        decoded, offset = decode_tree(bytes(out), 0)
        assert offset == len(out)
        assert decoded == tree
        decoded_mv, _ = decode_tree(memoryview(bytes(out)), 0)
        assert decoded_mv == tree


def test_units_payload_round_trip_and_totality():
    rng = random.Random(SEED + 1)
    for _ in range(20):
        units = _random_units(rng, rng.randrange(1, 5))
        payload = encode_units(units)
        assert decode_units(payload) == units
        assert decode_units(memoryview(payload)) == units
    _assert_decode_total(decode_units, payload)
    assert decode_units(encode_units([])) == []


def test_one_unit_payload_round_trip_and_totality():
    # The per-edge RPC baseline ships a units payload holding one unit.
    rng = random.Random(SEED + 2)
    for _ in range(20):
        units = _random_units(rng, 1)
        payload = encode_units(units)
        assert decode_units(payload) == units
    _assert_decode_total(decode_units, payload)


def test_results_payload_round_trip_and_totality():
    rng = random.Random(SEED + 3)
    for _ in range(20):
        results = []
        for index in range(rng.randrange(1, 5)):
            name = rng.choice(sorted(ROUTINES))
            outputs = _row_values(routine(name).output_types, rng)
            results.append((index, name, outputs))
        payload = encode_results(results)
        assert decode_results(payload) == results
        assert decode_results(memoryview(payload)) == results
    _assert_decode_total(decode_results, payload)
    assert decode_results(encode_results([])) == []


def test_tree_truncation_every_prefix():
    # The loops above only sweep the last buffer; pin a fresh sweep on a
    # tree that exercises every routine family.
    rng = random.Random(SEED + 4)
    for name in sorted(ROUTINES):
        tree = _random_tree(rng, name)
        out = bytearray()
        encode_tree(tree, out)
        data = bytes(out)
        for cut in range(len(data)):
            with pytest.raises(DecodeError):
                decode_tree(data[:cut], 0)


def test_deep_tree_is_rejected_not_recursed():
    # A 70-deep chain encodes fine but must hit the depth guard on
    # decode, never RecursionError.  fz.chain consumes and produces R1,
    # so it nests under itself indefinitely.
    chain = TreeNode(routine("fz.chain"), 0, 0, 0, 1, ())
    for serial in range(70):
        chain = TreeNode(
            routine("fz.chain"), 1 + serial, 0, 0, 1, (), ((0, chain),)
        )
    out = bytearray()
    encode_tree(chain, out)
    with pytest.raises(DecodeError):
        decode_tree(bytes(out), 0)


def test_unknown_routine_is_a_decode_error():
    register_routine("fz.ephemeral", _nop, output_types=(INT,))
    tree = TreeNode(routine("fz.ephemeral"), 1, 0, 0, 0, ())
    out = bytearray()
    encode_tree(tree, out)
    codec_module._REGISTRY.pop("fz.ephemeral")
    with pytest.raises(DecodeError):
        decode_tree(bytes(out), 0)


def test_bad_flags_and_arity_are_decode_errors():
    tree = TreeNode(routine("fz.src1"), 1, 0, 0, 0, ("cap",))
    out = bytearray()
    encode_tree(tree, out)
    data = bytearray(out)
    # The flags byte sits right after the name and the two 8-byte ids.
    flags_at = 4 + len("fz.src1") + 16
    data[flags_at] = 0x80  # an undefined flag bit
    with pytest.raises(DecodeError):
        decode_tree(bytes(data), 0)
    data[flags_at] = FLAG_COLLECTOR
    data[flags_at + 1] = 1  # a collector joining one input is malformed
    with pytest.raises(DecodeError):
        decode_tree(bytes(data), 0)
    data[flags_at] = 0
    data[flags_at + 1] = 2  # a plain node with two input slots likewise
    with pytest.raises(DecodeError):
        decode_tree(bytes(data), 0)
