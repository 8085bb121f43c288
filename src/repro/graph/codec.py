"""Flat routine-tree codec and routine registry for promise graphs.

A shipped graph fragment is a *routine tree*: the node to run next plus
the entire subtree that depends on it.  Trees travel in two payloads,
each a count and then its rows, built on the compiled flat codecs of
:mod:`repro.encoding.xrep` (captures, inputs and outputs are encoded by
the registered routine's compiled per-type encoders — no per-value
isinstance dispatch on the hot path):

``units``    ``(slot, tree, values)`` deliveries bound for one shard
``results``  ``(node_id, routine, outputs)`` rows back to the origin

A payload carries rows and nothing else.  Which graph and epoch they
belong to, and whether cascades batch, are typed arguments of the graph
handlers beside the payload (:mod:`repro.graph.runtime`), so the port's
argument codec checks and encodes them like any other call's.

Like the rest of the encoding layer, decoding is *total*: any truncated
or corrupted buffer raises :class:`~repro.encoding.errors.DecodeError`,
never an arbitrary exception — the graph fuzz suite pins this.

Routines themselves never travel: the wire carries the routine's *name*,
and both ends must have registered the same routine (same callback, same
type row) ahead of time.  This mirrors the paper's stance on user code in
value transmission — behaviour is installed, only data moves.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.encoding.errors import DecodeError, EncodeError
from repro.encoding.xrep import (
    _decode_str_flat,
    _encode_str,
    compile_decoder,
    compile_encoder,
)
from repro.types.signatures import PromiseType, Type

__all__ = [
    "FLAG_COLLECTOR",
    "FLAG_EMIT",
    "RoutineSpec",
    "TreeNode",
    "register_routine",
    "routine",
    "encode_tree",
    "decode_tree",
    "encode_units",
    "decode_units",
    "encode_results",
    "decode_results",
]

_INT = struct.Struct(">q")
_LEN = struct.Struct(">I")
_SLOT = struct.Struct(">H")

#: Node flag: the node joins several inputs and fires once all arrive.
FLAG_COLLECTOR = 0x01
#: Node flag: the node's outputs are reported back to the origin guardian.
FLAG_EMIT = 0x02
_NODE_FLAGS = FLAG_COLLECTOR | FLAG_EMIT

#: Recursion guard: no sane graph nests this deep; a corrupted child
#: count must not be able to drive the decoder into unbounded recursion.
_MAX_DEPTH = 64

#: Smallest possible encoded node: empty name (4) + node_id (8) +
#: sched_key (8) + flags (1) + n_inputs (1) + n_children (1).
_MIN_NODE_BYTES = 23
#: Smallest possible unit: slot (2) + minimal node.
_MIN_UNIT_BYTES = 2 + _MIN_NODE_BYTES
#: Smallest possible result: node_id (8) + empty name (4).
_MIN_RESULT_BYTES = 12


class RoutineSpec:
    """A registered graph routine: the unit of remote execution.

    ``fn(state, captures, inputs)`` runs on the destination guardian with
    that guardian's persistent ``state`` dict, the captures shipped in the
    tree, and the delivered input values — a tuple for ordinary nodes, a
    slot-ordered list of tuples for collectors.  It returns the output
    tuple.  ``node_func(captures, inputs)``, when given, recomputes the
    scheduling key from the *actual* inputs; a delivery whose recomputed
    key hashes to a different shard migrates there instead of executing.
    ``promise_type``, derived once, types every emit's promise, so its
    compiled checkers are built once per routine, not once per promise.
    """

    __slots__ = (
        "name",
        "fn",
        "capture_types",
        "input_types",
        "output_types",
        "node_func",
        "cost",
        "promise_type",
        "_capture_encoders",
        "_capture_decoders",
        "_input_encoders",
        "_input_decoders",
        "_output_encoders",
        "_output_decoders",
    )

    def __init__(
        self,
        name: str,
        fn: Callable[..., Tuple[Any, ...]],
        capture_types: Sequence[Type],
        input_types: Sequence[Type],
        output_types: Sequence[Type],
        node_func: Optional[Callable[..., int]] = None,
        cost: float = 0.05,
    ) -> None:
        self.name = name
        self.fn = fn
        self.capture_types = tuple(capture_types)
        self.input_types = tuple(input_types)
        self.output_types = tuple(output_types)
        self.node_func = node_func
        self.cost = cost
        self.promise_type = PromiseType(returns=self.output_types)
        self._capture_encoders = tuple(compile_encoder(t) for t in self.capture_types)
        self._capture_decoders = tuple(compile_decoder(t) for t in self.capture_types)
        self._input_encoders = tuple(compile_encoder(t) for t in self.input_types)
        self._input_decoders = tuple(compile_decoder(t) for t in self.input_types)
        self._output_encoders = tuple(compile_encoder(t) for t in self.output_types)
        self._output_decoders = tuple(compile_decoder(t) for t in self.output_types)

    def __repr__(self) -> str:
        return "<RoutineSpec %s/%d->%d>" % (
            self.name,
            len(self.input_types),
            len(self.output_types),
        )


_REGISTRY: Dict[str, RoutineSpec] = {}


def register_routine(
    name: str,
    fn: Callable[..., Tuple[Any, ...]],
    capture_types: Sequence[Type] = (),
    input_types: Sequence[Type] = (),
    output_types: Sequence[Type] = (),
    node_func: Optional[Callable[..., int]] = None,
    cost: float = 0.05,
) -> RoutineSpec:
    """Register (or re-register) a routine under *name*.

    The latest registration wins; both ends of a wire must agree on the
    type row or decoding fails.  Routines must be deterministic functions
    of ``(state, captures, inputs)`` — they may be re-executed by crash
    recovery at a higher level.
    """
    for tp in tuple(capture_types) + tuple(input_types) + tuple(output_types):
        if not isinstance(tp, Type):
            raise TypeError("routine types must be Types, got %r" % (tp,))
    spec = RoutineSpec(name, fn, capture_types, input_types, output_types, node_func, cost)
    _REGISTRY[name] = spec
    return spec


def routine(name: str) -> RoutineSpec:
    """The registered routine named *name* (KeyError if absent)."""
    return _REGISTRY[name]


class TreeNode:
    """One node of a flat routine tree.

    ``children`` is a tuple of ``(slot, TreeNode)`` edges: the parent's
    outputs are delivered into the child's input slot *slot*.  A shared
    collector appears as a child under each of its parents — the encoded
    tree duplicates it, and the runtime joins the copies by ``node_id``
    in guardian state.
    """

    __slots__ = ("spec", "node_id", "sched_key", "flags", "n_inputs", "captures", "children")

    def __init__(
        self,
        spec: RoutineSpec,
        node_id: int,
        sched_key: int,
        flags: int,
        n_inputs: int,
        captures: Tuple[Any, ...],
        children: Tuple[Tuple[int, "TreeNode"], ...] = (),
    ) -> None:
        self.spec = spec
        self.node_id = node_id
        self.sched_key = sched_key
        self.flags = flags
        self.n_inputs = n_inputs
        self.captures = tuple(captures)
        self.children = tuple(children)

    @property
    def is_collector(self) -> bool:
        return bool(self.flags & FLAG_COLLECTOR)

    @property
    def wants_emit(self) -> bool:
        return bool(self.flags & FLAG_EMIT)

    def without_children(self) -> "TreeNode":
        """A copy of this node alone (the per-edge RPC baseline ships these)."""
        return TreeNode(
            self.spec,
            self.node_id,
            self.sched_key,
            self.flags,
            self.n_inputs,
            self.captures,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TreeNode)
            and self.spec.name == other.spec.name
            and self.node_id == other.node_id
            and self.sched_key == other.sched_key
            and self.flags == other.flags
            and self.n_inputs == other.n_inputs
            and self.captures == other.captures
            and self.children == other.children
        )

    def __hash__(self) -> int:
        return hash((self.spec.name, self.node_id))

    def __repr__(self) -> str:
        return "<TreeNode #%d %s key=%d children=%d>" % (
            self.node_id,
            self.spec.name,
            self.sched_key,
            len(self.children),
        )


# ----------------------------------------------------------------------
# Tree encoding
# ----------------------------------------------------------------------

def encode_tree(node: TreeNode, out: bytearray) -> None:
    """Append the flat encoding of *node* and its subtree to *out*."""
    if len(node.captures) != len(node.spec.capture_types):
        raise EncodeError(
            "%s carries %d captures, spec wants %d"
            % (node.spec.name, len(node.captures), len(node.spec.capture_types))
        )
    _encode_str(out, node.spec.name)
    out += _INT.pack(node.node_id)
    out += _INT.pack(node.sched_key)
    out.append(node.flags)
    out.append(node.n_inputs)
    for encoder, value in zip(node.spec._capture_encoders, node.captures):
        encoder(value, out)
    out.append(len(node.children))
    for slot, child in node.children:
        out += _SLOT.pack(slot)
        encode_tree(child, out)


def decode_tree(data: Any, offset: int, depth: int = 0) -> Tuple[TreeNode, int]:
    """Decode one tree node (and subtree) at *offset*; total on bad input."""
    if depth > _MAX_DEPTH:
        raise DecodeError("routine tree deeper than %d" % _MAX_DEPTH)
    name, offset = _decode_str_flat(data, offset)
    spec = _REGISTRY.get(name)
    if spec is None:
        raise DecodeError("unknown routine %r" % (name,))
    if offset + 18 > len(data):
        raise DecodeError("truncated tree node header")
    (node_id,) = _INT.unpack_from(data, offset)
    (sched_key,) = _INT.unpack_from(data, offset + 8)
    flags = data[offset + 16]
    n_inputs = data[offset + 17]
    offset += 18
    if flags & ~_NODE_FLAGS:
        raise DecodeError("unknown tree node flags 0x%02x" % (flags,))
    if flags & FLAG_COLLECTOR:
        if n_inputs < 2:
            raise DecodeError("collector node with %d input slots" % (n_inputs,))
    elif n_inputs > 1:
        raise DecodeError("non-collector node with %d input slots" % (n_inputs,))
    values: List[Any] = []
    for decoder in spec._capture_decoders:
        offset = decoder(data, offset, values)
    captures = tuple(values)
    if offset + 1 > len(data):
        raise DecodeError("truncated child count")
    n_children = data[offset]
    offset += 1
    if n_children * (2 + _MIN_NODE_BYTES) > len(data) - offset:
        raise DecodeError("child count %d exceeds remaining payload" % (n_children,))
    children = []
    for _ in range(n_children):
        if offset + 2 > len(data):
            raise DecodeError("truncated child slot")
        (slot,) = _SLOT.unpack_from(data, offset)
        child, offset = decode_tree(data, offset + 2, depth + 1)
        if slot >= max(1, child.n_inputs):
            raise DecodeError(
                "edge into slot %d of a %d-input node" % (slot, child.n_inputs)
            )
        if spec.output_types != child.spec.input_types:
            raise DecodeError(
                "edge type mismatch: %s outputs do not feed %s"
                % (name, child.spec.name)
            )
        children.append((slot, child))
    return (
        TreeNode(spec, node_id, sched_key, flags, n_inputs, captures, tuple(children)),
        offset,
    )


# ----------------------------------------------------------------------
# Payloads
# ----------------------------------------------------------------------

#: One delivery: the input slot, the tree it feeds, the delivered values.
Unit = Tuple[int, TreeNode, Tuple[Any, ...]]
#: One emitted node: its id, its routine's name, its outputs.
Result = Tuple[int, str, Tuple[Any, ...]]


def _decode_rows(
    data: Any, min_row_bytes: int, decode_row: Callable[[Any, int], Tuple[Any, int]]
) -> List[Any]:
    """A count, then that many rows filling *data* exactly."""
    if len(data) < 4:
        raise DecodeError("truncated row count")
    (count,) = _LEN.unpack_from(data, 0)
    offset = 4
    if count * min_row_bytes > len(data) - offset:
        raise DecodeError("row count %d exceeds remaining payload" % (count,))
    rows = []
    for _ in range(count):
        row, offset = decode_row(data, offset)
        rows.append(row)
    if offset != len(data):
        raise DecodeError("%d trailing bytes after decoding" % (len(data) - offset))
    return rows


def encode_units(units: Sequence[Unit]) -> bytes:
    """Deliveries bound for one shard: a count, then one row per unit."""
    out = bytearray(_LEN.pack(len(units)))
    for slot, node, values in units:
        if len(values) != len(node.spec.input_types):
            raise EncodeError(
                "%s delivery carries %d values, spec wants %d"
                % (node.spec.name, len(values), len(node.spec.input_types))
            )
        out += _SLOT.pack(slot)
        encode_tree(node, out)
        for encoder, value in zip(node.spec._input_encoders, values):
            encoder(value, out)
    return bytes(out)


def _decode_unit(data: Any, offset: int) -> Tuple[Unit, int]:
    if offset + 2 > len(data):
        raise DecodeError("truncated unit slot")
    (slot,) = _SLOT.unpack_from(data, offset)
    node, offset = decode_tree(data, offset + 2)
    if slot >= max(1, node.n_inputs):
        raise DecodeError(
            "unit delivers slot %d of a %d-input node" % (slot, node.n_inputs)
        )
    values: List[Any] = []
    for decoder in node.spec._input_decoders:
        offset = decoder(data, offset, values)
    return (slot, node, tuple(values)), offset


def decode_units(data: Any) -> List[Unit]:
    """Decode a units payload into ``[(slot, tree, values)]``."""
    return _decode_rows(data, _MIN_UNIT_BYTES, _decode_unit)


def encode_results(results: Sequence[Result]) -> bytes:
    """Emitted node outputs: a count, then one row per result."""
    out = bytearray(_LEN.pack(len(results)))
    for node_id, name, outputs in results:
        out += _INT.pack(node_id)
        _encode_str(out, name)
        spec = _REGISTRY[name]
        if len(outputs) != len(spec.output_types):
            raise EncodeError(
                "%s emitted %d outputs, spec wants %d"
                % (name, len(outputs), len(spec.output_types))
            )
        for encoder, value in zip(spec._output_encoders, outputs):
            encoder(value, out)
    return bytes(out)


def _decode_result(data: Any, offset: int) -> Tuple[Result, int]:
    if offset + 8 > len(data):
        raise DecodeError("truncated result node id")
    (node_id,) = _INT.unpack_from(data, offset)
    name, offset = _decode_str_flat(data, offset + 8)
    spec = _REGISTRY.get(name)
    if spec is None:
        raise DecodeError("unknown routine %r" % (name,))
    values: List[Any] = []
    for decoder in spec._output_decoders:
        offset = decoder(data, offset, values)
    return (node_id, name, tuple(values)), offset


def decode_results(data: Any) -> List[Result]:
    """Decode a results payload into ``[(node_id, name, outputs)]``."""
    return _decode_rows(data, _MIN_RESULT_BYTES, _decode_result)
