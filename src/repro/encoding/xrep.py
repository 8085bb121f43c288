"""The external representation: a canonical binary wire format.

Arguments and results of handler calls are passed by value: "the data are
actually sent using an external representation" (paper §3).  This module
implements that representation for the whole type algebra.  It is a real
byte format — not a pickle — so that (a) message sizes are honest inputs to
the network cost model and (b) decoding genuinely re-validates data shape,
making decode failures a natural, testable event.

Format (big-endian):

=============  =====================================================
``int``        8-byte signed
``real``       8-byte IEEE double
``bool``       1 byte (0/1)
``char``       length-prefixed UTF-8 (1-byte length)
``string``     4-byte length + UTF-8 bytes
``null``       empty
``array[t]``   4-byte count + elements
``record``     fields in declared order
``port``       encoded descriptor (node, address, port id, type hash)
=============  =====================================================
"""

from __future__ import annotations

import struct
from typing import Any, Sequence, Tuple

from repro.encoding.errors import DecodeError, EncodeError
from repro.types.signatures import (
    AnyType,
    ArrayOf,
    BoolType,
    CharType,
    HandlerType,
    IntType,
    NullType,
    PortRefType,
    RealType,
    RecordOf,
    StringType,
    Type,
    UserType,
)

__all__ = [
    "encode_value",
    "decode_value",
    "encode_values",
    "decode_values",
    "compile_encoder",
    "compile_decoder",
    "PortDescriptor",
    "type_fingerprint",
]

_INT = struct.Struct(">q")
_REAL = struct.Struct(">d")
_LEN = struct.Struct(">I")

_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1


def type_fingerprint(handler_type: HandlerType) -> str:
    """Stable textual fingerprint of a handler type, for port descriptors."""
    return handler_type.suffix()


class PortDescriptor:
    """Decoded form of a transmitted port reference.

    "Ports may be sent as arguments and results of remote calls" (§2); the
    descriptor carries enough to rebind: hosting node, transport address of
    the port group, port id, and the handler-type fingerprint for checking.
    """

    __slots__ = ("node", "group_address", "group_id", "port_id", "fingerprint", "handler_type")

    def __init__(
        self,
        node: str,
        group_address: str,
        group_id: str,
        port_id: str,
        fingerprint: str,
        handler_type: HandlerType = None,
    ) -> None:
        self.node = node
        self.group_address = group_address
        self.group_id = group_id
        self.port_id = port_id
        self.fingerprint = fingerprint
        self.handler_type = handler_type

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PortDescriptor)
            and self.node == other.node
            and self.group_address == other.group_address
            and self.group_id == other.group_id
            and self.port_id == other.port_id
            and self.fingerprint == other.fingerprint
        )

    def __hash__(self) -> int:
        return hash(
            (self.node, self.group_address, self.group_id, self.port_id, self.fingerprint)
        )

    def __repr__(self) -> str:
        return "<PortDescriptor %s@%s/%s>" % (self.port_id, self.node, self.group_address)


def _utf8(text: str) -> bytes:
    """*text* as UTF-8; a lone surrogate, which UTF-8 cannot carry, is an
    :class:`EncodeError` like every other untransmissible value."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise EncodeError("cannot encode %r as UTF-8: %s" % (text, exc.reason)) from exc


def _real(value: Any) -> float:
    try:
        return float(value)
    except OverflowError as exc:
        raise EncodeError("real out of range: %r" % (value,)) from exc


def _encode_str(out: bytearray, text: str) -> None:
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:
        data = _utf8(text)  # raises the EncodeError
    out += _LEN.pack(len(data))
    out += data


def _decode_str(data: bytes, offset: int) -> Tuple[str, int]:
    if offset + 4 > len(data):
        raise DecodeError("truncated string length")
    (length,) = _LEN.unpack_from(data, offset)
    offset += 4
    if offset + length > len(data):
        raise DecodeError("truncated string body")
    try:
        return data[offset : offset + length].decode("utf-8"), offset + length
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid UTF-8 in string: %s" % exc) from exc


def encode_value(tp: Type, value: Any, out: bytearray) -> None:
    """Append the external representation of *value* (of type *tp*)."""
    if isinstance(tp, IntType):
        if isinstance(value, bool) or not isinstance(value, int):
            raise EncodeError("expected int, got %r" % (value,))
        if not _INT_MIN <= value <= _INT_MAX:
            raise EncodeError("int out of 64-bit range: %r" % (value,))
        out += _INT.pack(value)
        return
    if isinstance(tp, RealType):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EncodeError("expected real, got %r" % (value,))
        out += _REAL.pack(_real(value))
        return
    if isinstance(tp, BoolType):
        if not isinstance(value, bool):
            raise EncodeError("expected bool, got %r" % (value,))
        out.append(1 if value else 0)
        return
    if isinstance(tp, CharType):
        if not isinstance(value, str) or len(value) != 1:
            raise EncodeError("expected char, got %r" % (value,))
        data = _utf8(value)
        out.append(len(data))
        out += data
        return
    if isinstance(tp, StringType):
        if not isinstance(value, str):
            raise EncodeError("expected string, got %r" % (value,))
        _encode_str(out, value)
        return
    if isinstance(tp, NullType):
        if value is not None:
            raise EncodeError("expected null, got %r" % (value,))
        return
    if isinstance(tp, ArrayOf):
        if not isinstance(value, (list, tuple)):
            raise EncodeError("expected array, got %r" % (value,))
        out += _LEN.pack(len(value))
        for element in value:
            encode_value(tp.element, element, out)
        return
    if isinstance(tp, RecordOf):
        if not isinstance(value, dict):
            raise EncodeError("expected record, got %r" % (value,))
        expected = tp.field_dict()
        if set(value.keys()) != set(expected.keys()):
            raise EncodeError(
                "record fields %r do not match %r"
                % (sorted(value.keys()), sorted(expected.keys()))
            )
        for fname, ftype in tp.fields:
            encode_value(ftype, value[fname], out)
        return
    if isinstance(tp, UserType):
        # User-provided translation; any error it raises is an encode error
        # (the paper: user code "may contain errors").
        try:
            external_value = tp.to_external(value)
        except Exception as exc:
            raise EncodeError(
                "user encode for %s failed: %s" % (tp.name(), exc)
            ) from exc
        encode_value(tp.external, external_value, out)
        return
    if isinstance(tp, PortRefType):
        descriptor = _port_descriptor_of(value)
        if descriptor is None:
            raise EncodeError("expected a port reference, got %r" % (value,))
        _encode_str(out, descriptor.node)
        _encode_str(out, descriptor.group_address)
        _encode_str(out, descriptor.group_id)
        _encode_str(out, descriptor.port_id)
        _encode_str(out, descriptor.fingerprint)
        return
    if isinstance(tp, AnyType):
        raise EncodeError("values of type 'any' are not transmissible")
    raise EncodeError("unknown type descriptor %r" % (tp,))


def _port_descriptor_of(value: Any) -> Any:
    if isinstance(value, PortDescriptor):
        return value
    descriptor = getattr(value, "descriptor", None)
    if isinstance(descriptor, PortDescriptor):
        return descriptor
    return None


def decode_value(tp: Type, data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one value of type *tp* at *offset*; return (value, new offset)."""
    if isinstance(tp, IntType):
        if offset + 8 > len(data):
            raise DecodeError("truncated int")
        (value,) = _INT.unpack_from(data, offset)
        return value, offset + 8
    if isinstance(tp, RealType):
        if offset + 8 > len(data):
            raise DecodeError("truncated real")
        (value,) = _REAL.unpack_from(data, offset)
        return value, offset + 8
    if isinstance(tp, BoolType):
        if offset + 1 > len(data):
            raise DecodeError("truncated bool")
        byte = data[offset]
        if byte not in (0, 1):
            raise DecodeError("invalid bool byte %r" % (byte,))
        return bool(byte), offset + 1
    if isinstance(tp, CharType):
        if offset + 1 > len(data):
            raise DecodeError("truncated char length")
        length = data[offset]
        offset += 1
        if offset + length > len(data):
            raise DecodeError("truncated char body")
        try:
            text = data[offset : offset + length].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DecodeError("invalid UTF-8 in char: %s" % exc) from exc
        if len(text) != 1:
            raise DecodeError("char decoded to %d characters" % len(text))
        return text, offset + length
    if isinstance(tp, StringType):
        return _decode_str(data, offset)
    if isinstance(tp, NullType):
        return None, offset
    if isinstance(tp, ArrayOf):
        if offset + 4 > len(data):
            raise DecodeError("truncated array count")
        (count,) = _LEN.unpack_from(data, offset)
        offset += 4
        # Sanity: a bogus count cannot claim more elements than the
        # remaining bytes could possibly hold.
        minimum = _min_encoded_size(tp.element)
        if minimum > 0 and count * minimum > len(data) - offset:
            raise DecodeError(
                "array count %d exceeds remaining payload" % (count,)
            )
        if count > 2**24:
            raise DecodeError("array count %d is implausibly large" % (count,))
        items = []
        for _ in range(count):
            element, offset = decode_value(tp.element, data, offset)
            items.append(element)
        return items, offset
    if isinstance(tp, RecordOf):
        record = {}
        for fname, ftype in tp.fields:
            record[fname], offset = decode_value(ftype, data, offset)
        return record, offset
    if isinstance(tp, UserType):
        external_value, offset = decode_value(tp.external, data, offset)
        try:
            return tp.from_external(external_value), offset
        except Exception as exc:
            raise DecodeError(
                "user decode for %s failed: %s" % (tp.name(), exc)
            ) from exc
    if isinstance(tp, PortRefType):
        node, offset = _decode_str(data, offset)
        group_address, offset = _decode_str(data, offset)
        group_id, offset = _decode_str(data, offset)
        port_id, offset = _decode_str(data, offset)
        fingerprint, offset = _decode_str(data, offset)
        expected = type_fingerprint(tp.handler_type)
        if fingerprint != expected:
            raise DecodeError(
                "port type mismatch: wire says %r, expected %r"
                % (fingerprint, expected)
            )
        return (
            PortDescriptor(
                node, group_address, group_id, port_id, fingerprint, tp.handler_type
            ),
            offset,
        )
    if isinstance(tp, AnyType):
        raise DecodeError("values of type 'any' are not transmissible")
    raise DecodeError("unknown type descriptor %r" % (tp,))


def _min_encoded_size(tp: Type) -> int:
    """A lower bound on the encoded size of any value of type *tp*."""
    if isinstance(tp, (IntType, RealType)):
        return 8
    if isinstance(tp, (BoolType, CharType)):
        return 1
    if isinstance(tp, (StringType, ArrayOf)):
        return 4
    if isinstance(tp, RecordOf):
        return sum(_min_encoded_size(ftype) for _f, ftype in tp.fields)
    if isinstance(tp, PortRefType):
        return 16  # four length-prefixed strings
    if isinstance(tp, UserType):
        return _min_encoded_size(tp.external)
    return 0


# ----------------------------------------------------------------------
# Compiled flat codecs
# ----------------------------------------------------------------------
# The tree-walking encode_value/decode_value above stay as the reference
# implementation (the fuzz suite round-trips every compiled codec against
# them), but per-call dispatch through an isinstance chain is the wrong
# cost model for the transport hot path.  compile_encoder/compile_decoder
# walk a type descriptor ONCE and return a flat closure specialized to
# it:
#
# * an encoder is ``(value, out) -> None`` appending the external
#   representation into a caller-supplied bytearray, with exact-class
#   fast paths and a slow path that reproduces the reference error
#   messages verbatim;
# * a decoder is ``(data, offset, out) -> new_offset`` appending the
#   decoded value to a caller-supplied list (no per-value result tuple)
#   and accepting bytes OR memoryview, so framed payloads can be decoded
#   in place without slicing copies.
#
# Compiled closures are cached as an attribute ON the type object — not
# in a dict keyed by type equality — because distinct UserType instances
# can compare equal while carrying different translation callables
# (see transmit.failing_user_type).


def compile_encoder(tp: Type):
    """The compiled flat encoder for *tp* (cached on the type object)."""
    try:
        return tp._compiled_encoder
    except AttributeError:
        encoder = _build_encoder(tp)
        tp._compiled_encoder = encoder
        return encoder


def compile_decoder(tp: Type):
    """The compiled flat decoder for *tp* (cached on the type object)."""
    try:
        return tp._compiled_decoder
    except AttributeError:
        decoder = _build_decoder(tp)
        tp._compiled_decoder = decoder
        return decoder


def _build_encoder(tp: Type):
    if isinstance(tp, IntType):

        def encode_int(value: Any, out: bytearray, _pack=_INT.pack) -> None:
            if value.__class__ is int:
                if _INT_MIN <= value <= _INT_MAX:
                    out += _pack(value)
                    return
                raise EncodeError("int out of 64-bit range: %r" % (value,))
            if isinstance(value, bool) or not isinstance(value, int):
                raise EncodeError("expected int, got %r" % (value,))
            if not _INT_MIN <= value <= _INT_MAX:
                raise EncodeError("int out of 64-bit range: %r" % (value,))
            out += _pack(value)

        return encode_int
    if isinstance(tp, RealType):

        def encode_real(value: Any, out: bytearray, _pack=_REAL.pack) -> None:
            if value.__class__ is float:
                out += _pack(value)
                return
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EncodeError("expected real, got %r" % (value,))
            out += _pack(_real(value))

        return encode_real
    if isinstance(tp, BoolType):

        def encode_bool(value: Any, out: bytearray) -> None:
            if value.__class__ is not bool:
                raise EncodeError("expected bool, got %r" % (value,))
            out.append(1 if value else 0)

        return encode_bool
    if isinstance(tp, CharType):

        def encode_char(value: Any, out: bytearray) -> None:
            if not isinstance(value, str) or len(value) != 1:
                raise EncodeError("expected char, got %r" % (value,))
            data = _utf8(value)
            out.append(len(data))
            out += data

        return encode_char
    if isinstance(tp, StringType):

        def encode_string(value: Any, out: bytearray, _pack=_LEN.pack) -> None:
            if value.__class__ is not str and not isinstance(value, str):
                raise EncodeError("expected string, got %r" % (value,))
            try:
                data = value.encode("utf-8")
            except UnicodeEncodeError:
                data = _utf8(value)  # raises the EncodeError
            out += _pack(len(data))
            out += data

        return encode_string
    if isinstance(tp, NullType):

        def encode_null(value: Any, out: bytearray) -> None:
            if value is not None:
                raise EncodeError("expected null, got %r" % (value,))

        return encode_null
    if isinstance(tp, ArrayOf):
        element_encoder = compile_encoder(tp.element)

        def encode_array(
            value: Any,
            out: bytearray,
            _pack=_LEN.pack,
            _element=element_encoder,
            _ints=isinstance(tp.element, IntType),
        ) -> None:
            cls = value.__class__
            if cls is not list and cls is not tuple:
                if not isinstance(value, (list, tuple)):
                    raise EncodeError("expected array, got %r" % (value,))
            out += _pack(len(value))
            if _ints:
                # An array of exact ints is one struct call.  Anything else
                # goes element by element: the element closure encodes an
                # int subclass and names a bool or an int outside 64 bits.
                for element in value:
                    if element.__class__ is not int:
                        break
                else:
                    try:
                        out += struct.pack(">%dq" % len(value), *value)
                        return
                    except struct.error:
                        pass
            for element in value:
                _element(element, out)

        return encode_array
    if isinstance(tp, RecordOf):
        field_encoders = [
            (fname, compile_encoder(ftype)) for fname, ftype in tp.fields
        ]
        expected_keys = frozenset(tp.field_dict().keys())

        def encode_record(value: Any, out: bytearray) -> None:
            if value.__class__ is not dict and not isinstance(value, dict):
                raise EncodeError("expected record, got %r" % (value,))
            if set(value.keys()) != expected_keys:
                raise EncodeError(
                    "record fields %r do not match %r"
                    % (sorted(value.keys()), sorted(expected_keys))
                )
            for fname, fencoder in field_encoders:
                fencoder(value[fname], out)

        return encode_record
    if isinstance(tp, UserType):
        external_encoder = compile_encoder(tp.external)
        to_external = tp.to_external
        type_name = tp.name()

        def encode_user(value: Any, out: bytearray) -> None:
            try:
                external_value = to_external(value)
            except Exception as exc:
                raise EncodeError(
                    "user encode for %s failed: %s" % (type_name, exc)
                ) from exc
            external_encoder(external_value, out)

        return encode_user
    if isinstance(tp, PortRefType):

        def encode_port(value: Any, out: bytearray) -> None:
            descriptor = _port_descriptor_of(value)
            if descriptor is None:
                raise EncodeError("expected a port reference, got %r" % (value,))
            _encode_str(out, descriptor.node)
            _encode_str(out, descriptor.group_address)
            _encode_str(out, descriptor.group_id)
            _encode_str(out, descriptor.port_id)
            _encode_str(out, descriptor.fingerprint)

        return encode_port
    if isinstance(tp, AnyType):

        def encode_any(value: Any, out: bytearray) -> None:
            raise EncodeError("values of type 'any' are not transmissible")

        return encode_any

    def encode_unknown(value: Any, out: bytearray, _tp=tp) -> None:
        raise EncodeError("unknown type descriptor %r" % (_tp,))

    return encode_unknown


def _decode_str_flat(data: Any, offset: int) -> Tuple[str, int]:
    """As :func:`_decode_str`, but accepts memoryview as well as bytes."""
    if offset + 4 > len(data):
        raise DecodeError("truncated string length")
    (length,) = _LEN.unpack_from(data, offset)
    offset += 4
    end = offset + length
    if end > len(data):
        raise DecodeError("truncated string body")
    chunk = data[offset:end]
    if chunk.__class__ is not bytes:
        chunk = bytes(chunk)
    try:
        return chunk.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise DecodeError("invalid UTF-8 in string: %s" % exc) from exc


def _build_decoder(tp: Type):
    if isinstance(tp, IntType):

        def decode_int(
            data: Any, offset: int, out: list, _unpack=_INT.unpack_from
        ) -> int:
            end = offset + 8
            if end > len(data):
                raise DecodeError("truncated int")
            out.append(_unpack(data, offset)[0])
            return end

        return decode_int
    if isinstance(tp, RealType):

        def decode_real(
            data: Any, offset: int, out: list, _unpack=_REAL.unpack_from
        ) -> int:
            end = offset + 8
            if end > len(data):
                raise DecodeError("truncated real")
            out.append(_unpack(data, offset)[0])
            return end

        return decode_real
    if isinstance(tp, BoolType):

        def decode_bool(data: Any, offset: int, out: list) -> int:
            if offset + 1 > len(data):
                raise DecodeError("truncated bool")
            byte = data[offset]
            if byte > 1:
                raise DecodeError("invalid bool byte %r" % (byte,))
            out.append(byte == 1)
            return offset + 1

        return decode_bool
    if isinstance(tp, CharType):

        def decode_char(data: Any, offset: int, out: list) -> int:
            if offset + 1 > len(data):
                raise DecodeError("truncated char length")
            length = data[offset]
            offset += 1
            end = offset + length
            if end > len(data):
                raise DecodeError("truncated char body")
            chunk = data[offset:end]
            if chunk.__class__ is not bytes:
                chunk = bytes(chunk)
            try:
                text = chunk.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DecodeError("invalid UTF-8 in char: %s" % exc) from exc
            if len(text) != 1:
                raise DecodeError("char decoded to %d characters" % len(text))
            out.append(text)
            return end

        return decode_char
    if isinstance(tp, StringType):

        def decode_string(
            data: Any, offset: int, out: list, _unpack=_LEN.unpack_from
        ) -> int:
            body = offset + 4
            if body > len(data):
                raise DecodeError("truncated string length")
            end = body + _unpack(data, offset)[0]
            if end > len(data):
                raise DecodeError("truncated string body")
            chunk = data[body:end]
            if chunk.__class__ is not bytes:
                chunk = bytes(chunk)
            try:
                out.append(chunk.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise DecodeError("invalid UTF-8 in string: %s" % exc) from exc
            return end

        return decode_string
    if isinstance(tp, NullType):

        def decode_null(data: Any, offset: int, out: list) -> int:
            out.append(None)
            return offset

        return decode_null
    if isinstance(tp, ArrayOf):
        element_decoder = compile_decoder(tp.element)
        minimum = _min_encoded_size(tp.element)

        def decode_array(
            data: Any,
            offset: int,
            out: list,
            _unpack=_LEN.unpack_from,
            _element=element_decoder,
            _minimum=minimum,
            _ints=isinstance(tp.element, IntType),
        ) -> int:
            if offset + 4 > len(data):
                raise DecodeError("truncated array count")
            count = _unpack(data, offset)[0]
            offset += 4
            if _minimum > 0 and count * _minimum > len(data) - offset:
                raise DecodeError(
                    "array count %d exceeds remaining payload" % (count,)
                )
            if count > 16777216:  # 2**24, as the reference decoder
                raise DecodeError("array count %d is implausibly large" % (count,))
            if _ints:  # the count guard above keeps the one struct call in bounds
                out.append(list(struct.unpack_from(">%dq" % count, data, offset)))
                return offset + 8 * count
            items: list = []
            for _ in range(count):
                offset = _element(data, offset, items)
            out.append(items)
            return offset

        return decode_array
    if isinstance(tp, RecordOf):
        field_decoders = [
            (fname, compile_decoder(ftype)) for fname, ftype in tp.fields
        ]

        def decode_record(data: Any, offset: int, out: list) -> int:
            record = {}
            for fname, fdecoder in field_decoders:
                offset = fdecoder(data, offset, out)
                record[fname] = out.pop()
            out.append(record)
            return offset

        return decode_record
    if isinstance(tp, UserType):
        external_decoder = compile_decoder(tp.external)
        from_external = tp.from_external
        type_name = tp.name()

        def decode_user(data: Any, offset: int, out: list) -> int:
            offset = external_decoder(data, offset, out)
            external_value = out.pop()
            try:
                out.append(from_external(external_value))
            except Exception as exc:
                raise DecodeError(
                    "user decode for %s failed: %s" % (type_name, exc)
                ) from exc
            return offset

        return decode_user
    if isinstance(tp, PortRefType):
        handler_type = tp.handler_type
        expected_fingerprint = type_fingerprint(handler_type)

        def decode_port(data: Any, offset: int, out: list) -> int:
            node, offset = _decode_str_flat(data, offset)
            group_address, offset = _decode_str_flat(data, offset)
            group_id, offset = _decode_str_flat(data, offset)
            port_id, offset = _decode_str_flat(data, offset)
            fingerprint, offset = _decode_str_flat(data, offset)
            if fingerprint != expected_fingerprint:
                raise DecodeError(
                    "port type mismatch: wire says %r, expected %r"
                    % (fingerprint, expected_fingerprint)
                )
            out.append(
                PortDescriptor(
                    node,
                    group_address,
                    group_id,
                    port_id,
                    fingerprint,
                    handler_type,
                )
            )
            return offset

        return decode_port
    if isinstance(tp, AnyType):

        def decode_any(data: Any, offset: int, out: list) -> int:
            raise DecodeError("values of type 'any' are not transmissible")

        return decode_any

    def decode_unknown(data: Any, offset: int, out: list, _tp=tp) -> int:
        raise DecodeError("unknown type descriptor %r" % (_tp,))

    return decode_unknown


def encode_values(types: Sequence[Type], values: Sequence[Any]) -> bytes:
    """Encode a tuple of values (call arguments or results)."""
    if len(types) != len(values):
        raise EncodeError(
            "value count %d does not match type count %d" % (len(values), len(types))
        )
    out = bytearray()
    for tp, value in zip(types, values):
        encode_value(tp, value, out)
    return bytes(out)


def decode_values(types: Sequence[Type], data: bytes) -> Tuple[Any, ...]:
    """Decode a tuple of values; the entire buffer must be consumed."""
    offset = 0
    values = []
    for tp in types:
        value, offset = decode_value(tp, data, offset)
        values.append(value)
    if offset != len(data):
        raise DecodeError(
            "%d trailing bytes after decoding" % (len(data) - offset)
        )
    return tuple(values)
