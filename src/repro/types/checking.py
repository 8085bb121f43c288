"""Runtime conformance checking of values against the type algebra.

Argus is statically typed; our Python embedding recovers the same guarantees
dynamically: every handler call checks its arguments against the handler
type, and every reply is checked before a promise becomes ready.  A
violation at the sending side is a programming error (:class:`TypeViolation`);
a violation discovered while decoding a message maps to the ``failure``
exception, per section 3 of the paper.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.types.signatures import (
    ANY,
    AnyType,
    ArrayOf,
    BoolType,
    CharType,
    HandlerType,
    IntType,
    NullType,
    PortRefType,
    PromiseType,
    RealType,
    RecordOf,
    StringType,
    Type,
    UserType,
)

__all__ = ["TypeViolation", "check_value", "check_results"]


class TypeViolation(TypeError):
    """A value does not conform to its declared type."""

    def __init__(self, expected: Type, value: Any, path: str = "value") -> None:
        super().__init__(
            "%s %r does not conform to type %s" % (path, value, expected.name())
        )
        self.expected = expected
        self.value = value
        self.path = path


def check_value(tp: Type, value: Any, path: str = "value") -> None:
    """Raise :class:`TypeViolation` unless *value* conforms to *tp*."""
    if isinstance(tp, AnyType):
        return
    if isinstance(tp, IntType):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, RealType):
        # Argus real; accept ints where a real is expected (widening).
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, BoolType):
        if not isinstance(value, bool):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, CharType):
        if not isinstance(value, str) or len(value) != 1:
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, StringType):
        if not isinstance(value, str):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, NullType):
        if value is not None:
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, ArrayOf):
        if not isinstance(value, (list, tuple)):
            raise TypeViolation(tp, value, path)
        for i, element in enumerate(value):
            check_value(tp.element, element, "%s[%d]" % (path, i))
        return
    if isinstance(tp, RecordOf):
        if not isinstance(value, dict):
            raise TypeViolation(tp, value, path)
        expected_fields = tp.field_dict()
        if set(value.keys()) != set(expected_fields.keys()):
            raise TypeViolation(tp, value, path)
        for fname, ftype in expected_fields.items():
            check_value(ftype, value[fname], "%s.%s" % (path, fname))
        return
    if isinstance(tp, HandlerType):
        # A handler reference: anything carrying an equal handler type.
        if getattr(value, "handler_type", None) != tp:
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, PromiseType):
        if getattr(value, "ptype", None) != tp:
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, UserType):
        # Abstract types: conformance is whatever the user's validator says;
        # without one we accept any value (the encoder is the real gate).
        if tp.validate is not None and not tp.validate(value):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, PortRefType):
        # Anything quacking like a port reference: must expose a port id and
        # a handler type equal to the declared one.
        handler_type = getattr(value, "handler_type", None)
        if getattr(value, "port_id", None) is None or handler_type is None:
            raise TypeViolation(tp, value, path)
        if handler_type != tp.handler_type:
            raise TypeViolation(tp, value, path)
        return
    raise TypeError("unknown type descriptor %r" % (tp,))


def check_results(returns: Tuple[Type, ...], results: Sequence[Any]) -> None:
    """Check a normal reply's result tuple against the declared results."""
    if len(results) != len(returns):
        raise TypeViolation(
            ANY,
            tuple(results),
            "result count (%d given, %d expected)" % (len(results), len(returns)),
        )
    for i, (tp, value) in enumerate(zip(returns, results)):
        check_value(tp, value, "result %d" % i)
