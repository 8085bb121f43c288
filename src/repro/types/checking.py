"""Runtime conformance checking of values against the type algebra.

Argus is statically typed; our Python embedding recovers the same guarantees
dynamically: a promise checks its outcome against its promise type once,
when it resolves (:func:`check_reply`), so no claim checks again.  A
violation at the sending side is a programming error (:class:`TypeViolation`);
a violation discovered while decoding a message maps to the ``failure``
exception, per section 3 of the paper.

:func:`compile_checker` is the one walker: one closure per type, exact
classes first, one loop per array of scalars, and no path string unless a
value fails (each array or record re-roots the violation as it unwinds).
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

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

__all__ = ["TypeViolation", "compile_checker", "check_value", "check_results", "check_reply"]

_ROOT = "value"


class TypeViolation(TypeError):
    """A value does not conform to its declared type."""

    def __init__(self, expected: Type, value: Any, path: str = _ROOT) -> None:
        super().__init__(
            "%s %r does not conform to type %s" % (path, value, expected.name())
        )
        self.expected = expected
        self.value = value
        self.path = path


def _rerooted(violation: TypeViolation, root: str) -> TypeViolation:
    """*violation*, raised under the path ``value``, under *root* instead."""
    return TypeViolation(violation.expected, violation.value, root + violation.path[len(_ROOT):])


def compile_checker(tp: Type) -> Callable[[Any], None]:
    """``check(value)``: None, or :class:`TypeViolation` under the path
    ``value``.  Cached on the type object itself, not by type equality:
    equal user types may carry different validators."""
    try:
        return tp._compiled_checker
    except AttributeError:
        checker = tp._compiled_checker = _build_checker(tp)
        return checker


#: The atomic types: the class whose instances conform outright, and the
#: test for any other value (an Argus real takes an int: widening).
_SCALARS = {
    IntType: (int, lambda v: isinstance(v, int) and not isinstance(v, bool)),
    RealType: (float, lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    BoolType: (bool, lambda v: False),
    CharType: (None, lambda v: isinstance(v, str) and len(v) == 1),
    StringType: (str, lambda v: isinstance(v, str)),
    NullType: (type(None), lambda v: False),
    AnyType: (None, lambda v: True),
}


def _leaf(tp: Type) -> Tuple[Optional[type], Callable[[Any], bool]]:
    """``(exact class or None, test)`` for a type without parts."""
    if tp.__class__ in _SCALARS:
        return _SCALARS[tp.__class__]
    if isinstance(tp, HandlerType):  # a handler reference: an equal handler type
        return None, lambda v: getattr(v, "handler_type", None) == tp
    if isinstance(tp, PromiseType):
        return None, lambda v: getattr(v, "ptype", None) == tp
    if isinstance(tp, UserType):  # whatever the validator says; the encoder is the real gate
        validate = tp.validate
        return None, lambda v: validate is None or validate(v)
    if isinstance(tp, PortRefType):  # anything quacking like a port reference
        return None, lambda v: (
            getattr(v, "port_id", None) is not None
            and getattr(v, "handler_type", None) == tp.handler_type
        )

    def unknown(value: Any) -> bool:
        raise TypeError("unknown type descriptor %r" % (tp,))

    return None, unknown


def _build_checker(tp: Type) -> Callable[[Any], None]:
    if isinstance(tp, ArrayOf):
        element = compile_checker(tp.element)
        exact = _leaf(tp.element)[0]

        def check_array(value: Any) -> None:
            if value.__class__ is not list and not isinstance(value, (list, tuple)):
                raise TypeViolation(tp, value)
            try:
                for index, item in enumerate(value):
                    if item.__class__ is not exact:
                        element(item)
            except TypeViolation as violation:
                raise _rerooted(violation, "%s[%d]" % (_ROOT, index)) from None

        return check_array
    if isinstance(tp, RecordOf):
        fields = [(name, _leaf(ftype)[0], compile_checker(ftype)) for name, ftype in tp.fields]
        keys = frozenset(tp.field_dict())

        def check_record(value: Any) -> None:
            if not isinstance(value, dict) or value.keys() != keys:
                raise TypeViolation(tp, value)
            for name, exact, check in fields:
                item = value[name]
                if item.__class__ is not exact:
                    try:
                        check(item)
                    except TypeViolation as violation:
                        raise _rerooted(violation, "%s.%s" % (_ROOT, name)) from None

        return check_record
    exact, test = _leaf(tp)

    def check_leaf(value: Any) -> None:
        if value.__class__ is not exact and not test(value):
            raise TypeViolation(tp, value)

    return check_leaf


def check_value(tp: Type, value: Any, path: str = _ROOT) -> None:
    """Raise :class:`TypeViolation` unless *value* conforms to *tp*."""
    try:
        compile_checker(tp)(value)
    except TypeViolation as violation:
        raise _rerooted(violation, path) from None


def check_results(returns: Tuple[Type, ...], results: Sequence[Any]) -> None:
    """Check a normal reply's result tuple against the declared results."""
    check_reply(PromiseType(returns=returns), results)


def check_reply(ptype: PromiseType, values: Sequence[Any], signal: Optional[str] = None) -> None:
    """Check a promise's results (*signal* None) or the arguments of its
    declared exception *signal*, whose count the caller has checked: the
    promise's one call into this module, through checkers compiled once
    per promise type and cached on it."""
    try:
        table = ptype._compiled_checkers
    except AttributeError:
        table = {None: ("result", tuple(map(compile_checker, ptype.returns)))}
        for name, types in ptype.signals.items():
            table[name] = ("exception result", tuple(map(compile_checker, types)))
        ptype._compiled_checkers = table
    noun, checkers = table[signal]
    if len(values) != len(checkers):
        counts = (noun, len(values), len(checkers))
        raise TypeViolation(ANY, tuple(values), "%s count (%d given, %d expected)" % counts)
    try:
        for index, (check, value) in enumerate(zip(checkers, values)):
            check(value)
    except TypeViolation as violation:
        raise _rerooted(violation, "%s %d" % (noun, index)) from None
