"""Properties of the compiled type checkers.

Two oracles, over random types and values:

1. **The encoder.**  Over the types both sides understand, a compiled
   checker rejects a value exactly when the compiled encoder raises
   :class:`EncodeError`.  Where they differ, the difference is by design;
   each is listed in :data:`DIFFERENCES` and pinned by an example below.
2. **The tree walk the checkers replaced.**  :func:`frozen_check_value` is
   a verbatim copy of the old ``check_value``.  The compiled checker
   rejects the same values, and every :class:`TypeViolation` carries the
   same message, path, expected type and value.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import EncodeError
from repro.encoding.xrep import compile_encoder, encode_value
from repro.types import (
    ANY,
    BOOL,
    CHAR,
    INT,
    NULL,
    REAL,
    STRING,
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
    TypeViolation,
    UserType,
    check_results,
    check_value,
    compile_checker,
)


# ----------------------------------------------------------------------
# The frozen tree walk (the checker before compile_checker replaced it)
# ----------------------------------------------------------------------
def frozen_check_value(tp, value, path="value"):
    if isinstance(tp, AnyType):
        return
    if isinstance(tp, IntType):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, RealType):
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
            frozen_check_value(tp.element, element, "%s[%d]" % (path, i))
        return
    if isinstance(tp, RecordOf):
        if not isinstance(value, dict):
            raise TypeViolation(tp, value, path)
        expected_fields = tp.field_dict()
        if set(value.keys()) != set(expected_fields.keys()):
            raise TypeViolation(tp, value, path)
        for fname, ftype in expected_fields.items():
            frozen_check_value(ftype, value[fname], "%s.%s" % (path, fname))
        return
    if isinstance(tp, HandlerType):
        if getattr(value, "handler_type", None) != tp:
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, PromiseType):
        if getattr(value, "ptype", None) != tp:
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, UserType):
        if tp.validate is not None and not tp.validate(value):
            raise TypeViolation(tp, value, path)
        return
    if isinstance(tp, PortRefType):
        handler_type = getattr(value, "handler_type", None)
        if getattr(value, "port_id", None) is None or handler_type is None:
            raise TypeViolation(tp, value, path)
        if handler_type != tp.handler_type:
            raise TypeViolation(tp, value, path)
        return
    raise TypeError("unknown type descriptor %r" % (tp,))


def frozen_check_results(returns, results):
    if len(results) != len(returns):
        raise TypeViolation(
            ANY,
            tuple(results),
            "result count (%d given, %d expected)" % (len(results), len(returns)),
        )
    for i, (tp, value) in enumerate(zip(returns, results)):
        frozen_check_value(tp, value, "result %d" % i)


# ----------------------------------------------------------------------
# Types and values
# ----------------------------------------------------------------------
INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def _to_int_external(value):
    if value.__class__ is not int or not INT64_MIN <= value <= INT64_MAX:
        raise ValueError("not a 64-bit int")
    return value


def _int_validate(value):
    return value.__class__ is int and INT64_MIN <= value <= INT64_MAX


#: A user type whose validator accepts exactly what its to_external can
#: translate: the checker and the encoder agree on it.
AGREEING_USER = UserType("counter", INT, _to_int_external, lambda v: v, validate=_int_validate)
#: A user type whose validator and to_external disagree (see DIFFERENCES).
DIVERGENT_USER = UserType("label", STRING, str, lambda v: v, validate=lambda v: v == "ok")

ECHO = HandlerType(args=[INT], returns=[INT])
OTHER = HandlerType(args=[STRING], returns=[])

#: Where the checker and the encoder disagree by design.
DIFFERENCES = {
    "any": "ANY is the checker's escape hatch and accepts every value; "
    "the encoder refuses to transmit it at all",
    "int64": "an int outside 64 bits is still an Argus int to the checker; "
    "only the external representation has 64 bits",
    "user": "the checker asks UserType.validate, the encoder asks to_external: "
    "two user callables that need not agree",
    "surrogate": "a str holding a lone surrogate is a string to the checker; "
    "UTF-8 cannot carry it, so the encoder refuses it",
    "refs": "HandlerType and PromiseType values are never transmissible, and a "
    "PortRefType value is checked by its handler type but encoded from its "
    "port descriptor",
}

SHARED_LEAVES = [INT, REAL, BOOL, CHAR, STRING, NULL, AGREEING_USER]
DIFFERENT_LEAVES = [ANY, DIVERGENT_USER, ECHO, ECHO.promise_type(), PortRefType(ECHO)]
FIELD_NAMES = ["a", "b", "name"]


def type_strategy(leaves):
    return st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.one_of(
            inner.map(ArrayOf),
            st.dictionaries(st.sampled_from(FIELD_NAMES), inner, min_size=1, max_size=3).map(
                RecordOf
            ),
        ),
        max_leaves=6,
    )


#: Characters and text, by whether they may hold a lone surrogate (drawn
#: often enough that a run of the properties meets several).
CHARS = {
    False: st.characters(blacklist_categories=("Cs",)),
    True: st.one_of(st.characters(), st.characters(whitelist_categories=("Cs",))),
}
TEXT = {listed: st.text(chars, max_size=3) for listed, chars in CHARS.items()}


def _junk(listed):
    ints = st.integers() if listed else st.integers(INT64_MIN, INT64_MAX)
    refs = st.sampled_from(
        [
            SimpleNamespace(handler_type=ECHO, port_id="p", ptype=ECHO.promise_type()),
            SimpleNamespace(handler_type=OTHER, port_id="p", ptype=OTHER.promise_type()),
            SimpleNamespace(handler_type=ECHO, port_id=None),
        ]
    )
    scalars = st.one_of(
        ints, st.floats(allow_nan=False), st.booleans(), TEXT[listed], st.none(), refs
    )
    return st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(st.sampled_from(FIELD_NAMES), inner, max_size=3),
        ),
        max_leaves=6,
    )


#: Values of any shape, by whether they may hit the listed value-level
#: differences: ints beyond 64 bits and lone surrogates.
JUNK = {False: _junk(False), True: _junk(True)}
INTS = {False: st.integers(INT64_MIN, INT64_MAX), True: st.integers()}


def value_for(draw, tp, listed):
    """A value for *tp*: conforming all the way down, or junk at some depth."""
    if draw(st.integers(0, 4)) == 0:
        return draw(JUNK[listed])
    if isinstance(tp, ArrayOf):
        items = [value_for(draw, tp.element, listed) for _ in range(draw(st.integers(0, 3)))]
        return tuple(items) if draw(st.booleans()) else items
    if isinstance(tp, RecordOf):
        return {fname: value_for(draw, ftype, listed) for fname, ftype in tp.fields}
    if tp is INT or tp is AGREEING_USER:
        return draw(INTS[listed])
    if tp is REAL:
        return draw(st.floats(allow_nan=False))
    if tp is BOOL:
        return draw(st.booleans())
    if tp is CHAR:
        return draw(CHARS[listed])
    if tp is STRING:
        return draw(TEXT[listed])
    if tp is NULL:
        return None
    if tp is DIVERGENT_USER:
        return draw(st.sampled_from(["ok", "no", 3]))
    return draw(JUNK[listed])


@st.composite
def typed_values(draw, types, listed):
    tp = draw(types)
    return tp, value_for(draw, tp, listed)


#: (type, value) pairs over the shared algebra: ints within 64 bits and
#: text without lone surrogates.
SHARED_CASES = typed_values(type_strategy(SHARED_LEAVES), listed=False)
#: (type, value) pairs over every kind of type, any int, any text.
ALL_CASES = typed_values(type_strategy(SHARED_LEAVES + DIFFERENT_LEAVES), listed=True)


def rejection(check, *args):
    """The TypeViolation *check* raises, or None."""
    try:
        check(*args)
    except TypeViolation as violation:
        return violation
    return None


def encoder_rejects(tp, value, encode=None):
    try:
        if encode is None:
            compile_encoder(tp)(value, bytearray())
        else:
            encode(tp, value, bytearray())
    except EncodeError:
        return True
    return False


def same_violation(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert str(got) == str(want)
        assert got.path == want.path
        assert got.expected == want.expected
        assert got.value is want.value or got.value == want.value


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(SHARED_CASES)
def test_checker_rejects_exactly_what_the_encoder_rejects(case):
    tp, value = case
    rejected = rejection(compile_checker(tp), value) is not None
    assert rejected == encoder_rejects(tp, value)


@settings(max_examples=200, deadline=None)
@given(ALL_CASES, st.sampled_from(["value", "arg 2"]))
def test_violations_equal_the_frozen_walkers(case, path):
    tp, value = case
    same_violation(rejection(compile_checker(tp), value), rejection(frozen_check_value, tp, value))
    same_violation(
        rejection(check_value, tp, value, path), rejection(frozen_check_value, tp, value, path)
    )


@settings(max_examples=100, deadline=None)
@given(st.lists(ALL_CASES, max_size=3), st.integers(0, 3))
def test_result_violations_equal_the_frozen_walkers(cases, declared):
    returns = tuple(tp for tp, _ in cases)[:declared]
    results = tuple(value for _, value in cases)
    same_violation(
        rejection(check_results, returns, results),
        rejection(frozen_check_results, returns, results),
    )


@settings(max_examples=200, deadline=None)
@given(ALL_CASES)
def test_encoders_raise_nothing_but_encode_error(case):
    """Over every type and value, listed differences included, the
    compiled and the reference encoder refuse alike, with EncodeError."""
    tp, value = case
    assert encoder_rejects(tp, value) == encoder_rejects(tp, value, encode_value)


# ----------------------------------------------------------------------
# The listed differences, one example each
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "difference, tp, value",
    [
        ("any", ANY, 7),
        ("any", ArrayOf(ANY), [object()]),
        ("int64", INT, 2**63),
        ("int64", ArrayOf(INT), [1, -(2**63) - 1]),
        ("surrogate", STRING, "bad\ud800"),
        ("surrogate", ArrayOf(CHAR), ["a", "\udfff"]),
        ("refs", ECHO, SimpleNamespace(handler_type=ECHO)),
        ("refs", ECHO.promise_type(), SimpleNamespace(ptype=ECHO.promise_type())),
        ("refs", PortRefType(ECHO), SimpleNamespace(handler_type=ECHO, port_id="p")),
    ],
)
def test_listed_difference_checker_accepts_what_the_encoder_refuses(difference, tp, value):
    assert difference in DIFFERENCES
    compile_checker(tp)(value)
    with pytest.raises(EncodeError):
        compile_encoder(tp)(value, bytearray())


def test_listed_difference_user_validate_refuses_what_to_external_translates():
    with pytest.raises(TypeViolation):
        compile_checker(DIVERGENT_USER)("no")
    compile_encoder(DIVERGENT_USER)("no", bytearray())
