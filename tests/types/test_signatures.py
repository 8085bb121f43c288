"""Unit tests for the type algebra and signature derivation."""

import pytest

from repro.types import (
    ANY,
    BOOL,
    CHAR,
    INT,
    NULL,
    REAL,
    STRING,
    ArrayOf,
    HandlerType,
    PortRefType,
    PromiseType,
    RecordOf,
    SignatureError,
    Type,
    UserType,
)


def test_primitive_names():
    assert INT.name() == "int"
    assert REAL.name() == "real"
    assert BOOL.name() == "bool"
    assert CHAR.name() == "char"
    assert STRING.name() == "string"
    assert NULL.name() == "null"
    assert ANY.name() == "any"


def test_primitive_equality_and_hash():
    assert INT == INT
    assert INT != REAL
    assert hash(INT) == hash(INT)
    assert len({INT, REAL, INT}) == 2


def test_array_structural_equality():
    assert ArrayOf(INT) == ArrayOf(INT)
    assert ArrayOf(INT) != ArrayOf(REAL)
    assert ArrayOf(ArrayOf(STRING)).name() == "array[array[string]]"


def test_array_requires_type():
    with pytest.raises(SignatureError):
        ArrayOf("int")


def test_record_fields_and_order():
    record = RecordOf({"stu": STRING, "grade": INT})
    assert record.field_dict() == {"stu": STRING, "grade": INT}
    assert record.name() == "record[stu: string, grade: int]"
    # Field order matters for equality (wire format depends on it).
    assert record != RecordOf({"grade": INT, "stu": STRING})


def test_record_requires_fields():
    with pytest.raises(SignatureError):
        RecordOf({})


def test_handler_type_paper_example():
    """The paper's `ht = handlertype (int) returns (real) signals (foo)`."""
    ht = HandlerType(args=[INT], returns=[REAL], signals={"foo": []})
    assert ht.args == (INT,)
    assert ht.returns == (REAL,)
    assert ht.signals == {"foo": ()}
    assert "returns (real)" in repr(ht)
    assert "signals (foo)" in repr(ht)


def test_promise_type_derivation():
    """`pt = promise returns (real) signals (foo)` derives from ht (§3)."""
    ht = HandlerType(args=[INT], returns=[REAL], signals={"foo": [CHAR]})
    pt = ht.promise_type()
    assert pt == PromiseType(returns=[REAL], signals={"foo": [CHAR]})
    assert pt.returns == (REAL,)
    assert pt.signals == {"foo": (CHAR,)}
    # Derived once per handler type: every stream call shares it.
    assert ht.promise_type() is pt


def test_implicit_signals_cannot_be_declared():
    """'We do not bother to list these exceptions explicitly.'"""
    for reserved in ("unavailable", "failure"):
        with pytest.raises(SignatureError):
            HandlerType(signals={reserved: []})
        with pytest.raises(SignatureError):
            PromiseType(signals={reserved: []})


def test_implicit_signals_always_declared():
    ht = HandlerType(args=[INT])
    assert ht.declares_signal("unavailable")
    assert ht.declares_signal("failure")
    assert not ht.declares_signal("foo")
    pt = ht.promise_type()
    assert pt.declares_signal("unavailable")
    assert pt.declares_signal("failure")


def test_handler_type_equality():
    a = HandlerType(args=[INT], returns=[REAL], signals={"e": [STRING]})
    b = HandlerType(args=[INT], returns=[REAL], signals={"e": [STRING]})
    assert a == b
    assert hash(a) == hash(b)
    assert a != HandlerType(args=[INT], returns=[REAL])


def test_has_results_determines_send_eligibility():
    assert HandlerType(returns=[INT]).has_results
    assert not HandlerType().has_results


def test_port_ref_type():
    ht = HandlerType(args=[CHAR])
    port = PortRefType(ht)
    assert port.handler_type == ht
    assert port == PortRefType(HandlerType(args=[CHAR]))
    assert port != PortRefType(HandlerType(args=[INT]))
    assert port.name().startswith("port")


def test_port_ref_requires_handler_type():
    with pytest.raises(SignatureError):
        PortRefType(INT)


def test_handler_and_promise_are_first_class_types():
    ht = HandlerType(args=[INT])
    pt = ht.promise_type()
    assert isinstance(ht, Type)
    assert isinstance(pt, Type)
    assert ArrayOf(pt).name() == "array[promise]"


def test_user_type_construction():
    ut = UserType("money", STRING, str, lambda s: s)
    assert ut.name() == "money"
    assert ut.external == STRING


def test_user_type_external_must_be_concrete():
    with pytest.raises(SignatureError):
        UserType("bad", ANY, str, str)
    with pytest.raises(SignatureError):
        UserType("worse", UserType("inner", STRING, str, str), str, str)


def test_invalid_signature_parts_rejected():
    with pytest.raises(SignatureError):
        HandlerType(args=["int"])
    with pytest.raises(SignatureError):
        HandlerType(signals={"e": ["char"]})
