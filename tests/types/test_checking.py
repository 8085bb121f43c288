"""Unit tests for runtime value conformance checking."""

import pytest

from repro.encoding import PortDescriptor, type_fingerprint
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
    RecordOf,
    TypeViolation,
    UserType,
    check_results,
    check_value,
)


def test_int_conformance():
    check_value(INT, 5)
    check_value(INT, -2**63)
    with pytest.raises(TypeViolation):
        check_value(INT, 5.0)
    with pytest.raises(TypeViolation):
        check_value(INT, True)  # bools are not ints in this algebra
    with pytest.raises(TypeViolation):
        check_value(INT, "5")


def test_real_accepts_int_widening():
    check_value(REAL, 2.5)
    check_value(REAL, 3)
    with pytest.raises(TypeViolation):
        check_value(REAL, True)
    with pytest.raises(TypeViolation):
        check_value(REAL, "x")


def test_bool_conformance():
    check_value(BOOL, True)
    with pytest.raises(TypeViolation):
        check_value(BOOL, 1)


def test_char_conformance():
    check_value(CHAR, "x")
    check_value(CHAR, "é")
    with pytest.raises(TypeViolation):
        check_value(CHAR, "xy")
    with pytest.raises(TypeViolation):
        check_value(CHAR, "")


def test_string_conformance():
    check_value(STRING, "")
    check_value(STRING, "hello")
    with pytest.raises(TypeViolation):
        check_value(STRING, 5)


def test_null_conformance():
    check_value(NULL, None)
    with pytest.raises(TypeViolation):
        check_value(NULL, 0)


def test_any_accepts_everything():
    check_value(ANY, object())
    check_value(ANY, None)


def test_array_conformance():
    check_value(ArrayOf(INT), [1, 2, 3])
    check_value(ArrayOf(INT), ())
    with pytest.raises(TypeViolation):
        check_value(ArrayOf(INT), [1, "two"])
    with pytest.raises(TypeViolation):
        check_value(ArrayOf(INT), "not an array")


def test_nested_array_violation_has_path():
    with pytest.raises(TypeViolation) as info:
        check_value(ArrayOf(ArrayOf(INT)), [[1], [2, "x"]], path="arg")
    assert "arg[1][1]" in str(info.value)


def test_record_conformance():
    record = RecordOf({"stu": STRING, "grade": INT})
    check_value(record, {"stu": "amy", "grade": 90})
    with pytest.raises(TypeViolation):
        check_value(record, {"stu": "amy"})  # missing field
    with pytest.raises(TypeViolation):
        check_value(record, {"stu": "amy", "grade": 90, "extra": 1})
    with pytest.raises(TypeViolation):
        check_value(record, {"stu": "amy", "grade": "A"})


def test_handler_type_conformance_checks_ref():
    ht = HandlerType(args=[INT])

    class FakeRef:
        handler_type = ht

    check_value(ht, FakeRef())
    with pytest.raises(TypeViolation):
        check_value(ht, object())


def test_port_ref_conformance():
    from repro.types import PortRefType

    ht = HandlerType(args=[CHAR])
    descriptor = PortDescriptor("n", "g:x", "main", "putc", type_fingerprint(ht), ht)

    class FakePort:
        port_id = "putc"
        handler_type = ht

    check_value(PortRefType(ht), FakePort())
    with pytest.raises(TypeViolation):
        check_value(PortRefType(HandlerType(args=[INT])), FakePort())


def test_user_type_validator():
    positive = UserType("pos", INT, int, int, validate=lambda v: isinstance(v, int) and v > 0)
    check_value(positive, 5)
    with pytest.raises(TypeViolation):
        check_value(positive, -5)
    # Without a validator, anything passes.
    anything = UserType("box", STRING, str, str)
    check_value(anything, object())


def test_check_results_count_and_types():
    check_results((REAL,), (3.5,))
    with pytest.raises(TypeViolation):
        check_results((REAL,), ())
    with pytest.raises(TypeViolation):
        check_results((REAL, INT), (1.0, "x"))
