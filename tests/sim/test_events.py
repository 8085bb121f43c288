"""Unit tests for events."""

import pytest

from repro.sim import Event


def test_event_starts_untriggered(env):
    event = Event(env)
    assert not event.triggered
    assert not event.processed


def test_succeed_sets_value(env):
    event = Event(env)
    event.succeed(42)
    assert event.triggered
    assert event.ok
    assert event.value == 42


def test_fail_sets_exception(env):
    event = Event(env)
    error = RuntimeError("x")
    event.defused = True
    event.fail(error)
    assert event.triggered
    assert not event.ok
    assert event.value is error


def test_succeed_twice_rejected(env):
    event = Event(env)
    event.succeed()
    with pytest.raises(RuntimeError):
        event.succeed()


def test_fail_then_succeed_rejected(env):
    event = Event(env)
    event.defused = True
    event.fail(ValueError())
    with pytest.raises(RuntimeError):
        event.succeed()


def test_fail_requires_exception(env):
    event = Event(env)
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_value_before_trigger_rejected(env):
    event = Event(env)
    with pytest.raises(RuntimeError):
        event.value
    with pytest.raises(RuntimeError):
        event.ok


def test_value_or_raise_on_failure(env):
    event = Event(env)
    event.defused = True
    event.fail(KeyError("k"))
    with pytest.raises(KeyError):
        event.value_or_raise()


def test_callbacks_run_on_fire(env):
    event = Event(env)
    seen = []
    event.callbacks.append(lambda e: seen.append(e.value))
    event.succeed("v")
    env.run()
    assert seen == ["v"]
    assert event.processed


def test_unhandled_failed_event_raises_at_run(env):
    event = Event(env)
    event.fail(RuntimeError("unhandled"))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_defused_failed_event_does_not_raise(env):
    event = Event(env)
    event.defused = True
    event.fail(RuntimeError("handled"))
    env.run()  # no exception
