"""Unit tests for simulated processes: completion, failure, interruption."""

import pytest

from repro.sim import Event, Interrupt, Process, ProcessKilled


def test_process_returns_value(env):
    def proc(env):
        yield env.timeout(1.0)
        return "result"

    process = env.process(proc(env))
    assert env.run(until=process) == "result"


def test_process_with_no_return_yields_none(env):
    def proc(env):
        yield env.timeout(1.0)

    assert env.run(until=env.process(proc(env))) is None


def test_process_is_alive_until_done(env):
    def proc(env):
        yield env.timeout(2.0)

    process = env.process(proc(env))
    assert process.is_alive
    env.run()
    assert not process.is_alive


def test_process_exception_propagates_to_waiter(env):
    def failing(env):
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter(env, target):
        try:
            yield target
        except ValueError as exc:
            return "caught %s" % exc

    target = env.process(failing(env))
    process = env.process(waiter(env, target))
    assert env.run(until=process) == "caught inner"


def test_unhandled_process_exception_crashes_run(env):
    def failing(env):
        yield env.timeout(1.0)
        raise RuntimeError("no one caught me")

    env.process(failing(env))
    with pytest.raises(RuntimeError, match="no one caught me"):
        env.run()


def test_process_requires_generator(env):
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_yielding_non_event_fails_process(env):
    def bad(env):
        yield 42

    process = env.process(bad(env))
    with pytest.raises(TypeError, match="non-event"):
        env.run(until=process)


def test_interrupt_delivered_as_exception(env):
    def sleeper(env):
        try:
            yield env.timeout(100.0)
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, env.now)

    process = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(2.0)
        process.interrupt("reason")

    env.process(killer(env))
    assert env.run(until=process) == ("interrupted", "reason", 2.0)


def test_interrupt_finished_process_rejected(env):
    def quick(env):
        yield env.timeout(1.0)

    process = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        process.interrupt()


def test_self_interrupt_rejected(env):
    def selfish(env):
        process = env.active_process
        with pytest.raises(RuntimeError):
            process.interrupt()
        yield env.timeout(0.1)
        return "ok"

    process = env.process(selfish(env))
    assert env.run(until=process) == "ok"


def test_uncaught_interrupt_fails_process(env):
    def sleeper(env):
        yield env.timeout(100.0)

    process = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(1.0)
        process.interrupt("bye")

    killer_proc = env.process(killer(env))

    def watcher(env):
        try:
            yield process
        except Interrupt as interrupt:
            return interrupt.cause

    watcher_proc = env.process(watcher(env))
    assert env.run(until=watcher_proc) == "bye"


def test_kill_terminates_without_exception_in_run(env):
    def sleeper(env):
        yield env.timeout(100.0)

    process = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(1.0)
        process.kill("node down")

    env.process(killer(env))
    env.run()
    assert process.triggered
    assert isinstance(process.value, ProcessKilled)
    assert process.value.cause == "node down"


def test_kill_already_finished_is_noop(env):
    def quick(env):
        yield env.timeout(1.0)
        return 5

    process = env.process(quick(env))
    env.run()
    process.kill()
    assert process.value == 5


def test_process_waits_on_another_process(env):
    def inner(env):
        yield env.timeout(3.0)
        return 10

    def outer(env):
        value = yield env.process(inner(env))
        return value * 2

    assert env.run(until=env.process(outer(env))) == 20


def test_immediate_return_process(env):
    def instant(env):
        return "now"
        yield  # pragma: no cover

    assert env.run(until=env.process(instant(env))) == "now"


def test_interrupt_while_waiting_detaches_from_target(env):
    target = Event(env)

    def sleeper(env):
        try:
            yield target
        except Interrupt:
            return "freed"

    process = env.process(sleeper(env))

    def killer(env):
        yield env.timeout(1.0)
        process.interrupt()

    env.process(killer(env))
    assert env.run(until=process) == "freed"
    # The original target never fired and has no leftover callbacks for the
    # process.
    assert not target.triggered


def test_constructed_process_waits_for_its_start(env):
    """Only ``env.process`` gives a process a start event; a bare
    ``Process`` runs nothing until its first step is run."""
    steps = []

    def proc(env):
        steps.append(env.active_process)
        yield env.timeout(1.0)
        return "done"

    process = Process(env, proc(env))
    assert env.queued_event_count() == 0
    env.run()
    assert steps == [] and process.is_alive
    process.run_first_step()
    assert steps == [process]
    assert env.active_process is None  # the caller's (none) is restored
    assert env.run(until=process) == "done"


def test_first_step_that_returns_triggers_the_process_event(env):
    def proc(env):
        return 7
        yield

    process = Process(env, proc(env))
    process.run_first_step()
    assert process.triggered and process.ok and process.value == 7
    seen = []
    process.callbacks.append(lambda event: seen.append((env.now, event.value)))
    env.run()
    assert seen == [(0.0, 7)]
