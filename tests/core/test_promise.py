"""Unit tests for the promise data type (paper §3)."""

import pytest

from repro.core import (
    BLOCKED,
    READY,
    Failure,
    Outcome,
    Promise,
    PromiseError,
    PromiseNotReady,
    Signal,
    Unavailable,
)
from repro.types import CHAR, INT, REAL, HandlerType, PromiseType


def test_promise_starts_blocked(env):
    promise = Promise(env)
    assert promise.state == BLOCKED
    assert not promise.ready()


def test_resolve_makes_ready(env):
    promise = Promise(env)
    promise.resolve(Outcome.normal(5))
    assert promise.state == READY
    assert promise.ready()
    assert promise.outcome() == Outcome.normal(5)


def test_outcome_before_ready_rejected(env):
    with pytest.raises(PromiseNotReady):
        Promise(env).outcome()


def test_value_never_changes(env):
    """'Once a promise is ready it remains ready from then on and its
    value never changes again.'"""
    promise = Promise(env)
    promise.resolve(Outcome.normal(1))
    with pytest.raises(PromiseError):
        promise.resolve(Outcome.normal(2))
    assert promise.outcome() == Outcome.normal(1)


def test_claim_blocks_until_ready(env):
    promise = Promise(env)
    log = []

    def claimer(env):
        value = yield promise.claim()
        log.append((env.now, value))

    env.process(claimer(env))

    def resolver(env):
        yield env.timeout(4.0)
        promise.resolve_normal("late")

    env.process(resolver(env))
    env.run()
    assert log == [(4.0, "late")]


def test_claim_multiple_times_same_outcome(env):
    """'A promise can be claimed multiple times; the same outcome will
    occur each time.'"""
    promise = Promise(env)
    promise.resolve_normal(7)

    def claimer(env):
        first = yield promise.claim()
        second = yield promise.claim()
        return (first, second)

    assert env.run(until=env.process(claimer(env))) == (7, 7)
    assert promise.claim_count == 2


def test_claim_raises_user_signal(env):
    promise = Promise(env)
    promise.resolve_exceptional(Signal("foo", "detail"))

    def claimer(env):
        try:
            yield promise.claim()
        except Signal as sig:
            return (sig.condition, sig.exception_args())

    assert env.run(until=env.process(claimer(env))) == ("foo", ("detail",))


def test_claim_raises_unavailable_and_failure(env):
    for exc_type, outcome in [
        (Unavailable, Outcome.unavailable("net")),
        (Failure, Outcome.failure("gone")),
    ]:
        promise = Promise(env)
        promise.resolve(outcome)

        def claimer(env, promise=promise, exc_type=exc_type):
            try:
                yield promise.claim()
            except exc_type as exc:
                return exc.reason

        assert env.run(until=env.process(claimer(env))) in ("net", "gone")


def test_claim_unwraps_result_counts(env):
    for results, expected in [((), None), ((5,), 5), ((1, 2), (1, 2))]:
        promise = Promise(env)
        promise.resolve(Outcome.normal(*results))

        def claimer(env, promise=promise):
            value = yield promise.claim()
            return value

        assert env.run(until=env.process(claimer(env))) == expected


def test_wait_delivers_outcome_without_raising(env):
    promise = Promise(env)
    promise.resolve_exceptional(Failure("x"))

    def waiter(env):
        outcome = yield promise.wait()
        return outcome.condition

    assert env.run(until=env.process(waiter(env))) == "failure"


def test_typed_promise_accepts_conforming_outcome(env):
    pt = PromiseType(returns=[REAL], signals={"foo": [CHAR]})
    promise = Promise(env, pt)
    promise.resolve(Outcome.normal(2.5))
    assert promise.outcome().results == (2.5,)


def test_typed_promise_converts_bad_results_to_failure(env):
    """A nonconforming reply becomes failure('could not decode ...')."""
    pt = PromiseType(returns=[REAL])
    promise = Promise(env, pt)
    promise.resolve(Outcome.normal("not a real"))
    outcome = promise.outcome()
    assert outcome.is_exceptional
    assert isinstance(outcome.exception, Failure)
    assert "could not decode" in outcome.exception.reason


def test_typed_promise_rejects_undeclared_signal(env):
    pt = PromiseType(returns=[REAL], signals={"foo": []})
    promise = Promise(env, pt)
    promise.resolve(Outcome.signal("bar"))
    outcome = promise.outcome()
    assert isinstance(outcome.exception, Failure)
    assert "undeclared" in outcome.exception.reason


def test_typed_promise_checks_signal_arg_types(env):
    pt = PromiseType(signals={"foo": [CHAR]})
    promise = Promise(env, pt)
    promise.resolve(Outcome.signal("foo", "too long"))
    assert isinstance(promise.outcome().exception, Failure)


def test_typed_promise_allows_system_exceptions(env):
    pt = PromiseType(returns=[INT])
    promise = Promise(env, pt)
    promise.resolve(Outcome.unavailable())
    assert isinstance(promise.outcome().exception, Unavailable)


def test_resolve_requires_outcome(env):
    with pytest.raises(TypeError):
        Promise(env).resolve("not an outcome")


def test_ptype_must_be_promise_type(env):
    with pytest.raises(TypeError):
        Promise(env, ptype=HandlerType(args=[INT]))


def test_on_ready_callback_runs_immediately_if_ready(env):
    promise = Promise(env)
    promise.resolve_normal(1)
    seen = []
    promise.on_ready(lambda p: seen.append(p.outcome().apply()))
    assert seen == [1]


def test_on_ready_callback_runs_at_resolution(env):
    promise = Promise(env)
    seen = []
    promise.on_ready(lambda p: seen.append(p.outcome().apply()))

    def resolver(env):
        yield env.timeout(1.0)
        promise.resolve_normal(2)

    env.process(resolver(env))
    env.run()
    assert seen == [2]


def test_multiple_claimers_all_resolved(env):
    promise = Promise(env)
    results = []

    def claimer(env, tag):
        value = yield promise.claim()
        results.append((tag, value))

    for tag in range(3):
        env.process(claimer(env, tag))

    def resolver(env):
        yield env.timeout(1.0)
        promise.resolve_normal("shared")

    env.process(resolver(env))
    env.run()
    assert sorted(results) == [(0, "shared"), (1, "shared"), (2, "shared")]


def test_repr_shows_state(env):
    promise = Promise(env, label="demo")
    assert "blocked" in repr(promise)
    promise.resolve_normal(None)
    assert "ready" in repr(promise)
