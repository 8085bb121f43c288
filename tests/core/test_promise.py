"""Unit tests for the promise data type (paper §3)."""

import sys
import tracemalloc

import pytest

from repro.concurrency.vat import Vat
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
from repro.sim.kernel import NORMAL
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


def test_resolve_wakes_waiters_in_registration_order(env):
    """Claims and continuations wait in one list: resolve() wakes them in
    the order they registered — a blocked claim is scheduled on the
    calendar, a continuation is enqueued on the vat."""
    promise = Promise(env)
    woken, claims, ran = [], [], []

    class RecordingVat(Vat):
        def do_soon(self, fn, arg=None, span=None):
            woken.append(fn.__name__)
            super().do_soon(fn, arg, span)

    env.vat = RecordingVat(env)
    schedule = env.schedule

    def recording_schedule(event, delay=0.0, priority=NORMAL):
        if any(event is claim for claim in claims):
            woken.append("claim")
        schedule(event, delay, priority)

    env.schedule = recording_schedule

    def first(outcome):
        ran.append(("first", outcome.apply()))

    def second(outcome):
        ran.append(("second", outcome.apply()))

    def claimer():
        claims.append(promise.claim())
        ran.append(("claim", (yield claims[0])))

    promise.on_resolved(first)
    env.process(claimer())
    env.run()
    promise.on_resolved(second)
    promise.resolve_normal(4)
    assert woken == ["first", "claim", "second"]
    env.run()
    # The second continuation rides the vat turn the first one opened.
    assert ran == [("first", 4), ("second", 4), ("claim", 4)]


def test_ready_claim_resumes_before_a_later_call_soon(env):
    """A claim on a ready promise is scheduled at the claim itself, so it
    resumes ahead of anything the claimer schedules after it."""
    promise = Promise(env)
    promise.resolve_normal(3)
    log = []

    def claimer():
        event = promise.claim()
        env.call_soon(log.append, "call_soon")
        log.append(("claimed", (yield event)))

    env.process(claimer())
    env.run()
    assert log == [("claimed", 3), "call_soon"]


def test_bare_pending_promise_costs_at_most_150_bytes(env):
    count = 10_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        promises = [Promise(env) for _ in range(count)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    per_promise = (after - before - sys.getsizeof(promises)) / count
    assert per_promise <= 150, "%.1f B per bare pending promise" % per_promise


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
