"""Online invariant monitors: clean runs stay clean, mutations fire.

The interesting half is the mutation tests: each one *injects* a
violation of a transport invariant (duplicate delivery, reordering,
double resolution, premature ready-claim) and asserts the corresponding
monitor raises at that exact moment — proving the monitors would catch a
real transport regression, not just stay quiet on correct runs.
"""

import pytest

from repro.obs import MonitorSuite, MonitorViolation, Tracer
from repro.sim import Environment
from repro.streams.wire import CallEntry
from repro.types import INT, HandlerType

from .test_wire_regression import run_grades_fig31

ECHO = HandlerType(args=[INT], returns=[INT])


def suite_on_fresh_tracer(strict=True):
    env = Environment()
    tracer = Tracer.install(env)
    suite = MonitorSuite.install(tracer, strict=strict)
    return env, tracer, suite


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_fig31_run_satisfies_all_invariants():
    tracer = run_grades_fig31(20).tracer
    # The golden workload replayed through the monitors offline: feeding
    # the recorded events back in must produce zero violations.
    env, _tracer, suite = suite_on_fresh_tracer()
    for event in tracer.events:
        suite.observe(event.type, event.time, event.fields)
    assert suite.violations == []
    suite.assert_clean()


def test_traced_system_fixture_attaches_monitors(traced_system):
    system = traced_system()
    assert isinstance(system.tracer.monitors, MonitorSuite)
    server = system.create_guardian("server")

    def echo(ctx, x):
        yield ctx.compute(0.05)
        return x

    server.create_handler("echo", ECHO, echo)

    def main(ctx):
        echo_ref = ctx.lookup("server", "echo")
        promises = [echo_ref.stream(index) for index in range(8)]
        echo_ref.flush()
        total = 0
        for promise in promises:
            total += yield promise.claim()
        return total

    process = system.create_guardian("client").spawn(main)
    assert system.run(until=process) == sum(range(8))
    assert system.tracer.monitors.violations == []


# ----------------------------------------------------------------------
# Mutation: duplicate delivery through the real receiver
# ----------------------------------------------------------------------
def test_duplicate_delivery_mutation_raises(traced_system):
    system = traced_system()
    server = system.create_guardian("server")

    def echo(ctx, x):
        yield ctx.compute(0.05)
        return x

    server.create_handler("echo", ECHO, echo)

    def main(ctx):
        result = yield ctx.lookup("server", "echo").call(1)
        return result

    process = system.create_guardian("client").spawn(main)
    assert system.run(until=process) == 1

    # seq=1 was delivered exactly once by the healthy run ...
    [receiver] = server.endpoint._receivers.values()
    assert receiver.expected_seq == 2
    suite = system.tracer.monitors
    assert suite.violations == []

    # ... now force the receiver to deliver it AGAIN, simulating a broken
    # dedup path.  The exactly-once monitor must fire immediately.
    duplicate = CallEntry(1, "echo", "rpc", b"", None)
    with pytest.raises(MonitorViolation) as excinfo:
        receiver._deliver(duplicate)
    violation = excinfo.value
    assert violation.monitor == "exactly-once"
    assert violation.etype == "stream.call_delivered"
    assert violation.fields["seq"] == 1
    assert suite.violations == [violation]
    # A fixture teardown would also have caught it:
    with pytest.raises(MonitorViolation):
        suite.assert_clean()
    # Keep this test green at teardown despite the injected violation.
    suite.violations.clear()


# ----------------------------------------------------------------------
# Mutations through synthetic event streams
# ----------------------------------------------------------------------
def test_out_of_order_delivery_raises():
    env, tracer, suite = suite_on_fresh_tracer()
    tracer.emit("stream.call_delivered", stream="s", incarnation=0, seq=1)
    with pytest.raises(MonitorViolation) as excinfo:
        tracer.emit("stream.call_delivered", stream="s", incarnation=0, seq=3)
    assert excinfo.value.monitor == "fifo-order"
    assert "expected 2" in excinfo.value.message


def test_reordered_delivery_across_streams_is_fine():
    env, tracer, suite = suite_on_fresh_tracer()
    tracer.emit("stream.call_delivered", stream="a", incarnation=0, seq=1)
    tracer.emit("stream.call_delivered", stream="b", incarnation=0, seq=1)
    tracer.emit("stream.call_delivered", stream="a", incarnation=1, seq=1)
    assert suite.violations == []


def test_non_ascending_buffered_serial_raises():
    env, tracer, suite = suite_on_fresh_tracer()
    def buffer(seq):
        tracer.emit(
            "stream.call_buffered",
            stream="s", incarnation=0, seq=seq, kind="stream", buffered=seq,
        )

    buffer(1)
    buffer(2)
    with pytest.raises(MonitorViolation) as excinfo:
        buffer(2)
    assert excinfo.value.monitor == "fifo-order"


def test_promise_resolved_twice_raises():
    env, tracer, suite = suite_on_fresh_tracer()
    tracer.emit("promise.resolved", promise_id=9, status="normal", age=1.0, waiters=0)
    with pytest.raises(MonitorViolation) as excinfo:
        tracer.emit(
            "promise.resolved", promise_id=9, status="normal", age=2.0, waiters=0
        )
    assert excinfo.value.monitor == "promise-lifecycle"
    assert "resolved twice" in excinfo.value.message


def test_claim_ready_before_resolve_raises():
    env, tracer, suite = suite_on_fresh_tracer()
    with pytest.raises(MonitorViolation) as excinfo:
        tracer.emit("promise.claimed", promise_id=4, ready=True)
    assert excinfo.value.monitor == "promise-lifecycle"
    # A blocked claim before resolution is the normal case, not a violation.
    tracer.emit("promise.claimed", promise_id=5, ready=False)
    tracer.emit("promise.resolved", promise_id=5, status="normal", age=0.0, waiters=1)
    tracer.emit("promise.claimed", promise_id=5, ready=True)
    assert suite.violations == [excinfo.value]


def test_non_strict_mode_records_without_raising():
    env, tracer, suite = suite_on_fresh_tracer(strict=False)
    tracer.emit("stream.call_delivered", stream="s", incarnation=0, seq=1)
    tracer.emit("stream.call_delivered", stream="s", incarnation=0, seq=1)
    assert len(suite.violations) == 2  # exactly-once AND fifo-order both fire
    monitors = {violation.monitor for violation in suite.violations}
    assert monitors == {"exactly-once", "fifo-order"}
    with pytest.raises(MonitorViolation):
        suite.assert_clean()


def test_violation_is_an_assertion_error_with_context():
    env, tracer, suite = suite_on_fresh_tracer()
    try:
        tracer.emit("stream.call_delivered", stream="s", incarnation=0, seq=2)
    except AssertionError as exc:  # MonitorViolation subclasses AssertionError
        assert isinstance(exc, MonitorViolation)
        assert exc.time == env.now
        assert exc.fields["seq"] == 2
        assert "fifo-order" in str(exc)
    else:
        pytest.fail("expected a MonitorViolation")


def test_duplicate_packets_on_the_wire_are_not_violations():
    """stream.call_duplicate is the transport *recognizing* a retransmitted
    entry — the benign case; only a second *delivery* is the bug."""
    env, tracer, suite = suite_on_fresh_tracer()
    tracer.emit("stream.call_delivered", stream="s", incarnation=0, seq=1)
    tracer.emit("stream.call_duplicate", stream="s", incarnation=0, seq=1)
    tracer.emit("stream.call_duplicate", stream="s", incarnation=0, seq=1)
    assert suite.violations == []


# ----------------------------------------------------------------------
# Continuation-driven claims (PR 6)
# ----------------------------------------------------------------------
def test_continuation_claim_after_resolve_is_clean():
    env, tracer, suite = suite_on_fresh_tracer()
    tracer.emit("promise.resolved", promise_id=7, status="normal", age=0.5, waiters=0)
    tracer.emit("promise.claimed", promise_id=7, ready=True, via="continuation")
    assert suite.violations == []


def test_plain_created_event_grants_nothing():
    env, tracer, suite = suite_on_fresh_tracer()
    tracer.emit("promise.created", promise_id=4, label="")
    with pytest.raises(MonitorViolation) as excinfo:
        tracer.emit("promise.claimed", promise_id=4, ready=True, via="continuation")
    assert excinfo.value.monitor == "promise-lifecycle"


def test_continuation_run_keeps_monitors_clean_end_to_end(traced_env):
    """A real vat-driven consumption run through an installed suite: every
    continuation claim is preceded by its resolution."""
    from repro.core.outcome import Outcome
    from repro.core.promise import Promise

    env = traced_env
    promises = [Promise(env) for _ in range(20)]
    ready = Promise(env)
    ready.resolve(Outcome.normal("seed"))
    consumed = []
    ready.when_resolved(lambda outcome: consumed.append(outcome.results))
    for promise in promises:
        promise.when_fulfilled(lambda value: consumed.append(value))
    for index, promise in enumerate(promises):
        env.call_at(env.now + 1.0 + index, promise.resolve, Outcome.normal(index))
    env.run()
    assert len(consumed) == 21
    assert env.tracer.monitors.violations == []
