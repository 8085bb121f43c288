"""Unit tests for the vat scheduler's documented guarantees (PR 6).

These pin the execution model the combinator layer relies on: FIFO
ordering, run-to-completion drains, nested enqueues joining the current
drain, same-timestamp dispatch, recovery after an escaped exception, and
span bookkeeping.
"""

import pytest

from repro.concurrency.vat import Vat, vat_of
from repro.obs.trace import EV_VAT_TURN, Tracer
from repro.sim.kernel import Environment


def test_vat_of_creates_once_and_attaches():
    env = Environment()
    assert env.vat is None
    vat = vat_of(env)
    assert env.vat is vat
    assert vat_of(env) is vat
    assert isinstance(vat, Vat)


def test_fifo_order_across_bursts():
    env = Environment()
    vat = vat_of(env)
    log = []
    for tag in range(10):
        vat.do_soon(log.append, tag)
    env.run()
    assert log == list(range(10))


def test_nested_enqueues_join_the_current_drain():
    env = Environment()
    vat = vat_of(env)
    log = []

    def outer(_arg):
        log.append("outer")
        vat.do_soon(lambda _a: log.append("nested"))

    vat.do_soon(outer)
    vat.do_soon(lambda _a: log.append("sibling"))
    env.run()
    # The nested callback ran in the same drain, after the sibling that
    # was already queued (FIFO), not in a new calendar slot.
    assert log == ["outer", "sibling", "nested"]
    assert vat.turns == 1
    assert vat.callbacks_run == 3


def test_same_timestamp_dispatch():
    env = Environment()
    vat = vat_of(env)
    seen = []
    env.call_at(env.now + 5.0, lambda: vat.do_soon(lambda _a: seen.append(env.now)))
    env.call_at(env.now + 9.0, lambda: vat.do_soon(lambda _a: seen.append(env.now)))
    env.run()
    # Each burst drains at the simulated time it was enqueued at.
    assert seen == [5.0, 9.0]
    assert vat.turns == 2


def test_run_to_completion_is_not_preempted_by_the_calendar():
    env = Environment()
    vat = vat_of(env)
    log = []
    env.call_at(env.now + 1.0, lambda: log.append("timer"))

    def first(_arg):
        log.append("first")
        # Queued mid-drain: must still run before any later-time event.
        vat.do_soon(lambda _a: log.append("second"))

    vat.do_soon(first)
    env.run()
    assert log == ["first", "second", "timer"]


def test_escaped_exception_reschedules_the_remainder():
    env = Environment()
    vat = vat_of(env)
    log = []

    def bad(_arg):
        raise RuntimeError("callback escaped")

    vat.do_soon(lambda _a: log.append("before"))
    vat.do_soon(bad)
    vat.do_soon(lambda _a: log.append("after"))
    with pytest.raises(RuntimeError, match="callback escaped"):
        env.run()
    assert log == ["before"]
    env.run()  # the rescheduled drain picks up the survivors
    assert log == ["before", "after"]
    assert vat.turns == 2


def test_current_span_set_during_callback_and_cleared_after():
    env = Environment()
    vat = vat_of(env)
    seen = []
    span = (1, 2, 3)
    vat.do_soon(lambda _a: seen.append(vat.current_span), span=span)
    vat.do_soon(lambda _a: seen.append(vat.current_span))
    env.run()
    assert seen == [span, None]
    assert vat.current_span is None


def test_vat_turn_trace_event():
    env = Environment()
    Tracer.install(env)
    vat = vat_of(env)
    vat.do_soon(lambda _a: None)
    vat.do_soon(lambda _a: None)
    env.run()
    turns = [e for e in env.tracer.events if e.type == EV_VAT_TURN]
    assert len(turns) == 1
    assert turns[0].fields == {"callbacks": 2, "pending": 0}


def test_pending_counts_queued_callbacks():
    env = Environment()
    vat = vat_of(env)
    assert vat.pending() == 0
    vat.do_soon(lambda _a: None)
    vat.do_soon(lambda _a: None)
    assert vat.pending() == 2
    env.run()
    assert vat.pending() == 0
