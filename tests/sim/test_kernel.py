"""Unit tests for the simulation kernel (event calendar semantics)."""

import pytest

from repro.sim import Environment, Event, Infinity
from repro.sim.kernel import _Stopper


def test_clock_starts_at_zero():
    assert Environment().now == 0.0


def test_clock_starts_at_initial_time():
    assert Environment(initial_time=5.5).now == 5.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(3.0)
    env.run()
    assert env.now == 3.0


def test_events_fire_in_time_order():
    env = Environment()
    order = []
    for delay in (5.0, 1.0, 3.0):
        timer = env.timeout(delay, value=delay)
        timer.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == [1.0, 3.0, 5.0]


def test_ties_fire_in_insertion_order():
    env = Environment()
    order = []
    for tag in ("a", "b", "c"):
        timer = env.timeout(1.0, value=tag)
        timer.callbacks.append(lambda e: order.append(e.value))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10.0)
    env.run(until=4.0)
    assert env.now == 4.0


def test_run_until_time_does_not_fire_later_events():
    env = Environment()
    fired = []
    timer = env.timeout(10.0)
    timer.callbacks.append(lambda e: fired.append(True))
    env.run(until=4.0)
    assert fired == []
    env.run()
    assert fired == [True]


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(5.0)
    env.run()
    with pytest.raises(ValueError):
        env.run(until=1.0)


def test_run_until_event_returns_its_value():
    env = Environment()
    event = Event(env)
    timer = env.timeout(2.0)
    timer.callbacks.append(lambda e: event.succeed("done"))
    assert env.run(until=event) == "done"
    assert env.now == 2.0


def test_run_until_failed_event_raises():
    env = Environment()
    event = Event(env)
    timer = env.timeout(1.0)
    timer.callbacks.append(lambda e: event.fail(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        env.run(until=event)


def test_run_until_already_triggered_event():
    env = Environment()
    event = Event(env)
    event.succeed(7)
    assert env.run(until=event) == 7


def test_run_until_event_that_never_fires_raises():
    env = Environment()
    event = Event(env)
    env.timeout(1.0)
    with pytest.raises(RuntimeError, match="ran out of events"):
        env.run(until=event)


def test_stop_event_ends_a_time_bounded_run_and_the_lane_resumes():
    """The contract the wallclock driver drains by: a run bounded by time
    returns the value of a stop event that fires first, and the next run
    resumes the rest of that event's lane in order."""
    env = Environment()
    done = Event(env)
    done.callbacks.append(_Stopper(done))
    log = []

    def trigger():
        done.succeed("value")  # joins the lane at 1.0 ...
        env.call_soon(log.append, "after 1")  # ... ahead of these two
        env.call_soon(log.append, "after 2")

    env.call_at(1.0, log.append, "before")
    env.call_at(1.0, trigger)
    env.call_at(2.0, log.append, "later")
    assert env.run(until=5.0) == "value"
    assert (log, env.now) == (["before"], 1.0)
    assert env.run(until=5.0) is None
    assert log == ["before", "after 1", "after 2", "later"]
    assert env.now == 5.0


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == Infinity
    env.timeout(2.0)
    env.timeout(7.0)
    assert env.peek() == 2.0


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule(Event(env), delay=-1.0)


def test_run_with_no_events_returns():
    env = Environment()
    assert env.run() is None
    assert env.now == 0.0


def test_run_until_time_with_empty_calendar_advances_clock():
    env = Environment()
    env.run(until=9.0)
    assert env.now == 9.0


def test_queued_event_count():
    env = Environment()
    env.timeout(1.0)
    env.timeout(2.0)
    assert env.queued_event_count() == 2
    env.run()
    assert env.queued_event_count() == 0
