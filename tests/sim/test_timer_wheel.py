"""Calendar and alarm behaviour the black-box kernel tests do not reach:
a cancelled alarm's timer coming up as a no-op, cancel-then-re-arm firing
exactly once, the calendar staying resumable after an exception escapes
:meth:`Environment.run`, and the regression guard that mass alarm
create+cancel traffic leaves nothing behind on the calendar.
"""

import pytest

from repro.sim import Environment
from repro.sim.alarm import Alarm
from repro.sim.kernel import NORMAL, URGENT, Infinity


# ----------------------------------------------------------------------
# Alarm cancellation (the alarm never takes its timer off the calendar)
# ----------------------------------------------------------------------
def test_cancelled_alarm_timer_comes_up_as_noop():
    env = Environment()
    fired = []
    alarm = Alarm(env, lambda: fired.append(env.now))
    alarm.arm(2.0)
    alarm.cancel()
    assert env.queued_event_count() == 1
    env.run()
    assert fired == []
    # The disarmed timer still came up: time advanced to its timestamp.
    assert env.now == 2.0
    assert env.queued_event_count() == 0


def test_cancel_then_rearm_later_fires_once_at_new_deadline():
    env = Environment()
    fired = []
    alarm = Alarm(env, lambda: fired.append(env.now))
    alarm.arm(2.0)
    alarm.cancel()
    alarm.arm(5.0)
    # The pending timer at 2.0 covers the new deadline: no second entry.
    assert env.queued_event_count() == 1
    env.run()
    assert fired == [5.0]


def test_cancel_then_rearm_earlier_fires_once_at_new_deadline():
    env = Environment()
    fired = []
    alarm = Alarm(env, lambda: fired.append(env.now))
    alarm.arm(5.0)
    alarm.cancel()
    alarm.arm(2.0)
    env.run()
    # The superseded timer at 5.0 comes up after the fire and does nothing.
    assert fired == [2.0]
    assert env.now == 5.0
    assert not alarm.armed


def test_rearm_after_cancelled_timer_came_up_schedules_afresh():
    env = Environment()
    fired = []
    alarm = Alarm(env, lambda: fired.append(env.now))
    alarm.arm(1.0)
    alarm.cancel()
    env.run()
    assert env.queued_event_count() == 0
    alarm.arm(1.0)
    assert env.queued_event_count() == 1
    env.run()
    assert fired == [2.0]


def test_call_at_in_past_raises():
    env = Environment()
    env.call_at(1.0, lambda: None)
    env.run()
    with pytest.raises(ValueError):
        env.call_at(0.5, lambda: None)
    assert env.queued_event_count() == 0


def test_schedule_rejects_unknown_priority():
    env = Environment()
    with pytest.raises(ValueError):
        env.schedule(env.event(), 1.0, priority=7)
    assert env.queued_event_count() == 0


def test_urgent_precedes_normal_at_same_time():
    env = Environment()
    order = []
    first = env.event()
    first.callbacks.append(lambda e: order.append("normal"))
    second = env.event()
    second.callbacks.append(lambda e: order.append("urgent"))
    env.schedule(first, 1.0, priority=NORMAL)
    env.schedule(second, 1.0, priority=URGENT)
    first._ok = second._ok = True
    first._value = second._value = None
    env.run()
    assert order == ["urgent", "normal"]


# ----------------------------------------------------------------------
# Exceptions leave the calendar resumable
# ----------------------------------------------------------------------
def test_peek_discards_consumed_bucket_after_exception():
    env = Environment()

    def boom():
        raise RuntimeError("boom")

    env.call_at(1.0, boom)
    with pytest.raises(RuntimeError):
        env.run()
    # The lane at t=1.0 was fully consumed when the exception escaped;
    # peek() must not report a phantom event there.
    assert env.peek() is Infinity
    assert env.queued_event_count() == 0


def test_run_resumes_in_order_after_exception_mid_bucket():
    env = Environment()
    order = []

    def boom():
        order.append("boom")
        raise RuntimeError("boom")

    env.call_at(1.0, order.append, "a")
    env.call_at(1.0, boom)
    env.call_at(1.0, order.append, "b")
    env.call_at(2.0, order.append, "c")
    with pytest.raises(RuntimeError):
        env.run()
    env.run()
    assert order == ["a", "boom", "b", "c"]


# ----------------------------------------------------------------------
# Alarm growth regression
# ----------------------------------------------------------------------
def test_hot_alarm_rearm_keeps_single_calendar_entry():
    env = Environment()
    alarm = Alarm(env, lambda: None)
    for _ in range(100_000):
        alarm.arm(0.5)
        alarm.cancel()
    # Every re-arm reuses the pending timer: the whole storm is one entry.
    assert env.queued_event_count() == 1
    env.run()
    assert env.queued_event_count() == 0


def test_mass_create_cancel_alarms_stay_bounded():
    env = Environment()
    alive = []
    for index in range(100_000):
        alarm = Alarm(env, lambda: None)
        alarm.arm(0.5 + (index % 7) * 0.25)
        alarm.cancel()
        alive.append(alarm)
        if index % 1000 == 999:
            env.run(env.now + 1.0)
    env.run()
    # Every disarmed timer came up and was dropped: nothing is left.
    assert env.queued_event_count() == 0
    assert env.peek() == Infinity
