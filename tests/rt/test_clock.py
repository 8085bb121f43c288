"""WallclockDriver semantics: Environment.run parity against real time.

These touch the real clock (tiny waits, milliseconds) so they carry the
``wallclock`` marker and run in the net-parity CI job, not tier-1.
"""

from __future__ import annotations

import time

import pytest

from repro.rt.clock import WallclockDriver, WallclockTimeout
from repro.sim.events import Event
from repro.sim.kernel import Environment

pytestmark = pytest.mark.wallclock


@pytest.fixture
def driver():
    d = WallclockDriver(Environment(), time_unit=1e-4)
    yield d
    if not d.loop.is_closed():
        d.loop.close()


def test_run_until_time_fires_due_callbacks(driver):
    fired = []
    driver.env.call_at(50.0, lambda: fired.append(driver.env.now))
    start = time.monotonic()
    driver.run(until=100.0)
    elapsed = time.monotonic() - start
    assert fired == [50.0]
    assert driver.env.now == 100.0
    # 100 sim units at 1e-4 s/unit = 10ms of real pacing (scheduling
    # jitter only ever makes it later).
    assert elapsed >= 0.009


def test_run_until_event_returns_its_value(driver):
    env = driver.env
    done = Event(env)
    env.call_at(5.0, lambda: done.succeed(42))
    assert driver.run(until=done) == 42
    assert env.now >= 5.0


def test_timeout_raises_wallclock_timeout(driver):
    # An empty calendar with a far until-bound: nothing to do but wait;
    # the real-seconds budget must cut the wait short.
    start = time.monotonic()
    with pytest.raises(WallclockTimeout):
        driver.run(until=10_000_000.0, timeout=0.05)
    assert time.monotonic() - start < 5.0


def test_idle_exit_returns_when_calendar_drains(driver):
    fired = []
    env = driver.env
    env.call_at(1.0, lambda: fired.append(1))
    env.call_at(2.0, lambda: fired.append(2))
    driver.run(idle_exit=True)
    assert fired == [1, 2]


def test_inject_advances_sim_time_to_real_time(driver):
    # An injection arriving mid-drain (like a frame off a socket) must
    # see simulated "now" advanced to the mapped real clock, so timers
    # it arms measure genuine wallclock intervals.
    env = driver.env
    done = Event(env)
    times = []

    def injected():
        times.append(env.now)
        done.succeed(None)

    driver.loop.call_later(0.01, lambda: driver.inject(injected))
    driver.run(until=done, timeout=5.0)
    assert times, "injected callback never ran"
    # 10ms real at 1e-4 s/unit = 100 sim units: the injected callback
    # must observe a clock that jumped forward, never one behind.
    assert times[0] >= 50.0


def test_sim_time_is_monotonic_across_runs(driver):
    env = driver.env
    env.call_at(10.0, lambda: None)
    driver.run(idle_exit=True)
    first = env.now
    env.call_at(first + 1.0, lambda: None)
    driver.run(idle_exit=True)
    assert env.now >= first

    # A socket callback that runs after a bounded run's bound has passed
    # moves "now" beyond the bound; the run must not then set it back.
    # The entry at the bound's start blocks the loop past the bound and
    # 64 more share its timestamp, so the callback gets its turn while
    # the run is still draining.
    start = env.now
    seen = []
    injected = []

    def socket_callback():
        driver.inject(lambda: injected.append(env.now))
        seen.append(env.now)

    def slow():
        time.sleep(25 * driver.time_unit)
        driver.loop.call_soon(socket_callback)

    env.call_at(start + 1.0, slow)
    for _ in range(64):
        env.call_at(start + 1.0, lambda: None)
    driver.run(until=start + 10.0)
    assert seen and seen[0] > start + 10.0
    assert env.now >= seen[0]
    # What the callback queued after the bound is left for the next run.
    assert injected == []
    driver.run(idle_exit=True)
    assert injected == seen
