"""WallclockDriver semantics: Environment.run parity against real time.

These touch the real clock (tiny waits, milliseconds) so they carry the
``wallclock`` marker and run in the net-parity CI job, not tier-1.
"""

from __future__ import annotations

import time

import pytest

from repro.rt.clock import WallclockDriver, WallclockTimeout
from repro.rt.host import RtHost
from repro.rt.transport import _Conn
from repro.sim.events import Event
from repro.sim.kernel import Environment
from repro.streams.frames import encode_frame, encode_packet
from repro.streams.wire import CallPacket

from tests.rt.test_transport_unit import FakeTransport
from tests.streams.test_frames import make_key

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


# ----------------------------------------------------------------------
# Slices run in the loop callback that makes them due
# ----------------------------------------------------------------------
class CountedResumes:
    """Awaits a coroutine, counting every time the event loop resumes it."""

    def __init__(self, coro):
        self.coro = coro
        self.resumes = 0

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        self.resumes += 1
        return self.coro.send(value)

    def throw(self, *exc_info):
        self.resumes += 1
        return self.coro.throw(*exc_info)


def test_exception_in_an_inline_slice_surfaces_from_run(driver):
    def failing_callback():
        raise ValueError("boom")

    driver.loop.call_later(0.005, lambda: driver.inject(failing_callback))
    with pytest.raises(ValueError, match="boom") as info:
        driver.run(until=Event(driver.env), timeout=5.0)
    # The traceback reaches the callback that raised.
    assert info.traceback[-1].name == "failing_callback"


def test_inject_inside_a_slice_only_queues(driver):
    env = driver.env
    done = Event(env)
    order = []

    def inner():
        order.append("inner")
        done.succeed(list(order))

    def outer():
        driver.inject(inner)
        order.append("outer done")

    driver.loop.call_later(0.002, lambda: driver.inject(outer))
    assert driver.run(until=done, timeout=5.0) == ["outer done", "inner"]


def test_stop_event_fired_in_an_inline_slice_returns_its_value(driver):
    env = driver.env
    done = Event(env)
    env.call_at(1e6, lambda: None)  # the drain sleeps on a far timer
    driver.loop.call_later(0.002, lambda: driver.inject(done.succeed, 42))
    start = time.monotonic()
    assert driver.run(until=done, timeout=5.0) == 42
    assert time.monotonic() - start < 2.0


def test_a_slice_that_makes_an_earlier_entry_due_rearms_the_sleep(driver):
    env = driver.env
    done = Event(env)
    env.call_at(1e6, lambda: None)  # 100 s away at 1e-4 s/unit
    timers = []

    def later():
        # An entry beyond the sleep's wake-up leaves the timer alone.
        timers.append(driver._timer)
        env.call_at(2e6, lambda: None)

    def earlier():
        timers.append(driver._timer)
        env.call_at(env.now + 20.0, lambda: done.succeed(env.now))

    driver.loop.call_later(0.002, lambda: driver.inject(later))
    driver.loop.call_later(0.004, lambda: (timers.append(driver._timer), driver.inject(earlier)))
    start = time.monotonic()
    assert driver.run(until=done, timeout=5.0) >= 20.0
    assert time.monotonic() - start < 2.0
    # later()'s slice kept the far timer; earlier()'s moved it forward.
    assert timers[0] is timers[1] is timers[2]
    assert timers[0].cancelled()


def test_a_frame_arriving_while_the_drain_sleeps_does_not_resume_it(driver):
    env = driver.env
    done = Event(env)
    delivered = []

    def frame(n):
        delivered.append(n)
        if n == 4:
            done.succeed(len(delivered))

    for n in range(5):
        driver.loop.call_later(0.002 * (n + 1), driver.inject, frame, n)
    awaited = CountedResumes(driver.drain(until=done, timeout=5.0))
    assert driver.loop.run_until_complete(awaited) == 5
    # Once to start, once to return: the five frames ran in their own
    # socket callbacks.
    assert awaited.resumes == 2


def test_one_read_of_k_frames_runs_one_slice():
    host = RtHost("node:a", time_unit=1e-4)
    try:
        conn = _Conn(host.network)
        conn.connection_made(FakeTransport())
        refs = {}
        key = make_key(dst_node="node:gone")
        read = b"".join(
            encode_frame(encode_packet(CallPacket(key, 0, [], ack_reply_seq=n), refs))
            for n in range(5)
        )
        env = host.env
        slices = []
        run = env.run

        def counted_run(until=None):
            slices.append(until)
            return run(until)

        env.run = counted_run
        per_read = []

        def socket_read():
            before = len(slices)
            conn.data_received(read)
            per_read.append(len(slices) - before)

        host.loop.call_later(0.005, socket_read)
        host.run(until=env.now + 300.0, timeout=5.0)
        assert per_read == [1]
        # Every frame of the read was delivered (to a node not here).
        assert host.network.stats.messages_dropped_crash == 5
    finally:
        host.shutdown()
