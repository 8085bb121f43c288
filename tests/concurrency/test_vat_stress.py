"""Vat scheduler stress runs (PR 6 tentpole scale check).

Excluded from the default tier-1 run (see ``addopts`` in pyproject.toml);
CI runs them in a dedicated ``vat-stress`` step with
``pytest -m vat_stress``.  The point: one process — in fact *zero*
simulated processes — can hold 10^5 pending promises and consume every
resolution, which is exactly what the blocking ``claim`` model cannot do
without 10^5 generators.
"""

import time
import tracemalloc

import pytest

from repro.core.outcome import Outcome
from repro.core.promise import Promise
from repro.sim.kernel import Environment

N = 100_000


@pytest.mark.vat_stress
def test_hundred_thousand_pending_promises_zero_processes():
    env = Environment()
    promises = [Promise(env) for _ in range(N)]
    state = {"consumed": 0}

    def consume(outcome):
        state["consumed"] += outcome.results[0]

    start = time.perf_counter()
    for promise in promises:
        promise.on_resolved(consume)

    def resolve_all():
        for promise in promises:
            promise.resolve(Outcome.normal(1))

    env.call_in(1.0, resolve_all)
    env.run()
    elapsed = time.perf_counter() - start
    assert state["consumed"] == N
    assert env._next_pid == 0  # no simulated process was ever created
    assert env.vat.callbacks_run == N
    # Generous wall-clock budget (regression guard, not a benchmark):
    # ~2s locally, 30s allowed.
    assert elapsed < 30.0, "vat consumed %d promises in %.1fs" % (N, elapsed)


@pytest.mark.vat_stress
def test_hundred_thousand_promise_gather():
    env = Environment()
    promises = [Promise(env) for _ in range(N)]
    gathered = Promise.all(env, promises)

    def resolve_all():
        for index, promise in enumerate(promises):
            promise.resolve(Outcome.normal(index))

    env.call_in(1.0, resolve_all)
    env.run()
    (values,) = gathered.outcome().results
    assert len(values) == N and values[0] == 0 and values[-1] == N - 1
    assert env._next_pid == 0


@pytest.mark.vat_stress
def test_deep_continuation_chain_does_not_recurse():
    # 50k chained hops settle iteratively through vat drains; a recursive
    # delivery scheme would blow the interpreter stack three orders of
    # magnitude earlier.
    env = Environment()
    depth = 50_000
    promise = Promise(env)
    tail = promise
    for _ in range(depth):
        tail = tail.when_fulfilled(lambda value: value + 1)
    promise.resolve(Outcome.normal(0))
    env.run()
    assert tail.outcome().results == (depth,)


def _pend(n, consumer):
    """Hold *n* pending promises, give each the consumer that
    ``consumer(env, state)`` attaches, resolve them all; returns
    (consumed, processes created, traced peak bytes)."""
    tracemalloc.start()
    try:
        env = Environment()
        promises = [Promise(env) for _ in range(n)]
        state = {"consumed": 0}
        attach = consumer(env, state)
        for promise in promises:
            attach(promise)

        def resolve_all():
            for promise in promises:
                promise.resolve(Outcome.normal(1))

        env.call_in(1.0, resolve_all)
        env.run()
        assert all(promise.ready() for promise in promises)
        return state["consumed"], env._next_pid, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.vat_stress
def test_continuations_cost_a_fraction_of_blocking_claim_processes():
    # The vat's memory claim: the promises exist either way, only the
    # consumer differs — a process blocked in claim() (generator, event
    # subscription, calendar entry) or one vat-queue entry.  Subtracting
    # the no-consumer peak isolates the per-consumer cost: 8-10x at
    # n=10^4 on CPython 3.11, one (fn, arg, span) queue tuple per
    # continuation.  The ratio is a small difference of large peaks, so
    # it moves with n and with what warmed the allocator before; 5x
    # holds with room on every reading.
    n = 10_000

    def no_consumer(env, state):
        return lambda promise: None

    def blocking_claim(env, state):
        def claimer(promise):
            value = yield promise.claim()
            state["consumed"] += value

        return lambda promise: env.process(claimer(promise))

    def continuation(env, state):
        def consume(outcome):
            state["consumed"] += outcome.results[0]

        return lambda promise: promise.on_resolved(consume)

    _, bare_processes, bare_peak = _pend(n, no_consumer)
    consumed, blocking_processes, blocking_peak = _pend(n, blocking_claim)
    assert (consumed, blocking_processes) == (n, n)
    consumed, vat_processes, vat_peak = _pend(n, continuation)
    assert (consumed, vat_processes, bare_processes) == (n, 0, 0)
    ratio = (blocking_peak - bare_peak) / max(vat_peak - bare_peak, 1)
    assert ratio >= 5.0, "per-consumer memory only %.1fx smaller" % ratio
