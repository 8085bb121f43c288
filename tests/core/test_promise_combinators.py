"""Property tests for the promise combinator algebra.

Seeded randomized tests (plain ``random.Random``, no hypothesis): the
invariants of ``when_resolved``/``when_fulfilled``/``when_broken`` and the
``all`` gather must hold for arbitrary mixes of fresh,
already-resolved, broken and duplicate inputs, and for callbacks
registered before or after resolution.

The oracle for gather semantics is the *delivery order* the vat
guarantees: continuations of already-ready promises fire in registration
order, continuations of pending promises fire in resolution-time order.
The generators below resolve every pending promise at a distinct time, so
the expected outcome of every gather is computable without touching
kernel internals.
"""

import random

import pytest

from repro.core.exceptions import Signal
from repro.core.outcome import Outcome
from repro.core.promise import Promise
from repro.sim.kernel import Environment

N_SEEDS = 25


def fresh_env():
    return Environment()


def fulfilled(env, *results):
    """A promise already resolved normally with *results*."""
    promise = Promise(env)
    promise.resolve(Outcome.normal(*results))
    return promise


def broken(env, exception):
    """A promise already resolved exceptionally with *exception*."""
    promise = Promise(env)
    promise.resolve(Outcome.exceptional(exception))
    return promise


# ----------------------------------------------------------------------
# when_resolved fires exactly once per registration
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_when_resolved_fires_exactly_once(seed):
    rng = random.Random(1000 + seed)
    env = fresh_env()
    n = rng.randint(1, 25)
    promises = [Promise(env) for _ in range(n)]
    fires = {}  # (promise index, registration) -> count

    def register(index, reg):
        fires[(index, reg)] = 0

        def cb(outcome, key=(index, reg)):
            assert outcome.is_normal
            fires[key] += 1

        promises[index].when_resolved(cb)

    # Some promises resolve before any registration, some after some
    # registrations, some only after extra late registrations.
    pre_resolved = {i for i in range(n) if rng.random() < 0.3}
    for index in pre_resolved:
        promises[index].resolve(Outcome.normal(index))
    registrations = 0
    for index in range(n):
        for reg in range(rng.randint(1, 3)):
            register(index, reg)
            registrations += 1
    times = rng.sample(range(1, 10 * n + 1), n)
    for index in range(n):
        if index not in pre_resolved:
            env.call_at(env.now + times[index], promises[index].resolve,
                        Outcome.normal(index))
    env.run()
    # Late registrations on long-resolved promises still fire (via vat).
    for index in rng.sample(range(n), min(5, n)):
        register(index, "late")
        registrations += 1
    env.run()
    assert len(fires) == registrations
    assert all(count == 1 for count in fires.values()), fires


def test_registration_is_never_synchronous():
    env = fresh_env()
    ready = fulfilled(env, 42)
    log = []
    ready.when_resolved(lambda outcome: log.append(outcome.results))
    ready.on_resolved(lambda outcome: log.append("raw"))
    assert log == []  # deferred to the vat even though already ready
    env.run()
    assert log == [(42,), "raw"]


def test_same_promise_callbacks_fire_in_registration_order():
    env = fresh_env()
    promise = Promise(env)
    log = []
    for tag in range(6):
        promise.when_resolved(lambda _o, tag=tag: log.append(tag))
    promise.resolve(Outcome.normal())
    env.run()
    assert log == list(range(6))


# ----------------------------------------------------------------------
# chained derived promises resolve in causal order
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_chains_resolve_in_causal_order(seed):
    rng = random.Random(2000 + seed)
    env = fresh_env()
    roots = [Promise(env) for _ in range(rng.randint(1, 5))]
    log = []
    parents = {}  # node id -> parent node id

    def grow(promise, node, depth):
        if depth == 0:
            return
        for branch in range(rng.randint(1, 2)):
            child = (node, branch)
            parents[child] = node
            derived = promise.when_fulfilled(
                lambda value, child=child: log.append(child) or value + 1
            )
            grow(derived, child, depth - 1)

    for index, root in enumerate(roots):
        grow(root, ("root", index), rng.randint(1, 3))
    order = list(range(len(roots)))
    rng.shuffle(order)
    for position, index in enumerate(order):
        env.call_at(env.now + position + 1.0, roots[index].resolve, Outcome.normal(0))
    env.run()
    assert set(log) == set(parents)  # every chained callback fired
    assert len(log) == len(parents)
    position = {node: i for i, node in enumerate(log)}
    for child, parent in parents.items():
        if parent in position:  # roots are not in the log
            assert position[child] > position[parent], (
                "derived %r fired before its parent %r" % (child, parent)
            )


def test_chain_values_flow_and_flatten():
    env = fresh_env()
    source = Promise(env)
    inner = Promise(env)
    # Returning a Promise from a callback forwards its eventual outcome.
    chained = source.when_fulfilled(lambda value: inner)
    final = chained.when_fulfilled(lambda value: value * 10)
    source.resolve(Outcome.normal(1))
    env.run()
    assert not chained.ready()  # waiting on the inner promise
    inner.resolve(Outcome.normal(7))
    env.run()
    assert final.outcome().results == (70,)


# ----------------------------------------------------------------------
# error propagation through chains
# ----------------------------------------------------------------------

def test_when_fulfilled_passes_broken_through():
    env = fresh_env()
    source = broken(env, Signal("boom"))
    skipped = []
    derived = source.when_fulfilled(lambda value: skipped.append(value))
    env.run()
    assert skipped == []
    assert derived.outcome().exception.condition == "boom"


def test_when_broken_recovers_and_passes_normal_through():
    env = fresh_env()
    source = broken(env, Signal("boom"))
    recovered = source.when_broken(lambda exc: "saw:%s" % exc.condition)
    fine = fulfilled(env, 5)
    untouched = fine.when_broken(lambda exc: "never")
    env.run()
    assert recovered.outcome().results == ("saw:boom",)
    assert untouched.outcome().results == (5,)


def test_callback_raising_argus_error_breaks_derived():
    env = fresh_env()
    source = fulfilled(env, 1)

    def explode(value):
        raise Signal("deliberate")

    derived = source.when_fulfilled(explode)
    env.run()
    assert derived.outcome().exception.condition == "deliberate"


def test_callback_raising_plain_exception_becomes_failure():
    env = fresh_env()
    source = fulfilled(env, 1)
    derived = source.when_fulfilled(lambda value: 1 / 0)
    env.run()
    outcome = derived.outcome()
    assert outcome.condition == "failure"


# ----------------------------------------------------------------------
# the all gather
# ----------------------------------------------------------------------

def _build_inputs(env, rng):
    """A random mix of pending / fulfilled / broken promises plus
    duplicates; returns (inputs, delivery) where *delivery* is the
    index order in which the vat delivers their outcomes."""
    base = []
    n = rng.randint(1, 8)
    for i in range(n):
        kind = rng.choice(["pending", "fulfilled", "broken"])
        if kind == "fulfilled":
            base.append((fulfilled(env, i), "ok", i))
        elif kind == "broken":
            base.append(
                (broken(env, Signal("err%d" % i)), "err%d" % i, None)
            )
        else:
            base.append((Promise(env), "ok", i))
    inputs = list(base)
    for _ in range(rng.randint(0, 2)):  # duplicates are legal inputs
        inputs.append(rng.choice(base))
    pending = [k for k, (p, _t, _v) in enumerate(inputs) if not p.ready()]
    # Resolve pending promises at distinct times, shuffled; duplicates of
    # a pending promise share its resolution.
    seen = set()
    times = iter(rng.sample(range(1, 50), len(pending)))
    schedule = []
    for k in pending:
        promise, tag, value = inputs[k]
        if id(promise) in seen:
            continue
        seen.add(id(promise))
        when = next(times)
        if rng.random() < 0.25:
            env.call_at(env.now + when, promise.resolve,
                        Outcome.exceptional(Signal("late%d" % k)))
            schedule.append((when, id(promise), "late%d" % k, None))
        else:
            env.call_at(env.now + when, promise.resolve, Outcome.normal(value))
            schedule.append((when, id(promise), "ok", value))
    resolved_tag = {pid: (tag, value) for _w, pid, tag, value in schedule}
    # Delivery order: already-ready inputs in input order, then pending
    # inputs (including duplicates) ordered by resolution time.
    when_of = {pid: when for when, pid, _t, _v in schedule}
    ready_first = [k for k, (p, _t, _v) in enumerate(inputs) if p.ready()]
    late = sorted(
        (k for k, (p, _t, _v) in enumerate(inputs) if not p.ready()),
        key=lambda k: (when_of[id(inputs[k][0])], k),
    )
    final = []
    for k, (promise, tag, value) in enumerate(inputs):
        if id(promise) in resolved_tag:
            tag, value = resolved_tag[id(promise)]
        final.append((promise, tag, value))
    return final, ready_first + late


@pytest.mark.parametrize("seed", range(N_SEEDS))
def test_gather_semantics_match_delivery_order_oracle(seed):
    rng = random.Random(3000 + seed)
    env = fresh_env()
    inputs, delivery = _build_inputs(env, rng)
    all_p = Promise.all(env, [p for p, _t, _v in inputs])
    env.run()
    tags = [inputs[k][1] for k in delivery]
    # all: first delivered error wins, else the values in input order.
    first_err = next((t for t in tags if t != "ok"), None)
    if first_err is not None:
        assert all_p.outcome().exception.condition == first_err
    else:
        assert all_p.outcome().results == (
            [value for _p, _t, value in inputs],
        )


def test_all_with_duplicates_counts_each_slot():
    env = fresh_env()
    promise = Promise(env)
    gathered = Promise.all(env, [promise, promise, promise])
    promise.resolve(Outcome.normal(9))
    env.run()
    assert gathered.outcome().results == ([9, 9, 9],)


def test_all_breaks_as_soon_as_any_input_breaks():
    env = fresh_env()
    slow = Promise(env)  # never resolves
    bad = Promise(env)
    gathered = Promise.all(env, [slow, bad])
    bad.resolve(Outcome.exceptional(Signal("early")))
    env.run()
    assert gathered.outcome().exception.condition == "early"


def test_empty_gathers():
    env = fresh_env()
    assert Promise.all(env, []).outcome().results == ([],)
