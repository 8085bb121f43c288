"""The §2.1 parallel-execution override.

"We may provide some explicit overrides to allow more sophisticated
programs that process calls on the same stream in parallel."  With
``create_group(..., parallel=True)`` calls of one stream execute
concurrently, but promises still resolve in call order and replies still
travel in call order.
"""

import pytest

from repro.core import ArgusError, Failure, Signal, Unavailable
from repro.entities import ArgusSystem
from repro.types import INT, HandlerType

SLEEPY = HandlerType(args=[INT, INT], returns=[INT])


def build(parallel):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.05)
    server = system.create_guardian("server")
    server.create_group("work", parallel=parallel)
    server.state["active"] = 0
    server.state["max_active"] = 0
    server.state["completions"] = []

    def sleepy(ctx, ident, duration):
        state = ctx.guardian.state
        state["active"] += 1
        state["max_active"] = max(state["max_active"], state["active"])
        yield ctx.compute(float(duration))
        state["active"] -= 1
        state["completions"].append(ident)
        return ident

    server.create_handler("sleepy", SLEEPY, sleepy, group="work")
    return system, server


def run_calls(parallel, durations):
    system, server = build(parallel)

    def main(ctx):
        ref = ctx.lookup("server", "sleepy")
        promises = [
            ref.stream(index, duration) for index, duration in enumerate(durations)
        ]
        ref.flush()
        order = []
        values = []
        for index, promise in enumerate(promises):
            values.append((yield promise.claim()))
            # In-order release invariant must hold in both modes.
            assert all(p.ready() for p in promises[: index + 1])
        return values

    process = system.create_guardian("client").spawn(main)
    values = system.run(until=process)
    return system.now, server.state, values


def test_sequential_group_never_overlaps():
    duration, state, values = run_calls(False, [2, 2, 2, 2])
    assert state["max_active"] == 1
    assert values == [0, 1, 2, 3]


def test_parallel_group_overlaps_same_stream_calls():
    duration, state, values = run_calls(True, [2, 2, 2, 2])
    assert state["max_active"] == 4
    assert values == [0, 1, 2, 3]


def test_parallel_is_faster_for_slow_handlers():
    sequential_time, _s, _v = run_calls(False, [3, 3, 3])
    parallel_time, _s, _v = run_calls(True, [3, 3, 3])
    assert parallel_time < sequential_time


def test_parallel_replies_still_resolve_in_call_order():
    """A fast later call must not release before a slow earlier one."""
    system, server = build(True)

    def main(ctx):
        ref = ctx.lookup("server", "sleepy")
        slow = ref.stream(0, 5)
        fast = ref.stream(1, 0)
        ref.flush()
        # The fast call finishes first at the server...
        yield fast.claim()
        # ...but by the in-order rule, the slow one must be ready too.
        assert slow.ready()
        return (yield slow.claim())

    process = system.create_guardian("client").spawn(main)
    assert system.run(until=process) == 0
    # Execution genuinely overlapped and completed out of order.
    assert server.state["completions"] == [1, 0]


#: Handler ending -> what its caller claims: the value for a normal
#: return, the condition name for an exception.  Both dispatch paths must
#: give exactly this.
ENDINGS = {
    "normal": (4, 2),
    "signal": "neg",
    "failure": "failure",
    "unavailable": "unavailable",
    "crash": "failure",
    "wrong_arity": "failure",
}


@pytest.mark.parametrize("ending", sorted(ENDINGS))
@pytest.mark.parametrize("parallel", [False, True], ids=["sequential", "parallel"])
def test_parallel_exceptions_map_correctly(parallel, ending):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.05)
    server = system.create_guardian("server")
    server.create_group("work", parallel=parallel)
    names = sorted(ENDINGS)

    def moody(ctx, which):
        yield ctx.compute(0.1)
        name = names[which]
        if name == "signal":
            raise Signal("neg")
        if name == "failure":
            raise Failure("gave up")
        if name == "unavailable":
            raise Unavailable("busy")
        if name == "crash":
            raise ValueError("bug in handler")
        if name == "wrong_arity":
            return 4  # declares two results
        return (4, 2)

    server.create_handler(
        "moody",
        HandlerType(args=[INT], returns=[INT, INT], signals={"neg": []}),
        moody,
        group="work",
    )

    def main(ctx):
        ref = ctx.lookup("server", "moody")
        good = ref.stream(names.index("normal"))
        tested = ref.stream(names.index(ending))
        ref.flush()
        value = yield good.claim()
        try:
            return value, (yield tested.claim())
        except ArgusError as exc:
            return value, exc.condition

    process = system.create_guardian("client").spawn(main)
    assert system.run(until=process) == ((4, 2), ENDINGS[ending])
