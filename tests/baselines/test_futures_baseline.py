"""MultiLisp-style futures: implicit claim cost and error values (§3.3)."""

import pytest

from repro.baselines import ErrorValue, FutureRuntime, MLFuture
from repro.core import Signal

from ..conftest import run_client


def test_future_computes_in_parallel(system):
    runtime = FutureRuntime(system.env)

    def slow_add(ctx, a, b):
        yield ctx.sleep(3.0)
        return a + b

    def main(ctx):
        future = runtime.future(ctx, slow_add, 1, 2)
        assert ctx.now == 0.0
        value = yield runtime.touch(future)
        return (value, ctx.now)

    assert run_client(system, main) == (3, 3.0)


def test_touch_of_plain_value_passes_through(system):
    runtime = FutureRuntime(system.env)

    def main(ctx):
        value = yield runtime.touch(42)
        return value

    assert run_client(system, main) == 42
    assert runtime.examinations == 1
    assert runtime.futures_found == 0


def test_every_access_is_examined(system):
    """The §3.3 inefficiency: touch() runs per operand, future or not."""
    runtime = FutureRuntime(system.env)

    def main(ctx):
        total = 0
        for index in range(10):
            # A strict addition touches both of its operands.
            a = yield runtime.touch(total)
            b = yield runtime.touch(index)
            total = a + b
        return total

    assert run_client(system, main) == 45
    assert runtime.examinations == 20  # two operands per addition


def test_check_cost_charged_per_examination(system):
    runtime = FutureRuntime(system.env, check_cost=0.5)

    def main(ctx):
        yield runtime.touch(1)
        yield runtime.touch(2)
        return ctx.now

    assert run_client(system, main) == 1.0


def test_exception_becomes_error_value_not_raise(system):
    """'exceptions are turned into error values automatically.'"""
    runtime = FutureRuntime(system.env)

    def failing(ctx):
        yield ctx.sleep(0.1)
        raise Signal("root_cause")

    def main(ctx):
        future = runtime.future(ctx, failing)
        value = yield runtime.touch(future)
        return value

    value = run_client(system, main)
    assert isinstance(value, ErrorValue)
    assert isinstance(value.cause, Signal)


def test_wrap_promise_as_future(system):
    """Remote promises can be viewed as untyped futures (for E7)."""
    from repro.types import HandlerType, INT

    runtime = FutureRuntime(system.env)
    server = system.create_guardian("server")

    def double(ctx, x):
        yield ctx.compute(0.1)
        return x * 2

    server.create_handler("double", HandlerType(args=[INT], returns=[INT]), double)

    def main(ctx):
        ref = ctx.lookup("server", "double")
        promise = ref.stream(21)
        ref.flush()
        future = runtime.wrap_promise(promise)
        value = yield runtime.touch(future)
        return value

    assert run_client(system, main) == 42


def test_future_double_resolution_rejected(env):
    future = MLFuture(env)
    future.resolve(1)
    with pytest.raises(RuntimeError):
        future.resolve(2)


def test_negative_check_cost_rejected(env):
    with pytest.raises(ValueError):
        FutureRuntime(env, check_cost=-1)
