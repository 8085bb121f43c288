"""The coenter statement: grouping, early termination, wounding (§4.2)."""

import pytest

from repro.concurrency import CoenterTerminated, PromiseQueue, QueueClosed
from repro.core import Signal, Unavailable
from repro.sim import Interrupt

from ..conftest import run_client


def test_all_arms_complete_normally(system):
    def arm(ctx, n):
        yield ctx.sleep(n)
        return n * 10

    def main(ctx):
        co = ctx.coenter()
        co.arm(arm, 1)
        co.arm(arm, 2)
        co.arm(arm, 3)
        results = yield co.run()
        return (results, ctx.now)

    results, now = run_client(system, main)
    assert results == [10, 20, 30]
    assert now == 3.0  # parent halted until all subprocesses complete


def test_parent_halted_until_all_arms_finish(system):
    finished = []

    def arm(ctx, n):
        yield ctx.sleep(n)
        finished.append(n)

    def main(ctx):
        co = ctx.coenter()
        co.arm(arm, 5)
        co.arm(arm, 1)
        yield co.run()
        return list(finished)

    assert run_client(system, main) == [1, 5]


def test_exception_terminates_sibling_arms(system):
    progress = []

    def failing(ctx):
        yield ctx.sleep(1.0)
        raise Signal("trouble")

    def worker(ctx):
        try:
            for index in range(100):
                yield ctx.sleep(1.0)
                progress.append(index)
        except Interrupt:
            progress.append("terminated")
            raise

    def main(ctx):
        co = ctx.coenter()
        co.arm(failing)
        co.arm(worker)
        try:
            yield co.run()
            return "normal"
        except Signal as sig:
            return sig.condition

    assert run_client(system, main) == "trouble"
    assert progress[-1] == "terminated"
    assert len(progress) <= 2


def test_first_exception_wins(system):
    def fail_at(ctx, t, name):
        yield ctx.sleep(t)
        raise Signal(name)

    def main(ctx):
        co = ctx.coenter()
        co.arm(fail_at, 2.0, "second")
        co.arm(fail_at, 1.0, "first")
        try:
            yield co.run()
        except Signal as sig:
            return sig.condition

    assert run_client(system, main) == "first"


def test_guarded_queue_closed_on_termination(system):
    """The Figure 4-1 hang, solved: the consumer is terminated instead of
    blocking in deq forever."""
    witnessed = []

    def producer(ctx, queue):
        yield ctx.sleep(1.0)
        raise Signal("cannot_produce")

    def consumer(ctx, queue):
        try:
            yield queue.deq()
            witnessed.append("got item")
        except (Interrupt, QueueClosed) as exc:
            witnessed.append(type(exc).__name__)
            raise

    def main(ctx):
        co = ctx.coenter()
        queue = PromiseQueue(ctx.env)
        co.guard_queue(queue.raw)
        co.arm(producer, queue)
        co.arm(consumer, queue)
        try:
            yield co.run()
        except Signal as sig:
            return (sig.condition, ctx.now)

    condition, now = run_client(system, main)
    assert condition == "cannot_produce"
    assert now < 5.0  # terminated promptly, no hang
    assert witnessed and witnessed[0] in ("Interrupt", "QueueClosed")


def test_critical_section_delays_termination(system):
    """'The Argus runtime system keeps track of how many critical sections
    a process is in and delays its termination until the count is zero.'"""
    log = []

    def careful(ctx):
        try:
            with ctx.critical():
                yield ctx.sleep(3.0)  # must not be interrupted here
                log.append(("left critical", ctx.now))
            yield ctx.sleep(100.0)
        except Interrupt:
            log.append(("terminated", ctx.now))
            raise

    def failing(ctx):
        yield ctx.sleep(1.0)
        raise Signal("abort_now")

    def main(ctx):
        co = ctx.coenter()
        co.arm(careful)
        co.arm(failing)
        try:
            yield co.run()
        except Signal:
            return log

    log = run_client(system, main)
    # The critical section completed in full before termination landed.
    assert log == [("left critical", 3.0), ("terminated", 3.0)]


def test_wounded_process_cannot_make_remote_calls(system):
    """'we "wound" it ... it cannot make any remote calls at such a
    point.'"""
    server = system.create_guardian("server")
    from repro.types import HandlerType, INT

    def echo(ctx, x):
        yield ctx.compute(0.1)
        return x

    server.create_handler("echo", HandlerType(args=[INT], returns=[INT]), echo)
    outcome = []

    def wounded_arm(ctx):
        echo_ref = ctx.lookup("server", "echo")
        with ctx.critical():
            yield ctx.sleep(2.0)  # sibling fails at t=1; we get wounded
            try:
                echo_ref.stream(1)
                outcome.append("call allowed")
            except Unavailable as exc:
                outcome.append("refused" if "wounded" in exc.reason else "other")

    def failing(ctx):
        yield ctx.sleep(1.0)
        raise Signal("die")

    def main(ctx):
        co = ctx.coenter()
        co.arm(wounded_arm)
        co.arm(failing)
        try:
            yield co.run()
        except Signal:
            return outcome

    assert run_client(system, main) == ["refused"]


def test_arm_each_dynamic_arms(system):
    def per_item(ctx, item):
        yield ctx.sleep(0.1)
        return item * item

    def main(ctx):
        co = ctx.coenter()
        co.arm_each(per_item, [1, 2, 3, 4])
        results = yield co.run()
        return results

    assert run_client(system, main) == [1, 4, 9, 16]


def test_empty_coenter_is_noop(system):
    def main(ctx):
        results = yield ctx.coenter().run()
        return results

    assert run_client(system, main) == []


def test_coenter_cannot_run_twice(system):
    def arm(ctx):
        yield ctx.sleep(0.1)

    def main(ctx):
        co = ctx.coenter()
        co.arm(arm)
        yield co.run()
        with pytest.raises(RuntimeError):
            co.run()
        with pytest.raises(RuntimeError):
            co.arm(arm)

    run_client(system, main)


def test_terminated_arm_sees_coenter_terminated_cause(system):
    causes = []

    def victim(ctx):
        try:
            yield ctx.sleep(100.0)
        except Interrupt as interrupt:
            causes.append(interrupt.cause)
            raise

    def failing(ctx):
        yield ctx.sleep(1.0)
        raise Signal("reason")

    def main(ctx):
        co = ctx.coenter()
        co.arm(victim)
        co.arm(failing)
        try:
            yield co.run()
        except Signal:
            pass

    run_client(system, main)
    assert len(causes) == 1
    assert isinstance(causes[0], CoenterTerminated)
    assert isinstance(causes[0].cause, Signal)


def test_nested_coenter(system):
    def leaf(ctx, n):
        yield ctx.sleep(0.1)
        return n

    def inner_arm(ctx):
        co = ctx.coenter()
        co.arm(leaf, 1)
        co.arm(leaf, 2)
        results = yield co.run()
        return sum(results)

    def main(ctx):
        co = ctx.coenter()
        co.arm(inner_arm)
        co.arm(leaf, 10)
        results = yield co.run()
        return results

    assert run_client(system, main) == [3, 10]
