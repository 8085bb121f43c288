"""E12 — coenter termination vs the fork hang, and the wounding ablation.

Paper claims (§4.1-§4.2): with naive forks, "if the recording process
terminates early because of a communication problem ... the printing
process may hang forever waiting to dequeue the next promise from the
queue"; the coenter terminates the group promptly.  Wounding: termination
is delayed inside critical sections so "damaged data" never happens.

Reproduced series: time until the whole composition has terminated after a
mid-run failure, naive forks (bounded here by a watchdog; conceptually
infinite) vs coenter; plus the DESIGN.md §5 ablation of critical-section
protection (count of observed mid-operation interruptions with and without
it).
"""

from repro.concurrency import PromiseQueue, critical_section
from repro.core import Signal
from repro.entities import ArgusSystem
from repro.sim import Interrupt

from .conftest import report

WATCHDOG = 10_000.0
FAIL_AT = 3.0


def run_naive_forks():
    """Figure 4-1 without cleanup: the consumer hangs forever."""
    system = ArgusSystem()
    client = system.create_guardian("client")
    queue = PromiseQueue(system.env)

    def producer(ctx):
        yield ctx.sleep(FAIL_AT)
        raise Signal("cannot_record")

    def consumer(ctx):
        while True:
            promise = yield queue.deq()  # hangs: nothing will ever arrive
            yield promise.claim()

    def main(ctx):
        p1 = ctx.fork(producer)
        p2 = ctx.fork(consumer)
        try:
            yield p1.claim()
        except Signal:
            pass
        # The paper's point: p2 never resolves.  Watchdog-bound the wait.
        done = p2.wait()
        first = ctx.env.event()
        for event in (done, ctx.env.timeout(WATCHDOG)):
            event.callbacks.append(lambda _event: first.triggered or first.succeed())
        yield first
        return ctx.now if done.processed else WATCHDOG

    process = client.spawn(main)
    return system.run(until=process)


def run_coenter():
    """Figure 4-2: the failure terminates the sibling arm promptly."""
    system = ArgusSystem()
    client = system.create_guardian("client")

    def main(ctx):
        co = ctx.coenter()
        queue = PromiseQueue(ctx.env)
        co.guard_queue(queue.raw)

        def producer(actx):
            yield actx.sleep(FAIL_AT)
            raise Signal("cannot_record")

        def consumer(actx):
            while True:
                promise = yield queue.deq()
                yield promise.claim()

        co.arm(producer)
        co.arm(consumer)
        try:
            yield co.run()
        except Signal:
            pass
        return ctx.now

    process = client.spawn(main)
    return system.run(until=process)


def run_wounding_ablation(protected):
    """Count mid-critical-section interruptions of a two-step queue
    operation, with and without critical-section protection."""
    system = ArgusSystem()
    client = system.create_guardian("client")
    damage = {"count": 0}
    operations = {"count": 0}

    def main(ctx):
        co = ctx.coenter()

        def worker(actx):
            shared = []
            try:
                while True:
                    if protected:
                        with critical_section(actx.env):
                            shared.append("half")
                            yield actx.sleep(0.3)  # two-step operation
                            shared.pop()
                            operations["count"] += 1
                    else:
                        shared.append("half")
                        yield actx.sleep(0.3)
                        shared.pop()
                        operations["count"] += 1
            except Interrupt:
                if shared:
                    damage["count"] += 1  # interrupted mid-operation
                raise

        def failing(actx):
            yield actx.sleep(FAIL_AT + 0.15)  # lands mid-operation
            raise Signal("die")

        co.arm(worker)
        co.arm(failing)
        try:
            yield co.run()
        except Signal:
            pass

    process = client.spawn(main)
    system.run(until=process)
    return damage["count"], operations["count"]


def test_e12_termination_and_wounding(benchmark):
    naive = run_naive_forks()
    coenter = run_coenter()
    damage_unprotected, _ops_u = run_wounding_ablation(protected=False)
    damage_protected, ops_p = run_wounding_ablation(protected=True)
    rows = [
        ("naive forks (watchdog-bounded)", naive),
        ("coenter", coenter),
        ("damaged-data events, unprotected", damage_unprotected),
        ("damaged-data events, critical sections", damage_protected),
        ("completed operations under protection", ops_p),
    ]
    report("E12", "coenter group termination and wounding", ["scenario", "value"], rows)

    # The fork version hangs (hits the watchdog); the coenter terminates
    # within moments of the failure.
    assert naive >= WATCHDOG
    assert coenter < FAIL_AT + 2.0
    # Without critical sections the worker is caught mid-operation; with
    # them, never.
    assert damage_unprotected == 1
    assert damage_protected == 0
    assert ops_p >= 1

    benchmark(run_coenter)
