"""Vat-backed pipeline runners: equivalence with the blocking runners.

``run_vat_phased`` must be *observably* the same program as
``run_phased`` — same results, same printed output, and the same
wire-event sequence (the golden-equivalence test below) — while
consuming no blocked process per outstanding promise.

The wire comparison strips ``promise_id`` from event fields: the vat
world allocates extra promise serials for the run/gather/derived promises
(client-side bookkeeping), shifting ids, but what goes on the wire —
times, message kinds, guardians, payload sizes, batching — must be
identical event for event.
"""

import pytest

from repro.apps import build_grades_world, make_roster
from repro.apps.grades import _format_line
from repro.compose import (
    SKIP,
    Filter,
    Pipeline,
    Stage,
    run_phased,
    run_vat_phased,
)
from repro.core.exceptions import Signal
from repro.types import INT, HandlerType

from ..conftest import run_client
from .test_pipeline_structures import EXPECTED, build_three_stage_world, make_pipeline

GRADES_PARAMS = dict(latency=5.0, kernel_overhead=0.5, record_cost=0.3, print_cost=0.1)

N_STUDENTS = 12


def grades_pipeline():
    """The Fig 3-1 cascade as a Pipeline: record_grade then print."""
    return Pipeline(
        [
            Stage("grades_db", "record_grade", filter=lambda value, item: item),
            Stage(
                "printer",
                "print",
                filter=lambda average, item: (_format_line(item[0], average),),
            ),
        ]
    )


def run_grades(runner_kind):
    """One traced grades-pipeline run; returns (results, printed, trace)."""
    world = build_grades_world(tracing=True, **GRADES_PARAMS)
    roster = make_roster(N_STUDENTS)

    if runner_kind == "blocking":

        def main(ctx):
            results = yield from run_phased(ctx, grades_pipeline(), roster)
            return results

    else:

        def main(ctx):
            run = run_vat_phased(ctx, grades_pipeline(), roster)
            results = yield run.claim()
            return results

    process = world.client.spawn(main)
    results = world.system.run(until=process)
    return results, list(world.printed), world.system.tracer.events


def wire_view(events):
    """The externally visible trace: stream/message events, promise ids
    stripped (see module docstring)."""
    view = []
    for event in events:
        if not (event.type.startswith("stream.") or event.type.startswith("message.")):
            continue
        fields = {k: v for k, v in event.fields.items() if k != "promise_id"}
        view.append((event.time, event.type, fields))
    return view


def test_golden_equivalence_vat_phased_matches_blocking_wire_trace():
    blocking_results, blocking_printed, blocking_events = run_grades("blocking")
    vat_results, vat_printed, vat_events = run_grades("vat")
    assert vat_results == blocking_results
    assert vat_printed == blocking_printed
    blocking_wire = wire_view(blocking_events)
    vat_wire = wire_view(vat_events)
    assert len(vat_wire) == len(blocking_wire), (
        "wire event counts diverged: %d blocking vs %d vat"
        % (len(blocking_wire), len(vat_wire))
    )
    for index, (left, right) in enumerate(zip(blocking_wire, vat_wire)):
        assert left == right, (
            "wire traces diverge at event %d:\n  blocking: %r\n  vat:      %r"
            % (index, left, right)
        )


def test_vat_runners_spawn_no_extra_processes():
    # The vat runner must not pay a process per promise: the total process
    # count (client driver + remote handler activations) is exactly the
    # blocking runner's.
    counts = {}
    for kind in ("blocking", "vat"):
        world = build_grades_world(tracing=False, **GRADES_PARAMS)
        roster = make_roster(N_STUDENTS)

        def main(ctx, kind=kind):
            if kind == "blocking":
                results = yield from run_phased(ctx, grades_pipeline(), roster)
            else:
                results = yield run_vat_phased(ctx, grades_pipeline(), roster).claim()
            return results

        process = world.client.spawn(main)
        world.system.run(until=process)
        counts[kind] = world.system.env._next_pid
    assert counts["vat"] == counts["blocking"]


# ----------------------------------------------------------------------
# result agreement on the three-stage world
# ----------------------------------------------------------------------

def test_vat_phased_computes_correct_results():
    system = build_three_stage_world()

    def main(ctx):
        results = yield run_vat_phased(ctx, make_pipeline(), list(range(8))).claim()
        return results

    assert run_client(system, main) == EXPECTED


def test_vat_phased_finishes_at_the_same_time_as_phased():
    times = {}
    for name in ("blocking", "vat"):
        system = build_three_stage_world(stage_cost=0.7)

        def main(ctx, name=name):
            if name == "blocking":
                yield from run_phased(ctx, make_pipeline(), list(range(9)))
            else:
                yield run_vat_phased(ctx, make_pipeline(), list(range(9))).claim()
            return ctx.now

        times[name] = run_client(system, main)
    assert times["vat"] == times["blocking"]


# ----------------------------------------------------------------------
# filters: SKIP, cost, exceptions
# ----------------------------------------------------------------------

@pytest.mark.parametrize("runner", [run_vat_phased])
def test_vat_runners_honour_skip(runner):
    system = build_three_stage_world()

    def drop_odd(value, item):
        if item % 2 == 1:
            return SKIP
        return (item,)

    pipeline = Pipeline(
        [
            Stage("reader", "step", filter=Filter(drop_odd)),
            Stage("computer", "step"),
        ]
    )

    def main(ctx):
        results = yield runner(ctx, pipeline, list(range(6))).claim()
        return results

    assert run_client(system, main) == [(x + 100) * 2 for x in (0, 2, 4)]


@pytest.mark.parametrize("runner", [run_vat_phased])
def test_vat_runners_handle_empty_items(runner):
    system = build_three_stage_world()

    def main(ctx):
        results = yield runner(ctx, make_pipeline(), []).claim()
        return results

    assert run_client(system, main) == []


def test_vat_phased_charges_filter_cost():
    durations = {}
    for cost in (0.0, 2.0):
        system = build_three_stage_world(stage_cost=0.0)
        pipeline = Pipeline(
            [Stage("reader", "step", filter=Filter(lambda v, i: (i,), cost=cost))]
        )

        def main(ctx):
            yield run_vat_phased(ctx, pipeline, list(range(4))).claim()
            return ctx.now

        durations[cost] = run_client(system, main)
    assert durations[2.0] >= durations[0.0] + 7.0


def test_vat_phased_filter_cost_timing_matches_blocking():
    times = {}
    pipeline_of = lambda: Pipeline(  # noqa: E731
        [
            Stage("reader", "step", filter=Filter(lambda v, i: (i,), cost=1.5)),
            Stage("computer", "step"),
        ]
    )
    for name in ("blocking", "vat"):
        system = build_three_stage_world(stage_cost=0.4)

        def main(ctx, name=name):
            if name == "blocking":
                yield from run_phased(ctx, pipeline_of(), list(range(5)))
            else:
                yield run_vat_phased(ctx, pipeline_of(), list(range(5))).claim()
            return ctx.now

        times[name] = run_client(system, main)
    assert times["vat"] == times["blocking"]


@pytest.mark.parametrize("runner", [run_vat_phased])
def test_vat_runner_filter_exception_breaks_the_run(runner):
    system = build_three_stage_world()

    def explode(value, item):
        if item == 3:
            raise ValueError("filter bug")
        return (item,)

    pipeline = Pipeline([Stage("reader", "step", filter=Filter(explode))])

    def main(ctx):
        outcome = yield runner(ctx, pipeline, list(range(6))).wait()
        return outcome.condition

    assert run_client(system, main) == "failure"


@pytest.mark.parametrize("runner", [run_vat_phased])
def test_vat_runner_broken_call_breaks_the_run(runner):
    system = build_three_stage_world()
    bomb = system.create_guardian("bomb")

    def bad_step(ctx, x):
        yield ctx.compute(0.1)
        raise Signal("stage_down")

    bomb.create_handler(
        "step", HandlerType(args=[INT], returns=[INT], signals={"stage_down": []}), bad_step
    )
    pipeline = Pipeline([Stage("reader", "step"), Stage("bomb", "step")])

    def main(ctx):
        outcome = yield runner(ctx, pipeline, list(range(4))).wait()
        return outcome.condition

    assert run_client(system, main) == "stage_down"
