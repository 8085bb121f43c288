"""Stream composition: the three program structures of §4 agree on
results and differ on overlap."""

import pytest

from repro.compose import SKIP, Filter, Pipeline, Stage, run_per_item, run_per_stream, run_phased
from repro.core.exceptions import Failure
from repro.entities import ArgusSystem
from repro.types import INT, HandlerType

from ..conftest import run_client

STEP = HandlerType(args=[INT], returns=[INT])


def build_three_stage_world(stage_cost=0.5, **kwargs):
    """read -> compute -> write, the §4 cascade."""
    defaults = dict(latency=1.0, kernel_overhead=0.1)
    defaults.update(kwargs)
    system = ArgusSystem(**defaults)
    for name, fn in [
        ("reader", lambda x: x + 100),
        ("computer", lambda x: x * 2),
        ("writer", lambda x: x - 1),
    ]:
        guardian = system.create_guardian(name)

        def make_impl(fn=fn):
            def impl(ctx, x):
                yield ctx.compute(stage_cost)
                return fn(x)

            return impl

        guardian.create_handler("step", STEP, make_impl())
    return system


def make_pipeline():
    return Pipeline(
        [
            Stage("reader", "step"),
            Stage("computer", "step"),
            Stage("writer", "step"),
        ]
    )


EXPECTED = [(x + 100) * 2 - 1 for x in range(8)]


def test_phased_computes_correct_results():
    system = build_three_stage_world()

    def main(ctx):
        results = yield from run_phased(ctx, make_pipeline(), list(range(8)))
        return results

    assert run_client(system, main) == EXPECTED


def test_per_stream_computes_same_results():
    system = build_three_stage_world()

    def main(ctx):
        results = yield from run_per_stream(ctx, make_pipeline(), list(range(8)))
        return results

    assert run_client(system, main) == EXPECTED


def test_per_item_computes_same_results():
    system = build_three_stage_world()

    def main(ctx):
        results = yield from run_per_item(ctx, make_pipeline(), list(range(8)))
        return results

    assert run_client(system, main) == EXPECTED


def test_per_stream_overlaps_more_than_phased():
    """§4: the composed program overlaps stages; the phased one cannot."""
    times = {}
    for name, runner in [("phased", run_phased), ("per_stream", run_per_stream)]:
        system = build_three_stage_world(stage_cost=1.0)

        def main(ctx, runner=runner):
            yield from runner(ctx, make_pipeline(), list(range(12)))
            return ctx.now

        times[name] = run_client(system, main)
    assert times["per_stream"] < times["phased"]


def test_filter_skip_drops_items():
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
        results = yield from run_per_stream(ctx, pipeline, list(range(6)))
        return results

    assert run_client(system, main) == [(x + 100) * 2 for x in (0, 2, 4)]


def test_filter_exception_terminates_composition():
    system = build_three_stage_world()

    def explode(value, item):
        if item == 3:
            raise ValueError("filter bug")
        return (item,)

    pipeline = Pipeline([Stage("reader", "step", filter=Filter(explode))])

    def main(ctx):
        try:
            yield from run_per_stream(ctx, pipeline, list(range(6)))
            return "normal"
        except ValueError:
            return "terminated"

    assert run_client(system, main) == "terminated"


def test_phased_filter_exception_is_a_failure_from_the_claim():
    # run_phased is a claim on run_vat_phased's promise, so a filter bug
    # breaks the run like a broken call does instead of propagating raw.
    system = build_three_stage_world()

    def explode(value, item):
        if item == 3:
            raise ValueError("filter bug")
        return (item,)

    pipeline = Pipeline([Stage("reader", "step", filter=Filter(explode))])

    def main(ctx):
        try:
            yield from run_phased(ctx, pipeline, list(range(6)))
        except Failure as failure:
            return str(failure)

    message = run_client(system, main)
    assert "filter" in message and "raised ValueError('filter bug')" in message


def test_filter_cost_is_charged():
    durations = {}
    for cost in (0.0, 2.0):
        system = build_three_stage_world(stage_cost=0.0)
        pipeline = Pipeline(
            [Stage("reader", "step", filter=Filter(lambda v, i: (i,), cost=cost))]
        )

        def main(ctx):
            yield from run_phased(ctx, pipeline, list(range(4)))
            return ctx.now

        durations[cost] = run_client(system, main)
    # Four filter applications at cost 2.0 add ~8 time units (slightly
    # less: reply latency overlaps the later applications).
    assert durations[2.0] >= durations[0.0] + 7.0


def test_single_stage_pipeline():
    system = build_three_stage_world()
    pipeline = Pipeline([Stage("computer", "step")])

    def main(ctx):
        results = yield from run_per_stream(ctx, pipeline, [1, 2, 3])
        return results

    assert run_client(system, main) == [2, 4, 6]


def test_empty_pipeline_rejected():
    with pytest.raises(ValueError):
        Pipeline([])


def test_empty_items_all_structures():
    for runner in (run_phased, run_per_stream, run_per_item):
        system = build_three_stage_world()

        def main(ctx, runner=runner):
            results = yield from runner(ctx, make_pipeline(), [])
            return results

        assert run_client(system, main) == []


def test_per_item_results_in_item_order_despite_races():
    system = build_three_stage_world(stage_cost=0.3)

    def main(ctx):
        results = yield from run_per_item(ctx, make_pipeline(), list(range(10)))
        return results

    assert run_client(system, main) == [(x + 100) * 2 - 1 for x in range(10)]
