"""Stream composition: cascades of calls across several streams (§4).

Three program structures from the paper, all runnable over the same
declarative :class:`Pipeline` description:

* :func:`run_phased` — the Figure 3-1 shape: finish all calls on stream
  *i* before starting stream *i+1* (minimal overlap; the baseline);
* :func:`run_per_stream` — the Figure 4-2 shape: one coenter arm per
  stream, connected by shared promise queues ("organized around the
  streams ... each process was in charge of making calls on a single
  stream");
* :func:`run_per_item` — one (dynamically created) arm per data item,
  each walking the whole cascade ("there would be a process per item").

All three return the list of final-stage results in item order, so tests
can assert they agree while benchmarks compare their costs.

A fourth runner is built on the promise *continuation* layer
(:meth:`~repro.core.promise.Promise.when_resolved` and friends) instead
of blocking claims: :func:`run_vat_phased` is the Figure 3-1 phase
structure (:func:`run_phased` is a blocking claim on it), but it does
not consume a waiting process per outstanding promise — it returns a
promise for the result list, driven entirely by vat callbacks.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from repro.compose.filters import SKIP, Filter, make_filter
from repro.concurrency.promise_queue import PromiseQueue
from repro.core.exceptions import ArgusError
from repro.core.outcome import Outcome
from repro.core.promise import Promise

__all__ = [
    "Stage",
    "Pipeline",
    "run_phased",
    "run_per_stream",
    "run_per_item",
    "run_vat_phased",
]


class Stage:
    """One stream of the cascade: a remote handler plus the filter that
    adapts the previous stage's results into its arguments.

    ``guardian``/``handler`` name the remote port (looked up per arm so
    each process gets its own stream).  The first stage's filter receives
    ``None`` as the previous value.
    """

    def __init__(
        self,
        guardian: str,
        handler: str,
        filter: Any = None,
        name: str = "",
    ) -> None:
        self.guardian = guardian
        self.handler = handler
        self.filter = make_filter(filter) if filter is not None else Filter(
            lambda value, item: (item,) if value is None else (value,),
            name="default",
        )
        self.name = name or "%s.%s" % (guardian, handler)

    def __repr__(self) -> str:
        return "<Stage %s>" % (self.name,)


class Pipeline:
    """An ordered list of stages applied to a list of work items."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        if not stages:
            raise ValueError("a pipeline needs at least one stage")
        self.stages = list(stages)

    def __len__(self) -> int:
        return len(self.stages)


class _End:
    """Queue sentinel marking the end of the item sequence."""


_END = _End()


def _apply_filter(ctx, stage: Stage, value: Any, item: Any):
    """Charge the filter's cost, then apply it (``yield from``-able)."""
    if stage.filter.cost > 0:
        yield ctx.sleep(stage.filter.cost)
    return stage.filter(value, item)


def run_phased(ctx, pipeline: Pipeline, items: Sequence[Any]):
    """Figure 3-1 structure: one stream at a time (``yield from``-able).

    All calls of stage *i* are made (and their promises stored) before any
    call of stage *i+1* — "We cannot begin printing results until all
    calls to the grades database have been initiated."

    This is a blocking claim on :func:`run_vat_phased`'s promise, so a
    filter that raises surfaces as ``failure("filter ... raised ...")``
    from the claim, like a broken stage call, not as the raw exception.
    """
    return (yield run_vat_phased(ctx, pipeline, items).claim())


def run_per_stream(ctx, pipeline: Pipeline, items: Sequence[Any]):
    """Figure 4-2 structure: a coenter arm per stage (``yield from``-able).

    Arms are chained by promise queues; stage *i+1* starts claiming while
    stage *i* is still issuing calls, giving the §4 overlap.
    """
    co = ctx.coenter()
    queues = [
        co.guard_queue(PromiseQueue(ctx.env).raw)
        for _ in range(len(pipeline.stages) + 1)
    ]

    def stage_arm(actx, stage: Stage, inbound, outbound):
        ref = actx.lookup(stage.guardian, stage.handler)
        while True:
            token = yield inbound.get()
            if isinstance(token, _End):
                break
            index, item, promise = token
            value = None if promise is None else (yield promise.claim())
            args = yield from _apply_filter(actx, stage, value, item)
            if args is SKIP:
                continue
            yield outbound.put((index, item, ref.stream(*args)))
        ref.flush()
        yield ref.synch()
        yield outbound.put(_END)

    def feed_arm(actx):
        for index, item in enumerate(items):
            yield queues[0].put((index, item, None))
        yield queues[0].put(_END)

    collected: List[Any] = []

    def collect_arm(actx):
        inbound = queues[-1]
        while True:
            token = yield inbound.get()
            if isinstance(token, _End):
                break
            index, _item, promise = token
            value = yield promise.claim()
            collected.append((index, value))

    co.arm(feed_arm, label="feed")
    for position, stage in enumerate(pipeline.stages):
        co.arm(stage_arm, stage, queues[position], queues[position + 1], label=stage.name)
    co.arm(collect_arm, label="collect")
    yield co.run()
    collected.sort(key=lambda pair: pair[0])
    return [value for _index, value in collected]


def run_per_item(ctx, pipeline: Pipeline, items: Sequence[Any]):
    """§4.3's alternative: one arm per data item (``yield from``-able).

    "Each process would move its item from one stream to another."  Every
    arm has its own agent (hence its own streams), so cross-item batching
    is lost and per-process overhead is paid per item — the trade-off
    benchmark E6 measures.
    """
    co = ctx.coenter()
    results: List[Any] = [None] * len(items)
    dropped: set = set()

    def item_arm(actx, work):
        index, item = work
        value = None
        for stage in pipeline.stages:
            ref = actx.lookup(stage.guardian, stage.handler)
            args = yield from _apply_filter(actx, stage, value, item)
            if args is SKIP:
                dropped.add(index)
                return
            value = yield ref.stream(*args).claim()
        results[index] = value

    co.arm_each(item_arm, list(enumerate(items)), label="item")
    yield co.run()
    return [value for index, value in enumerate(results) if index not in dropped]


def _break_run(run: Promise, exc: Exception, where: str) -> None:
    """Resolve *run* from an exception a pipeline callback raised."""
    if run.ready():
        return
    if isinstance(exc, ArgusError):
        run.resolve(Outcome.exceptional(exc))
    else:
        run.resolve(Outcome.failure("%s raised %r" % (where, exc)))


def run_vat_phased(ctx, pipeline: Pipeline, items: Sequence[Any]) -> Promise:
    """Figure 3-1 structure on the continuation layer (non-blocking).

    Every call of stage *i* is issued (and the stream flushed) before any
    call of stage *i+1*, and stage *i+1* starts only once all stage-*i*
    promises have resolved; the synchronization is a :meth:`Promise.all`
    continuation, not a process blocked in sequential claims.
    :func:`run_phased` is this runner plus one ``claim()``.

    Returns a :class:`Promise` for the final-stage result list; a broken
    stage call or a raising filter breaks it.
    """
    env = ctx.env
    run = Promise(env, label="vat_phased")

    def start_stage(position: int, values: List[Any], live: List[int]) -> None:
        if run.ready():
            return
        if position == len(pipeline.stages):
            run.resolve(Outcome.normal([values[index] for index in live]))
            return
        stage = pipeline.stages[position]
        ref = ctx.lookup(stage.guardian, stage.handler)
        calls: List = []  # (item index, promise) in issue order

        def step(cursor: int) -> None:
            # Apply the filter for live[cursor] and issue its call, then
            # continue — looping inline while the filter is free, bouncing
            # off the calendar (call_at) to charge non-zero filter cost
            # where a process would ``ctx.sleep``.
            while True:
                index = live[cursor]
                try:
                    args = stage.filter(values[index], items[index])
                except Exception as exc:
                    _break_run(run, exc, "filter %r" % stage.filter.name)
                    return
                if args is not SKIP:
                    calls.append((index, ref.stream(*args)))
                cursor += 1
                if cursor == len(live):
                    ref.flush()
                    gather()
                    return
                if stage.filter.cost > 0:
                    env.call_at(env.now + stage.filter.cost, step, cursor)
                    return

        def gather() -> None:
            if not calls:
                start_stage(position + 1, values, [])
                return
            gathered = Promise.all(env, [promise for _index, promise in calls])

            def settle(outcome: Outcome) -> None:
                if run.ready():
                    return
                if not outcome.is_normal:
                    run.resolve(outcome)
                    return
                for (index, _promise), value in zip(calls, outcome.results[0]):
                    values[index] = value
                start_stage(
                    position + 1, values, [index for index, _promise in calls]
                )

            gathered.on_resolved(settle)

        if not live:
            ref.flush()
            start_stage(position + 1, values, live)
        elif stage.filter.cost > 0:
            env.call_at(env.now + stage.filter.cost, step, 0)
        else:
            step(0)

    start_stage(0, [None] * len(items), list(range(len(items))))
    return run
