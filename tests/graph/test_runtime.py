"""GraphRuntime end to end: placement, batching, migration, give-up."""

import random

import pytest

from repro.graph import EXEC_HANDLER, EXEC_ONE_HANDLER, GRAPH_GROUP, GraphBuilder, GraphError
from repro.graph.codec import encode_units

from ..conftest import run_client
from .helpers import build_graph_system


SETTLE = 40.0  # sim seconds; far beyond any propagation in these worlds


def _chain_and_join(runtime):
    """Two cross-shard chains joined by a collector, with pinned keys."""
    g = GraphBuilder()
    a = g.source("t.add", captures=("alpha", 2), sched_key=1).emit("a")
    b = a.then("t.scale", captures=(3,), sched_key=2).emit("b")
    c = g.source("t.add", captures=("beta", 5), sched_key=3).emit("c")
    g.collect("t.sum", inputs=[b, c], sched_key=4).emit("sum")
    return g


EXPECTED = {"a": (2,), "b": (6,), "c": (5,), "sum": (11,)}


def _submit_driver(runtime, batching):
    def main(ctx):
        promises = runtime.submit(ctx, _chain_and_join(runtime), batching=batching)
        assert set(promises) == set(EXPECTED)
        assert runtime.pending_count() == len(EXPECTED)
        yield ctx.sleep(SETTLE)
        results = {}
        for tag, promise in promises.items():
            assert promise.ready(), "promise %r never resolved" % (tag,)
            outcome = promise.outcome()
            assert outcome.is_normal
            results[tag] = outcome.results
        assert runtime.pending_count() == 0
        return results

    return main


@pytest.mark.parametrize("batching", [True, False])
def test_submit_resolves_every_emit(batching):
    system, runtime = build_graph_system()
    assert run_client(system, _submit_driver(runtime, batching)) == EXPECTED


def test_batching_sends_fewer_wire_messages():
    counts = {}
    for batching in (True, False):
        system, runtime = build_graph_system()
        run_client(system, _submit_driver(runtime, batching))
        counts[batching] = system.network.stats.messages_sent
    assert counts[True] < counts[False]


def test_rpc_baseline_computes_the_same_results():
    system, runtime = build_graph_system()

    def main(ctx):
        results = yield from runtime.run_rpc(ctx, _chain_and_join(runtime))
        return results

    assert run_client(system, main) == EXPECTED


def test_rpc_baseline_is_slower_than_batched_submit():
    # The engine's perf claim in miniature: per-edge RPC pays a blocking
    # round trip per DAG edge, the sharded engine pipelines the whole
    # DAG.  (The throughput and wire-message gaps only open at scale —
    # test_the_engines_claims_hold_at_scale pins those; here, latency.)
    system, runtime = build_graph_system()

    def rpc_main(ctx):
        start = ctx.now
        yield from runtime.run_rpc(ctx, _chain_and_join(runtime))
        return ctx.now - start

    rpc_elapsed = run_client(system, rpc_main)

    system, runtime = build_graph_system()

    def submit_main(ctx):
        start = ctx.now
        promises = runtime.submit(ctx, _chain_and_join(runtime), batching=True)
        for promise in promises.values():
            yield promise.claim()
        return ctx.now - start

    submit_elapsed = run_client(system, submit_main)
    assert submit_elapsed < rpc_elapsed


def _zipf_chains():
    """200 two-hop chains on Zipf(1.2)-skewed scheduling keys over a
    64-key space, joined 4-wise: hot keys pile onto a few shards, cold
    keys scatter.  State keys are unique per chain, so every engine
    computes the same values in any order.  Returns (graph, routine
    count, expected results by emit tag)."""
    chains, keyspace, fan_in = 200, 64, 4
    routines = 2 * chains + chains // fan_in
    weights = [1.0 / (rank + 1) ** 1.2 for rank in range(keyspace)]
    keys = iter(random.Random(11).choices(range(keyspace), weights, k=routines))
    g = GraphBuilder()
    hops, expected = [], {}
    for index in range(chains):
        src = g.source(
            "t.add", captures=("c%d" % index, index + 1), sched_key=next(keys)
        )
        hops.append(src.then("t.scale", captures=(3,), sched_key=next(keys)))
        if len(hops) == fan_in:
            tag = "join%d" % index
            g.collect("t.sum", inputs=hops, sched_key=next(keys)).emit(tag)
            expected[tag] = (sum(3 * (i + 1) for i in range(index - 3, index + 1)),)
            hops = []
    return g, routines, expected


def test_the_engines_claims_hold_at_scale():
    # 200 Zipf chains over 4 shards (450 routines).  Measured: batched
    # submit runs 88.1x the routines per sim-second of per-edge RPC
    # (27.1 vs 0.31) and costs 75 wire messages against 1430 with epoch
    # batching off — bit-reproducible, so the margins are not noise room.
    def drive(engine):
        system, runtime = build_graph_system(n_shards=4)
        graph, routines, expected = _zipf_chains()

        def main(ctx):
            start = ctx.now
            if engine == "rpc":
                results = yield from runtime.run_rpc(ctx, graph)
            else:
                promises = runtime.submit(ctx, graph, batching=engine == "batched")
                results = {}
                for tag, promise in promises.items():
                    results[tag] = ((yield promise.claim()),)
            return results, ctx.now - start

        results, elapsed = run_client(system, main)
        assert results == expected and runtime.pending_count() == 0
        return routines / elapsed, system.network.stats.messages_sent

    rpc_rate, _ = drive("rpc")
    batched_rate, batched_messages = drive("batched")
    _, unbatched_messages = drive("unbatched")
    assert batched_rate >= 3.0 * rpc_rate
    assert batched_messages < unbatched_messages


def test_fired_joins_leave_no_state_behind():
    # Three submits of the 200-chain DAG (150 joins over 4 shards): once
    # every promise has resolved, no shard may still hold a join entry.
    system, runtime = build_graph_system(n_shards=4)

    def main(ctx):
        for round_ in (1, 2, 3):
            graph, _routines, expected = _zipf_chains()
            promises = runtime.submit(ctx, graph, batching=True)
            for tag, promise in promises.items():
                # t.add accumulates, so round r sums r times the values.
                assert (yield promise.claim()) == round_ * expected[tag][0]

    run_client(system, main)
    left = [
        key
        for name in runtime.router.shard_names
        for key in system.guardians[name].state
        if isinstance(key, tuple) and key[0] == "graph.collect"
    ]
    assert left == []


def test_node_func_migrates_to_the_value_owner():
    # t.mark reroutes by its actual input value.  Pick a value whose
    # owner shard differs from the static key's shard, and assert the
    # side effect lands on the owner.
    system, runtime = build_graph_system()
    router = runtime.router
    static_key = 1
    value = next(
        v
        for v in range(1, 50)
        if router.shard_index(v) != router.shard_index(static_key)
    )

    def main(ctx):
        g = GraphBuilder()
        src = g.source("t.add", captures=("m", value), sched_key=static_key)
        src.then("t.mark").emit("marked")
        promises = runtime.submit(ctx, g)
        yield ctx.sleep(SETTLE)
        return promises["marked"].outcome().results

    assert run_client(system, main) == (value,)
    owner = system.guardians[router.shard_name(value)]
    static = system.guardians[router.shard_name(static_key)]
    assert owner.state.get("hits") == [value]
    assert "hits" not in static.state  # it really moved, not ran twice


def test_abandon_breaks_pending_promises_as_unavailable():
    system, runtime = build_graph_system()

    def main(ctx):
        g = GraphBuilder()
        g.source("t.add", captures=("k", 1), sched_key=0).emit("a")
        promises = runtime.submit(ctx, g)
        # Give up before any result can arrive (no sim time has passed).
        assert runtime.abandon("gave up for the test") == 1
        assert runtime.pending_count() == 0
        outcome = promises["a"].outcome()
        assert not outcome.is_normal
        assert outcome.exception.condition == "unavailable"
        # The late result frame finds nothing pending and is dropped.
        yield ctx.sleep(SETTLE)
        return "done"

    assert run_client(system, main) == "done"


def test_duplicate_emit_tags_are_rejected():
    system, runtime = build_graph_system()

    def main(ctx):
        g = GraphBuilder()
        g.source("t.add", captures=("x", 1), sched_key=0).emit("same")
        g.source("t.add", captures=("y", 1), sched_key=1).emit("same")
        with pytest.raises(GraphError):
            runtime.submit(ctx, g)
        yield ctx.sleep(0)
        return "rejected"

    assert run_client(system, main) == "rejected"


def test_corrupt_units_fail_only_their_call():
    # A units payload that does not decode is that call's failure; the
    # client->shard stream survives and carries the next submit.
    system, runtime = build_graph_system()
    dest = runtime.router.shard_name(0)

    def main(ctx):
        ref = ctx.lookup(dest, EXEC_HANDLER, group=GRAPH_GROUP)
        outcome = yield ref.stream(1, 0, True, "\xff\xff\xff\xff").wait()
        assert outcome.exception.condition == "failure"
        assert "DecodeError" in outcome.exception.reason
        g = GraphBuilder()
        g.source("t.add", captures=("k", 7), sched_key=0).emit("a")
        value = yield runtime.submit(ctx, g)["a"].claim()
        assert not ref.stream_sender.broken
        return value

    assert run_client(system, main) == 7


def test_exec_one_rejects_a_payload_of_two_units():
    system, runtime = build_graph_system()
    g = GraphBuilder()
    g.source("t.add", captures=("x", 1), sched_key=0)
    g.source("t.add", captures=("y", 2), sched_key=0)
    roots, _emits = g.compile()
    payload = encode_units([(0, root, ()) for root in roots]).decode("latin-1")

    def main(ctx):
        ref = ctx.lookup(runtime.router.shard_name(0), EXEC_ONE_HANDLER, group=GRAPH_GROUP)
        outcome = yield ref.stream(1, payload).wait()
        return outcome

    outcome = run_client(system, main)
    assert outcome.exception.condition == "failure"
    assert "got 2" in outcome.exception.reason


def test_rpc_baseline_runs_twice_on_one_runtime():
    # Collector inputs accumulate per (graph id, node id), so a second
    # walk of the same DAG must not find the first walk's join fired.
    system, runtime = build_graph_system()

    def main(ctx):
        first = yield from runtime.run_rpc(ctx, _chain_and_join(runtime))
        second = yield from runtime.run_rpc(ctx, _chain_and_join(runtime))
        return first, second

    first, second = run_client(system, main)
    assert first == EXPECTED
    assert second["sum"] == (second["b"][0] + second["c"][0],)
