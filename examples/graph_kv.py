"""Promise graphs over a sharded KV store (PR 10's `repro.graph`).

Instead of driving a DAG of calls from the client — one round trip per
edge — describe it once with :class:`GraphBuilder` and ship it: each
routine tree travels to the shard its scheduling key hashes to,
executes where the data lives, and cascades shard-to-shard, one epoch
batch call per destination. The client gets one promise per ``emit()`` tag.

The demo builds a little DAG over three shards:

* two update chains (``kv.add`` then ``kv.scale``) pinned to different
  shards by key,
* a collector (``kv.sum``) that joins them on a third shard,
* a chain through ``kv.owner`` — a routine with a ``node_func`` that
  recomputes placement from its *actual* input value, so the delivery
  migrates to the value's owner shard at run time.

Then it runs the same DAG through the per-edge RPC baseline
(:meth:`GraphRuntime.run_rpc`) and prints both engines' wire-message
and simulated-time costs side by side.

Run:  python examples/graph_kv.py
      python examples/graph_kv.py --trace out/   # JSONL export; inspect with
                                                 # python -m repro.obs critical-path
"""

import argparse
import os

from repro import ArgusSystem, INT, STRING
from repro.graph import GraphBuilder, GraphRuntime, register_routine

# ----------------------------------------------------------------------
# Routines: named, registered on every node, never pickled.  A frame
# carries the routine *name* plus captures/inputs; the receiving shard
# resolves the name in its own registry.
# ----------------------------------------------------------------------


def _kv_add(state, captures, inputs):
    key, delta = captures
    data = state.setdefault("data", {})
    data[key] = data.get(key, 0) + delta
    return (data[key],)


def _kv_scale(state, captures, inputs):
    (factor,) = captures
    (value,) = inputs
    return (value * factor,)


def _kv_sum(state, captures, inputs):
    return (sum(values[0] for values in inputs),)


def _kv_owner(state, captures, inputs):
    (value,) = inputs
    state.setdefault("owned", []).append(value)
    return (value,)


register_routine(
    "kv.add", _kv_add, capture_types=(STRING, INT), output_types=(INT,), cost=0.05
)
register_routine(
    "kv.scale",
    _kv_scale,
    capture_types=(INT,),
    input_types=(INT,),
    output_types=(INT,),
    cost=0.05,
)
register_routine("kv.sum", _kv_sum, input_types=(INT,), output_types=(INT,), cost=0.05)
# node_func: placement is recomputed from the actual input value, so the
# delivery migrates to whichever shard owns that value.
register_routine(
    "kv.owner",
    _kv_owner,
    input_types=(INT,),
    output_types=(INT,),
    node_func=lambda captures, inputs: inputs[0],
    cost=0.05,
)


def build_world(tracing=False):
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1, tracing=tracing)
    names = ["shard0", "shard1", "shard2"]
    runtime = GraphRuntime(system, names, origin="client")
    for name in names:
        runtime.install_shard(system.create_guardian(name))
    client = system.create_guardian("client")
    runtime.install_origin(client)
    return system, runtime, client


def build_dag():
    g = GraphBuilder()
    a = g.source("kv.add", captures=("alpha", 2), sched_key=1).emit("a")
    b = a.then("kv.scale", captures=(3,), sched_key=2).emit("b")
    c = g.source("kv.add", captures=("beta", 5), sched_key=3).emit("c")
    g.collect("kv.sum", inputs=[b, c], sched_key=4).emit("total")
    # The migrating chain: kv.owner reroutes to the shard owning its
    # input value (17), wherever the static key would have put it.
    g.source("kv.add", captures=("gamma", 17), sched_key=1).then("kv.owner").emit(
        "owned"
    )
    return g


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trace", metavar="DIR", default=None,
        help="run with tracing on and write a JSONL event trace under DIR",
    )
    args = parser.parse_args()

    # --- sharded submission: the DAG ships, promises come back --------
    system, runtime, client = build_world(tracing=args.trace is not None)

    def submit_main(ctx):
        start = ctx.now
        promises = runtime.submit(ctx, build_dag())
        results = {}
        for tag, promise in sorted(promises.items()):
            results[tag] = yield promise.claim()
        return results, ctx.now - start

    process = client.spawn(submit_main)
    results, elapsed = system.run(until=process)
    messages = system.stats()["messages_sent"]
    print("sharded submit:")
    for tag, value in sorted(results.items()):
        print("  %-6s = %r" % (tag, value))
    owner = runtime.router.shard_name(17)
    print("  kv.owner ran on %s (migrated to its value's shard)" % owner)
    print("  %d wire messages, %.2f simulated seconds" % (messages, elapsed))

    if args.trace:
        os.makedirs(args.trace, exist_ok=True)
        path = os.path.join(args.trace, "graph_kv.trace.jsonl")
        system.export_trace(path)
        print("  trace written to %s" % path)

    # --- the same DAG, one blocking RPC per edge ----------------------
    system, runtime, client = build_world()

    def rpc_main(ctx):
        start = ctx.now
        rpc_results = yield from runtime.run_rpc(ctx, build_dag())
        return rpc_results, ctx.now - start

    process = client.spawn(rpc_main)
    rpc_results, rpc_elapsed = system.run(until=process)
    rpc_messages = system.stats()["messages_sent"]
    # run_rpc returns raw output tuples; claim() unwraps single results.
    flat = {
        tag: value[0] if len(value) == 1 else value
        for tag, value in rpc_results.items()
    }
    print("per-edge RPC baseline:")
    print("  same results: %s" % (flat == results,))
    print("  %d wire messages, %.2f simulated seconds" % (rpc_messages, rpc_elapsed))
    print(
        "speedup: %.1fx in simulated time"
        % (rpc_elapsed / elapsed if elapsed else float("inf"))
    )


if __name__ == "__main__":
    main()
