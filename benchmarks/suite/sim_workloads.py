"""The six simulator workloads (see the table in ``README.md``).

Each is a ``build``/``drive``/``check`` triple over a
:class:`~benchmarks.suite.world.World`.  ``spec`` is the workload's row
of :data:`benchmarks.suite.registry.WORKLOADS`: ``spec.size`` is the
number the self-tests scale down, ``spec.shape`` the fixed parameters.

Inputs come from ``seed`` alone: the simulator's named rng streams
(jitter, link faults) are rooted in it and the drivers draw their
payloads, keys and arrival times from ``random.Random(seed)``.
"""

from __future__ import annotations

import bisect
import random
import time
from typing import Any, Dict, List

from repro.compose import Pipeline, Stage, run_per_stream
from repro.core import ArgusError, Failure
from repro.entities import ArgusSystem
from repro.graph import GraphBuilder, GraphRuntime, register_routine
from repro.net.faults import LinkFaultInjector, LinkFaultProfile
from repro.streams import StreamConfig
from repro.types import INT, REAL, STRING, ArrayOf, HandlerType, RecordOf

from benchmarks.suite.world import FAILED, World, claim_windows

__all__ = [
    "build_stream_echo",
    "drive_windows",
    "check_stream_echo",
    "build_stream_records",
    "check_stream_records",
    "build_stream_lossy",
    "check_stream_lossy",
    "build_pipeline_cascade",
    "drive_pipeline_cascade",
    "check_pipeline_cascade",
    "build_kv_open",
    "drive_kv_open",
    "check_kv_open",
    "kv_open_ladder",
    "build_graph_kv",
    "drive_graph_kv",
    "check_graph_kv",
]

ECHO = HandlerType(args=[INT], returns=[INT])
clock = time.perf_counter


def _with_fault(spec: Any, impl):
    """Wrap a one-int-argument handler so every ``fail_every``-th value
    ends in ``failure`` (self-test hook; the registry never sets it)."""
    every = spec.shape.get("fail_every")
    if not every:
        return impl

    def faulty(ctx, x):
        if x % every == every - 1:
            raise Failure("injected handler fault")
        return (yield from impl(ctx, x))

    return faulty


def _run_client(world: World, main) -> None:
    """Spawn *main* on a fresh client guardian and run it to completion."""
    system = world.system
    process = system.create_guardian("client").spawn(main)
    start = system.now
    system.run(until=process)
    world.sim_elapsed = system.now - start


# ----------------------------------------------------------------------
# stream_echo
# ----------------------------------------------------------------------
def _jittered_system(spec: Any, seed: int, tracing: bool) -> ArgusSystem:
    shape = spec.shape
    return ArgusSystem(
        latency=shape["latency"],
        kernel_overhead=shape["kernel_overhead"],
        jitter=shape["jitter"],
        seed=seed,
        tracing=tracing,
    )


def build_stream_echo(spec: Any, seed: int, tracing: bool) -> World:
    system = _jittered_system(spec, seed, tracing)
    cost = spec.shape["handler_cost"]

    def echo(ctx, x):
        yield ctx.compute(cost)
        return x

    system.create_guardian("server").create_handler("echo", ECHO, _with_fault(spec, echo))
    world = World(spec, system)
    base = random.Random(seed).randrange(1 << 20)
    world.extra["calls"] = [(base + k,) for k in range(spec.size)]
    return world


def drive_windows(world: World) -> None:
    """One client claims ``extra["calls"]`` from the server's handler,
    a window at a time (stream_echo, stream_records, stream_lossy)."""

    def main(ctx):
        ref = ctx.lookup("server", world.spec.shape["handler"])
        yield from claim_windows(
            ctx, world, ref, world.extra["calls"], world.spec.shape["window"]
        )
        world.sender_stats.append(ref.stream_sender.stats.snapshot())

    _run_client(world, main)


def check_stream_echo(world: World) -> None:
    world.count_mismatches([args[0] for args in world.extra["calls"]])


# ----------------------------------------------------------------------
# stream_records
# ----------------------------------------------------------------------
_ROW = RecordOf({"name": STRING, "score": REAL})
RECORDS = HandlerType(
    args=[INT, STRING, ArrayOf(INT), ArrayOf(_ROW)],
    returns=[ArrayOf(STRING), ArrayOf(INT)],
)


def _record_payloads(seed: int, shape: Dict[str, Any]) -> List[tuple]:
    """A pool of distinct (label, ints, rows) payloads, ≈1.2 KB encoded."""
    rng = random.Random(seed)
    pool = []
    for _ in range(shape["pool"]):
        label = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(24))
        ints = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(shape["ints"])]
        rows = [
            {
                "name": "".join(rng.choice("liskovshrira") for _ in range(20)),
                "score": rng.random() * 100.0,
            }
            for _ in range(shape["rows"])
        ]
        pool.append((label, ints, rows))
    return pool


def build_stream_records(spec: Any, seed: int, tracing: bool) -> World:
    system = _jittered_system(spec, seed, tracing)
    cost = spec.shape["handler_cost"]

    def names_and_ints(ctx, index, label, ints, rows):
        yield ctx.compute(cost)
        return [row["name"] for row in rows], ints

    system.create_guardian("server").create_handler("records", RECORDS, names_and_ints)
    world = World(spec, system)
    pool = _record_payloads(seed, spec.shape)
    world.extra["calls"] = [(k,) + pool[k % len(pool)] for k in range(spec.size)]
    return world


def check_stream_records(world: World) -> None:
    expected = [
        ([row["name"] for row in rows], ints)
        for _index, _label, ints, rows in world.extra["calls"]
    ]
    world.got = [got if got is FAILED else (list(got[0]), list(got[1])) for got in world.got]
    world.count_mismatches(expected)


# ----------------------------------------------------------------------
# stream_lossy
# ----------------------------------------------------------------------
def build_stream_lossy(spec: Any, seed: int, tracing: bool) -> World:
    shape = spec.shape
    system = ArgusSystem(
        latency=shape["latency"],
        jitter=shape["jitter"],
        bandwidth=shape["bandwidth"],
        kernel_overhead=shape["kernel_overhead"],
        seed=seed,
        stream_config=StreamConfig(**shape["stream_config"]),
        tracing=tracing,
    )
    executions = [0] * spec.size

    def echo(ctx, x):
        executions[x] += 1
        return x
        yield  # handler protocol: the body is a generator

    system.create_guardian("server").create_handler("echo", ECHO, echo)
    system.network.install_link_faults(
        LinkFaultInjector(
            system.rng.stream("chaos.link"), default=LinkFaultProfile(**shape["faults"])
        )
    )
    world = World(spec, system)
    world.extra.update(executions=executions, calls=[(k,) for k in range(spec.size)])
    return world


def check_stream_lossy(world: World) -> None:
    """Every value came back once and the server ran each call exactly once."""
    executions = world.extra["executions"]
    for k in range(world.spec.size):
        if k >= len(world.got) or world.got[k] != k or executions[k] != 1:
            world.failed += 1


# ----------------------------------------------------------------------
# pipeline_cascade
# ----------------------------------------------------------------------
def build_pipeline_cascade(spec: Any, seed: int, tracing: bool) -> World:
    system = _jittered_system(spec, seed, tracing)
    cost = spec.shape["stage_cost"]
    world = World(spec, system)
    issued: Dict[int, tuple] = {}
    written: Dict[int, tuple] = {}

    def read(ctx, x):
        yield ctx.compute(cost)
        return x + 1000

    def compute(ctx, x):
        yield ctx.compute(cost)
        return x * 3

    def write(ctx, x):
        yield ctx.compute(cost)
        # run_per_stream returns results only when the whole cascade is
        # done, so an item's latency ends here, where it is written.
        written[x // 3 - 1000] = (clock(), ctx.now)
        return x - 7

    for name, impl in (("reader", read), ("computer", compute), ("writer", write)):
        system.create_guardian(name).create_handler("step", ECHO, impl)

    def feed(_value, item):
        issued[item] = (clock(), system.now)
        return (item,)

    world.extra.update(
        items=random.Random(seed).sample(range(1 << 20), spec.size),
        pipeline=Pipeline(
            [
                Stage("reader", "step", filter=feed),
                Stage("computer", "step"),
                Stage("writer", "step"),
            ]
        ),
        issued=issued,
        written=written,
    )
    return world


def drive_pipeline_cascade(world: World) -> None:
    extra = world.extra

    def main(ctx):
        try:
            world.got = yield from run_per_stream(ctx, extra["pipeline"], extra["items"])
        except ArgusError:
            world.got = []

    _run_client(world, main)
    world.ops += len(extra["items"])
    issued, written = extra["issued"], extra["written"]
    for item, (wall1, sim1) in written.items():
        wall0, sim0 = issued[item]
        world.wall_lat.append(wall1 - wall0)
        world.sim_lat.append(sim1 - sim0)


def check_pipeline_cascade(world: World) -> None:
    world.count_mismatches([(x + 1000) * 3 - 7 for x in world.extra["items"]])


# ----------------------------------------------------------------------
# kv_open
# ----------------------------------------------------------------------
KV_ADD = HandlerType(args=[INT, INT], returns=[INT])
KV_GET = HandlerType(args=[INT], returns=[INT])


def _zipf_draw(cdf: List[float], rng: random.Random) -> int:
    """A rank drawn from the Zipf distribution whose CDF is *cdf*."""
    return min(bisect.bisect_left(cdf, rng.random()), len(cdf) - 1)


def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (rank + 1) ** s for rank in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def _kv_schedule(seed: int, shape: Dict[str, Any], rate: float, ops: int) -> List[List[tuple]]:
    """Per client, the seeded ``(due, key, delta)`` arrivals; delta 0 = get.

    Poisson arrivals at ``rate / clients`` per client, *ops* in total, so
    the issuing phase lasts about ``ops / rate`` simulated seconds.
    """
    rng = random.Random(seed)
    cdf = _zipf_cdf(shape["keys"], shape["key_skew"])
    clients = shape["clients"]
    per_client = rate / clients
    schedule: List[List[tuple]] = []
    for index in range(clients):
        due, arrivals = 0.0, []
        for _ in range(ops // clients):
            due += rng.expovariate(per_client)
            key = _zipf_draw(cdf, rng)
            delta = 0 if rng.random() < shape["read_share"] else rng.randrange(1, 10)
            arrivals.append((due, key, delta))
        schedule.append(arrivals)
    return schedule


def build_kv_open(spec: Any, seed: int, tracing: bool, rate: float = 0.0) -> World:
    shape = spec.shape
    rate = rate or shape["rate"]
    system = ArgusSystem(
        latency=shape["latency"],
        jitter=shape["jitter"],
        kernel_overhead=shape["kernel_overhead"],
        bandwidth=shape["bandwidth"],
        seed=seed,
        stream_config=StreamConfig(**shape["stream_config"]),
        tracing=tracing,
    )
    compute = shape["server_compute"]

    def add(ctx, key, delta):
        yield ctx.compute(compute)
        data = ctx.guardian.state["data"]
        value = data[key] = data.get(key, 0) + delta
        return value

    def get(ctx, key):
        yield ctx.compute(compute)
        return ctx.guardian.state["data"].get(key, 0)

    for index in range(shape["shards"]):
        shard = system.create_guardian("shard%d" % index)
        shard.state["data"] = {}
        shard.create_handler("add", KV_ADD, add)
        shard.create_handler("get", KV_GET, get)
    world = World(spec, system)
    world.extra.update(
        rate=rate,
        schedule=_kv_schedule(seed, shape, rate, spec.size),
        lateness=0.0,
        completed=0,
        refused=0,
        last_done=0.0,
    )
    return world


def drive_kv_open(world: World) -> None:
    """Open loop: each client issues on its seeded schedule, whatever is
    still outstanding; results are consumed by vat continuations."""
    system, extra, shape = world.system, world.extra, world.spec.shape
    env = system.env
    shards = shape["shards"]
    wall_lat, sim_lat = world.wall_lat, world.sim_lat

    def finish(outcome, due, wall0):
        extra["completed"] += 1
        extra["last_done"] = env.now
        if not outcome.is_normal:
            world.failed += 1
        wall_lat.append(clock() - wall0)
        sim_lat.append(env.now - due)

    def make_driver(arrivals):
        def driver(ctx):
            refs = [
                (ctx.lookup("shard%d" % i, "add"), ctx.lookup("shard%d" % i, "get"))
                for i in range(shards)
            ]
            for due, key, delta in arrivals:
                if due > env.now:
                    yield ctx.sleep(due - env.now)
                extra["lateness"] = max(extra["lateness"], env.now - due)
                add, get = refs[key % shards]
                wall0 = clock()
                try:
                    promise = add.stream(key, delta) if delta else get.stream(key)
                except ArgusError:
                    world.failed += 1
                    extra["refused"] += 1
                    continue
                promise.on_resolved(
                    lambda outcome, due=due, wall0=wall0: finish(outcome, due, wall0)
                )
            for add, get in refs:
                world.sender_stats.append(add.stream_sender.stats.snapshot())

        return driver

    for index, arrivals in enumerate(extra["schedule"]):
        world.ops += len(arrivals)
        system.create_guardian("client%d" % index).spawn(make_driver(arrivals))
    cutoff = max(arrivals[-1][0] for arrivals in extra["schedule"] if arrivals)
    system.run(until=cutoff)
    extra["completed_at_cutoff"] = extra["completed"]

    def outstanding():
        return world.ops - extra["refused"] - extra["completed"]

    horizon = cutoff + shape["drain_timeout"]
    while outstanding() and system.now < horizon:
        system.run(until=min(system.now + 0.25, horizon))
    extra["drained"] = outstanding() == 0
    world.failed += outstanding()
    world.sim_elapsed = extra["last_done"]


def check_kv_open(world: World) -> None:
    """The final store equals the sequential per-key model of the adds,
    and the generator was never late (it cannot be, in simulated time)."""
    model: Dict[int, int] = {}
    for arrivals in world.extra["schedule"]:
        for _due, key, delta in arrivals:
            if delta:
                model[key] = model.get(key, 0) + delta
    store: Dict[int, int] = {}
    for index in range(world.spec.shape["shards"]):
        store.update(world.system.guardian("shard%d" % index).state["data"])
    world.failed += sum(1 for key in set(model) | set(store) if model.get(key) != store.get(key))
    if world.extra["lateness"] > 1e-9:
        raise AssertionError("open-loop generator ran %.3g late" % world.extra["lateness"])


def kv_open_ladder(spec: Any, seed: int) -> float:
    """Highest offered rate the kv world sustains, from a fixed ladder.

    A rung is sustained when its p99 (failed ops count as missing the
    limit) is within ``p99_limit``, at least ``sustained_share`` of the
    issued ops had completed when issuing stopped, and the backlog
    drained.  The climb stops at the first rung that is not.
    """
    shape = spec.shape
    sustained = 0.0
    for rate in shape["ladder"]:
        rung = spec.resized(int(rate * shape["ladder_seconds"]))
        world = build_kv_open(rung, seed, False, rate=rate)
        drive_kv_open(world)
        check_kv_open(world)
        latencies = sorted(world.sim_lat) + [float("inf")] * world.failed
        p99 = latencies[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        if not (
            p99 <= shape["p99_limit"]
            and world.extra["completed_at_cutoff"] >= shape["sustained_share"] * world.ops
            and world.extra["drained"]
        ):
            break
        sustained = float(rate)
    return sustained


# ----------------------------------------------------------------------
# graph_kv
# ----------------------------------------------------------------------
def _g_add(state, captures, inputs):
    key, delta = captures
    data = state.setdefault("data", {})
    data[key] = data.get(key, 0) + delta
    return (data[key],)


def _g_scale(state, captures, inputs):
    (factor,) = captures
    (value,) = inputs
    return (value * factor,)


def _g_sum(state, captures, inputs):
    return (sum(values[0] for values in inputs),)


def build_graph_kv(spec: Any, seed: int, tracing: bool) -> World:
    shape = spec.shape
    cost = shape["routine_cost"]
    register_routine(
        "suite.add", _g_add, capture_types=(STRING, INT), output_types=(INT,), cost=cost
    )
    register_routine(
        "suite.scale",
        _g_scale,
        capture_types=(INT,),
        input_types=(INT,),
        output_types=(INT,),
        cost=cost,
    )
    register_routine(
        "suite.sum", _g_sum, input_types=(INT,), output_types=(INT,), cost=cost
    )
    system = ArgusSystem(
        latency=shape["latency"],
        kernel_overhead=shape["kernel_overhead"],
        seed=seed,
        tracing=tracing,
    )
    names = ["shard%d" % index for index in range(shape["shards"])]
    runtime = GraphRuntime(system, names, origin="client")
    for name in names:
        runtime.install_shard(system.create_guardian(name))
    client = system.create_guardian("client")
    runtime.install_origin(client)
    rng = random.Random(seed)
    cdf = _zipf_cdf(shape["sched_keys"], shape["key_skew"])
    world = World(spec, system)
    world.extra.update(
        runtime=runtime,
        client=client,
        rounds=[_plan_round(spec, rng, cdf) for _ in range(shape["rounds"])],
        expected={},
    )
    return world


def _plan_round(spec: Any, rng: random.Random, cdf: List[float]) -> List[tuple]:
    """One round's seeded inputs: per chain ``(delta, factor, add_key,
    scale_key, join_key)``, the keys Zipf-skewed scheduling keys."""
    return [
        (
            rng.randrange(1, 100),
            rng.randrange(2, 5),
            _zipf_draw(cdf, rng),
            _zipf_draw(cdf, rng),
            _zipf_draw(cdf, rng),
        )
        for _ in range(spec.size)
    ]


def _build_round(world: World, round_index: int):
    """One round's DAG: ``spec.size`` two-hop chains joined ``fan_in``-wise.
    Returns the builder and its routine count, and records the expected
    value of every emit tag."""
    expected, fan_in = world.extra["expected"], world.spec.shape["fan_in"]
    graph = GraphBuilder()
    routines, pending, values = 0, [], []
    plan = world.extra["rounds"][round_index]
    for chain, (delta, factor, add_key, scale_key, join_key) in enumerate(plan):
        source = graph.source(
            "suite.add", captures=("r%d.c%d" % (round_index, chain), delta), sched_key=add_key
        )
        pending.append(source.then("suite.scale", captures=(factor,), sched_key=scale_key))
        values.append(delta * factor)
        routines += 2
        if len(pending) == fan_in:
            tag = "r%d.join%d" % (round_index, chain)
            graph.collect("suite.sum", inputs=pending, sched_key=join_key).emit(tag)
            expected[tag] = (sum(values), 2 * len(values) + 1)
            routines += 1
            pending, values = [], []
    for index, (hop, value) in enumerate(zip(pending, values)):
        tag = "r%d.tail%d" % (round_index, index)
        hop.emit(tag)
        expected[tag] = (value, 2)
    return graph, routines


def drive_graph_kv(world: World) -> None:
    extra = world.extra
    runtime = extra["runtime"]
    results: Dict[str, Any] = {}
    world.got = results

    def main(ctx):
        env = ctx.env
        for round_index in range(world.spec.shape["rounds"]):
            wall0, sim0 = clock(), env.now
            graph, routines = _build_round(world, round_index)
            world.ops += routines
            promises = runtime.submit(ctx, graph, batching=True)
            for tag, promise in promises.items():
                try:
                    results[tag] = yield promise.claim()
                except ArgusError:
                    results[tag] = FAILED
                world.wall_lat.append(clock() - wall0)
                world.sim_lat.append(env.now - sim0)

    system = world.system
    process = extra["client"].spawn(main)
    system.run(until=process)
    world.sim_elapsed = system.now


def check_graph_kv(world: World) -> None:
    """Every emit tag was claimed with the value the DAG must compute; a
    wrong tag fails every routine that fed it."""
    for tag, (value, routines) in world.extra["expected"].items():
        got = world.got.get(tag, FAILED)
        if isinstance(got, tuple) and len(got) == 1:
            got = got[0]
        if got is FAILED or got != value:
            world.failed += routines
    if world.extra["runtime"].pending_count():
        raise AssertionError("graph runtime still has pending promises")
