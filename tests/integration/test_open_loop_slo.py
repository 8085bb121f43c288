"""Open-loop service levels: three topologies hold their latency ceilings.

Independent users issue Poisson arrivals regardless of how many calls are
still outstanding; each call is a ``stream`` whose result is consumed by an
``on_resolved`` vat continuation, so a pending call holds no process.  At a
rate at or above each topology's throughput floor (echo and kv 400,
pipeline 150 calls per simulated second), the system must serve what was
offered, drain its backlog, and keep p50/p99/p999 within the ceilings.

The network is seconds-scale (2 ms latency) and the transport is the
adaptive one tuned to it, so batching delay stays small at low rates while
AIMD still grows batches under pressure.
"""

import itertools

import pytest

from repro.entities.system import ArgusSystem
from repro.obs.metrics import Histogram
from repro.streams.config import StreamConfig
from repro.types.signatures import INT, HandlerType

CLIENTS = 4
SERVERS = 2
DURATION = 4.0
DRAIN_TIMEOUT = 20.0
SERVER_COMPUTE = 0.001
KEYS = 10_000
KEY_SKEW = 1.1
READ_FRACTION = 0.25

UNARY = HandlerType(args=[INT], returns=[INT])
KV_ADD = HandlerType(args=[INT, INT], returns=[INT])


def stream_config():
    return StreamConfig(
        batch_size=8,
        reply_batch_size=8,
        max_buffer_delay=0.005,
        reply_max_delay=0.005,
        rto=0.25,
        max_retries=4,
        ack_delay=0.05,
        reply_ack_delay=0.1,
        auto_restart=True,
        max_batch_size=64,
        min_rto=0.05,
        max_rto=2.0,
        max_inflight_calls=256,
    )


def build_echo(system):
    """``SERVERS`` independent echo servers."""

    def echo(ctx, x):
        yield ctx.compute(SERVER_COMPUTE)
        return x

    for i in range(SERVERS):
        system.create_guardian("server%d" % i).create_handler("echo", UNARY, echo)

    def bind(ctx):
        refs = [ctx.lookup("server%d" % i, "echo") for i in range(SERVERS)]
        return lambda n, rng: refs[n % SERVERS].stream(n)

    return bind


def build_pipeline(system):
    """client -> mid -> db: one nested RPC per request."""

    def double(ctx, x):
        yield ctx.compute(SERVER_COMPUTE)
        return 2 * x

    def record(ctx, x):
        doubled = yield ctx.lookup("db", "double").call(x)
        return doubled + 1

    system.create_guardian("db").create_handler("double", UNARY, double)
    for i in range(SERVERS):
        system.create_guardian("mid%d" % i).create_handler("record", UNARY, record)

    def bind(ctx):
        refs = [ctx.lookup("mid%d" % i, "record") for i in range(SERVERS)]
        return lambda n, rng: refs[n % SERVERS].stream(n)

    return bind


def build_kv(system):
    """``SERVERS`` shards, key -> shard by modulo, Zipf-hot keys, an
    add/get mix with ``READ_FRACTION`` reads."""

    def add(ctx, key, delta):
        yield ctx.compute(SERVER_COMPUTE)
        data = ctx.guardian.state["data"]
        value = data[key] = data.get(key, 0) + delta
        return value

    def get(ctx, key):
        yield ctx.compute(SERVER_COMPUTE)
        return ctx.guardian.state["data"].get(key, 0)

    for i in range(SERVERS):
        shard = system.create_guardian("shard%d" % i)
        shard.state["data"] = {}
        shard.create_handler("add", KV_ADD, add)
        shard.create_handler("get", UNARY, get)
    keys = range(KEYS)
    cdf = list(itertools.accumulate((k + 1) ** -KEY_SKEW for k in keys))

    def bind(ctx):
        refs = [
            (ctx.lookup("shard%d" % i, "add"), ctx.lookup("shard%d" % i, "get"))
            for i in range(SERVERS)
        ]

        def issue(n, rng):
            key = rng.choices(keys, cum_weights=cdf)[0]
            add_ref, get_ref = refs[key % SERVERS]
            if rng.random() < READ_FRACTION:
                return get_ref.stream(key)
            return add_ref.stream(key, 1)

        return issue

    return bind


def run_open_loop(build, rate, seed=0):
    """Drive *rate* Poisson arrivals per sim-second for ``DURATION``, then
    drain; returns the counts, per-call resolutions and latency histogram."""
    system = ArgusSystem(
        latency=0.002,
        jitter=0.0005,
        kernel_overhead=0.0005,
        bandwidth=300_000.0,
        seed=seed,
        stream_config=stream_config(),
    )
    env = system.env
    bind = build(system)
    resolutions = []  # per issued call: the outcomes it resolved with
    latency = Histogram()

    def finish(outcomes, outcome, t0):
        outcomes.append(outcome)
        latency.observe(env.now - t0)

    def make_driver(index):
        arrivals = system.rng.stream("open_loop.arrivals.%d" % index)
        ops = system.rng.stream("open_loop.ops.%d" % index)

        def driver(ctx):
            issue = bind(ctx)
            while True:
                gap = arrivals.expovariate(rate / CLIENTS)
                if ctx.now + gap >= DURATION:
                    return None
                yield ctx.sleep(gap)
                outcomes = []
                resolutions.append(outcomes)
                promise = issue(len(resolutions), ops)
                promise.on_resolved(
                    lambda outcome, outcomes=outcomes, t0=ctx.now: finish(outcomes, outcome, t0)
                )

        return driver

    for index in range(CLIENTS):
        system.create_guardian("client%d" % index).spawn(make_driver(index))
    system.run(until=DURATION)
    served_at_cutoff = sum(1 for outcomes in resolutions if outcomes)
    horizon = DURATION + DRAIN_TIMEOUT
    while latency.count < len(resolutions) and system.now < horizon:
        system.run(until=min(system.now + 0.5, horizon))
    return {
        "issued": len(resolutions),
        "served_at_cutoff": served_at_cutoff,
        "resolutions": resolutions,
        "latency": latency,
    }


@pytest.mark.parametrize(
    "build, rate, ceilings",
    [
        (build_echo, 600.0, {"p50": 0.05, "p99": 0.25, "p999": 0.5}),
        (build_kv, 600.0, {"p50": 0.05, "p99": 0.25, "p999": 0.5}),
        (build_pipeline, 200.0, {"p50": 0.1, "p99": 0.4, "p999": 0.8}),
    ],
    ids=["echo", "kv", "pipeline"],
)
def test_open_loop_topology_holds_its_slo(build, rate, ceilings):
    result = run_open_loop(build, rate)
    issued = result["issued"]
    # Poisson draw over DURATION: within a few standard deviations of rate * DURATION.
    assert abs(issued - rate * DURATION) < 5 * (rate * DURATION) ** 0.5
    for outcomes in result["resolutions"]:
        assert len(outcomes) == 1, outcomes
        assert outcomes[0].is_normal, outcomes[0]
    assert result["served_at_cutoff"] >= 0.9 * issued
    latency = result["latency"]
    assert latency.count == issued  # the backlog drained
    measured = {
        "p50": latency.percentile(50),
        "p99": latency.percentile(99),
        "p999": latency.percentile(99.9),
    }
    for key, ceiling in ceilings.items():
        assert measured[key] <= ceiling, (key, measured)
