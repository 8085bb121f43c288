"""The two real-socket workloads: ``rt_pipeline`` and ``rt_rpc``.

Both run the client in this process and one worker process holding an
echo guardian, with frames over real TCP on the host's **loopback**
interface — no real link is crossed.  Every repeat starts a fresh
:class:`~repro.rt.RtCluster`.

The worker also serves ``cpu() -> REAL`` returning its own
``time.process_time()``; the driver calls it just before and just after
the timed region, so ``cpu_us_per_op`` covers client plus worker.
"""

from __future__ import annotations

import functools
import os
import random
import time
from typing import Any, Dict, List

from repro.core import ArgusError
from repro.entities import ArgusSystem
from repro.rt import RtCluster
from repro.streams import StreamConfig
from repro.types import INT, REAL, HandlerType

from benchmarks.suite.world import FAILED, World, claim_windows

__all__ = [
    "worker_setup",
    "pin_to",
    "build_rt",
    "build_twin",
    "drive_rt_pipeline",
    "drive_rt_rpc",
    "check_rt",
]

ECHO = HandlerType(args=[INT], returns=[INT])
CPU = HandlerType(args=[], returns=[REAL])
WORKER_NODE = "node:echo"
clock = time.perf_counter

#: The CPUs this process may use, read before anything is pinned.  With
#: two or more, the client keeps the first and the worker gets the one
#: the workload's ``worker_cpu`` names: left to the scheduler, the pair
#: lands on one core or two from run to run and the RPC latency moves by
#: 20%.  ``rt_pipeline`` gives the worker the second CPU, because client
#: and worker work at the same time.  ``rt_rpc`` keeps both on the first:
#: they strictly alternate, so one CPU is enough, and it never goes idle
#: between call and reply -- waking a halted virtual CPU is the step a
#: busy shared host delays most (ten-seed spread 5-9% shared, 8-12% apart).
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
CLIENT_CPUS = CPUS[:1] if len(CPUS) > 1 else []


def pin_to(cpus) -> None:
    """Restrict this process to *cpus* (a no-op where the OS cannot)."""
    if cpus and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, cpus)


def worker_setup(cpus, host: Any, call_cost: float = 0.0) -> None:
    """Runs in the spawned worker (pickled by reference, so module level).

    *host* is the worker's ``RtHost`` or, for the twin, an ``ArgusSystem``
    whose echo handler charges *call_cost* simulated time per call.
    """
    pin_to(cpus)
    guardian = host.create_guardian("echo")

    def echo(ctx, x):
        if call_cost:
            yield ctx.compute(call_cost)
        return x

    def cpu(ctx):
        return time.process_time()
        yield

    guardian.create_handler("echo", ECHO, echo)
    guardian.create_handler("cpu", CPU, cpu)


class RtWorld(World):
    """A cluster of one worker plus the client host in this process."""

    def __init__(self, spec: Any, cluster: RtCluster, host: Any) -> None:
        super().__init__(spec, host)
        self.cluster = cluster

    def run(self, process: Any) -> None:
        self.system.run(until=process, timeout=self.spec.shape["timeout_s"])

    def net_stats(self) -> Dict[str, int]:
        """Client-side counters over the timed region.  ``messages_sent``
        is every frame the client sent or received, so it is the wire
        count of both directions."""
        before, after = self.extra["stats_before"], self.extra["stats_after"]
        delta = {key: after[key] - before[key] for key in after}
        delta["messages_sent"] += delta["messages_delivered"]
        return delta

    def close(self) -> None:
        pin_to(CPUS)
        self.system.shutdown()
        try:
            self.worker_stats = self.cluster.stop().get(WORKER_NODE, {})
        except BaseException:
            self.cluster.kill()
            raise


def build_rt(spec: Any, seed: int, tracing: bool) -> World:
    shape = spec.shape
    config = StreamConfig(**shape["stream_config"])
    worker_cpus = CPUS[shape["worker_cpu"]:][:1] if len(CPUS) > 1 else []
    cluster = RtCluster(
        {WORKER_NODE: functools.partial(worker_setup, worker_cpus)},
        time_unit=shape["time_unit"],
        stream_config=config,
    )
    cluster.start()
    try:
        pin_to(CLIENT_CPUS)
        host = cluster.client_host(tracing=tracing)
        host.declare("echo", "echo", ECHO, node=WORKER_NODE)
        host.declare("echo", "cpu", CPU, node=WORKER_NODE)
    except BaseException:
        cluster.kill()
        raise
    world = RtWorld(spec, cluster, host)
    world.extra["values"] = call_values(spec, seed)
    return world


def build_twin(spec: Any, seed: int, tracing: bool) -> World:
    """The same guardians and driver in the simulator's model of the
    loopback world; the rt workloads read their sim-time metrics here."""
    shape = spec.shape
    twin = shape["twin"]
    system = ArgusSystem(
        latency=twin["latency"],
        kernel_overhead=twin["kernel_overhead"],
        jitter=twin["jitter"],
        seed=seed,
        stream_config=StreamConfig(**shape["stream_config"]),
        tracing=tracing,
    )
    worker_setup([], system, call_cost=twin["call_cost"])
    world = World(spec, system)
    world.extra["values"] = call_values(spec, seed)
    return world


def call_values(spec: Any, seed: int) -> List[int]:
    base = random.Random(seed).randrange(1 << 20)
    return [base + k for k in range(spec.size)]


def _run(world: World, body) -> None:
    """Run *body* between two ``cpu()`` calls on a fresh client guardian."""
    system = world.system

    def main(ctx):
        echo = ctx.lookup("echo", "echo")
        cpu = ctx.lookup("echo", "cpu")
        worker0 = yield cpu.call()
        world.extra["stats_before"] = system.stats()
        sim0 = ctx.env.now
        yield from body(ctx, echo)
        world.sim_elapsed = ctx.env.now - sim0
        world.extra["stats_after"] = system.stats()
        world.worker_cpu_s = (yield cpu.call()) - worker0
        world.sender_stats.append(echo.stream_sender.stats.snapshot())

    world.run(system.create_guardian("bench").spawn(main))


def drive_rt_pipeline(world: World) -> None:
    calls = [(value,) for value in world.extra["values"]]

    def body(ctx, echo):
        yield from claim_windows(ctx, world, echo, calls, world.spec.shape["window"])

    _run(world, body)


def drive_rt_rpc(world: World) -> None:
    values = world.extra["values"]
    got, wall_lat, sim_lat = world.got, world.wall_lat, world.sim_lat

    def body(ctx, echo):
        env = ctx.env
        for value in values:
            wall0, sim0 = clock(), env.now
            try:
                got.append((yield echo.call(value)))
            except ArgusError:
                got.append(FAILED)
            wall_lat.append(clock() - wall0)
            sim_lat.append(env.now - sim0)
        world.ops += len(values)

    _run(world, body)


def check_rt(world: World) -> None:
    world.count_mismatches(world.extra["values"])
