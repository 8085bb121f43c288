"""Backend harnesses for the conformance suite.

Both harnesses expose one method::

    result = backend.run(world, client_procedure,
                         stream_config=..., lossy=...)

and return a :class:`RunResult` carrying the client procedure's return
value plus every captured trace, so the tests assert the *same*
application-level outcomes and replay the *same* invariant monitors
regardless of which backend produced the events.

* :class:`SimBackend` builds one traced
  :class:`~repro.entities.system.ArgusSystem`; everything is
  bit-deterministic, including the ``lossy`` disturbance (seeded packet
  loss).
* :class:`AsyncioBackend` spawns the world's guardians as real OS
  processes via :class:`~repro.rt.cluster.RtCluster` and drives the
  client from this process over TCP; ``lossy`` becomes forced
  connection resets every few frames.  Per-process JSONL traces land in
  ``trace_dir`` (the ``net-parity`` CI job uploads them on failure).
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Optional

from repro.entities.system import ArgusSystem
from repro.obs.monitor import DEFAULT_MONITORS, MonitorSuite, MonitorViolation
from repro.obs.trace import TraceEvent, load_jsonl
from repro.streams.config import StreamConfig

from tests.conformance.apps import World

__all__ = [
    "RunResult",
    "SimBackend",
    "AsyncioBackend",
    "check_invariants",
    "executing_seqs",
    "trace_ids",
]

#: Seed for the simulator's disturbed runs: fixed so "lossy" is as
#: reproducible as the clean path.
SIM_LOSS_SEED = 2026
SIM_LOSS_RATE = 0.15
#: On the wallclock backend, abort every connection after this many
#: outgoing frames (both directions die; the stream layer redials and
#: retransmits).
RT_RESET_AFTER_FRAMES = 4


class RunResult:
    """Outcome of one scenario run on one backend."""

    def __init__(
        self,
        backend: str,
        value: Any,
        traces: Dict[str, List[TraceEvent]],
        stats: Optional[Dict[str, Dict[str, int]]] = None,
    ) -> None:
        self.backend = backend
        self.value = value
        #: trace label (process) -> events.  The simulator has a single
        #: combined trace; the wallclock backend has one per process.
        self.traces = traces
        self.stats = stats or {}

    def all_events(self) -> List[TraceEvent]:
        events: List[TraceEvent] = []
        for trace in self.traces.values():
            events.extend(trace)
        return events


def check_invariants(events: List[TraceEvent]) -> List[MonitorViolation]:
    """Replay *events* through the transport-invariant monitors.

    Each process's trace must be replayed separately — stream serials
    and promise ids are per-process namespaces.
    """
    suite = MonitorSuite(strict=False, monitors=DEFAULT_MONITORS)
    for event in events:
        suite.observe(event.type, event.time, event.fields)
    return suite.violations


def assert_invariants(result: RunResult) -> None:
    for label, trace in result.traces.items():
        violations = check_invariants(trace)
        assert not violations, "[%s/%s] %s" % (
            result.backend,
            label,
            "; ".join(str(v) for v in violations),
        )


def executing_seqs(events: List[TraceEvent], port_id: str) -> List[int]:
    """Stream serials of ``stream.call_executing`` events for *port_id*,
    in execution order — the server-side exactly-once/FIFO witness."""
    return [
        ev.fields["seq"]
        for ev in events
        if ev.type == "stream.call_executing" and ev.fields.get("port") == port_id
    ]


def trace_ids(events: List[TraceEvent], etype: Optional[str] = None) -> set:
    """Distinct non-null trace ids on *events* (optionally one type)."""
    out = set()
    for ev in events:
        if etype is not None and ev.type != etype:
            continue
        tid = ev.fields.get("trace_id")
        if tid is not None:
            out.add(tid)
    return out


class SimBackend:
    """The deterministic twin: one traced in-process simulation."""

    name = "sim"

    def run(
        self,
        world: World,
        client: Callable,
        stream_config: Optional[StreamConfig] = None,
        lossy: bool = False,
    ) -> RunResult:
        system = ArgusSystem(
            latency=1.0,
            kernel_overhead=0.1,
            tracing=True,
            stream_config=stream_config,
            loss_rate=SIM_LOSS_RATE if lossy else 0.0,
            seed=SIM_LOSS_SEED,
        )
        for setup in [*world.servers.values(), *world.local.values()]:
            setup(system)
        client_guardian = system.create_guardian("client")
        proc = client_guardian.spawn(client)
        value = system.run(until=proc)
        return RunResult(
            self.name,
            value,
            {"sim": list(system.tracer.events)},
            {"sim": system.stats()},
        )


class AsyncioBackend:
    """The wallclock backend: worker processes on real sockets."""

    name = "asyncio"

    def __init__(self, trace_dir: str, timeout: float = 60.0) -> None:
        self.trace_dir = trace_dir
        self.timeout = timeout

    def run(
        self,
        world: World,
        client: Callable,
        stream_config: Optional[StreamConfig] = None,
        lossy: bool = False,
    ) -> RunResult:
        from repro.rt import RtCluster

        workers = {
            "node:%s" % name: setup for name, setup in world.servers.items()
        }
        cluster = RtCluster(
            workers,
            stream_config=stream_config,
            trace_dir=self.trace_dir,
        )
        cluster.start()
        host = None
        stats: Dict[str, Dict[str, int]] = {}
        try:
            host = cluster.client_host(tracing=True, stream_config=stream_config)
            for guardian_name, handlers in world.topology.items():
                for handler_name, handler_type in handlers.items():
                    host.declare(
                        guardian_name,
                        handler_name,
                        handler_type,
                        node="node:%s" % guardian_name,
                    )
            if lossy:
                host.network.reset_after_frames = RT_RESET_AFTER_FRAMES
            for setup in world.local.values():
                setup(host)
            client_guardian = host.create_guardian("client")
            proc = client_guardian.spawn(client)
            value = host.run(until=proc, timeout=self.timeout)
            client_events = list(host.tracer.events)
            host.export_trace(os.path.join(self.trace_dir, "node_client.trace.jsonl"))
            stats["node:client"] = host.stats()
        except BaseException as exc:
            # A failed or timed-out run: hard-stop the workers so the
            # original failure surfaces, not a secondary stop() error;
            # a worker that crashed first is raised, with the original
            # failure as its cause.
            # Best-effort client trace export first — it is the artifact
            # the net-parity CI job uploads to debug the failure.
            if host is not None:
                try:
                    host.export_trace(
                        os.path.join(self.trace_dir, "node_client.trace.jsonl")
                    )
                except Exception:
                    pass
                host.shutdown()
            crashed = cluster.kill()
            if crashed is not None and isinstance(exc, Exception):
                raise crashed from exc
            raise
        host.shutdown()
        stats.update(cluster.stop())
        traces: Dict[str, List[TraceEvent]] = {"node:client": client_events}
        for node in workers:
            path = cluster.trace_path(node)
            if path and os.path.exists(path):
                traces[node] = load_jsonl(path)
        return RunResult(self.name, value, traces, stats)
