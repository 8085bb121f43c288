"""The suite's two tables: :data:`WORKLOADS` and :data:`METRICS`.

Everything the suite prints, every result file it writes and the root
``BENCHMARK.json`` are derived from these two tables (see
:func:`benchmark_json`); a self-test holds the committed
``BENCHMARK.json`` equal to what they produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from benchmarks.suite import rt_workloads as rt
from benchmarks.suite import sim_workloads as sim

__all__ = [
    "LAYERS",
    "WAIT_PHASES",
    "Workload",
    "Metric",
    "WORKLOADS",
    "METRICS",
    "RUN_SECONDS",
    "workload",
    "end_to_end",
    "per_layer",
    "benchmark_json",
]

#: The packages under ``src/repro`` the profile is folded by, plus
#: ``app`` (handlers and the suite's own drivers) and ``host`` (stdlib,
#: asyncio, sockets).
LAYERS = (
    "sim",
    "net",
    "streams",
    "encoding",
    "types",
    "core",
    "concurrency",
    "entities",
    "compose",
    "graph",
    "rt",
    "app",
    "host",
)

#: ``repro.obs.spans.PHASES`` in timeline order, each with the layer
#: that owns the wait.
WAIT_PHASES = (
    ("buffered", "streams"),
    ("call_on_wire", "net"),
    ("queued", "entities"),
    ("executing", "entities"),
    ("reply_buffered", "streams"),
    ("reply_on_wire", "net"),
)

#: How long one run measures; the driver passes it as ``--seconds``.
RUN_SECONDS = 8


@dataclass(frozen=True)
class Workload:
    """One row of the workload table."""

    name: str
    #: "closed" (next call after the previous completes) or "open"
    #: (calls on a schedule, whatever is outstanding).
    loop: str
    #: "sim" (deterministic simulator) or "rt" (real TCP on loopback).
    backend: str
    #: The number the self-tests scale down; what it counts is ``unit``.
    size: int
    unit: str
    #: What one op is.
    op: str
    why: str
    build: Callable[..., Any] = field(repr=False)
    drive: Callable[[Any], None] = field(repr=False)
    check: Callable[[Any], None] = field(repr=False)
    #: Fixed parameters of the world and the driver.
    shape: Mapping[str, Any] = field(default_factory=dict, repr=False)
    #: Run once per run, outside the repeats: ``(spec, seed) -> rate``.
    ladder: Optional[Callable[[Any, int], float]] = field(default=None, repr=False)
    #: rt only: builds the same world in the simulator (see ``twinned``).
    twin: Optional[Callable[..., Any]] = field(default=None, repr=False)

    def resized(self, size: int, **shape: Any) -> "Workload":
        """A copy with another size (and extra shape entries)."""
        return replace(self, size=size, shape={**self.shape, **shape})

    def twinned(self) -> "Workload":
        """This rt workload with its world built in the simulator."""
        return replace(self, backend="sim", build=self.twin, twin=None)


#: Default-transport world of ROADMAP's ``stream_calls`` (E1 parameters).
#: The 1% jitter gives the seed something to vary; it stays on
#: ``Network``'s fault-free fast path.
_E1 = dict(
    latency=5.0, kernel_overhead=0.5, jitter=0.05, handler_cost=0.05, window=256, handler="echo"
)

_LOSSY_STREAMS = dict(
    batch_size=8,
    reply_batch_size=8,
    max_buffer_delay=2.0,
    reply_max_delay=2.0,
    rto=20.0,
    ack_delay=2.0,
    reply_ack_delay=6.0,
    max_retries=20,
    max_batch_size=64,
    min_rto=2.0,
    max_rto=60.0,
    max_inflight_calls=256,
)

_KV_STREAMS = dict(
    batch_size=8,
    reply_batch_size=8,
    max_buffer_delay=0.005,
    reply_max_delay=0.005,
    rto=0.25,
    max_retries=4,
    ack_delay=0.05,
    reply_ack_delay=0.1,
    max_batch_size=64,
    min_rto=0.05,
    max_rto=2.0,
    max_inflight_calls=256,
)

#: The rt retry budget is sized so that a host stall of a few seconds
#: does not break the stream (the default budget covers ≈250 ms).
#: ``twin`` is the simulator's model of the loopback world in the same
#: unit (1 tu = 1 ms), set so that an RPC takes about the measured
#: 0.3 ms and a call costs about the measured 30 us of CPU.
_RT = dict(
    time_unit=0.001,
    timeout_s=120.0,
    window=256,
    stream_config=dict(
        rto=200.0, min_rto=50.0, max_rto=2000.0, max_retries=8, max_inflight_calls=256
    ),
    twin=dict(latency=0.1, kernel_overhead=0.03, jitter=0.001, call_cost=0.03),
)

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="stream_echo",
        loop="closed",
        backend="sim",
        size=10240,
        unit="calls",
        op="one claimed INT->INT stream call",
        why="smallest message: per-call cost of streams/sim/entities/core dominates, codec about 10%",
        build=sim.build_stream_echo,
        drive=sim.drive_windows,
        check=sim.check_stream_echo,
        shape=_E1,
    ),
    Workload(
        name="stream_records",
        loop="closed",
        backend="sim",
        size=2560,
        unit="calls",
        op="one claimed call carrying about 1.2 KB of arrays and records",
        why="large structured payload: encoding+types do most of the work, streams little",
        build=sim.build_stream_records,
        drive=sim.drive_windows,
        check=sim.check_stream_records,
        shape=dict(_E1, handler="records", pool=64, ints=32, rows=16),
    ),
    Workload(
        name="stream_lossy",
        loop="closed",
        backend="sim",
        size=40960,
        unit="calls",
        op="one claimed call over a 2% drop, 1% dup, 2% reorder link",
        why="recovery path of streams (SACK, RTO, probes, dedup) and Network's fault path, exactly-once checked",
        build=sim.build_stream_lossy,
        drive=sim.drive_windows,
        check=sim.check_stream_lossy,
        shape=dict(
            latency=5.0,
            jitter=0.05,
            bandwidth=1000.0,
            kernel_overhead=0.1,
            window=64,
            handler="echo",
            faults=dict(drop_rate=0.02, dup_rate=0.01, reorder_rate=0.02),
            stream_config=_LOSSY_STREAMS,
        ),
    ),
    Workload(
        name="pipeline_cascade",
        loop="closed",
        backend="sim",
        size=3000,
        unit="items",
        op="one item through read->compute->write (3 calls)",
        why="the paper's section 4 composition: compose/concurrency and sim process switching do the work",
        build=sim.build_pipeline_cascade,
        drive=sim.drive_pipeline_cascade,
        check=sim.check_pipeline_cascade,
        shape=dict(latency=2.0, kernel_overhead=0.1, jitter=0.02, stage_cost=0.05),
    ),
    Workload(
        name="kv_open",
        loop="open",
        backend="sim",
        size=7200,
        unit="ops",
        op="one add/get resolved through promise.on_resolved",
        why="independent users: open loop, many short streams, vat continuations; latency rises before throughput falls",
        build=sim.build_kv_open,
        drive=sim.drive_kv_open,
        check=sim.check_kv_open,
        ladder=sim.kv_open_ladder,
        shape=dict(
            clients=4,
            shards=2,
            keys=10000,
            key_skew=1.1,
            read_share=0.25,
            rate=2400.0,
            latency=0.002,
            jitter=0.0005,
            kernel_overhead=0.0005,
            bandwidth=300000.0,
            server_compute=0.001,
            drain_timeout=20.0,
            stream_config=_KV_STREAMS,
            ladder=(1200.0, 2400.0, 3600.0, 4800.0),
            ladder_seconds=1.5,
            p99_limit=0.050,
            sustained_share=0.9,
        ),
    ),
    Workload(
        name="graph_kv",
        loop="closed",
        backend="sim",
        size=2000,
        unit="chains/round",
        op="one graph routine (add, scale or sum)",
        why="graph builder, GB/GU/GR codec, shard engine and epochs do the work; the per-call stream path is bypassed",
        build=sim.build_graph_kv,
        drive=sim.drive_graph_kv,
        check=sim.check_graph_kv,
        shape=dict(
            shards=4,
            rounds=3,
            fan_in=4,
            sched_keys=64,
            key_skew=1.2,
            latency=1.0,
            kernel_overhead=0.1,
            routine_cost=0.05,
        ),
    ),
    Workload(
        name="rt_pipeline",
        loop="closed",
        backend="rt",
        size=10240,
        unit="calls",
        op="one claimed echo call, 256 outstanding, over loopback TCP",
        why="rt + streams.frames + host syscalls carry the bytes; throughput-bound, the paper's amortisation on sockets",
        build=rt.build_rt,
        drive=rt.drive_rt_pipeline,
        check=rt.check_rt,
        twin=rt.build_twin,
        shape=dict(_RT, worker_cpu=1),
    ),
    Workload(
        name="rt_rpc",
        loop="closed",
        backend="rt",
        size=1500,
        unit="calls",
        op="one blocking echo RPC, 1 outstanding, over loopback TCP",
        why="same rt layer, latency-bound: one frame each way, driver wake-ups dominate, batching idle",
        build=rt.build_rt,
        drive=rt.drive_rt_rpc,
        check=rt.check_rt,
        twin=rt.build_twin,
        shape=dict(_RT, worker_cpu=0),
    ),
)


@dataclass(frozen=True)
class Metric:
    """One row of the metric table."""

    name: str
    unit: str
    better: str
    #: End-to-end only: the share of the parent's median by which the
    #: metric may worsen.  ``None`` marks a per-layer metric.
    bound: Optional[float]
    #: Where the metric tells something (it is reported everywhere).
    where: str
    #: Per-layer only: the end-to-end metric it should move, and where.
    moves: str = ""


def _layer(name, unit, better, moves, where="all") -> Metric:
    return Metric(name, unit, better, None, where, moves)


_SIM = "exact per seed; rt workloads read it from their simulated twin (1 tu = 1 ms)"

_END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, "all: world or cluster build before the timed region"),
    Metric("ops_per_s", "1/s", "higher", 0.25, "all: ops per wall second"),
    Metric("cpu_us_per_op", "us", "lower", 0.25, "all: process CPU per op; rt adds the worker's"),
    Metric("latency_p50_us", "us", "lower", 0.25, "all: wall time issue->claim return (kv_open: issue->resolved)"),
    Metric("sim_ops_per_s", "ops/tu", "higher", 0.08, _SIM),
    Metric("sim_latency_p50", "tu", "lower", 0.05, _SIM + "; kv_open times from the due time"),
    Metric("sim_latency_p99", "tu", "lower", 0.25, _SIM + "; kv_open times from the due time"),
    Metric(
        "sim_sustained_rate",
        "ops/tu",
        "higher",
        0.08,
        "kv_open: highest ladder rung inside the p99 limit with a drained backlog; "
        "closed loops: the achieved sim_ops_per_s",
    ),
    Metric("wire_msgs_per_kop", "msgs/kop", "lower", 0.05, "all: messages on the wire per 1000 ops"),
    Metric("peak_rss_mb", "MB", "lower", 0.10, "all: ru_maxrss of the benchmark process"),
]

_HOST = "cpu_us_per_op, ops_per_s"
_PER_LAYER: List[Metric] = []
for _name, _where in (
    ("sim", "stream_echo, pipeline_cascade"),
    ("net", "stream_echo, stream_lossy"),
    ("streams", "stream_echo, stream_lossy"),
    ("encoding", "stream_records; no change on stream_echo"),
    ("types", "stream_records; no change on stream_echo"),
    ("core", "stream_echo, kv_open"),
    ("concurrency", "pipeline_cascade, kv_open"),
    ("entities", "stream_echo"),
    ("compose", "pipeline_cascade; no change elsewhere"),
    ("graph", "graph_kv; no change elsewhere"),
    ("rt", "rt_pipeline, rt_rpc; no change on sim workloads"),
    ("app", "all"),
    ("host", "rt_pipeline, rt_rpc"),
):
    _PER_LAYER.append(_layer(_name + ".self_us_per_op", "us", "lower", _HOST, _where))
    _PER_LAYER.append(_layer(_name + ".entries_per_op", "count", "lower", _HOST, _where))

_WIRE = "wire_msgs_per_kop, sim_ops_per_s"
_TAIL = "sim_ops_per_s, sim_latency_p99"
_WAIT = "sim_latency_p50, sim_latency_p99"
_PER_LAYER += [
    _layer("net.msgs_per_kop", "msgs/kop", "lower", _WIRE, "stream_echo, kv_open"),
    _layer("net.bytes_per_op", "B", "lower", _WIRE, "stream_records"),
    _layer("net.kernel_calls_per_kop", "count", "lower", _WIRE, "stream_echo, kv_open"),
    _layer("net.dropped_share", "share", "lower", _TAIL, "stream_lossy"),
    _layer("net.duplicated_share", "share", "lower", _TAIL, "stream_lossy"),
    _layer("streams.calls_per_packet", "count", "higher", _WIRE, "stream_echo, kv_open"),
    _layer("streams.batch_size_mean", "count", "higher", _WIRE, "stream_echo, kv_open"),
    _layer("streams.reply_batch_size_mean", "count", "higher", _WIRE, "stream_echo, pipeline_cascade"),
    _layer("streams.window_stalls_per_kop", "count", "lower", _WAIT, "stream_echo, kv_open"),
    _layer("streams.max_inflight", "count", "higher", _WAIT, "stream_echo, kv_open"),
    _layer("streams.retransmit_share", "share", "lower", _TAIL, "stream_lossy; exactly 0 on stream_echo"),
    _layer("streams.fast_retransmits_per_kop", "count", "lower", _TAIL, "stream_lossy"),
    _layer("streams.reply_gap_probes_per_kop", "count", "lower", _TAIL, "stream_lossy"),
    _layer("streams.breaks", "count", "lower", "failed ops", "stream_lossy"),
]
_PER_LAYER += [
    _layer("%s.wait_%s_share" % (_owner, _phase), "share", "lower", _WAIT, "kv_open, stream_lossy, pipeline_cascade")
    for _phase, _owner in WAIT_PHASES
]
_PER_LAYER += [
    _layer("sim.resumptions_per_op", "count", "lower", "cpu_us_per_op", "pipeline_cascade, stream_echo"),
    _layer("sim.processes_per_op", "count", "lower", "cpu_us_per_op", "pipeline_cascade, stream_echo"),
    _layer("core.claims_blocked_share", "share", "lower", "cpu_us_per_op", "stream_echo (claims) vs kv_open (none)"),
    _layer("core.claim_wait_p50", "tu", "lower", "sim_latency_p50", "stream_echo, pipeline_cascade"),
    _layer("concurrency.vat_turns_per_op", "count", "lower", "cpu_us_per_op", "kv_open (continuations)"),
    _layer("graph.frames_per_kop", "count", "lower", _WIRE, "graph_kv"),
    _layer("graph.routines_per_epoch", "count", "higher", _WIRE, "graph_kv"),
    _layer("graph.migrated_share", "share", "lower", _WIRE, "graph_kv"),
    _layer("rt.frames_per_kop", "count", "lower", "ops_per_s", "rt_pipeline"),
    _layer("rt.bytes_per_op", "B", "lower", "ops_per_s", "rt_pipeline"),
    _layer("rt.latency_p90_us", "us", "lower", "latency_p50_us", "rt_rpc, rt_pipeline"),
    _layer("rt.latency_p99_us", "us", "lower", "latency_p50_us", "rt_rpc, rt_pipeline"),
    _layer("rt.worker_cpu_share", "share", "lower", "cpu_us_per_op", "rt_pipeline, rt_rpc"),
    _layer("rt.idle_share", "share", "lower", "latency_p50_us", "rt_rpc"),
    _layer("trace.overhead_ratio", "ratio", "lower", "cpu_us_per_op", "stream_echo, kv_open"),
    _layer("mem.peak_traced_mib", "MiB", "lower", "peak_rss_mb", "stream_echo, kv_open"),
    _layer("mem.gc_gen0_per_kop", "count", "lower", "cpu_us_per_op", "stream_echo, kv_open"),
]

METRICS: Tuple[Metric, ...] = tuple(_END_TO_END + _PER_LAYER)


def workload(name: str) -> Workload:
    for row in WORKLOADS:
        if row.name == name:
            return row
    raise KeyError("unknown workload %r (known: %s)" % (name, ", ".join(w.name for w in WORKLOADS)))


def end_to_end() -> List[Metric]:
    return [metric for metric in METRICS if metric.bound is not None]


def per_layer() -> List[Metric]:
    return [metric for metric in METRICS if metric.bound is None]


def benchmark_json() -> Dict[str, Any]:
    """The root ``BENCHMARK.json``, as the two tables define it."""
    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": row.name, "why": row.why} for row in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in end_to_end()
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in per_layer()
        ],
    }
