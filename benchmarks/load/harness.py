"""Open-loop load harness: many simulated agents, constant-memory telemetry.

The harness drives a multi-node guardian topology with **open-loop**
traffic: arrivals are drawn from a traffic model (Poisson or heavy-tailed
Pareto gaps, Zipf-skewed agent activity and key popularity — see
:mod:`benchmarks.load.arrivals`) regardless of how many requests are
still outstanding.  That is the regime where tail latency and
flow-control collapse are visible; a closed loop self-throttles and hides
both.

Three design rules keep 10^5–10^6 simulated agents affordable:

* **Agents are data, not processes.**  The agent population is one shared
  ``bytearray`` of connection bits plus O(1) Zipf samplers; a handful of
  driver processes (one per client guardian) issue on the whole
  population's behalf.  Connection churn flips bits and charges a
  reconnect penalty to the next request from a disconnected agent.
* **Pending requests cost no process.**  Requests are issued with
  ``handle.stream(...)`` and completed with the promise's
  ``on_resolved`` vat continuation — one queue entry per pending call,
  never a blocked process (the PR 6 continuation layer).
* **Telemetry is streaming.**  Latency goes into
  :class:`~repro.obs.hist.StreamingHistogram` buckets via a
  :class:`~repro.obs.metrics.Metrics` registry in streaming mode, and a
  :class:`~repro.obs.timeseries.WindowedCollector` keeps the per-window
  timeline (throughput, tails, occupancy).  No raw sample is retained
  anywhere on the load path.

:func:`run_load` runs one (workload, offered rate) step in a fresh
:class:`~repro.entities.system.ArgusSystem`; :func:`stepped_search` walks
a rate ladder until the system stops sustaining the offered rate (the
flow-control window collapses and achieved throughput falls away), which
is how ``max_sustainable_throughput`` in the load report is found.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from benchmarks.load.arrivals import ZipfSampler, make_arrivals
from repro.core.exceptions import ArgusError
from repro.entities.system import ArgusSystem
from repro.obs.metrics import Metrics
from repro.obs.timeseries import WindowedCollector
from repro.streams.config import StreamConfig
from repro.types.signatures import INT, HandlerType

__all__ = [
    "LoadConfig",
    "LOAD_WORKLOADS",
    "load_stream_config",
    "run_load",
    "stepped_search",
]


@dataclass
class LoadConfig:
    """One load step: a workload, a topology, a traffic model, a rate."""

    workload: str = "echo"
    #: Simulated client agents (connection bits + Zipf activity ranks).
    n_agents: int = 100_000
    #: Client guardians; each runs one open-loop driver process.
    n_clients: int = 4
    #: Server guardians (echo servers / pipeline mids / kv shards).
    n_servers: int = 2
    #: Key population for the kv workload.
    n_keys: int = 10_000
    #: Aggregate offered rate, requests per simulated second.
    rate: float = 500.0
    #: Issuing phase length (simulated seconds); drain follows.
    duration: float = 4.0
    #: Telemetry window width for the WindowedCollector.
    window: float = 0.5
    arrival_process: str = "poisson"
    pareto_alpha: float = 1.5
    #: Zipf skew of agent activity (which agent issues the next request).
    agent_skew: float = 1.05
    #: Zipf skew of key popularity (kv workload).
    key_skew: float = 1.1
    kv_read_fraction: float = 0.25
    #: Expected fraction of the *active* population disconnected per
    #: simulated second (churn events arrive Poisson at this rate times
    #: the per-client agent share).
    churn_rate: float = 0.02
    #: Extra delay charged to a request that finds its agent disconnected.
    reconnect_penalty: float = 0.005
    #: Per-request server compute time.
    server_compute: float = 0.001
    seed: int = 0
    #: How long past the issuing phase to wait for in-flight requests.
    drain_timeout: float = 20.0
    #: Completed/issued ratio (at the issuing-phase cutoff) a step must
    #: reach to count as sustained.  Issues are arrival-driven (open
    #: loop), so this measures whether service kept up with the actual
    #: draw of arrivals, immune to Poisson variance in the draw itself.
    sustained_fraction: float = 0.9
    #: Optional latency ceilings (keys p50/p99/p999/max) a step must also
    #: meet to count as sustained.  The CLI passes the workload's SLO
    #: ceilings here, making ``max_sustainable_throughput`` "the highest
    #: offered rate still inside SLO" — queueing blow-up past saturation
    #: fails the guard even before achieved throughput falls away.
    latency_guard: Optional[Dict[str, float]] = None
    relative_error: float = 0.01
    #: Ring cap for the window timeline (None keeps every window).
    max_windows: Optional[int] = None
    # Network model (sim time unit = seconds).
    latency: float = 0.002
    jitter: float = 0.0005
    kernel_overhead: float = 0.0005
    bandwidth: float = 300_000.0


def load_stream_config(config: LoadConfig) -> StreamConfig:
    """Adaptive transport tuned to the harness's seconds-scale network.

    Small buffer delays keep batching from dominating latency at low
    rates while AIMD still grows batches under pressure;
    ``max_inflight_calls`` is the flow-control window whose collapse the
    stepped-rate search is probing for.
    """
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


# ----------------------------------------------------------------------
# Workload topologies
# ----------------------------------------------------------------------

_ECHO = HandlerType(args=[INT], returns=[INT])
_RECORD = HandlerType(args=[INT], returns=[INT])
_DOUBLE = HandlerType(args=[INT], returns=[INT])
_KV_ADD = HandlerType(args=[INT, INT], returns=[INT])
_KV_GET = HandlerType(args=[INT], returns=[INT])


class LoadWorkload:
    """A buildable topology plus a per-request issue rule."""

    name = "workload"

    def prepare(self, config: LoadConfig) -> None:
        """Per-run setup (samplers); called once before the system runs."""

    def build(self, system: ArgusSystem, config: LoadConfig) -> None:
        raise NotImplementedError

    def bind(self, ctx: Any, config: LoadConfig) -> Any:
        """Bind this driver's handler refs; the result feeds :meth:`issue`."""
        raise NotImplementedError

    def issue(self, handles: Any, agent: int, rng: Any, config: LoadConfig):
        """Issue one request; returns the promise (may raise ArgusError)."""
        raise NotImplementedError


class EchoLoad(LoadWorkload):
    """``n_servers`` independent echo servers; agent id routes the call."""

    name = "echo"

    def build(self, system: ArgusSystem, config: LoadConfig) -> None:
        compute = config.server_compute

        def echo(ctx, x):
            yield ctx.compute(compute)
            return x

        for i in range(config.n_servers):
            system.create_guardian("server%d" % i).create_handler(
                "echo", _ECHO, echo
            )

    def bind(self, ctx, config):
        return [
            ctx.lookup("server%d" % i, "echo") for i in range(config.n_servers)
        ]

    def issue(self, handles, agent, rng, config):
        return handles[agent % len(handles)].stream(agent)


class PipelineLoad(LoadWorkload):
    """Two-level: client -> mid -> db, one nested RPC per request."""

    name = "pipeline"

    def build(self, system: ArgusSystem, config: LoadConfig) -> None:
        compute = config.server_compute
        db = system.create_guardian("db")

        def double(ctx, x):
            yield ctx.compute(compute)
            return 2 * x

        db.create_handler("double", _DOUBLE, double)

        def record(ctx, x):
            doubled = yield ctx.lookup("db", "double").call(x)
            return doubled + 1

        for i in range(config.n_servers):
            system.create_guardian("mid%d" % i).create_handler(
                "record", _RECORD, record
            )

    def bind(self, ctx, config):
        return [
            ctx.lookup("mid%d" % i, "record") for i in range(config.n_servers)
        ]

    def issue(self, handles, agent, rng, config):
        return handles[agent % len(handles)].stream(agent)


class KvLoad(LoadWorkload):
    """Sharded KV with a Zipf-hot key space and an add/get mix.

    Key -> shard by modulo, so the hottest keys concentrate load on their
    shards the way real skew does.  ``get`` of a missing key returns 0
    (no signal) to keep the error channel for transport conditions only.
    """

    name = "kv"

    def __init__(self) -> None:
        self._keys: Optional[ZipfSampler] = None

    def prepare(self, config: LoadConfig) -> None:
        self._keys = ZipfSampler(config.n_keys, config.key_skew)

    def build(self, system: ArgusSystem, config: LoadConfig) -> None:
        compute = config.server_compute

        def add(ctx, key, delta):
            yield ctx.compute(compute)
            data = ctx.guardian.state["data"]
            value = data.get(key, 0) + delta
            data[key] = value
            return value

        def get(ctx, key):
            yield ctx.compute(compute)
            return ctx.guardian.state["data"].get(key, 0)

        for i in range(config.n_servers):
            shard = system.create_guardian("shard%d" % i)
            shard.state["data"] = {}
            shard.create_handler("add", _KV_ADD, add)
            shard.create_handler("get", _KV_GET, get)

    def bind(self, ctx, config):
        return [
            (
                ctx.lookup("shard%d" % i, "add"),
                ctx.lookup("shard%d" % i, "get"),
            )
            for i in range(config.n_servers)
        ]

    def issue(self, handles, agent, rng, config):
        key = self._keys.sample(rng)
        add, get = handles[key % len(handles)]
        if rng.random() < config.kv_read_fraction:
            return get.stream(key)
        return add.stream(key, 1)


LOAD_WORKLOADS: Dict[str, Callable[[], LoadWorkload]] = {
    "echo": EchoLoad,
    "pipeline": PipelineLoad,
    "kv": KvLoad,
}


# ----------------------------------------------------------------------
# The open-loop driver
# ----------------------------------------------------------------------
def _make_driver(
    client_index: int,
    workload: LoadWorkload,
    config: LoadConfig,
    system: ArgusSystem,
    metrics: Metrics,
    connected: bytearray,
    state: Dict[str, Any],
):
    """One client guardian's open-loop issue process.

    The driver sleeps traffic-model gaps and fires ``stream`` calls; each
    completion is a vat continuation, so outstanding requests hold no
    process.  A request whose (Zipf-sampled) agent is disconnected pays
    ``reconnect_penalty`` first: the issue is deferred with a plain
    scheduler callback, and the recorded latency covers the penalty —
    still no process.
    """
    env = system.env
    arrivals = make_arrivals(
        config.arrival_process,
        config.rate / config.n_clients,
        alpha=config.pareto_alpha,
    )
    arrival_rng = system.rng.stream("load.arrivals.%d" % client_index)
    agent_rng = system.rng.stream("load.agents.%d" % client_index)
    op_rng = system.rng.stream("load.ops.%d" % client_index)
    agents = state["agent_sampler"]
    end = config.duration

    def finish(outcome, t0):
        state["inflight"] -= 1
        metrics.observe("load.latency", env.now - t0)
        if outcome.is_normal:
            metrics.inc("load.completed")
        else:
            metrics.inc("load.errors", condition=outcome.condition)

    def issue_now(agent, t0):
        try:
            promise = workload.issue(state["handles"], agent, op_rng, config)
        except ArgusError as exc:
            metrics.inc("load.errors", condition=exc.condition)
            return
        metrics.inc("load.issued")
        state["inflight"] += 1
        if state["inflight"] > state["inflight_peak"]:
            state["inflight_peak"] = state["inflight"]
        promise.on_resolved(lambda outcome, t0=t0: finish(outcome, t0))

    def driver(ctx):
        state["handles"] = workload.bind(ctx, config)
        while True:
            gap = arrivals.gap(arrival_rng)
            if ctx.now + gap >= end:
                break
            yield ctx.sleep(gap)
            agent = agents.sample(agent_rng)
            if connected[agent]:
                issue_now(agent, ctx.now)
            else:
                # Reconnect: flip the bit now, charge the penalty to this
                # request's latency, and issue from a scheduler callback.
                connected[agent] = 1
                metrics.inc("load.reconnects")
                env.call_in(config.reconnect_penalty, issue_now, agent, ctx.now)
        return None

    return driver


def _make_churn(
    client_index: int,
    config: LoadConfig,
    system: ArgusSystem,
    metrics: Metrics,
    connected: bytearray,
):
    """Poisson connection churn over this client's share of the agents."""
    events_per_sec = config.churn_rate * (config.n_agents / config.n_clients)
    churn_rng = system.rng.stream("load.churn.%d" % client_index)
    end = config.duration

    def churn(ctx):
        if events_per_sec <= 0.0:
            return None
        while True:
            gap = churn_rng.expovariate(events_per_sec)
            if ctx.now + gap >= end:
                break
            yield ctx.sleep(gap)
            agent = churn_rng.randrange(config.n_agents)
            if connected[agent]:
                connected[agent] = 0
                metrics.inc("load.churn")
        return None

    return churn


def run_load(config: LoadConfig) -> Dict[str, Any]:
    """Run one load step in a fresh world; returns the step's summary.

    The summary is JSON-ready: counters, achieved rate, streaming latency
    quantiles, the per-window timeline rows, and the encoded latency
    histogram (so any quantile can be re-queried offline).
    """
    try:
        workload = LOAD_WORKLOADS[config.workload]()
    except KeyError:
        raise ValueError(
            "unknown load workload %r (known: %s)"
            % (config.workload, ", ".join(sorted(LOAD_WORKLOADS)))
        ) from None
    workload.prepare(config)

    system = ArgusSystem(
        latency=config.latency,
        bandwidth=config.bandwidth,
        kernel_overhead=config.kernel_overhead,
        jitter=config.jitter,
        seed=config.seed,
        stream_config=load_stream_config(config),
    )
    env = system.env
    collector = WindowedCollector(
        window=config.window,
        clock=lambda: env.now,
        relative_error=config.relative_error,
        max_windows=config.max_windows,
    )
    metrics = Metrics(
        streaming=True,
        relative_error=config.relative_error,
        collector=collector,
    )
    workload.build(system, config)

    connected = bytearray(b"\x01") * config.n_agents
    horizon = config.duration + config.drain_timeout
    states: List[Dict[str, Any]] = []
    for index in range(config.n_clients):
        client = system.create_guardian("client%d" % index)
        state: Dict[str, Any] = {
            "inflight": 0,
            "inflight_peak": 0,
            "agent_sampler": ZipfSampler(config.n_agents, config.agent_skew),
            "handles": None,
        }
        states.append(state)
        client.spawn(
            _make_driver(index, workload, config, system, metrics, connected, state),
            label="load-driver-%d" % index,
        )
        client.spawn(
            _make_churn(index, config, system, metrics, connected),
            label="load-churn-%d" % index,
        )

    def occupancy_tick():
        collector.gauge("load.inflight", sum(s["inflight"] for s in states))
        if env.now < horizon:
            env.call_in(config.window, occupancy_tick)

    env.call_in(config.window / 2.0, occupancy_tick)

    # Issuing phase.
    system.run(until=config.duration)
    issued = metrics.total("load.issued")
    completed_at_cutoff = metrics.total("load.completed")
    errors_at_cutoff = metrics.total("load.errors")
    achieved_rate = (
        (completed_at_cutoff + errors_at_cutoff) / config.duration
        if config.duration > 0
        else 0.0
    )

    # Drain: give the backlog a bounded grace period to finish.
    while (
        sum(s["inflight"] for s in states) > 0 and system.now < horizon
    ):
        system.run(until=min(system.now + 0.5, horizon))
    drained = sum(s["inflight"] for s in states) == 0

    histogram = metrics.merged_histogram("load.latency")
    snapshot = histogram.snapshot()
    offered = config.rate
    guard_ok = True
    if config.latency_guard:
        for key, ceiling in config.latency_guard.items():
            actual = snapshot.get(key)
            if actual is None or actual > ceiling:
                guard_ok = False
    served_at_cutoff = completed_at_cutoff + errors_at_cutoff
    sustained = (
        issued > 0
        and served_at_cutoff >= config.sustained_fraction * issued
        and drained
        and guard_ok
    )
    return {
        "workload": config.workload,
        "agents": config.n_agents,
        "offered_rate": offered,
        "duration": config.duration,
        "issued": issued,
        "completed": metrics.total("load.completed"),
        "errors": metrics.total("load.errors"),
        "reconnects": metrics.total("load.reconnects"),
        "churn": metrics.total("load.churn"),
        "achieved_rate": achieved_rate,
        "sustained": sustained,
        "latency_guard_ok": guard_ok,
        "drained": drained,
        "inflight_peak": max(s["inflight_peak"] for s in states),
        "inflight_end": sum(s["inflight"] for s in states),
        "latency": {
            "count": snapshot["count"],
            "mean": snapshot["mean"],
            "p50": snapshot["p50"],
            "p99": snapshot["p99"],
            "p999": snapshot["p999"],
            "max": snapshot["max"],
        },
        "latency_hist": histogram.to_dict(),
        "windows": collector.rows(),
        "dropped_windows": collector.dropped_windows,
        "final_time": system.now,
        "net": system.stats(),
    }


def _step_summary(result: Dict[str, Any]) -> Dict[str, Any]:
    """The compact per-step row kept in the report's rate ladder."""
    latency = result["latency"]
    return {
        "offered_rate": result["offered_rate"],
        "achieved_rate": result["achieved_rate"],
        "issued": result["issued"],
        "completed": result["completed"],
        "errors": result["errors"],
        "sustained": result["sustained"],
        "latency_guard_ok": result["latency_guard_ok"],
        "drained": result["drained"],
        "inflight_peak": result["inflight_peak"],
        "p50": latency["p50"],
        "p99": latency["p99"],
        "p999": latency["p999"],
    }


def stepped_search(
    config: LoadConfig, rates: List[float]
) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Walk the rate ladder until the first unsustained step.

    Returns ``(workload_entry, steps)``: the report entry summarizes the
    **reference step** — the highest sustained rate (or the first step if
    none sustained, so a broken system still reports something to look
    at) — and carries the full ladder.  ``max_sustainable_throughput`` is
    the reference step's achieved rate, ``None`` if nothing sustained.
    """
    if not rates:
        raise ValueError("rate ladder must not be empty")
    steps: List[Dict[str, Any]] = []
    reference: Optional[Dict[str, Any]] = None
    first: Optional[Dict[str, Any]] = None
    for rate in rates:
        result = run_load(replace(config, rate=rate))
        if first is None:
            first = result
        steps.append(_step_summary(result))
        if result["sustained"]:
            reference = result
        else:
            break
    collapsed = not steps[-1]["sustained"] if steps else False
    shown = reference if reference is not None else first
    entry = {
        "agents": config.n_agents,
        "offered_rate": shown["offered_rate"],
        "requests": shown["issued"],
        "errors": shown["errors"],
        "reconnects": shown["reconnects"],
        "churn": shown["churn"],
        "latency": shown["latency"],
        "latency_hist": shown["latency_hist"],
        "windows": shown["windows"],
        "max_sustainable_throughput": (
            reference["achieved_rate"] if reference is not None else None
        ),
        "ladder_exhausted": not collapsed,
        "steps": steps,
    }
    return entry, steps
