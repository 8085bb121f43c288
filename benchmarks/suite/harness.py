"""Repeats, timing and aggregation for one workload run.

One *run* is one process measuring one workload for ``seconds``:

* ``trace=False`` — timed repeats until the time is up (at least
  :data:`SUB_SEEDS`), tracing off.  Every repeat
  builds a fresh world; ``gc.collect()`` runs between repeats and GC
  stays enabled inside them.  Each end-to-end metric is the median over
  repeats, reported with its quartiles;
* ``trace=True`` — cycles of three repeats (plain, under the
  ``cProfile`` hook, with ``tracing=True``) until the time is up, then
  one repeat under ``tracemalloc``.  Per-layer metrics are medians over
  cycles; spans and profiles stay in memory and are written at the end.

Either way one warm-up repeat comes first.  A fixed pure-Python spin
runs before and after the measurement; the run is marked ``noisy`` when
the two differ by more than :data:`NOISY_SPREAD`.
"""

from __future__ import annotations

import cProfile
from array import array
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from typing import Any, Dict, List, Optional

from repro.obs.spans import build_spans

from benchmarks.suite import layers, registry

__all__ = ["SUB_SEEDS", "NOISY_SPREAD", "RESULTS_DIR", "repeat", "traced_world", "run_workload"]

#: A run draws this many sub-seeds from its seed and gives repeat *r*
#: sub-seed ``r % SUB_SEEDS``.  One seeded world is one sample of the
#: workload's randomness (which calls a lossy link drops, where Zipf keys
#: land); the simulated-time metrics pool the sub-seeded worlds so that
#: they say more about the program than about the draw.
SUB_SEEDS = 5
NOISY_SPREAD = 0.15
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: The metrics read from the simulated clock.
SIM_CLOCK = ("sim_ops_per_s", "sim_latency_p50", "sim_latency_p99")


def calibration_spin() -> float:
    """Seconds a fixed pure-Python loop takes (best of three): run
    metadata that tells a slow phase of the machine, not a metric."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for index in range(1_000_000):
            total += index * index % 7
        best = min(best, time.perf_counter() - start)
    return best


def sub_seed(seed: int, index: int) -> int:
    return seed * SUB_SEEDS + index % SUB_SEEDS


def percentile(ordered: List[float], p: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(0, min(len(ordered) - 1, int(-(-p * len(ordered) // 100)) - 1))
    return ordered[rank]


def summarize(values: List[float]) -> Dict[str, float]:
    """Median and quartiles of one run's repeats."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def sim_time(samples: List[Dict[str, Any]]) -> Dict[str, float]:
    """The simulated-time metrics of one or more seeded worlds, pooled:
    all their ops over all their simulated time, percentiles over all
    their latencies (a pooled p99 is steadier than a median of p99s)."""
    ops = sum(sample["ops"] for sample in samples)
    latencies = sorted(value for sample in samples for value in sample["latencies"])
    return {
        "sim_ops_per_s": ops / sum(sample["elapsed"] for sample in samples),
        "sim_latency_p50": percentile(latencies, 50),
        "sim_latency_p99": percentile(latencies, 99),
        "wire_msgs_per_kop": sum(sample["messages"] for sample in samples) * 1000.0 / ops,
    }


def repeat(
    spec: registry.Workload,
    seed: int,
    tracing: bool = False,
    profile: Optional[cProfile.Profile] = None,
    inspect: Any = None,
) -> Dict[str, Any]:
    """Build a fresh world, drive it, check it; one observation.

    *inspect*, when given, is called with the checked world before it is
    dropped and its result is kept under ``"inspected"``.
    """
    gc.collect()
    start = time.perf_counter()
    world = spec.build(spec, seed, tracing)
    setup_s = time.perf_counter() - start
    try:
        if profile is not None:
            profile.enable()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        spec.drive(world)
        wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
        if profile is not None:
            profile.disable()
    finally:
        world.close()
    spec.check(world)
    ops = world.ops
    net = world.net_stats()
    wall_lat = sorted(world.wall_lat)
    total_cpu_s = cpu_s + world.worker_cpu_s
    observation = {
        "ops": ops,
        "failed": world.failed,
        "setup_s": setup_s,
        "ops_per_s": ops / wall_s,
        "cpu_us_per_op": total_cpu_s / ops * 1e6,
        "latency_p50_us": percentile(wall_lat, 50) * 1e6,
        "latency_p90_us": percentile(wall_lat, 90) * 1e6,
        "latency_p99_us": percentile(wall_lat, 99) * 1e6,
        "wire_msgs_per_kop": net["messages_sent"] * 1000.0 / ops,
        "sim": {
            "ops": ops,
            "elapsed": world.sim_elapsed,
            "latencies": array("d", world.sim_lat),
            "messages": net["messages_sent"],
        },
        "worker_cpu_share": world.worker_cpu_s / total_cpu_s,
        "idle_share": max(0.0, 1.0 - cpu_s / wall_s),
        "bytes_per_op": (net["bytes_sent"] + world.worker_stats.get("bytes_sent", 0)) / ops,
    }
    if inspect is not None:
        observation["inspected"] = inspect(world)
    return observation


# ----------------------------------------------------------------------
# trace=False: the end-to-end metrics
# ----------------------------------------------------------------------
def measure_end_to_end(spec: registry.Workload, seed: int, seconds: float) -> Dict[str, Any]:
    observations: List[Dict[str, Any]] = []
    deadline = time.perf_counter() + seconds
    while len(observations) < SUB_SEEDS or time.perf_counter() < deadline:
        observation = repeat(spec, sub_seed(seed, len(observations)))
        if len(observations) >= SUB_SEEDS:
            first = observations[len(observations) % SUB_SEEDS]["sim"]
            if spec.backend == "sim" and observation["sim"] != first:
                raise AssertionError("simulated time is not exact for seed %d" % seed)
            del observation["sim"]["latencies"]
        observations.append(observation)
    summaries = {
        name: summarize([obs[name] for obs in observations])
        for name in observations[0]
        if name not in ("ops", "failed", "sim")
    }
    values = {name: summaries[name]["median"] for name in summaries}
    counted = list(observations)
    if spec.backend == "sim":
        values.update(sim_time([obs["sim"] for obs in observations[:SUB_SEEDS]]))
        del summaries["wire_msgs_per_kop"]  # pooled: no quartiles over repeats
    else:
        # The paced clock of an rt host is wall time in another unit; the
        # sim-clock metrics come from the same driver on the simulated twin.
        twin = repeat(spec.twinned(), sub_seed(seed, 0))
        counted.append(twin)
        modelled = sim_time([twin["sim"]])
        values.update({name: modelled[name] for name in SIM_CLOCK})
    if spec.ladder is not None:
        values["sim_sustained_rate"] = spec.ladder(spec, sub_seed(seed, 0))
    else:
        values["sim_sustained_rate"] = values["sim_ops_per_s"]
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": sum(obs["ops"] for obs in counted),
        "failed": sum(obs["failed"] for obs in counted),
        "values": {metric.name: values[metric.name] for metric in registry.end_to_end()},
        "summaries": summaries,
    }


# ----------------------------------------------------------------------
# trace=True: the per-layer metrics
# ----------------------------------------------------------------------
def traced_world(world: Any) -> Dict[str, Any]:
    """The per-layer figures and call spans of a traced, checked world."""
    spans = build_spans(world.system.tracer.events)
    return {"figures": layers.traced_figures(world, spans), "spans": spans}


def measure_per_layer(spec: registry.Workload, seed: int, seconds: float) -> Dict[str, Any]:
    cycles: List[Dict[str, float]] = []
    folded: Dict[str, Any] = {}
    spans: List[Any] = []
    attempted = failed = 0
    is_rt = spec.backend == "rt"
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle_seed = sub_seed(seed, len(cycles))
        plain = repeat(spec, cycle_seed)
        # rt counts CPU time, so a client asleep in epoll costs nothing; sim
        # is all CPU and keeps cProfile's own much cheaper wall clock.
        profile = cProfile.Profile(time.process_time) if is_rt else cProfile.Profile()
        profiled = repeat(spec, cycle_seed, profile=profile)
        folded = layers.fold_profile(profile.getstats(), profiled["ops"])
        traced = repeat(spec, cycle_seed, tracing=True, inspect=traced_world)
        inspected = traced.pop("inspected")
        spans = inspected["spans"]
        cycle = dict(inspected["figures"])
        for layer in registry.LAYERS:
            cycle[layer + ".self_us_per_op"] = folded["self_us_per_op"][layer]
            cycle[layer + ".entries_per_op"] = folded["entries_per_op"][layer]
        rt_figures = {
            "rt.frames_per_kop": plain["wire_msgs_per_kop"],
            "rt.bytes_per_op": plain["bytes_per_op"],
            "rt.latency_p90_us": plain["latency_p90_us"],
            "rt.latency_p99_us": plain["latency_p99_us"],
            "rt.worker_cpu_share": plain["worker_cpu_share"],
            "rt.idle_share": plain["idle_share"],
        }
        cycle.update(rt_figures if is_rt else dict.fromkeys(rt_figures, 0.0))
        cycle.update(
            {
                "trace.overhead_ratio": traced["cpu_us_per_op"] / plain["cpu_us_per_op"],
                "profile.total_us_per_op": folded["total_us_per_op"],
                "profile.other_us_per_op": folded["self_us_per_op"]["other"],
                "profile.overhead_ratio": profiled["cpu_us_per_op"] / plain["cpu_us_per_op"],
            }
        )
        cycles.append(cycle)
        for obs in (plain, profiled, traced):
            attempted += obs["ops"]
            failed += obs["failed"]

    gc.collect()
    gen0 = gc.get_stats()[0]["collections"]
    tracemalloc.start()
    try:
        memory = repeat(spec, sub_seed(seed, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    attempted += memory["ops"]
    failed += memory["failed"]
    summaries = {name: summarize([cycle[name] for cycle in cycles]) for name in cycles[0]}
    values = {name: row["median"] for name, row in summaries.items()}
    values["mem.peak_traced_mib"] = peak / (1024.0 * 1024.0)
    values["mem.gc_gen0_per_kop"] = (
        (gc.get_stats()[0]["collections"] - gen0) * 1000.0 / memory["ops"]
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "values": {metric.name: values[metric.name] for metric in registry.per_layer()},
        "summaries": summaries,
        "profile": folded,
        "spans": spans,
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure workload *name*; writes ``results/<name>.*`` and returns
    the run record, whose ``"line"`` is the one-line result."""
    spec = registry.workload(name)
    # Warm-up, outside every measurement: imports, codec caches, allocator
    # pools, and a CPU that has left its idle clock before the first spin.
    repeat(spec, sub_seed(seed, 0))
    spin_before = calibration_spin()
    measured = (measure_per_layer if trace else measure_end_to_end)(spec, seed, seconds)
    spin_after = calibration_spin()
    units = {metric.name: metric.unit for metric in registry.METRICS}
    record = {
        "workload": name,
        "loop": spec.loop,
        "backend": spec.backend + (" (TCP on loopback)" if spec.backend == "rt" else ""),
        "size": spec.size,
        "unit": spec.unit,
        "op": spec.op,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "calibration_spin_s": [spin_before, spin_after],
        "noisy": abs(spin_after - spin_before) / min(spin_before, spin_after) > NOISY_SPREAD,
        "summaries": measured["summaries"],
        "line": {
            "correct": measured["failed"] == 0,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": {
                metric: {"value": value, "unit": units[metric]}
                for metric, value in measured["values"].items()
            },
        },
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, name)
    if trace:
        with open(stem + ".layers.json", "w") as handle:
            json.dump(dict(record, profile=measured["profile"]), handle, indent=1, sort_keys=True)
            handle.write("\n")
        with open(stem + ".spans.jsonl", "w") as handle:
            for row in layers.span_rows(measured["spans"]):
                handle.write(json.dumps(row, default=repr))
                handle.write("\n")
    else:
        with open(stem + ".run.json", "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return record


def print_record(record: Dict[str, Any], out: Any = sys.stdout) -> None:
    """Every metric by name with its unit (and quartiles where the run
    kept them), then the one-line result as the last line."""
    line = record["line"]
    out.write(
        "%s  [%s loop, %s, %d %s, seed %d, trace %d]%s\n"
        % (
            record["workload"],
            record["loop"],
            record["backend"],
            record["size"],
            record["unit"],
            record["seed"],
            record["trace"],
            "  NOISY" if record["noisy"] else "",
        )
    )
    for name, cell in line["metrics"].items():
        row = record["summaries"].get(name)
        spread = "  [q1 %.6g  q3 %.6g  n %d]" % (row["q1"], row["q3"], row["n"]) if row else ""
        out.write("  %-36s %14.6g %-9s%s\n" % (name, cell["value"], cell["unit"], spread))
    out.write(
        "  ops attempted %d, failed %d; calibration spin %.4fs -> %.4fs\n"
        % ((line["attempted"], line["failed"]) + tuple(record["calibration_spin_s"]))
    )
    out.write(json.dumps(line) + "\n")
