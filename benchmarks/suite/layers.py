"""Per-layer figures, measured from outside ``src/``.

Two sources, both driven from the benchmark's own files:

* **host time** — a ``cProfile`` hook around the timed region; every
  function's self time and every caller->callee edge is folded by the
  package its file lives in (:func:`fold_profile`).  No function of
  ``src`` is named here, so refactors inside a package cannot break it;
* **sim time and counters** — the program's public observability
  surface: ``tracing=True``, the tracer's metric registry,
  ``repro.obs.spans`` and the ``stats()`` snapshots
  (:func:`traced_figures`).
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional

from repro.obs.spans import aggregate_critical_path, graph_shard_breakdown

from benchmarks.suite.registry import LAYERS, WAIT_PHASES

__all__ = ["fold_profile", "traced_figures", "span_rows"]

_SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_MARK = os.sep + os.path.join("src", "repro") + os.sep


def _layer_of(code: Any, cache: Dict[Any, Optional[str]]) -> Optional[str]:
    """The layer a profiled code object belongs to; ``None`` for a
    builtin, whose self time is charged to whoever called it."""
    if isinstance(code, str):
        return None
    try:
        return cache[code]
    except KeyError:
        pass
    filename = code.co_filename
    at = filename.find(_REPRO_MARK)
    if at >= 0:
        package = filename[at + len(_REPRO_MARK):].split(os.sep, 1)[0]
        layer = package if package in LAYERS else "other"
    elif filename.startswith(_SUITE_DIR):
        layer = "app"
    else:
        layer = "host"
    cache[code] = layer
    return layer


def fold_profile(stats: List[Any], ops: int) -> Dict[str, Any]:
    """Fold ``cProfile.Profile.getstats()`` by layer.

    ``self_us_per_op[L]`` sums the self time of every function of layer
    *L* plus the self time of the builtins those functions called.
    ``entries_per_op[L]`` counts calls into *L* whose caller is in
    another layer (a call made through a builtin, such as a generator
    resumed by ``send``, always counts): those callees are the layer's
    public functions.  ``total_us_per_op`` is all profiled time; the
    layer self times add up to it (``other`` holds ``repro`` packages
    that are not layers, e.g. ``obs``).
    """
    cache: Dict[Any, Optional[str]] = {}
    self_s = {layer: 0.0 for layer in LAYERS + ("other",)}
    entries = {layer: 0 for layer in LAYERS + ("other",)}
    total = 0.0
    for entry in stats:
        total += entry.inlinetime
        caller = _layer_of(entry.code, cache)
        if caller is not None:
            self_s[caller] += entry.inlinetime
        for sub in entry.calls or ():
            callee = _layer_of(sub.code, cache)
            if callee is None:
                self_s[caller or "host"] += sub.inlinetime
            elif callee != caller:
                entries[callee] += sub.callcount
    scale = 1e6 / ops
    return {
        "total_us_per_op": total * scale,
        "self_us_per_op": {layer: seconds * scale for layer, seconds in self_s.items()},
        "entries_per_op": {layer: count / ops for layer, count in entries.items()},
    }


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def traced_figures(world: Any, spans: List[Any]) -> Dict[str, float]:
    """Sim-time attribution and counters of one traced repeat, whose
    call spans (``build_spans`` of its events) are *spans*.

    rt workloads trace the client process only, so their spans never
    complete and the six wait shares read 0 there.
    """
    ops = world.ops
    kop = ops / 1000.0
    metrics = world.system.tracer.metrics
    events = world.system.tracer.events
    net = world.net_stats()
    sent = net["messages_sent"]
    dropped = sum(value for key, value in net.items() if key.startswith("messages_dropped"))
    packets = metrics.total("stream.packets_sent")
    senders = world.sender_stats
    claims = metrics.total("promise.claims")
    figures = {
        "net.msgs_per_kop": sent / kop,
        "net.bytes_per_op": net["bytes_sent"] / ops,
        "net.kernel_calls_per_kop": net["kernel_calls"] / kop,
        "net.dropped_share": _ratio(dropped, sent),
        "net.duplicated_share": _ratio(net["messages_duplicated"], sent),
        "streams.calls_per_packet": _ratio(metrics.total("stream.calls"), packets),
        "streams.batch_size_mean": metrics.merged_histogram("stream.batch_size").mean,
        "streams.reply_batch_size_mean": metrics.merged_histogram("stream.reply_batch_size").mean,
        "streams.window_stalls_per_kop": metrics.total("stream.window_stalls") / kop,
        "streams.retransmit_share": _ratio(metrics.total("stream.retransmissions"), packets),
        "streams.breaks": float(metrics.total("stream.breaks")),
        # Only the refs the driver itself holds expose these three.
        "streams.max_inflight": float(max((s["max_inflight"] for s in senders), default=0)),
        "streams.fast_retransmits_per_kop": sum(s["fast_retransmits"] for s in senders) / kop,
        "streams.reply_gap_probes_per_kop": sum(s["reply_gap_probes"] for s in senders) / kop,
        "sim.resumptions_per_op": metrics.total("sim.process_resumptions") / ops,
        "sim.processes_per_op": metrics.total("sim.processes_created") / ops,
        "core.claims_blocked_share": _ratio(
            metrics.counter_value("promise.claims", ready=False), claims
        ),
        "core.claim_wait_p50": (
            metrics.merged_histogram("promise.claim_latency").percentile(50) if claims else 0.0
        ),
        "concurrency.vat_turns_per_op": metrics.total("vat.turns") / ops,
    }
    fractions = aggregate_critical_path(spans)["phase_fractions"] or {}
    for phase, owner in WAIT_PHASES:
        figures["%s.wait_%s_share" % (owner, phase)] = fractions.get(phase, 0.0)
    shards = graph_shard_breakdown(events).values()
    routines = sum(row["routines"] for row in shards)
    frames = sum(row["frames_out"] for row in shards)
    figures["graph.frames_per_kop"] = frames / kop
    figures["graph.routines_per_epoch"] = _ratio(routines, frames)
    figures["graph.migrated_share"] = _ratio(sum(row["migrated"] for row in shards), routines)
    return figures


def span_rows(spans: List[Any]) -> List[Dict[str, Any]]:
    """Call spans as plain dicts, one per line of ``spans.jsonl``."""
    rows = []
    for span in spans:
        row = {name: getattr(span, name) for name in span.__slots__}
        row["phases"] = span.phases()
        rows.append(row)
    return rows
