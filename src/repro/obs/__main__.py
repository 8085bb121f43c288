"""Trace analysis CLI: ``python -m repro.obs <subcommand> trace.jsonl``.

Operates offline on a trace exported with ``Tracer.export_jsonl`` (or an
example's ``--trace DIR`` flag).  Subcommands:

``summarize``
    Replay the events through the metric aggregators and print the same
    summary report a live ``tracer.summary()`` would give.

``spans``
    Print the causal forest: every call and fork span, indented under the
    span that caused it, with end-to-end latency per call.

``critical-path``
    Aggregate phase breakdown across all complete calls — where the
    run's latency went (buffering, wire, queueing, execution, reply
    path) — plus the slowest single call.  Use ``--per-call`` to list
    every call's breakdown.  Traces with promise-graph events get an
    extra per-shard table (routines, migrations, busy time, frames).

``chrome``
    Convert the trace to Chrome trace-event JSON; open the output in
    ``chrome://tracing`` or https://ui.perfetto.dev.

Two further subcommands operate on a **load report** (the JSON written
by ``benchmarks/load/run_load.py``) instead of a raw trace:

``report``
    Per-workload load summary: achieved throughput, latency quantiles
    through p999, the stepped-rate ladder, and the SLO verdict table.

``top``
    Replay the run's per-window timeline as live ``top``-style frames
    (throughput bars, in-flight occupancy, tail latency per window).
    ``--interval`` inserts a real-time delay between frames;
    the default of 0 prints all frames at once (CI-friendly).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.obs.slo import load_report, render_report, top_frames
from repro.obs.spans import (
    PHASES,
    aggregate_critical_path,
    build_spans,
    build_trees,
    critical_path,
    format_tree,
    graph_shard_breakdown,
    write_chrome_trace,
)
from repro.obs.trace import (
    EV_TRACE_META,
    load_jsonl,
    replay_metrics,
    summary_from_metrics,
    trace_meta,
)


def _load_trace(path: str):
    """Load a JSONL trace with actionable errors for bad inputs."""
    try:
        events = load_jsonl(path)
    except json.JSONDecodeError as exc:
        raise ValueError(
            "%s: not a JSONL trace (invalid JSON: %s)" % (path, exc)
        ) from None
    if not events:
        raise ValueError(
            "%s: trace contains no events (was it exported with tracing "
            "enabled?)" % (path,)
        )
    return events


def _load_report(path: str):
    """Load a load-report JSON with actionable errors for bad inputs."""
    try:
        return load_report(path)
    except json.JSONDecodeError as exc:
        raise ValueError(
            "%s: not a load report (invalid JSON: %s)" % (path, exc)
        ) from None


def _cmd_summarize(args: argparse.Namespace) -> int:
    events = _load_trace(args.trace)
    meta = trace_meta(events)
    events = [event for event in events if event.type != EV_TRACE_META]
    metrics = replay_metrics(events)
    report = summary_from_metrics(
        metrics, len(events), dropped_events=meta["dropped_events"]
    )
    if meta["dropped_events"]:
        sys.stderr.write(
            "warning: trace is TRUNCATED — the ring buffer dropped %d events "
            "before export; counts and histograms cover only the %d retained "
            "events\n" % (meta["dropped_events"], len(events))
        )
    json.dump(report, sys.stdout, indent=2, sort_keys=True, default=repr)
    sys.stdout.write("\n")
    return 0


def _cmd_spans(args: argparse.Namespace) -> int:
    events = _load_trace(args.trace)
    roots = build_trees(events)
    if not roots:
        print("no spans in trace (was it recorded with tracing enabled?)")
        return 1
    print(format_tree(roots))
    return 0


def _print_graph_shards(shards) -> None:
    """The per-shard graph section; prints nothing for non-graph traces."""
    if not shards:
        return
    total_busy = sum(row["busy"] for row in shards.values())
    print("graph shards (routine executions grouped by shard):")
    print(
        "    %-12s %9s %9s %10s %7s %8s %9s"
        % ("shard", "routines", "migrated", "busy", "busy%", "frames", "units")
    )
    for shard in sorted(shards):
        row = shards[shard]
        print(
            "    %-12s %9d %9d %10.3f %6.1f%% %8d %9d"
            % (
                shard,
                row["routines"],
                row["migrated"],
                row["busy"],
                100.0 * row["busy"] / total_busy if total_busy else 0.0,
                row["frames_out"],
                row["units_out"],
            )
        )


def _cmd_critical_path(args: argparse.Namespace) -> int:
    events = _load_trace(args.trace)
    spans = build_spans(events)
    report = aggregate_critical_path(spans)
    if args.per_call:
        for span in spans:
            detail = critical_path(span)
            print(
                "%-40s e2e=%s"
                % (
                    detail["call"],
                    "%.3f" % detail["end_to_end"]
                    if detail["end_to_end"] is not None
                    else "incomplete",
                )
            )
            for phase in PHASES:
                duration = detail["phases"][phase]
                if duration is not None:
                    print("    %-14s %10.3f" % (phase, duration))
        print()
    print(
        "calls: %d (%d complete)" % (report["calls"], report["complete_calls"])
    )
    shards = graph_shard_breakdown(events)
    if not report["complete_calls"]:
        _print_graph_shards(shards)
        return 1
    total = report["end_to_end_total"]
    print("end-to-end total: %.3f  mean: %.3f" % (total, report["end_to_end_mean"]))
    tails = report["end_to_end_percentiles"]
    print(
        "end-to-end percentiles: p50=%.3f  p99=%.3f  p999=%.3f"
        % (tails["p50"], tails["p99"], tails["p999"])
    )
    print("phase breakdown (summed over complete calls; p999 per phase):")
    phase_tails = report["phase_percentiles"]
    for phase in PHASES:
        duration = report["phase_totals"][phase]
        print(
            "    %-14s %10.3f  (%5.1f%%)  p999=%.3f"
            % (
                phase,
                duration,
                100.0 * duration / total if total else 0.0,
                phase_tails[phase]["p999"],
            )
        )
    slowest = report["slowest_call"]
    if slowest is not None:
        print(
            "slowest call: %s on %s (e2e=%.3f, dominant phase: %s)"
            % (
                slowest["call"],
                slowest["stream"],
                slowest["end_to_end"],
                slowest["dominant_phase"],
            )
        )
    _print_graph_shards(shards)
    return 0


def _cmd_chrome(args: argparse.Namespace) -> int:
    events = _load_trace(args.trace)
    slices = write_chrome_trace(events, args.output)
    print("wrote %d slices to %s" % (slices, args.output))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = _load_report(args.report)
    print(render_report(report))
    slo = report.get("slo")
    return 0 if slo is None or slo.get("ok") else 1


def _cmd_top(args: argparse.Namespace) -> int:
    report = _load_report(args.report)
    workloads = sorted(report.get("workloads", {}))
    if not workloads:
        print("report has no workloads")
        return 1
    workload = args.workload or workloads[0]
    frames = list(top_frames(report, workload))
    if not frames:
        print("workload %r recorded no windows" % (workload,))
        return 1
    for index, frame in enumerate(frames):
        if args.interval > 0:
            # Live replay: repaint in place like top(1).
            sys.stdout.write("\x1b[2J\x1b[H")
        print(frame)
        if args.interval > 0 and index + 1 < len(frames):
            time.sleep(args.interval)
        elif args.interval == 0 and index + 1 < len(frames):
            print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Analyze an exported JSONL simulation trace.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser("summarize", help="metrics summary replayed from events")
    p_sum.add_argument("trace", help="path to a trace .jsonl file")
    p_sum.set_defaults(func=_cmd_summarize)

    p_spans = sub.add_parser("spans", help="print the causal span forest")
    p_spans.add_argument("trace", help="path to a trace .jsonl file")
    p_spans.set_defaults(func=_cmd_spans)

    p_cp = sub.add_parser(
        "critical-path", help="aggregate per-phase latency breakdown"
    )
    p_cp.add_argument("trace", help="path to a trace .jsonl file")
    p_cp.add_argument(
        "--per-call", action="store_true", help="also list each call's breakdown"
    )
    p_cp.set_defaults(func=_cmd_critical_path)

    p_chrome = sub.add_parser("chrome", help="export Chrome trace-event JSON")
    p_chrome.add_argument("trace", help="path to a trace .jsonl file")
    p_chrome.add_argument(
        "-o", "--output", default="trace.chrome.json", help="output path"
    )
    p_chrome.set_defaults(func=_cmd_chrome)

    p_report = sub.add_parser(
        "report", help="summarize a load report (run_load JSON) with SLO verdicts"
    )
    p_report.add_argument("report", help="path to a load report .json file")
    p_report.set_defaults(func=_cmd_report)

    p_top = sub.add_parser(
        "top", help="replay a load report's per-window timeline as top-style frames"
    )
    p_top.add_argument("report", help="path to a load report .json file")
    p_top.add_argument(
        "-w", "--workload", default=None, help="workload to replay (default: first)"
    )
    p_top.add_argument(
        "-i",
        "--interval",
        type=float,
        default=0.0,
        help="seconds between frames (0 = print all frames at once)",
    )
    p_top.set_defaults(func=_cmd_top)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Bad inputs (missing/empty/corrupt files) are user errors, not
        # analyzer bugs: one actionable line on stderr, exit 2, no
        # traceback.
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
