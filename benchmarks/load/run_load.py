"""Stepped-rate load search + SLO report: writes ``BENCH_PR8.json``.

Run the open-loop harness over every workload's rate ladder, judge the
results against the SLO spec, and write the load report that
``python -m repro.obs report`` / ``top`` render::

    PYTHONPATH=src:. python -m benchmarks.load.run_load --quick -o BENCH_PR8_quick.json
    PYTHONPATH=src:. python -m repro.obs report BENCH_PR8_quick.json
    PYTHONPATH=src:. python -m repro.obs top BENCH_PR8_quick.json -w echo

CI gate (the ``slo-smoke`` job)::

    python -m benchmarks.load.run_load --quick --check-against BENCH_PR8_quick.json

``--check-against`` reruns the search and fails (exit 1) when any SLO is
breached, when max sustainable throughput regresses more than 20% below
the committed report, or when p99 latency at the reference rate regresses
more than 20% above it.  Quick and full reports are never comparable —
the gate refuses mode mismatches rather than misjudging.

Each workload's sustained criterion uses its SLO latency ceilings as the
in-run guard (see ``LoadConfig.latency_guard``), so
``max_sustainable_throughput`` means "highest offered rate still inside
SLO", found before the flow-control window collapses outright.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from benchmarks.load.harness import LOAD_WORKLOADS, LoadConfig, stepped_search
from repro.obs.slo import SloSpec, evaluate_slo, render_report

__all__ = ["PROFILES", "build_report", "check_against", "main"]

#: Per-mode scale and rate ladders.  The full profile runs the paper's
#: 10^6-agent population; churn_rate is scaled down so the *absolute*
#: churn event rate (agents/sec) matches the quick profile instead of
#: drowning the calendar.  Ladders stop one step past the last rate the
#: committed snapshots sustain, so the collapse point shows in the report
#: without paying for unreachable rungs.
PROFILES: Dict[str, Dict[str, Any]] = {
    "quick": {
        "n_agents": 100_000,
        "duration": 4.0,
        "churn_rate": 0.01,
        "ladders": {
            "echo": [150.0, 300.0, 600.0, 1200.0],
            "pipeline": [100.0, 200.0, 400.0],
            "kv": [150.0, 300.0, 600.0, 1200.0],
        },
    },
    "full": {
        "n_agents": 1_000_000,
        "duration": 4.0,
        "churn_rate": 0.001,
        "ladders": {
            "echo": [400.0, 800.0, 1600.0, 3200.0, 6400.0],
            "pipeline": [200.0, 400.0, 800.0],
            "kv": [400.0, 800.0, 1600.0, 3200.0, 6400.0],
        },
    },
}


def build_report(
    mode: str,
    seed: int,
    workloads: List[str],
    spec: SloSpec,
    echo_progress: bool = True,
) -> Dict[str, Any]:
    """Run every workload's stepped-rate search; returns the full report."""
    profile = PROFILES[mode]
    report: Dict[str, Any] = {
        "pr": 8,
        "mode": mode,
        "agents": profile["n_agents"],
        "seed": seed,
        "workloads": {},
    }
    for name in workloads:
        guard = spec.spec.get(name, {}).get("latency") or None
        config = LoadConfig(
            workload=name,
            n_agents=profile["n_agents"],
            duration=profile["duration"],
            churn_rate=profile["churn_rate"],
            seed=seed,
            latency_guard=guard,
        )
        entry, steps = stepped_search(config, profile["ladders"][name])
        report["workloads"][name] = entry
        if echo_progress:
            for step in steps:
                print(
                    "%-8s %8.1f -> %8.1f ops/s  p99=%.4f  %s"
                    % (
                        name,
                        step["offered_rate"],
                        step["achieved_rate"],
                        step["p99"],
                        "sustained" if step["sustained"] else "COLLAPSED",
                    ),
                    file=sys.stderr,
                )
    verdict = evaluate_slo(spec, report["workloads"])
    for name, entry_verdict in verdict["workloads"].items():
        report["workloads"][name]["slo"] = entry_verdict
    report["slo"] = verdict
    report["slo_spec"] = spec.to_dict()
    return report


def _p99_problem(old: Dict[str, Any], new: Dict[str, Any]) -> Optional[str]:
    """p99 regression of one workload, judged at the *reference's* top
    sustained rate.  Each run's own top rung moves with its throughput,
    so comparing those would read a throughput gain as a latency
    regression."""
    sustained = [step for step in old.get("steps", []) if step.get("sustained")]
    if not sustained:
        return None
    ref = max(sustained, key=lambda step: step["offered_rate"])
    rate = ref["offered_rate"]
    at_rate = [step for step in new.get("steps", []) if step["offered_rate"] == rate]
    if not at_rate:
        return "no rung at the reference rate %r ops/s" % (rate,)
    old_p99, new_p99 = ref.get("p99"), at_rate[0].get("p99")
    # 20% relative plus a small absolute epsilon so microsecond jitter on
    # a near-zero baseline cannot trip the gate.
    if old_p99 is not None and new_p99 is not None and new_p99 > old_p99 * 1.2 + 0.005:
        return "p99 latency regressed >20%% at %r ops/s: %.4f -> %.4f" % (
            rate, old_p99, new_p99,
        )
    return None


def check_against(
    report: Dict[str, Any], committed: Dict[str, Any]
) -> List[str]:
    """Regression problems of *report* vs the *committed* snapshot."""
    problems: List[str] = []
    if committed.get("mode") != report.get("mode"):
        return [
            "mode mismatch: this run is %r but the committed report is %r "
            "— quick and full numbers are not comparable"
            % (report.get("mode"), committed.get("mode"))
        ]
    slo = report.get("slo", {})
    if not slo.get("ok", False):
        for name, verdict in sorted(slo.get("workloads", {}).items()):
            for check in verdict["checks"]:
                if not check["ok"]:
                    problems.append(
                        "%s: SLO breach: %s limit=%r actual=%r"
                        % (name, check["check"], check["limit"], check["actual"])
                    )
    for name, old in sorted(committed.get("workloads", {}).items()):
        new = report.get("workloads", {}).get(name)
        if new is None:
            problems.append("workload %r missing from this run" % (name,))
            continue
        old_tp = old.get("max_sustainable_throughput")
        new_tp = new.get("max_sustainable_throughput")
        if old_tp:
            if not new_tp or new_tp < 0.8 * old_tp:
                problems.append(
                    "%s: max sustainable throughput regressed >20%%: "
                    "%r -> %r ops/s" % (name, old_tp, new_tp)
                )
        problem = _p99_problem(old, new)
        if problem:
            problems.append("%s: %s" % (name, problem))
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.load.run_load",
        description="Open-loop load search with SLO verdicts.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="quick profile (10^5 agents, short ladders; the CI gate)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workloads",
        default=",".join(sorted(LOAD_WORKLOADS)),
        help="comma-separated workload names (default: all)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=None,
        help="report path (default BENCH_PR8.json, _quick with --quick)",
    )
    parser.add_argument(
        "--slo", default=None, help="SLO spec JSON (default: built-in spec)"
    )
    parser.add_argument(
        "--check-against",
        default=None,
        metavar="REPORT",
        help="compare against a committed report; exit 1 on regression "
        "or SLO breach (the fresh report is still written, so CI can "
        "upload it for inspection)",
    )
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    workloads = [name for name in args.workloads.split(",") if name]
    for name in workloads:
        if name not in LOAD_WORKLOADS:
            parser.error(
                "unknown workload %r (known: %s)"
                % (name, ", ".join(sorted(LOAD_WORKLOADS)))
            )
    spec = SloSpec.from_file(args.slo) if args.slo else SloSpec()
    report = build_report(mode, args.seed, workloads, spec)
    print(render_report(report))

    output = args.output or (
        "BENCH_PR8_quick.json" if args.quick else "BENCH_PR8.json"
    )
    with open(output, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("\nwrote %s" % output)

    if args.check_against:
        with open(args.check_against) as handle:
            committed = json.load(handle)
        problems = check_against(report, committed)
        if problems:
            print("\nload gate FAILED:")
            for problem in problems:
                print("  - %s" % problem)
            return 1
        print("load gate ok (vs %s)" % args.check_against)
        return 0
    return 0 if report["slo"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
