"""Stepped-rate load search + SLO report.

Run the open-loop harness over every workload's rate ladder, judge the
results against the SLO spec, and write the load report that
``python -m repro.obs report`` / ``top`` render (by default to the
git-ignored ``benchmarks/results/load_<mode>.json``)::

    PYTHONPATH=src:. python -m benchmarks.load.run_load --quick
    PYTHONPATH=src:. python -m repro.obs report benchmarks/results/load_quick.json
    PYTHONPATH=src:. python -m repro.obs top benchmarks/results/load_quick.json -w echo

The exit code is the gate (the CI ``benchmarks`` job): 1 when any SLO is
breached, 0 otherwise.  Whether a change made the ``kv`` topology slower
is the benchmark suite's question (``kv_open`` in ``BENCHMARK.json``),
not this script's.

Each workload's sustained criterion uses its SLO latency ceilings as the
in-run guard (see ``LoadConfig.latency_guard``), so
``max_sustainable_throughput`` means "highest offered rate still inside
SLO", found before the flow-control window collapses outright.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional

from benchmarks.load.harness import LOAD_WORKLOADS, LoadConfig, stepped_search
from repro.obs.slo import SloSpec, evaluate_slo, render_report

__all__ = ["PROFILES", "build_report", "main"]

#: Default report directory: ``benchmarks/results/`` (git-ignored).
RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "results"
)

#: Per-mode scale and rate ladders.  The full profile runs the paper's
#: 10^6-agent population; churn_rate is scaled down so the *absolute*
#: churn event rate (agents/sec) matches the quick profile instead of
#: drowning the calendar.  Ladders stop one step past the last rate each
#: topology sustains, so the collapse point shows in the report without
#: paying for unreachable rungs.
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
        help="report path (default benchmarks/results/load_<mode>.json)",
    )
    parser.add_argument(
        "--slo", default=None, help="SLO spec JSON (default: built-in spec)"
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

    output = args.output
    if output is None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        output = os.path.join(RESULTS_DIR, "load_%s.json" % mode)
    with open(output, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("\nwrote %s" % output)
    return 0 if report["slo"]["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
