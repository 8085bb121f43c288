"""``python -m repro.chaos`` — run, replay, and shrink chaos campaigns.

Subcommands::

    run     — sweep a seed range over one or all workloads; on failure,
              optionally shrink each failing schedule and drop replayable
              artifacts (seed JSON + JSONL trace) into --artifacts
    replay  — re-execute corpus seed files and assert each reproduces its
              recorded verdict and digest
    shrink  — minimize one failing (workload, seed) run's schedule

Output is deterministic (no wall-clock, no host data): two invocations
with the same arguments on the same tree print identical bytes — CI diffs
runs of ``run`` to prove seed-determinism.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List

from repro.chaos.engine import run_one
from repro.chaos.schedule import INTENSITIES
from repro.chaos.seeds import corpus_paths, load_seed, replay_seed, save_seed, seed_record
from repro.chaos.shrink import shrink_schedule
from repro.chaos.workloads import WORKLOADS


def _parse_seeds(spec: str) -> List[int]:
    """``"0:100"`` -> range, ``"3,17,42"`` -> list, ``"7"`` -> [7].

    The ``--seeds`` argument type: a bad or empty spec is a usage error.
    """
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        start, stop = int(lo), int(hi)
        if stop <= start:
            raise argparse.ArgumentTypeError(
                "seed range %r is empty (use start:stop with stop > start)" % spec
            )
        return list(range(start, stop))
    seeds = [int(part) for part in spec.split(",") if part]
    if not seeds:
        raise argparse.ArgumentTypeError("seed list %r names no seed" % spec)
    return seeds


def _seed_label(seeds: List[int]) -> str:
    """``start:stop`` for a contiguous run, else the comma list."""
    if len(seeds) > 1 and seeds == list(range(seeds[0], seeds[-1] + 1)):
        return "%d:%d" % (seeds[0], seeds[-1] + 1)
    return ",".join(str(seed) for seed in seeds)


def _workload_roster(name: str) -> List[str]:
    if name == "all":
        return sorted(WORKLOADS)
    if name not in WORKLOADS:
        raise SystemExit(
            "unknown workload %r (known: %s, or 'all')" % (name, ", ".join(sorted(WORKLOADS)))
        )
    return [name]


def _cmd_run(args: argparse.Namespace) -> int:
    roster = _workload_roster(args.workload)
    failures = []
    total = 0
    for workload in roster:
        for seed in args.seeds:
            result = run_one(workload, seed, intensity=args.intensity)
            total += 1
            if result.failed:
                failures.append(result)
                print(
                    "FAIL %s seed=%d problems=%d violations=%d digest=%s"
                    % (
                        workload,
                        seed,
                        len(result.problems),
                        len(result.violations),
                        result.digest()[:16],
                    )
                )
                for problem in result.problems:
                    print("     problem: %s" % problem)
                for violation in result.violations:
                    print("     violation: %s" % violation)
            elif args.verbose:
                print(
                    "pass %s seed=%d faults=%d digest=%s"
                    % (workload, seed, len(result.schedule.ops), result.digest()[:16])
                )
    print(
        "campaign: %d run(s), %d failure(s) [workloads: %s; seeds: %s; intensity: %s]"
        % (total, len(failures), ",".join(roster), _seed_label(args.seeds), args.intensity)
    )

    if failures and args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
        for result in failures:
            stem = "%s-seed%d" % (result.workload, result.seed)
            schedule = result.schedule
            if not args.no_shrink:
                report = shrink_schedule(
                    result.workload,
                    result.seed,
                    schedule,
                    intensity=result.intensity,
                    progress=lambda note: print("  shrink[%s]: %s" % (stem, note)),
                )
                schedule = report.schedule
                result = report.result
                print(
                    "  shrink[%s]: %d probe(s), %d op(s) removed"
                    % (stem, report.probes, report.removed_ops)
                )
            seed_path = os.path.join(args.artifacts, stem + ".seed.json")
            save_seed(seed_record(result, note="captured by chaos run"), seed_path)
            trace_path = os.path.join(args.artifacts, stem + ".trace.jsonl")
            run_one(
                result.workload,
                result.seed,
                intensity=result.intensity,
                schedule=schedule,
                trace_path=trace_path,
            )
            print("  artifacts: %s %s" % (seed_path, trace_path))
    return 1 if failures else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    paths: List[str] = []
    for root in args.paths:
        if not os.path.exists(root):
            raise ValueError(
                "%s: no such file or directory (expected a seed .json file "
                "or a directory of them, e.g. tests/chaos/seeds)" % (root,)
            )
        paths.extend(corpus_paths(root))
    if not paths:
        print("no seed files found under: %s" % " ".join(args.paths))
        return 1
    mismatched = 0
    for path in paths:
        try:
            record = load_seed(path)
        except json.JSONDecodeError as exc:
            raise ValueError(
                "%s: not a seed file (invalid JSON: %s)" % (path, exc)
            ) from None
        ok, result, mismatches = replay_seed(record)
        if ok:
            print(
                "ok   %s (%s seed=%d verdict=%s)"
                % (path, record["workload"], record["seed"], result.verdict)
            )
        else:
            mismatched += 1
            print("DRIFT %s" % path)
            for mismatch in mismatches:
                print("      %s" % mismatch)
            for problem in result.problems:
                print("      replay problem: %s" % problem)
            for violation in result.violations:
                print("      replay violation: %s" % violation)
    print("replay: %d seed(s), %d drifted" % (len(paths), mismatched))
    return 1 if mismatched else 0


def _cmd_shrink(args: argparse.Namespace) -> int:
    result = run_one(args.workload, args.seed, intensity=args.intensity)
    if not result.failed:
        print(
            "pass %s seed=%d at intensity=%s — nothing to shrink"
            % (args.workload, args.seed, args.intensity)
        )
        return 1
    report = shrink_schedule(
        args.workload,
        args.seed,
        result.schedule,
        intensity=args.intensity,
        progress=lambda note: print("shrink: %s" % note),
    )
    print(
        "minimal schedule: %d op(s)%s after %d probe(s)"
        % (
            len(report.schedule.ops),
            "" if report.schedule.link is None else " + link profile",
            report.probes,
        )
    )
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out:
        save_seed(
            seed_record(report.result, note="shrunk by python -m repro.chaos shrink"),
            args.out,
        )
        print("wrote %s" % args.out)
    return 0


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic chaos campaigns for the promises runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="sweep a seed range")
    p_run.add_argument("--workload", default="all", help="workload name or 'all'")
    p_run.add_argument(
        "--seeds", type=_parse_seeds, default="0:25", help="A:B range or comma list"
    )
    p_run.add_argument(
        "--intensity", default="default", choices=sorted(INTENSITIES)
    )
    p_run.add_argument(
        "--artifacts", default=None, help="directory for failure artifacts"
    )
    p_run.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking failing schedules"
    )
    p_run.add_argument("--verbose", action="store_true", help="print passing runs too")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser("replay", help="replay corpus seed files")
    p_replay.add_argument("paths", nargs="+", help="seed files or directories")
    p_replay.set_defaults(func=_cmd_replay)

    p_shrink = sub.add_parser("shrink", help="minimize one failing run")
    p_shrink.add_argument("--workload", required=True)
    p_shrink.add_argument("--seed", type=int, required=True)
    p_shrink.add_argument(
        "--intensity", default="default", choices=sorted(INTENSITIES)
    )
    p_shrink.add_argument("--out", default=None, help="write the shrunk seed file here")
    p_shrink.set_defaults(func=_cmd_shrink)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # Bad inputs (missing/empty/corrupt files) are user errors, not
        # engine bugs: one actionable line on stderr, exit 2, no traceback.
        sys.stderr.write("error: %s\n" % (exc,))
        return 2


if __name__ == "__main__":
    sys.exit(main())
