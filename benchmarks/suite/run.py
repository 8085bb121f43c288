"""Command line of the benchmark suite.

One workload, as the benchmark driver runs it (the last line printed is
the one-line JSON result)::

    python3 benchmarks/suite/run.py --workload stream_echo --seed 1 --seconds 6 --trace 0

The whole suite — every workload in a fresh subprocess, tracing off and
then the traced run, with a run the calibration spin marks noisy run
again::

    python3 benchmarks/suite/run.py [--seed N]

``python -m benchmarks.suite`` is the same program.  ``--seed`` is the
only input knob: sizes live in the registry, and there is no quick mode
and no second code path.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
#: A noisy run is repeated at most this many times before it is kept.
NOISY_RERUNS = 2


def bootstrap() -> None:
    """Make ``repro`` and ``benchmarks.suite`` importable from a checkout."""
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("benchmarks/suite needs the program under %s" % src)
    for path in (src, REPO_ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)


def children_of(pid: int):
    """The live or unreaped child processes of *pid*, read from ``/proc``."""
    found = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # it ended while we were looking
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Kill and reap every process this one started and has not waited
    for, so that none outlives it.  After a clean run that is only
    ``multiprocessing``'s resource tracker, which the spawn context of
    ``RtCluster`` starts and which otherwise ends *after* its parent; on
    an error path it may also be a worker."""
    for child in children_of(os.getpid()):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(child, 0)
        except ChildProcessError:
            pass


def on_sigterm(signum, frame) -> None:
    """Leave through ``SystemExit`` so that every ``finally`` runs."""
    sys.exit(128 + signum)


def run_once(name: str, seed: int, seconds: int, trace: int):
    """One workload run in a fresh process: its output, and its record
    (``None`` when it exited with an error)."""
    from benchmarks.suite import harness

    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__)]
        + ["--workload", name, "--seed", str(seed)]
        + ["--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        text=True,
    )
    if done.returncode != 0:
        return done.stdout + "%s (trace %d) exited with code %d\n" % (name, trace, done.returncode), None
    suffix = ".layers.json" if trace else ".run.json"
    with open(os.path.join(harness.RESULTS_DIR, name + suffix)) as handle:
        record = json.load(handle)
    record.pop("profile", None)
    return done.stdout, record


def run_suite(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    from benchmarks.suite import harness, registry

    report = {"seed": seed, "seconds": seconds, "runs": []}
    failed = False
    for row in registry.WORKLOADS:
        for trace in (0, 1):
            for attempt in range(1 + NOISY_RERUNS):
                output, record = run_once(row.name, seed, seconds, trace)
                if record is None or not record["noisy"] or attempt == NOISY_RERUNS:
                    break
                print("%s (trace %d) was noisy; running it again" % (row.name, trace))
            sys.stdout.write(output)
            if record is None:
                failed = True
                continue
            report["runs"].append(record)
            failed = failed or not record["line"]["correct"]
    with open(os.path.join(harness.RESULTS_DIR, "suite.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 1 if failed else 0


def main(argv=None) -> int:
    bootstrap()
    from benchmarks.suite import harness, registry

    parser = argparse.ArgumentParser(description="The benchmark suite (see README.md).")
    parser.add_argument("--workload", choices=[row.name for row in registry.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=registry.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        if args.workload is None:
            return run_suite(args.seed, args.seconds)
        record = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    harness.print_record(record)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
