"""Reachability: the ``src`` function lines that only unit tests reach.

Runs two sets of programs, each step in its own interpreter under a
``sys.setprofile`` + ``threading.setprofile`` hook that records every
function entered:

* **tier-1**: ``pytest`` with the repository's default options;
* **entry points**: E1-E13 (``pytest benchmarks --ignore=benchmarks/suite``),
  the simulator conformance rows (``pytest tests/conformance``), the chaos
  corpus replay, a two-seed chaos campaign over every workload at default
  and at heavy intensity, every suite workload untraced (``--trace 0``),
  every ``examples/*.py``, and CI's trace CLI smoke: a Fig 3-1 trace
  exported by ``examples/grades_pipeline.py --trace DIR --chrome-trace
  FILE``, then ``python -m repro.obs summarize|spans|critical-path|chrome``
  on it.

A function counts whole once entered; its lines are the lines on which
its own bytecode starts a statement (nested functions count
separately).  Per package of ``src/repro`` the report gives the function
lines, the lines each set reaches, and the lines tier-1 reaches that no
entry point does.  Code
kept on purpose as a reference (:data:`EXEMPT`) is left out of the
figures and listed once.

Python processes a step starts (the rt backend's spawned workers, CLI
subprocesses) are profiled too: the step puts a directory holding a
``sitecustomize.py`` first on its children's ``PYTHONPATH``, and that
file installs the same hook in each of them, notes the child's start
and writes the functions it entered when the process exits.
:func:`collect` waits for every child that started to write them, and
merges those files with the step's own; a child that ends without
writing (one that was killed) fails the run, named.  The one child left
unprofiled is ``multiprocessing``'s resource tracker: it runs only the
standard library, and the suite's runner kills it.

Known gaps: a test that installs its own profiler (the suite's traced
self-tests use ``cProfile``) displaces the hook while it runs, and a
child started with an environment of its own does not load the file.

Usage (stdlib only; about five minutes on two cores)::

    PYTHONPATH=src python benchmarks/reach.py
"""

from __future__ import annotations

import argparse
import ast
import atexit
import dis
import glob
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from typing import Dict, Iterator, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: (file under ``src/repro``, top-level def or class) -> why it is exempt.
#: Everything defined inside it is exempt too.
EXEMPT = {
    ("encoding/xrep.py", "encode_value"): "tree-walking reference codec",
    ("encoding/xrep.py", "decode_value"): "tree-walking reference codec",
    ("obs/metrics.py", "Histogram"): "exact reference histogram",
}

#: Seconds each suite workload runs.
SECONDS = 1

#: Seconds :func:`collect` waits for a step's children to write their keys
#: once the step itself has exited.
CHILD_GRACE = 60

SUITE_WORKLOADS = (
    "stream_echo",
    "stream_records",
    "stream_lossy",
    "pipeline_cascade",
    "kv_open",
    "graph_kv",
    "rt_pipeline",
    "rt_rpc",
)

#: A function's identity, the same whether compiled here or entered at run
#: time: (path under ``src/repro``, first line, qualified name).
Key = Tuple[str, int, str]


#: Set in the environment of a step's child processes: the directory
#: each of them writes the keys it entered to, at exit.
WORKER_DIR = "REPRO_REACH_WORKER_DIR"

#: The ``sitecustomize.py`` a step puts first on its children's path.
SITECUSTOMIZE = """import os

if os.environ.get(%r):
    from benchmarks.reach import profile_worker

    profile_worker()
""" % WORKER_DIR


def steps(trace_dir: str) -> Dict[str, List[str]]:
    """Set name -> the steps it runs (see :func:`run_step`); the trace CLI
    smoke writes and reads its files under *trace_dir*."""
    trace = os.path.join(trace_dir, "fig31.trace.jsonl")
    entry = [
        "pytest:benchmarks --ignore=benchmarks/suite",
        "pytest:tests/conformance",
        "module:repro.chaos replay tests/chaos/seeds",
        "module:repro.chaos run --workload all --seeds 0:2",
        "module:repro.chaos run --workload all --seeds 0:2 --intensity heavy",
    ]
    entry += [
        "script:benchmarks/suite/run.py --workload %s --seed 1 --seconds %d --trace 0"
        % (name, SECONDS)
        for name in SUITE_WORKLOADS
    ]
    entry += [
        "script:" + os.path.relpath(path, ROOT)
        for path in sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    ]
    entry += [
        "script:examples/grades_pipeline.py --trace %s --chrome-trace %s"
        % (trace_dir, os.path.join(trace_dir, "fig31.chrome.json")),
        "module:repro.obs summarize " + trace,
        "module:repro.obs spans " + trace,
        "module:repro.obs critical-path " + trace,
        "module:repro.obs chrome %s -o %s" % (trace, os.path.join(trace_dir, "cli.chrome.json")),
    ]
    return {"tier-1": ["pytest:"], "entry points": entry}


# ----------------------------------------------------------------------
# One step, in a child interpreter
# ----------------------------------------------------------------------
def hook() -> Set[object]:
    """Install the profile hook in this interpreter; returns the set it
    fills with the code objects entered."""
    entered: Set[object] = set()
    add = entered.add

    def profile(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(profile)
    sys.setprofile(profile)
    return entered


def unhook(entered: Set[object]) -> Set[Key]:
    """Remove the hook; return the ``src`` functions among *entered*."""
    sys.setprofile(None)
    threading.setprofile(None)
    keys: Set[Key] = set()
    for code in entered:
        path = os.path.realpath(code.co_filename)
        if path.startswith(PACKAGE + os.sep):
            keys.add((os.path.relpath(path, PACKAGE), code.co_firstlineno, _name(code)))
    return keys


def profile_worker() -> None:
    """Profile this child process of a step until it exits (called from
    :data:`SITECUSTOMIZE`): ``worker-PID.started`` holds its command line
    from the start, ``worker-PID.json`` its keys from its exit on."""
    argv = " ".join(getattr(sys, "orig_argv", []))  # Python 3.10+
    if "multiprocessing.resource_tracker" in argv:
        return
    base = os.path.join(os.environ[WORKER_DIR], "worker-%d" % os.getpid())
    with open(base + ".started", "w") as handle:
        handle.write(argv)
    entered = hook()

    def dump() -> None:
        keys = unhook(entered)
        with open(base + ".tmp", "w") as handle:
            json.dump(sorted(keys), handle)
        os.replace(base + ".tmp", base + ".json")

    atexit.register(dump)


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def wait_for_children(step: str, worker_dir: str) -> None:
    """Return once every child of *step* that started has written its
    keys; exit naming those that ended without writing them, or that are
    still running :data:`CHILD_GRACE` seconds on."""
    deadline = time.monotonic() + CHILD_GRACE
    while True:
        waiting = {}  # worker-PID path stem -> PID
        for path in glob.glob(os.path.join(worker_dir, "worker-*.started")):
            base = path[: -len(".started")]
            if not os.path.exists(base + ".json"):
                waiting[base] = int(base.rpartition("-")[2])
        if not waiting:
            return
        lost = [
            base
            for base, pid in waiting.items()
            if not _running(pid) and not os.path.exists(base + ".json")
        ]
        if lost or time.monotonic() > deadline:
            named = []
            for base in lost or waiting:
                with open(base + ".started") as handle:
                    named.append("pid %d (%s)" % (waiting[base], handle.read()))
            why = "ended without writing its keys" if lost else (
                "still running %ds after the step" % CHILD_GRACE
            )
            raise SystemExit("step %r: child %s: %s" % (step, why, "; ".join(named)))
        time.sleep(0.05)


def run_step(step: str, worker_dir: str) -> Set[Key]:
    """Run *step* under the hook; return the ``src`` functions entered.

    ``pytest:ARGS`` runs pytest, ``module:NAME ARGS`` runs
    ``python -m NAME ARGS`` and ``script:PATH ARGS`` a script, both as
    ``__main__``.  Python processes it starts write their keys under
    *worker_dir*.
    """
    kind, _, rest = step.partition(":")
    argv = rest.split()
    site = os.path.join(worker_dir, "site")
    os.makedirs(site)
    with open(os.path.join(site, "sitecustomize.py"), "w") as handle:
        handle.write(SITECUSTOMIZE)
    os.environ[WORKER_DIR] = worker_dir
    os.environ["PYTHONPATH"] = os.pathsep.join([site, os.environ.get("PYTHONPATH", "")])
    entered = hook()
    try:
        if kind == "pytest":
            import pytest

            pytest.main(["-q", "-p", "no:cacheprovider"] + argv)
        elif kind == "module":
            sys.argv = argv
            runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            runpy.run_path(os.path.join(ROOT, argv[0]), run_name="__main__")
    except SystemExit:
        pass
    finally:
        keys = unhook(entered)
    return keys


def collect(step: str) -> Set[Key]:
    """Run one step in a fresh interpreter and read back its keys, and
    those of every process it started."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "keys.json")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, ROOT]))
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--step", step, "--out", out],
            cwd=ROOT,
            env=env,
            stdout=subprocess.DEVNULL,
            check=False,
        )
        if not os.path.exists(out):
            raise SystemExit("step %r wrote no result" % step)
        wait_for_children(step, tmp)
        keys: Set[Key] = set()
        for path in [out] + glob.glob(os.path.join(tmp, "worker-*.json")):
            with open(path) as handle:
                keys |= {tuple(key) for key in json.load(handle)}
        return keys


# ----------------------------------------------------------------------
# Function lines of the source tree
# ----------------------------------------------------------------------
def _name(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # qualified from 3.11


def _functions(code) -> Iterator[object]:
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            if const.co_flags & 0x1:  # CO_OPTIMIZED: a function, not a class body
                yield const
            yield from _functions(const)


def function_lines() -> Dict[Key, Set[Tuple[str, int]]]:
    """Every function under ``src/repro`` -> the (file, line)s it covers."""
    table: Dict[Key, Set[Tuple[str, int]]] = {}
    for path in sorted(glob.glob(os.path.join(PACKAGE, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, PACKAGE)
        with open(path) as handle:
            module = compile(handle.read(), path, "exec")
        for code in _functions(module):
            lines = {(rel, line) for _, line in dis.findlinestarts(code) if line is not None}
            table[(rel, code.co_firstlineno, _name(code))] = lines
    return table


def exempt_spans() -> Dict[str, List[Tuple[int, int]]]:
    """File -> the line spans of the :data:`EXEMPT` definitions, read with
    ``ast`` so that they do not depend on how the Python version names
    code objects."""
    spans: Dict[str, List[Tuple[int, int]]] = defaultdict(list)
    for rel, name in EXEMPT:
        with open(os.path.join(PACKAGE, rel)) as handle:
            tree = ast.parse(handle.read())
        nodes = [
            node
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if len(nodes) != 1:
            raise SystemExit("exempt %s in src/repro/%s: %d definitions" % (name, rel, len(nodes)))
        node = nodes[0]
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        spans[rel].append((first, node.end_lineno))
    return spans


def package_of(rel: str) -> str:
    head = rel.split(os.sep)[0]
    return "repro" if head.endswith(".py") else head


def report(reached: Dict[str, Set[Key]]) -> Dict[str, Dict[str, int]]:
    """Per package: function lines, lines each set reaches, tier-1 only."""
    table = function_lines()
    spans = exempt_spans()
    lines_of = {name: set() for name in reached}
    everything: Set[Tuple[str, int]] = set()
    for key, lines in table.items():
        if any(first <= key[1] <= last for first, last in spans.get(key[0], ())):
            continue
        everything |= lines
        for name, keys in reached.items():
            if key in keys:
                lines_of[name] |= lines
    rows: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
    only = lines_of["tier-1"] - lines_of["entry points"]
    for rel, line in everything:
        row = rows[package_of(rel)]
        row["function lines"] += 1
        for name, lines in lines_of.items():
            row[name] += (rel, line) in lines
        row["tier-1 only"] += (rel, line) in only
    total: Dict[str, int] = defaultdict(int)
    for row in rows.values():
        for column, value in row.items():
            total[column] += value
    out = {package: dict(rows[package]) for package in sorted(rows)}
    out["total"] = dict(total)
    return out


def print_report(rows: Dict[str, Dict[str, int]]) -> None:
    columns = ["function lines", "tier-1", "entry points", "tier-1 only"]
    print("%-14s" % "package" + "".join("%16s" % c for c in columns))
    for package, row in rows.items():
        print("%-14s" % package + "".join("%16d" % row.get(c, 0) for c in columns))
    print("\nexempt (reference code on purpose):")
    for (rel, name), why in sorted(EXEMPT.items()):
        print("  src/repro/%s %s — %s" % (rel, name, why))


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description="Reachability of src function lines.")
    parser.add_argument("--step", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.step:
        keys = run_step(args.step, os.path.dirname(args.out))
        with open(args.out, "w") as handle:
            json.dump(sorted(keys), handle)
        return 0
    reached: Dict[str, Set[Key]] = {}
    with tempfile.TemporaryDirectory() as trace_dir:
        for name, names in steps(trace_dir).items():
            reached[name] = set()
            for step in names:
                print("[%s] %s" % (name, step), file=sys.stderr, flush=True)
                reached[name] |= collect(step)
    print_report(report(reached))
    return 0


if __name__ == "__main__":
    sys.exit(main())
