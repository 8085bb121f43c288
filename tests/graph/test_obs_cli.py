"""``python -m repro.obs critical-path`` per-shard graph breakdown, e2e.

Runs a real sharded graph with tracing on, exports the JSONL trace, and
drives the CLI through :func:`repro.obs.__main__.main` exactly as the
shell entry point would — pinning the per-shard table that PR 10 adds
and that non-graph traces must not grow.
"""

import pytest

from repro.graph import GraphBuilder
from repro.obs.__main__ import main

from ..conftest import run_client
from .helpers import build_graph_system


@pytest.fixture(scope="module")
def graph_trace(tmp_path_factory):
    system, runtime = build_graph_system(tracing=True)
    router = runtime.router
    static_key = 1
    value = next(
        v
        for v in range(1, 50)
        if router.shard_index(v) != router.shard_index(static_key)
    )

    def main_proc(ctx):
        g = GraphBuilder()
        a = g.source("t.add", captures=("alpha", 2), sched_key=1).emit("a")
        b = a.then("t.scale", captures=(3,), sched_key=2).emit("b")
        c = g.source("t.add", captures=("beta", 5), sched_key=3).emit("c")
        g.collect("t.sum", inputs=[b, c], sched_key=4).emit("sum")
        # One migrating chain so the migrated column is non-zero.
        g.source("t.add", captures=("m", value), sched_key=static_key).then(
            "t.mark"
        ).emit("marked")
        promises = runtime.submit(ctx, g)
        yield ctx.sleep(40.0)
        assert all(p.ready() for p in promises.values())
        return None

    run_client(system, main_proc)
    path = tmp_path_factory.mktemp("trace") / "graph.jsonl"
    system.export_trace(str(path))
    return str(path)


def test_critical_path_shows_per_shard_table(graph_trace, capsys):
    main(["critical-path", graph_trace])
    out = capsys.readouterr().out
    assert "graph shards (routine executions grouped by shard):" in out
    shard_rows = [
        line
        for line in out.splitlines()
        if line.split() and line.split()[0].startswith("shard") and line.split()[0] != "shard"
    ]
    # Shards only appear once they execute routines or ship frames; at
    # least two must show up for this cross-shard DAG.
    assert len(shard_rows) >= 2
    header = next(
        line for line in out.splitlines() if "routines" in line and "migrated" in line
    )
    for column in ("routines", "migrated", "busy", "frames", "units"):
        assert column in header
    routines = migrated = 0
    for row in shard_rows:
        parts = row.split()
        routines += int(parts[1])
        migrated += int(parts[2])
    assert routines == 6  # every DAG node ran exactly once
    assert migrated == 1  # t.mark moved to its value's owner


def test_non_graph_trace_has_no_shard_table(tmp_path, capsys):
    # A trace from a world that never touched repro.graph must render
    # exactly as before PR 10: no graph shards section.
    from ..obs.test_wire_regression import run_grades_fig31

    system = run_grades_fig31(5)
    path = tmp_path / "fig31.jsonl"
    system.export_trace(str(path))
    assert main(["critical-path", str(path)]) == 0
    out = capsys.readouterr().out
    assert "graph shards" not in out
    assert "slowest call:" in out
