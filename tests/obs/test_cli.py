"""The ``python -m repro.obs`` trace-analysis CLI, end to end.

Each test exports a real Figure 3-1 trace to disk and drives a CLI
subcommand through :func:`repro.obs.__main__.main` exactly as the shell
entry point would, asserting on the printed output — so the JSONL
round-trip, the offline metric replay, and the span pipeline are all
exercised through the user-facing surface.
"""

import json

import pytest

from repro.obs.__main__ import main
from repro.obs.spans import PHASES

from .test_wire_regression import FIG31_WIRE_MESSAGES, run_grades_fig31


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    system = run_grades_fig31(20)
    path = tmp_path_factory.mktemp("trace") / "fig31.jsonl"
    system.export_trace(str(path))
    return str(path)


def test_summarize_matches_live_summary(trace_path, capsys):
    assert main(["summarize", trace_path]) == 0
    report = json.loads(capsys.readouterr().out)
    derived = report["derived"]
    assert derived["stream_calls"] == 40
    assert derived["wire_messages"] == FIG31_WIRE_MESSAGES[20]
    assert derived["promises_outstanding"] == 0
    assert report["event_count"] > 0


def test_spans_prints_the_forest(trace_path, capsys):
    assert main(["spans", trace_path]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 40  # Fig 3-1 calls are all roots (client loop)
    assert all("e2e=" in line for line in lines)
    assert any("record_grade" in line for line in lines)
    assert any("print" in line for line in lines)


def test_critical_path_breakdown_sums_to_total(trace_path, capsys):
    assert main(["critical-path", trace_path]) == 0
    out = capsys.readouterr().out
    assert "calls: 40 (40 complete)" in out
    total = float(out.split("end-to-end total: ")[1].split()[0])
    phase_sum = 0.0
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] in PHASES:
            phase_sum += float(parts[1])
    # The printed per-phase breakdown sums to the printed end-to-end total
    # (within the 3-decimal print precision).
    assert abs(phase_sum - total) < 1e-2
    assert "slowest call:" in out


def test_critical_path_per_call(trace_path, capsys):
    assert main(["critical-path", trace_path, "--per-call"]) == 0
    out = capsys.readouterr().out
    assert out.count("e2e=") >= 40
    assert "executing" in out


def test_chrome_writes_valid_trace_event_json(trace_path, tmp_path, capsys):
    output = tmp_path / "out.chrome.json"
    assert main(["chrome", trace_path, "-o", str(output)]) == 0
    assert "wrote" in capsys.readouterr().out
    document = json.loads(output.read_text())
    assert document["displayTimeUnit"] == "ms"
    phases = {entry["ph"] for entry in document["traceEvents"]}
    assert phases == {"X", "M"}


def test_spans_on_empty_trace_reports_and_fails(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["spans", str(empty)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "no events" in err


@pytest.mark.parametrize(
    "command, line, reason",
    [
        ("summarize", '{"a": 1}', "need an object with 't' and 'type'"),
        ("spans", "[1, 2]", "need an object with 't' and 'type'"),
        ("critical-path", '{"t": 1.0}', "need an object with 't' and 'type'"),
        ("chrome", "{not json", "invalid JSON"),
    ],
)
def test_malformed_trace_reports_and_fails(tmp_path, capsys, command, line, reason):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"t": 0.0, "type": "trace_meta"}\n\n' + line + "\n")
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: %s:3: " % (bad,))
    assert reason in err
    assert len(err.splitlines()) == 1


# ----------------------------------------------------------------------
# Truncated traces (ring-buffered tracer)
# ----------------------------------------------------------------------
def test_summarize_warns_when_trace_was_truncated(tmp_path, capsys):
    from repro.obs.trace import Tracer

    from repro.entities.system import ArgusSystem
    from repro.types.signatures import INT, HandlerType

    system = ArgusSystem(latency=1.0, kernel_overhead=0.1)
    tracer = Tracer.install(system.env, max_events=10)
    server = system.create_guardian("server")

    def echo(ctx, x):
        yield ctx.compute(0.01)
        return x

    server.create_handler("echo", HandlerType(args=[INT], returns=[INT]), echo)
    client = system.create_guardian("client")

    def driver(ctx):
        handle = ctx.lookup("server", "echo")
        for i in range(10):
            yield handle.call(i)
        return None

    system.run(until=client.spawn(driver))
    assert tracer.dropped_events > 0
    path = tmp_path / "truncated.jsonl"
    system.export_trace(str(path))

    assert main(["summarize", str(path)]) == 0
    captured = capsys.readouterr()
    assert "TRUNCATED" in captured.err
    report = json.loads(captured.out)
    assert report["dropped_events"] == tracer.dropped_events
    # The meta record itself is not an analyzed event.
    assert report["event_count"] == 10


def test_summarize_complete_trace_has_no_warning(trace_path, capsys):
    assert main(["summarize", trace_path]) == 0
    captured = capsys.readouterr()
    assert "TRUNCATED" not in captured.err
    assert json.loads(captured.out)["dropped_events"] == 0


def test_critical_path_prints_p999(trace_path, capsys):
    assert main(["critical-path", trace_path]) == 0
    out = capsys.readouterr().out
    assert "end-to-end percentiles:" in out
    assert "p999=" in out
