"""Self-tests of the benchmark suite (not part of tier-1).

Run with ``python -m pytest benchmarks/suite/tests -q`` from the repo root.
"""

from __future__ import annotations

import cProfile
import json
import os
import re

import pytest

from benchmarks.suite import harness, layers, registry, run

SUITE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
NAMES = [row.name for row in registry.WORKLOADS]
SIM_NAMES = [row.name for row in registry.WORKLOADS if row.backend == "sim"]


@pytest.fixture(scope="session", autouse=True)
def no_process_left_behind():
    """The rt rows start ``multiprocessing``'s resource tracker."""
    yield
    run.stop_children()
    assert run.children_of(os.getpid()) == []


def small(name: str, **shape):
    """The workload at 1/50 of its size."""
    row = registry.workload(name)
    return row.resized(max(row.size // 50, 8), **shape)


@pytest.mark.parametrize("name", NAMES)
def test_small_workload_passes_its_check(name):
    observation = harness.repeat(small(name), seed=3)
    assert observation["ops"] > 0
    assert observation["failed"] == 0
    figures = dict(observation, **harness.sim_time([observation["sim"]]))
    for metric in registry.end_to_end():
        if metric.name not in ("sim_sustained_rate", "peak_rss_mb"):
            assert figures[metric.name] > 0, metric.name


def sim_time(spec, seed):
    return harness.sim_time([harness.repeat(spec, seed)["sim"]])


@pytest.mark.parametrize("name", NAMES)
def test_sim_time_metrics_repeat_per_seed_and_move_with_it(name):
    spec = small(name)
    if spec.twin is not None:
        spec = spec.twinned()
    first = sim_time(spec, 5)
    assert first == sim_time(spec, 5)
    assert first != sim_time(spec, 6)


def test_kv_ladder_is_exact_per_seed():
    spec = small("kv_open", ladder_seconds=0.2)
    rate = spec.ladder(spec, 5)
    assert rate == spec.ladder(spec, 5)
    assert rate in (0.0,) + tuple(spec.shape["ladder"])


@pytest.mark.parametrize("name", ["stream_echo", "kv_open", "pipeline_cascade", "graph_kv"])
def test_wait_shares_sum_to_one(name):
    observation = harness.repeat(small(name), seed=3, tracing=True, inspect=harness.traced_world)
    figures = observation["inspected"]["figures"]
    shares = [figures["%s.wait_%s_share" % (owner, phase)] for phase, owner in registry.WAIT_PHASES]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert set(figures) <= {metric.name for metric in registry.per_layer()}


@pytest.mark.parametrize("name", ["stream_echo", "graph_kv"])
def test_layer_self_times_add_up_to_the_profile(name):
    profile = cProfile.Profile()
    observation = harness.repeat(small(name), seed=3, profile=profile)
    folded = layers.fold_profile(profile.getstats(), observation["ops"])
    in_layers = sum(folded["self_us_per_op"][layer] for layer in registry.LAYERS)
    assert in_layers == pytest.approx(folded["total_us_per_op"], rel=0.01)
    assert folded["entries_per_op"]["streams" if name == "stream_echo" else "graph"] > 0


def test_injected_handler_fault_is_counted_not_raised():
    spec = small("stream_echo", fail_every=7)
    observation = harness.repeat(spec, seed=3)
    assert 0 < observation["failed"] < observation["ops"]
    assert observation["failed"] == pytest.approx(observation["ops"] / 7, abs=2)


def test_one_line_result_has_every_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(registry, "WORKLOADS", tuple(small(name) for name in NAMES))
    for trace, table in ((False, registry.end_to_end()), (True, registry.per_layer())):
        record = harness.run_workload("stream_lossy", seed=2, seconds=0, trace=trace)
        line = record["line"]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["attempted"] >= 1 and line["failed"] == 0
        assert list(line["metrics"]) == [metric.name for metric in table]
        for metric in table:
            assert line["metrics"][metric.name]["unit"] == metric.unit
    assert record["line"]["metrics"]["streams.retransmit_share"]["value"] > 0
    layers_file = json.load(open(os.path.join(str(tmp_path), "stream_lossy.layers.json")))
    assert set(layers_file["profile"]["self_us_per_op"]) == set(registry.LAYERS) | {"other"}
    assert os.path.getsize(os.path.join(str(tmp_path), "stream_lossy.spans.jsonl")) > 0


# ----------------------------------------------------------------------
# The tables, BENCHMARK.json and the README agree
# ----------------------------------------------------------------------
def test_benchmark_json_is_what_the_tables_say():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        committed = json.load(handle)
    assert committed == registry.benchmark_json()


def test_names_units_and_counts_are_inside_the_contract():
    doc = registry.benchmark_json()
    names = NAMES + [metric.name for metric in registry.METRICS]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in registry.METRICS:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric.unit), metric
        assert metric.better in ("lower", "higher")
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    for row in doc["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    bounds = {row["name"]: row["bound"] for row in doc["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) < 64 * 1024


def test_percentiles_have_ten_samples_beyond_them():
    """p99 needs 1000 latency samples a repeat, p90 (rt) needs 100."""
    for row in registry.WORKLOADS:
        if row.name == "graph_kv":  # one sample per emit tag
            samples = row.shape["rounds"] * row.size // row.shape["fan_in"]
        else:
            samples = row.size
        assert samples >= 1000, row.name


def test_readme_names_every_workload_and_metric():
    with open(os.path.join(SUITE_DIR, "README.md")) as handle:
        readme = handle.read()
    for name in NAMES + [metric.name for metric in registry.end_to_end()]:
        assert "`%s`" % name in readme, name
    for metric in registry.per_layer():
        layer, _, rest = metric.name.partition(".")
        assert "`%s`" % metric.name in readme or ("`<L>.%s`" % rest in readme), metric.name


def suite_sources():
    for name in sorted(os.listdir(SUITE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(SUITE_DIR, name)) as handle:
                yield name, handle.read()


def test_suite_uses_only_public_surviving_api():
    for name, source in suite_sources():
        for line in source.splitlines():
            if line.lstrip().startswith(("import ", "from ")):
                assert "benchmarks.perf" not in line and "benchmarks.load" not in line, (name, line)
        code = "\n".join(line.split("#", 1)[0] for line in source.splitlines())
        assert not re.search(r"legacy", code, re.I), name
        for flag in ("selective_retransmit", "adaptive_batching", "adaptive_rto"):
            assert flag not in code, (name, flag)
        for word in ("encode_value", "decode_value"):
            assert word not in code, (name, word)
        # No attribute of anything but ``self`` may start with one underscore.
        private = re.findall(r"\b(?!self\b)\w+\._[a-z]\w*", code)
        assert not private, (name, private)
