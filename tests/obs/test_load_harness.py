"""The open-loop load harness: traffic models, drivers, stepped search.

Runs are scaled far down from the benchmark profiles (a few thousand
agents, a couple of simulated seconds) — these tests pin behavior
(accounting identities, determinism, constant-memory telemetry, the
sustained/collapse verdicts), not absolute performance.
"""

import json
import random

import pytest

from benchmarks.load.arrivals import (
    ParetoArrivals,
    PoissonArrivals,
    ZipfSampler,
    make_arrivals,
)
from benchmarks.load.harness import (
    LOAD_WORKLOADS,
    LoadConfig,
    run_load,
    stepped_search,
)


# ----------------------------------------------------------------------
# Traffic models
# ----------------------------------------------------------------------
def test_poisson_gap_mean_matches_rate():
    rng = random.Random(1)
    arrivals = PoissonArrivals(50.0)
    gaps = [arrivals.gap(rng) for _ in range(20_000)]
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 50.0, rel=0.05)


def test_pareto_gap_mean_matches_rate_with_heavier_tail():
    rng = random.Random(2)
    arrivals = ParetoArrivals(50.0, alpha=2.5)
    gaps = [arrivals.gap(rng) for _ in range(200_000)]
    assert sum(gaps) / len(gaps) == pytest.approx(1 / 50.0, rel=0.1)
    poisson_gaps = [PoissonArrivals(50.0).gap(rng) for _ in range(200_000)]
    assert max(gaps) > max(poisson_gaps)


def test_arrival_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)
    with pytest.raises(ValueError):
        ParetoArrivals(10.0, alpha=1.0)
    with pytest.raises(ValueError):
        make_arrivals("uniform", 10.0)
    assert make_arrivals("pareto", 10.0).name == "pareto"


def test_zipf_sampler_range_and_skew():
    rng = random.Random(3)
    sampler = ZipfSampler(1000, s=1.1)
    counts = [0] * 1000
    for _ in range(30_000):
        rank = sampler.sample(rng)
        assert 0 <= rank < 1000
        counts[rank] += 1
    # Rank 0 is the hottest; the top decile dwarfs the bottom decile.
    assert counts[0] == max(counts)
    assert sum(counts[:100]) > 10 * sum(counts[900:])


def test_zipf_sampler_covers_small_population():
    rng = random.Random(4)
    sampler = ZipfSampler(3, s=0.5)
    seen = {sampler.sample(rng) for _ in range(500)}
    assert seen == {0, 1, 2}


def test_zipf_sampler_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0)
    with pytest.raises(ValueError):
        ZipfSampler(10, s=-0.5)


# ----------------------------------------------------------------------
# One load step
# ----------------------------------------------------------------------
def small_config(**overrides):
    defaults = dict(
        workload="echo",
        n_agents=2_000,
        n_clients=2,
        n_servers=2,
        rate=150.0,
        duration=2.0,
        window=0.5,
        churn_rate=0.05,
        seed=11,
    )
    defaults.update(overrides)
    return LoadConfig(**defaults)


def test_accounting_identity_after_drain():
    result = run_load(small_config())
    assert result["issued"] > 0
    assert result["drained"]
    assert result["inflight_end"] == 0
    assert result["completed"] + result["errors"] == result["issued"]
    assert result["latency"]["count"] == result["issued"]
    assert result["errors"] == 0


def test_run_is_deterministic_for_a_seed():
    first = run_load(small_config())
    second = run_load(small_config())
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    different = run_load(small_config(seed=12))
    assert different["issued"] != first["issued"]


def test_windows_carry_the_top_view_columns():
    result = run_load(small_config())
    assert result["windows"], "expected at least one telemetry window"
    row = result["windows"][0]
    for column in (
        "t0",
        "t1",
        "load.issued_rate",
        "load.completed_rate",
        "load.latency_p50",
        "load.latency_p999",
        "load.inflight_last",
    ):
        assert column in row
    assert result["dropped_windows"] == 0


def test_telemetry_is_constant_memory():
    # The only latency record is the streaming histogram: sparse buckets,
    # not raw samples.
    result = run_load(small_config())
    buckets = result["latency_hist"]["buckets"]
    assert len(buckets) < 500
    assert sum(buckets.values()) + result["latency_hist"]["zero_count"] == (
        result["issued"]
    )


def test_churn_produces_reconnects():
    result = run_load(small_config(n_agents=200, churn_rate=0.5))
    assert result["churn"] > 0
    assert result["reconnects"] > 0


def test_all_workloads_run():
    for name in sorted(LOAD_WORKLOADS):
        result = run_load(small_config(workload=name, rate=80.0))
        assert result["completed"] > 0, name
        assert result["sustained"], name


def test_pareto_arrivals_drive_the_harness():
    result = run_load(small_config(arrival_process="pareto"))
    assert result["completed"] > 0


def test_unknown_workload_rejected():
    with pytest.raises(ValueError):
        run_load(small_config(workload="nope"))


def test_latency_guard_marks_step_unsustained():
    config = small_config(latency_guard={"p50": 1e-9})
    result = run_load(config)
    assert not result["latency_guard_ok"]
    assert not result["sustained"]
    # Throughput itself was fine; only the guard failed.
    assert result["drained"] and result["errors"] == 0


def test_result_is_json_serializable():
    json.dumps(run_load(small_config()))


# ----------------------------------------------------------------------
# Stepped-rate search
# ----------------------------------------------------------------------
def test_stepped_search_exhausted_ladder():
    entry, steps = stepped_search(small_config(), [60.0, 120.0])
    assert len(steps) == 2
    assert all(step["sustained"] for step in steps)
    assert entry["ladder_exhausted"]
    assert entry["max_sustainable_throughput"] == steps[-1]["achieved_rate"]
    assert entry["offered_rate"] == 120.0
    assert entry["windows"]


def test_stepped_search_stops_at_collapse():
    # A starved NIC (30 KB/s) serves the first rung but collapses far
    # below the second, so the search must stop there and keep the first
    # rung as the reference.  The third rung must never run.
    config = small_config(bandwidth=30_000.0)
    entry, steps = stepped_search(config, [60.0, 1200.0, 120.0])
    assert len(steps) == 2
    assert steps[0]["sustained"] and not steps[1]["sustained"]
    assert not entry["ladder_exhausted"]
    assert entry["max_sustainable_throughput"] == steps[0]["achieved_rate"]


def test_stepped_search_nothing_sustained_reports_first_step():
    config = small_config(latency_guard={"p50": 1e-9})
    entry, steps = stepped_search(config, [60.0, 120.0])
    assert len(steps) == 1
    assert entry["max_sustainable_throughput"] is None
    assert entry["offered_rate"] == 60.0


def test_stepped_search_rejects_empty_ladder():
    with pytest.raises(ValueError):
        stepped_search(small_config(), [])


# ----------------------------------------------------------------------
# The CLI's exit code (what the CI ``benchmarks`` job gates on)
# ----------------------------------------------------------------------
def test_run_load_cli_exits_nonzero_on_slo_breach(tmp_path, monkeypatch):
    from benchmarks.load import run_load as cli

    tiny = {
        "n_agents": 2_000,
        "duration": 2.0,
        "churn_rate": 0.05,
        "ladders": {"echo": [150.0]},
    }
    monkeypatch.setitem(cli.PROFILES, "quick", tiny)

    def run(spec):
        slo, out = tmp_path / "slo.json", tmp_path / "load.json"
        slo.write_text(json.dumps(spec))
        code = cli.main(
            ["--quick", "--workloads", "echo", "--slo", str(slo), "-o", str(out)]
        )
        return code, json.loads(out.read_text())

    code, report = run({"echo": {"throughput_floor": 1.0}})
    assert code == 0 and report["slo"]["ok"]
    assert report["mode"] == "quick"
    code, report = run({"echo": {"throughput_floor": 1e9}})
    assert code == 1 and not report["slo"]["ok"]
