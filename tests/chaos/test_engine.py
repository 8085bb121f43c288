"""The campaign engine: determinism, verdicts, and oracle sensitivity."""

import pytest

from repro.chaos.engine import run_one
from repro.chaos.schedule import ChaosSchedule, FaultOp
from repro.chaos.workloads import WORKLOADS, KvWorkload, create_workload


def test_roster_contains_the_seven_workloads():
    assert set(WORKLOADS) == {
        "echo", "pipeline", "bulkload", "kv", "echo_vat", "kv_vat", "kv_graph",
    }
    with pytest.raises(KeyError):
        create_workload("nope")


def test_benign_schedule_passes_each_workload():
    for name in sorted(WORKLOADS):
        result = run_one(name, seed=0, schedule=ChaosSchedule())
        assert result.verdict == "pass", (name, result.problems, result.violations)
        assert result.driver_finished
        # Fault-free: every outcome is ok with the expected value.
        assert all(tag == "ok" for _, tag, _ in result.outcomes)


def test_run_is_bit_deterministic():
    a = run_one("kv", seed=11)
    b = run_one("kv", seed=11)
    assert a.digest() == b.digest()
    assert a.outcomes == b.outcomes
    assert a.schedule == b.schedule
    assert run_one("kv", seed=12).digest() != a.digest()


def test_faulty_runs_still_pass_oracles():
    """A hostile schedule may degrade outcomes to unavailable/failure but
    must never break an invariant."""
    result = run_one(
        "echo",
        seed=0,
        schedule=ChaosSchedule(
            ops=[FaultOp("crash", ["node:server"], 3.0, 12.0)]
        ),
    )
    assert result.driver_finished
    assert result.verdict == "pass", (result.problems, result.violations)
    tags = {tag for _, tag, _ in result.outcomes}
    assert "unavailable" in tags  # the crash was actually felt


def test_outcome_oracle_flags_wrong_values():
    class LyingKv(KvWorkload):
        def expected(self):
            return {key: value + 1 for key, value in super().expected().items()}

        def check_outcomes(self, outcomes):
            # Use only the base tag/value check so the lie is visible.
            from repro.chaos.workloads import Workload

            return Workload.check_outcomes(self, outcomes)

    import repro.chaos.engine as engine_module

    original = dict(WORKLOADS)
    WORKLOADS["lying-kv"] = LyingKv
    LyingKv.name = "lying-kv"
    try:
        result = engine_module.run_one("lying-kv", seed=0, schedule=ChaosSchedule())
        assert result.failed
        assert any("fault-free value" in problem for problem in result.problems)
    finally:
        WORKLOADS.clear()
        WORKLOADS.update(original)


def test_liveness_oracle_flags_wedged_driver():
    class WedgedEcho(WORKLOADS["echo"]):
        def driver(self, ctx):
            while True:  # never finishes: the liveness oracle must fire
                yield ctx.sleep(50.0)

    original = dict(WORKLOADS)
    WedgedEcho.name = "wedged-echo"
    WORKLOADS["wedged-echo"] = WedgedEcho
    try:
        result = run_one("wedged-echo", seed=0, schedule=ChaosSchedule())
        assert result.failed
        assert not result.driver_finished
        assert any(problem.startswith("liveness:") for problem in result.problems)
    finally:
        WORKLOADS.clear()
        WORKLOADS.update(original)


def test_driver_crash_is_a_finding_not_an_engine_error():
    class CrashingEcho(WORKLOADS["echo"]):
        def driver(self, ctx):
            yield ctx.sleep(1.0)
            raise RuntimeError("driver bug")

    original = dict(WORKLOADS)
    CrashingEcho.name = "crashing-echo"
    WORKLOADS["crashing-echo"] = CrashingEcho
    try:
        result = run_one("crashing-echo", seed=0, schedule=ChaosSchedule())
        assert result.failed
        assert any(problem.startswith("driver:") for problem in result.problems)
    finally:
        WORKLOADS.clear()
        WORKLOADS.update(original)


def test_kv_ledger_oracle_decodes_duplicates():
    """The base-4 ledger flags a double-executed add even when every tag
    looks healthy."""
    workload = create_workload("kv")
    outcomes = [("add:key0:r0", "ok", 1), ("get:key0", "ok", 2)]  # digit0 == 2
    problems = workload.check_outcomes(outcomes)
    assert any("duplicated" in problem for problem in problems)
    # A clean ledger with digit0 == 1 passes.
    assert not workload.check_outcomes([("add:key0:r0", "ok", 1), ("get:key0", "ok", 1)])
    # An ok add whose bit is missing is a lost write.
    problems = workload.check_outcomes([("add:key0:r0", "ok", 1), ("get:key0", "ok", 4)])
    assert any("lost add" in problem for problem in problems)


def test_trace_export_on_demand(tmp_path):
    trace_path = tmp_path / "run.trace.jsonl"
    result = run_one("echo", seed=0, trace_path=str(trace_path))
    assert trace_path.exists()
    assert result.event_count > 0
    with open(trace_path) as handle:
        assert sum(1 for _ in handle) == result.event_count
