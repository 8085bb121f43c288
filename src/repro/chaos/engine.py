"""The campaign engine: build a world, unleash a schedule, judge the run.

One campaign run is fully determined by ``(workload, seed, intensity)`` —
or by ``(workload, seed, schedule)`` when replaying/shrinking a recorded
schedule.  The engine:

1. builds a fresh :class:`~repro.entities.system.ArgusSystem` seeded with
   the run's seed (all randomness — jitter, workload draws, fault plan,
   link chaos — flows through named :mod:`repro.sim.rng` streams derived
   from that one seed, so a run is bit-reproducible);
2. installs the online :class:`~repro.obs.monitor.MonitorSuite` in
   collection mode (``strict=False``: a campaign records violations and
   keeps going, so one run yields its full evidence);
3. generates (or adopts) a :class:`~repro.chaos.schedule.ChaosSchedule`
   and applies it;
4. drives the workload to completion under a hard simulated-time cap —
   the liveness oracle — then lets the world settle so breaks, restarts
   and server-side streams finish resolving;
5. runs the end-to-end oracle battery (:mod:`repro.chaos.oracles`) and
   folds everything into a :class:`RunResult` with a canonical digest.

The digest covers outcomes, oracle problems, monitor violations, final
simulated time and trace event count — byte-identical digests across runs
and platforms are the determinism guarantee the seed corpus leans on.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.schedule import ChaosSchedule
from repro.chaos.workloads import CHAOS_NETWORK, CHAOS_STREAM_CONFIG, create_workload
from repro.entities.system import ArgusSystem
from repro.obs.monitor import MonitorSuite

__all__ = ["RunResult", "run_one"]

#: Simulated-time slack past the workload horizon before liveness gives up:
#: generous enough for worst-case retransmission ladders, reincarnations
#: and fault windows that open late in the horizon.
HARD_CAP_SLACK = 140.0
HARD_CAP_FACTOR = 4.0


class RunResult:
    """Everything one campaign run produced, JSON-ready."""

    def __init__(
        self,
        workload: str,
        seed: int,
        intensity: str,
        schedule: ChaosSchedule,
        outcomes: List[Tuple[str, str, Any]],
        problems: List[str],
        violations: List[str],
        driver_finished: bool,
        sim_time: float,
        event_count: int,
        event_counts: Dict[str, int],
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.intensity = intensity
        self.schedule = schedule
        self.outcomes = outcomes
        self.problems = problems
        self.violations = violations
        self.driver_finished = driver_finished
        self.sim_time = sim_time
        self.event_count = event_count
        #: Trace events per type; they sum to ``event_count``.  Not in the
        #: digest: a corpus record keeps them to say *what* drifted.
        self.event_counts = event_counts

    @property
    def failed(self) -> bool:
        return bool(self.problems or self.violations)

    @property
    def verdict(self) -> str:
        return "fail" if self.failed else "pass"

    def digest(self) -> str:
        """A canonical sha256 over everything observable about the run."""
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "schedule": self.schedule.to_dict(),
            "outcomes": [list(outcome) for outcome in self.outcomes],
            "problems": list(self.problems),
            "violations": list(self.violations),
            "driver_finished": self.driver_finished,
            "sim_time": round(self.sim_time, 6),
            "event_count": self.event_count,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self) -> str:
        return "<RunResult %s seed=%d %s problems=%d violations=%d>" % (
            self.workload,
            self.seed,
            self.verdict,
            len(self.problems),
            len(self.violations),
        )


def run_one(
    workload_name: str,
    seed: int,
    intensity: str = "default",
    schedule: Optional[ChaosSchedule] = None,
    trace_path: Optional[str] = None,
) -> RunResult:
    """Execute one campaign run and judge it.

    With *schedule* given (replay/shrink), generation is skipped and the
    provided schedule is applied verbatim; otherwise a schedule is drawn
    from the seed's ``chaos.plan`` stream at *intensity*.  *trace_path*,
    if set, receives the full JSONL event trace (pass it for failing runs
    so CI can attach the evidence).
    """
    workload = create_workload(workload_name)
    system = ArgusSystem(
        seed=seed,
        tracing=True,
        stream_config=CHAOS_STREAM_CONFIG,
        **CHAOS_NETWORK
    )
    suite = MonitorSuite.install(system.tracer, strict=False)
    workload.build(system)
    if workload.client not in system.guardians:
        raise RuntimeError(
            "workload %r never built its client guardian %r"
            % (workload_name, workload.client)
        )
    if schedule is None:
        schedule = ChaosSchedule.generate(
            system.rng,
            nodes=workload.nodes(system),
            crashable=workload.crashable(system),
            horizon=workload.horizon,
            intensity=intensity,
        )
    schedule.apply(system.network, system.rng)
    client = system.guardian(workload.client)
    process = client.spawn(workload.driver, label="chaos-driver")
    hard_cap = workload.horizon * HARD_CAP_FACTOR + HARD_CAP_SLACK
    problems: List[str] = []
    try:
        system.run(until=hard_cap)
    except BaseException as exc:
        # An escaped exception (a driver bug, or a runtime process dying
        # undefused) aborts the simulation mid-flight; that is a campaign
        # finding, never an engine crash.
        problems.append(
            "driver: simulation aborted by %s: %s" % (type(exc).__name__, exc)
        )

    driver_finished = process.triggered
    outcomes: List[Tuple[str, str, Any]] = []
    if driver_finished and not problems:
        try:
            raw = process.value_or_raise()
        except BaseException as exc:  # a driver bug is a finding, not a crash
            problems.append(
                "driver: crashed with %s: %s" % (type(exc).__name__, exc)
            )
        else:
            outcomes = [tuple(outcome) for outcome in raw]

    from repro.chaos.oracles import run_oracles

    problems.extend(
        run_oracles(system, workload, outcomes, driver_finished, hard_cap)
    )
    violations = [str(violation) for violation in suite.violations]
    if trace_path is not None:
        system.tracer.export_jsonl(trace_path)
    return RunResult(
        workload=workload_name,
        seed=seed,
        intensity=intensity,
        schedule=schedule,
        outcomes=outcomes,
        problems=problems,
        violations=violations,
        driver_finished=driver_finished,
        sim_time=system.now,
        event_count=len(system.tracer.events),
        event_counts=dict(sorted(Counter(e.type for e in system.tracer.events).items())),
    )

