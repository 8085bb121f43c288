"""Failure shrinking: minimize a failing chaos schedule by delta debugging.

When a campaign run fails, its schedule may contain five faults and a
hostile link profile of which only one crash actually matters.  The
shrinker reduces the schedule to a locally minimal one that *still fails*,
so the checked-in repro (and the human reading it) deals with the smallest
adversary possible.

The algorithm is classic ddmin over the op list (Zeller & Hildebrandt,
"Simplifying and Isolating Failure-Inducing Input"): try dropping chunks
of ops, halving granularity when stuck, re-running the deterministic
engine as the test oracle.  Afterwards the link profile is minimized
field-by-field (drop it outright, else zero each rate).

Because every probe is a full deterministic simulation with the *same
seed*, "still fails" means "this smaller schedule reproduces a failure on
this seed" — the currency the seed corpus trades in.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.chaos.engine import RunResult, run_one
from repro.chaos.schedule import ChaosSchedule, FaultOp
from repro.net.faults import LinkFaultProfile

__all__ = ["shrink_schedule", "ShrinkReport"]


class ShrinkReport:
    """The outcome of a shrink: the minimal schedule plus bookkeeping."""

    def __init__(
        self,
        schedule: ChaosSchedule,
        result: RunResult,
        probes: int,
        removed_ops: int,
        link_simplified: bool,
    ) -> None:
        self.schedule = schedule
        self.result = result
        self.probes = probes
        self.removed_ops = removed_ops
        self.link_simplified = link_simplified

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schedule": self.schedule.to_dict(),
            "probes": self.probes,
            "removed_ops": self.removed_ops,
            "link_simplified": self.link_simplified,
            "problems": list(self.result.problems),
            "violations": list(self.result.violations),
        }


def _ddmin(
    ops: List[FaultOp], still_fails: Callable[[List[FaultOp]], bool]
) -> List[FaultOp]:
    """Minimize *ops* such that ``still_fails(ops)`` holds (assumes it
    holds for the input)."""
    granularity = 2
    while len(ops) >= 2:
        chunk = max(1, len(ops) // granularity)
        reduced = False
        start = 0
        while start < len(ops):
            candidate = ops[:start] + ops[start + chunk:]
            if candidate and still_fails(candidate):
                ops = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # Restart the sweep on the smaller list.
                start = 0
                continue
            start += chunk
        if not reduced:
            if granularity >= len(ops):
                break
            granularity = min(len(ops), granularity * 2)
    if len(ops) == 1 and still_fails([]):
        return []
    return ops


def shrink_schedule(
    workload: str,
    seed: int,
    schedule: ChaosSchedule,
    intensity: str = "default",
    progress: Optional[Callable[[str], None]] = None,
) -> ShrinkReport:
    """Shrink *schedule* to a locally minimal one that still fails.

    Raises ``ValueError`` if the input schedule does not fail — a shrink
    needs a reproducing starting point.
    """
    probes = [0]

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    def judge(candidate: ChaosSchedule) -> RunResult:
        probes[0] += 1
        return run_one(workload, seed, intensity=intensity, schedule=candidate)

    baseline = judge(schedule)
    if not baseline.failed:
        raise ValueError(
            "schedule does not fail on workload=%r seed=%d; nothing to shrink"
            % (workload, seed)
        )
    note("baseline fails with %d problem(s)" % len(baseline.problems))

    def ops_fail(ops: List[FaultOp]) -> bool:
        return judge(ChaosSchedule(ops=ops, link=schedule.link)).failed

    original_count = len(schedule.ops)
    ops = list(schedule.ops)
    if ops:
        ops = _ddmin(ops, ops_fail)
        note("ops: %d -> %d" % (original_count, len(ops)))

    # Link profile: drop it entirely if the failure survives, else try
    # zeroing each rate (a profile with one live rate reads much better).
    link = schedule.link
    link_simplified = False
    if link is not None:
        if judge(ChaosSchedule(ops=ops, link=None)).failed:
            link = None
            link_simplified = True
            note("link profile: dropped")
        else:
            fields = ("drop_rate", "dup_rate", "delay_rate", "reorder_rate")
            for field in fields:
                if getattr(link, field) == 0.0:
                    continue
                record = link.to_dict()
                record[field] = 0.0
                candidate = LinkFaultProfile.from_dict(record)
                if candidate.active and judge(
                    ChaosSchedule(ops=ops, link=candidate)
                ).failed:
                    link = candidate
                    link_simplified = True
                    note("link profile: %s zeroed" % field)

    minimal = ChaosSchedule(ops=ops, link=link)
    final = judge(minimal)
    if not final.failed:  # paranoia: never return a non-reproducing shrink
        minimal = schedule
        final = baseline
    return ShrinkReport(
        schedule=minimal,
        result=final,
        probes=probes[0],
        removed_ops=original_count - len(minimal.ops),
        link_simplified=link_simplified,
    )
