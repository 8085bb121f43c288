"""The seed corpus: replayable JSON records of interesting campaign runs.

A seed file pins everything needed to re-execute one run bit-for-bit —
workload, seed, intensity, the exact (usually shrunk) schedule — plus the
verdict and digest the run produced when it was recorded.  Replaying
asserts the engine still reproduces that exact observable behaviour.
A record also keeps the run's final simulated time and its trace event
count per type, so a drifted replay names what moved (say,
``process.resumed: recorded 59, replay produced 45``) next to the digest:

* a corpus entry recorded as ``fail`` guards a *known bug* until it is
  fixed (then the entry is re-recorded as ``pass``, preserving the
  schedule as a regression test);
* an entry recorded as ``pass`` guards against *new* regressions — if a
  transport change breaks an invariant under that schedule, or merely
  changes observable behaviour (digest drift), replay flags it.

Files live under ``tests/chaos/seeds/`` and are replayed by the tier-1
suite on every push (``tests/chaos/test_replay_corpus.py``); replay them by
hand with ``python -m repro.chaos replay tests/chaos/seeds``.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from repro.chaos.engine import RunResult, run_one
from repro.chaos.schedule import ChaosSchedule

__all__ = [
    "SEED_FORMAT",
    "seed_record",
    "save_seed",
    "load_seed",
    "replay_seed",
    "corpus_paths",
]

SEED_FORMAT = 1


def seed_record(result: RunResult, note: str = "") -> Dict[str, Any]:
    """Build a corpus record from a finished run."""
    return {
        "format": SEED_FORMAT,
        "workload": result.workload,
        "seed": result.seed,
        "intensity": result.intensity,
        "schedule": result.schedule.to_dict(),
        "expect": {
            "verdict": result.verdict,
            "digest": result.digest(),
            "problems": list(result.problems),
            "violations": list(result.violations),
            "sim_time": round(result.sim_time, 6),
            "event_counts": dict(result.event_counts),
        },
        "note": note,
    }


def save_seed(record: Dict[str, Any], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_seed(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        record = json.load(handle)
    if record.get("format") != SEED_FORMAT:
        raise ValueError(
            "%s: unsupported seed format %r (this engine reads format %d)"
            % (path, record.get("format"), SEED_FORMAT)
        )
    for field in ("workload", "seed", "schedule", "expect"):
        if field not in record:
            raise ValueError("%s: seed record is missing %r" % (path, field))
    return record


def replay_seed(record: Dict[str, Any]) -> Tuple[bool, RunResult, List[str]]:
    """Re-run a corpus record; returns ``(ok, result, mismatches)``.

    *ok* means the replay reproduced the recorded verdict *and* digest —
    i.e. the run's observable behaviour is unchanged since recording.
    Each recorded figure that moved (the final simulated time, the trace
    event count of one type) is one more mismatch line naming it.
    """
    schedule = ChaosSchedule.from_dict(record["schedule"])
    result = run_one(
        record["workload"],
        int(record["seed"]),
        intensity=record.get("intensity", "default"),
        schedule=schedule,
    )
    expect = record["expect"]
    mismatches: List[str] = []
    if result.verdict != expect.get("verdict"):
        mismatches.append(
            "verdict: recorded %r, replay produced %r"
            % (expect.get("verdict"), result.verdict)
        )
    if result.digest() != expect.get("digest"):
        mismatches.append(
            "digest: recorded %s, replay produced %s"
            % (expect.get("digest"), result.digest())
        )
    sim_time = round(result.sim_time, 6)
    if "sim_time" in expect and sim_time != expect["sim_time"]:
        mismatches.append(
            "sim_time: recorded %r, replay produced %r" % (expect["sim_time"], sim_time)
        )
    recorded = expect.get("event_counts")
    if recorded is not None:
        produced = result.event_counts
        for etype in sorted(set(recorded) | set(produced)):
            if recorded.get(etype, 0) != produced.get(etype, 0):
                mismatches.append(
                    "%s: recorded %d, replay produced %d"
                    % (etype, recorded.get(etype, 0), produced.get(etype, 0))
                )
    return (not mismatches, result, mismatches)


def corpus_paths(root: str) -> List[str]:
    """All ``*.json`` seed files under *root* (a file is returned as-is)."""
    if os.path.isfile(root):
        return [root]
    paths: List[str] = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(".json"):
                paths.append(os.path.join(dirpath, filename))
    return sorted(paths)
