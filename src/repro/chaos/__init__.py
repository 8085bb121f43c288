"""repro.chaos — the deterministic fault-campaign engine.

A campaign run is a pure function of ``(workload, seed, intensity)``:
generate a randomized :class:`~repro.chaos.schedule.ChaosSchedule` of
crashes, recoveries, partitions and link-level drop/delay/dup/reorder
chaos; unleash it on a workload with a checkable fault-free answer; judge
the run with online transport monitors plus end-to-end oracles; on
failure, shrink the schedule with delta debugging and pin it in a
replayable JSON seed file.

Entry points::

    python -m repro.chaos run --workload kv --seeds 0:100
    python -m repro.chaos replay tests/chaos/seeds
    python -m repro.chaos shrink --workload kv --seed 17

See DESIGN.md §10 for the architecture and the oracle catalogue.
"""

from repro.chaos.engine import RunResult, run_one
from repro.chaos.oracles import run_oracles
from repro.chaos.schedule import INTENSITIES, ChaosSchedule, FaultOp
from repro.chaos.seeds import (
    corpus_paths,
    load_seed,
    replay_seed,
    save_seed,
    seed_record,
)
from repro.chaos.shrink import ShrinkReport, shrink_schedule
from repro.chaos.workloads import WORKLOADS, Workload, create_workload

__all__ = [
    "ChaosSchedule",
    "FaultOp",
    "INTENSITIES",
    "RunResult",
    "ShrinkReport",
    "WORKLOADS",
    "Workload",
    "corpus_paths",
    "create_workload",
    "load_seed",
    "replay_seed",
    "run_one",
    "run_oracles",
    "save_seed",
    "seed_record",
    "shrink_schedule",
]
