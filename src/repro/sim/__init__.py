"""Discrete-event simulation kernel (deterministic substrate).

See :mod:`repro.sim.kernel` for the event loop, :mod:`repro.sim.process`
for generator-based processes, :mod:`repro.sim.sync` for the blocking
queue under ``queue[pt]``.
"""

from repro.sim.alarm import Alarm
from repro.sim.events import Event, Timeout
from repro.sim.kernel import Environment, Infinity
from repro.sim.process import Interrupt, Process, ProcessKilled
from repro.sim.rng import RngRegistry
from repro.sim.sync import BlockingQueue, QueueClosed

__all__ = [
    "Alarm",
    "BlockingQueue",
    "Environment",
    "Event",
    "Infinity",
    "Interrupt",
    "Process",
    "ProcessKilled",
    "QueueClosed",
    "RngRegistry",
    "Timeout",
]
