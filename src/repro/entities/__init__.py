"""Guardians, ports, agents and the system facade (paper §2.1)."""

from repro.entities.agents import Agent
from repro.entities.context import ActivityContext
from repro.entities.dispatch import GroupDispatcher
from repro.entities.guardian import Guardian, TransportEndpoint
from repro.entities.ports import HandlerRef, Port, PortGroup
from repro.entities.system import ArgusSystem

__all__ = [
    "ActivityContext",
    "Agent",
    "ArgusSystem",
    "GroupDispatcher",
    "Guardian",
    "HandlerRef",
    "Port",
    "PortGroup",
    "TransportEndpoint",
]
