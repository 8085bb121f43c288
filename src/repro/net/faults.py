"""Fault-injection helpers: crashes, partitions, and link-level chaos.

The paper's stream semantics are defined largely by their behaviour under
"problems such as node crashes and network partitions"; these helpers script
such problems deterministically so that tests, the E9 benchmark and the
chaos-campaign engine (:mod:`repro.chaos`) can exercise break detection and
the ``unavailable``/``failure`` mapping.

Two layers of fault model live here:

* **scheduled faults** (:func:`schedule_crash`, :func:`schedule_partition`,
  :class:`FaultPlan`): timed node crashes/recoveries and partition/heal
  windows, installed as simulation processes.  A plan is written, never
  drawn: random schedules come from
  :meth:`repro.chaos.schedule.ChaosSchedule.generate`, applied as a plan;
* **link-level chaos** (:class:`LinkFaultProfile`,
  :class:`LinkFaultInjector`): per-message drop / delay / duplication /
  reordering applied inside :meth:`Network.send`, the adversarial traffic
  the transport's acknowledgement + retransmission + dedup machinery must
  absorb while preserving exactly-once FIFO delivery.

The only draws made here are the link injector's, from the one
``random.Random`` it is given (campaigns pass a dedicated
:mod:`repro.sim.rng` named stream), so fault draws never perturb
workload or jitter draws and campaigns replay bit-identically from a seed.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Tuple

from repro.net.network import Network

__all__ = [
    "FaultPlan",
    "LinkFaultInjector",
    "LinkFaultProfile",
    "schedule_crash",
    "schedule_partition",
]


def _require_nodes(network: Network, *names: str) -> None:
    """Validate node names eagerly, so a typo fails at scheduling time
    instead of surfacing mid-simulation as an opaque KeyError from inside
    a fault script process."""
    for name in names:
        try:
            network.node(name)
        except KeyError:
            raise ValueError(
                "cannot schedule fault: no node named %r (known: %s)"
                % (name, ", ".join(sorted(n.name for n in network.nodes())) or "none")
            ) from None


def schedule_crash(
    network: Network,
    node_name: str,
    at: float,
    recover_at: Optional[float] = None,
) -> None:
    """Crash *node_name* at simulated time *at*; optionally recover later."""
    if recover_at is not None and recover_at <= at:
        raise ValueError("recover_at must be after the crash time")
    _require_nodes(network, node_name)
    env = network.env

    def script():
        yield env.timeout(max(0.0, at - env.now))
        network.node(node_name).crash()
        if recover_at is not None:
            yield env.timeout(recover_at - at)
            network.node(node_name).recover()

    env.process(script())


def schedule_partition(
    network: Network,
    a: str,
    b: str,
    at: float,
    heal_at: Optional[float] = None,
) -> None:
    """Partition nodes *a* and *b* at time *at*; optionally heal later."""
    if heal_at is not None and heal_at <= at:
        raise ValueError("heal_at must be after the partition time")
    _require_nodes(network, a, b)
    env = network.env

    def script():
        yield env.timeout(max(0.0, at - env.now))
        network.partition(a, b)
        if heal_at is not None:
            yield env.timeout(heal_at - at)
            network.heal(a, b)

    env.process(script())


class FaultPlan:
    """A declarative schedule of faults, applied to a network at once.

    Example::

        plan = FaultPlan()
        plan.crash("db", at=50.0, recover_at=80.0)
        plan.partition("client", "db", at=10.0, heal_at=20.0)
        plan.apply(network)
    """

    def __init__(self) -> None:
        self._crashes: List[Tuple[str, float, Optional[float]]] = []
        self._partitions: List[Tuple[str, str, float, Optional[float]]] = []

    def crash(
        self, node_name: str, at: float, recover_at: Optional[float] = None
    ) -> "FaultPlan":
        """Schedule a crash (and optional recovery) of *node_name*."""
        self._crashes.append((node_name, at, recover_at))
        return self

    def partition(
        self, a: str, b: str, at: float, heal_at: Optional[float] = None
    ) -> "FaultPlan":
        """Schedule a partition (and optional heal) between *a* and *b*."""
        self._partitions.append((a, b, at, heal_at))
        return self

    def apply(self, network: Network) -> None:
        """Install every scheduled fault onto *network*.

        All node names are validated before *any* fault is installed, so a
        bad plan raises immediately and leaves the network untouched.
        """
        for node_name, _, _ in self._crashes:
            _require_nodes(network, node_name)
        for a, b, _, _ in self._partitions:
            _require_nodes(network, a, b)
        for node_name, at, recover_at in self._crashes:
            schedule_crash(network, node_name, at, recover_at)
        for a, b, at, heal_at in self._partitions:
            schedule_partition(network, a, b, at, heal_at)

    def __len__(self) -> int:
        return len(self._crashes) + len(self._partitions)


# ----------------------------------------------------------------------
# Link-level chaos: per-message drop / delay / duplication / reordering
# ----------------------------------------------------------------------

class LinkFaultProfile:
    """Per-message fault rates for one link (or every link).

    * ``drop_rate`` — probability a message silently disappears;
    * ``delay_rate`` / ``delay_min`` / ``delay_max`` — probability a
      message is held up by a uniform extra delay, *preserving* link FIFO
      order (congestion: everything behind it queues too);
    * ``reorder_rate`` — probability a message takes a slow independent
      path: it gets the extra delay *without* the FIFO clamp, so later
      messages can overtake it (true reordering on the wire);
    * ``dup_rate`` — probability a stray duplicate copy is also delivered,
      after its own extra delay, unclamped.

    The stream transport must absorb all of this: duplicates are detected
    by sequence number, reordering is repaired by the receiver's
    out-of-order buffer, drops by retransmission.
    """

    __slots__ = (
        "drop_rate", "dup_rate", "delay_rate", "reorder_rate",
        "delay_min", "delay_max",
    )

    def __init__(
        self,
        drop_rate: float = 0.0,
        dup_rate: float = 0.0,
        delay_rate: float = 0.0,
        reorder_rate: float = 0.0,
        delay_min: float = 0.5,
        delay_max: float = 5.0,
    ) -> None:
        for name, rate in (
            ("drop_rate", drop_rate), ("dup_rate", dup_rate),
            ("delay_rate", delay_rate), ("reorder_rate", reorder_rate),
        ):
            if not 0.0 <= rate < 1.0:
                raise ValueError("%s must be in [0, 1), got %r" % (name, rate))
        if delay_min < 0 or delay_max < delay_min:
            raise ValueError("need 0 <= delay_min <= delay_max")
        self.drop_rate = drop_rate
        self.dup_rate = dup_rate
        self.delay_rate = delay_rate
        self.reorder_rate = reorder_rate
        self.delay_min = delay_min
        self.delay_max = delay_max

    @property
    def active(self) -> bool:
        """Whether any fault can actually fire under this profile."""
        return bool(
            self.drop_rate or self.dup_rate or self.delay_rate or self.reorder_rate
        )

    def to_dict(self) -> Dict[str, float]:
        """JSON-ready representation (see :mod:`repro.chaos.schedule`)."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "LinkFaultProfile":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        unknown = set(record) - set(cls.__slots__)
        if unknown:
            raise ValueError("unknown LinkFaultProfile fields: %s" % sorted(unknown))
        return cls(**record)

    def __repr__(self) -> str:
        parts = ", ".join(
            "%s=%r" % (name, getattr(self, name))
            for name in self.__slots__
            if getattr(self, name)
        )
        return "LinkFaultProfile(%s)" % parts

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinkFaultProfile) and self.to_dict() == other.to_dict()


#: Fast-path decision shared by every undisturbed message.
_NORMAL = ((0.0, True),)


class LinkFaultInjector:
    """Applies a :class:`LinkFaultProfile` to every message a network sends.

    Installed via :meth:`Network.install_link_faults`; consulted once per
    remote message.  Per-link overrides (unordered node pairs) take
    precedence over the default profile.  All draws come from the single
    ``random.Random`` handed in — campaign code passes a dedicated
    ``registry.stream("chaos.link")`` so link chaos is independent of every
    other stochastic component.
    """

    #: Sentinel decision: the message is eaten by chaos.
    DROP = ("drop",)

    def __init__(
        self,
        rng: random.Random,
        default: Optional[LinkFaultProfile] = None,
        per_link: Optional[Dict[Tuple[str, str], LinkFaultProfile]] = None,
    ) -> None:
        self.rng = rng
        self.default = default
        self.per_link: Dict[Tuple[str, str], LinkFaultProfile] = {}
        for (a, b), profile in (per_link or {}).items():
            self.per_link[Network._pair(a, b)] = profile
        #: Counters mirrored into NetworkStats by the send path.
        self.decisions = 0
        self.drops = 0
        self.delays = 0
        self.reorders = 0
        self.duplicates = 0

    def profile_for(self, src: str, dst: str) -> Optional[LinkFaultProfile]:
        """The profile governing the (src, dst) link, or None."""
        if self.per_link:
            profile = self.per_link.get(Network._pair(src, dst))
            if profile is not None:
                return profile
        return self.default

    def decide(self, src: str, dst: str):
        """One fault decision for one message.

        Returns ``None`` (deliver normally — the overwhelmingly common
        case), the drop sentinel, or a tuple of ``(extra_delay,
        fifo_clamped)`` deliveries (more than one entry means duplication).
        """
        profile = self.profile_for(src, dst)
        if profile is None or not profile.active:
            return None
        self.decisions += 1
        rng = self.rng
        if profile.drop_rate and rng.random() < profile.drop_rate:
            self.drops += 1
            return self.DROP
        extra = 0.0
        fifo = True
        if profile.reorder_rate and rng.random() < profile.reorder_rate:
            # A slow independent path: delayed and exempt from the FIFO
            # clamp, so later traffic overtakes this message.
            extra = rng.uniform(profile.delay_min, profile.delay_max)
            fifo = False
            self.reorders += 1
        elif profile.delay_rate and rng.random() < profile.delay_rate:
            extra = rng.uniform(profile.delay_min, profile.delay_max)
            self.delays += 1
        if profile.dup_rate and rng.random() < profile.dup_rate:
            self.duplicates += 1
            stray = rng.uniform(profile.delay_min, profile.delay_max)
            return ((extra, fifo), (stray, False))
        if extra == 0.0 and fifo:
            return _NORMAL
        return ((extra, fifo),)
