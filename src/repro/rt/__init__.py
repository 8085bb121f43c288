"""The real-wallclock backend: the same Stream API on actual sockets.

The simulator (:mod:`repro.sim`) is the deterministic twin; this
package binds the identical guardian/stream/promise machinery to real
time and real TCP (DESIGN.md §14):

* :class:`~repro.rt.clock.WallclockDriver` — paces an unmodified
  :class:`~repro.sim.kernel.Environment` calendar against the asyncio
  clock;
* :class:`~repro.rt.transport.TcpNetwork` — the ``Network`` surface
  over length-prefixed frames on reconnecting TCP connections, treated
  as a *lossy datagram carrier* (exactly-once comes from the stream
  transport above, as under simulation);
* :class:`~repro.rt.host.RtHost` — one process of a deployment: the
  ``ArgusSystem`` facade over driver + transport;
* :class:`~repro.rt.cluster.RtCluster` — spawns server nodes as real
  OS processes and wires the address book.
"""

from repro.rt.clock import WallclockDriver, WallclockTimeout
from repro.rt.cluster import ClusterError, RtCluster
from repro.rt.host import RtHost
from repro.rt.transport import TcpNetwork

__all__ = [
    "WallclockDriver",
    "WallclockTimeout",
    "TcpNetwork",
    "RtHost",
    "RtCluster",
    "ClusterError",
]
