"""Multi-process orchestration for the wallclock backend.

:class:`RtCluster` runs each server node of an :mod:`repro.rt` world as
a **real OS process** (``multiprocessing`` spawn context, so every
worker is a fresh interpreter and all cross-node traffic genuinely
crosses process boundaries as frames on TCP sockets).  The parent
process — typically a test or benchmark — keeps its own
:class:`~repro.rt.host.RtHost` for the client role.

Startup handshake, over a pipe per worker:

1. parent spawns the worker with its node name and a module-level
   ``setup(host)`` function (it must be importable — spawn pickles it
   by reference);
2. worker builds its host, runs ``setup``, binds port 0 and reports the
   actual port;
3. parent collects every worker's port into an address book and
   broadcasts it;
4. worker acknowledges and starts serving; the parent proceeds.

On ``stop()`` each worker exports its JSONL trace (when a trace dir is
configured — these are the per-process artifacts the ``net-parity`` CI
job uploads on failure) and reports its network counters back.  Every
pipe interaction in the parent carries a timeout so a hung worker fails
the run loudly instead of wedging CI.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Dict, Optional, Tuple

from repro.rt.host import RtHost
from repro.streams.config import StreamConfig

__all__ = ["RtCluster", "ClusterError"]


class ClusterError(Exception):
    """A worker failed to start, respond, or stop in time."""


def _worker_main(
    node_name: str,
    setup: Callable[[RtHost], None],
    time_unit: float,
    stream_config: Optional[StreamConfig],
    trace_path: Optional[str],
    pipe,
) -> None:
    """Entry point of one server process."""
    try:
        host = RtHost(
            node_name,
            time_unit=time_unit,
            stream_config=stream_config,
            tracing=trace_path is not None,
        )
        setup(host)
        port = host.start()
        pipe.send(("port", port))
        kind, book = pipe.recv()
        assert kind == "book", kind
        host.set_address_book(book)
        pipe.send(("ready", None))
        while True:
            if pipe.poll(0.0):
                kind, _payload = pipe.recv()
                if kind == "stop":
                    break
            host.pump(0.05)
        if trace_path is not None:
            host.export_trace(trace_path)
        pipe.send(("stopped", host.stats()))
        host.shutdown()
    except Exception:  # pragma: no cover - surfaced via the parent
        import traceback

        try:
            pipe.send(("error", traceback.format_exc()))
        except OSError:
            pass
    finally:
        pipe.close()


def _failed(node: str, traceback: str) -> str:
    return "worker %r failed:\n%s" % (node, traceback)


def _recv(pipe, timeout: float, node: str) -> Tuple[str, Any]:
    """One guarded pipe read; raises :class:`ClusterError` on silence."""
    if not pipe.poll(timeout):
        raise ClusterError("worker %r sent nothing within %.1fs" % (node, timeout))
    kind, payload = pipe.recv()
    if kind == "error":
        raise ClusterError(_failed(node, payload))
    return kind, payload


class RtCluster:
    """A set of server processes plus the address book tying them together."""

    def __init__(
        self,
        workers: Dict[str, Callable[[RtHost], None]],
        time_unit: float = 0.001,
        stream_config: Optional[StreamConfig] = None,
        trace_dir: Optional[str] = None,
        start_timeout: float = 30.0,
    ) -> None:
        self.workers = dict(workers)
        self.time_unit = time_unit
        self.stream_config = stream_config
        self.trace_dir = trace_dir
        self.start_timeout = start_timeout
        self.book: Dict[str, Tuple[str, int]] = {}
        #: node -> network counter snapshot, filled by :meth:`stop`.
        self.worker_stats: Dict[str, Dict[str, int]] = {}
        self._procs: Dict[str, multiprocessing.process.BaseProcess] = {}
        self._pipes: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def trace_path(self, node: str) -> Optional[str]:
        if self.trace_dir is None:
            return None
        return os.path.join(self.trace_dir, "%s.trace.jsonl" % node.replace(":", "_"))

    def start(self) -> Dict[str, Tuple[str, int]]:
        """Spawn every worker; returns the address book."""
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
        ctx = multiprocessing.get_context("spawn")
        for node, setup in self.workers.items():
            parent_end, child_end = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(
                    node,
                    setup,
                    self.time_unit,
                    self.stream_config,
                    self.trace_path(node),
                    child_end,
                ),
                name="rt-%s" % node,
                daemon=True,
            )
            proc.start()
            child_end.close()
            self._procs[node] = proc
            self._pipes[node] = parent_end
        try:
            for node, pipe in self._pipes.items():
                kind, port = _recv(pipe, self.start_timeout, node)
                assert kind == "port", kind
                self.book[node] = ("127.0.0.1", port)
            for node, pipe in self._pipes.items():
                pipe.send(("book", self.book))
            for node, pipe in self._pipes.items():
                _recv(pipe, self.start_timeout, node)  # "ready"
        except Exception:
            self.kill()
            raise
        return dict(self.book)

    def client_host(
        self,
        node_name: str = "node:client",
        tracing: bool = False,
        stream_config: Optional[StreamConfig] = None,
    ) -> RtHost:
        """An :class:`RtHost` in *this* process, routed at the workers."""
        host = RtHost(
            node_name,
            time_unit=self.time_unit,
            stream_config=stream_config or self.stream_config,
            tracing=tracing,
        )
        host.set_address_book(self.book)
        return host

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 15.0) -> Dict[str, Dict[str, int]]:
        """Stop every worker, collecting stats (and traces on disk)."""
        for node, pipe in self._pipes.items():
            try:
                pipe.send(("stop", None))
            except OSError:
                pass
        failures = []
        for node, pipe in self._pipes.items():
            try:
                kind, stats = _recv(pipe, timeout, node)
                assert kind == "stopped", kind
                self.worker_stats[node] = stats
            except ClusterError as exc:
                failures.append(str(exc))
        for node, proc in self._procs.items():
            proc.join(timeout)
            if proc.is_alive():
                proc.terminate()
                proc.join(5.0)
                failures.append("worker %r had to be terminated" % (node,))
        self._procs.clear()
        self._pipes.clear()
        if failures:
            raise ClusterError("; ".join(failures))
        return dict(self.worker_stats)

    def kill(self) -> Optional[ClusterError]:
        """Hard-stop every worker (cleanup path; no stats, no traces).

        Returns a :class:`ClusterError` carrying the traceback of every
        worker that had already reported a failure (read without
        waiting), or None when none had."""
        failures = []
        for node, pipe in self._pipes.items():
            try:
                while pipe.poll(0):
                    kind, payload = pipe.recv()
                    if kind == "error":
                        failures.append(_failed(node, payload))
            except (EOFError, OSError):
                pass
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(5.0)
        self._procs.clear()
        self._pipes.clear()
        return ClusterError("\n".join(failures)) if failures else None

    # ------------------------------------------------------------------
    def __enter__(self) -> "RtCluster":
        self.start()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.stop()
        else:
            self.kill()
