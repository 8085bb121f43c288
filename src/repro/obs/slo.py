"""Declarative SLOs and load-report rendering.

An **SLO spec** states, per workload, the service levels the system must
hold under open-loop load: latency ceilings at p50/p99/**p999** (the same
tail definitions the span aggregation quotes — see
:data:`repro.obs.spans.TAIL_PERCENTILES`) and a floor on max sustainable
throughput (the highest offered rate the stepped-rate search found the
system still serving without the flow-control window collapsing).  Specs
are plain dicts so they can live in JSON next to the reports they judge::

    {
      "echo": {
        "latency": {"p50": 0.01, "p99": 0.05, "p999": 0.25},
        "throughput_floor": 2000.0
      }
    }

The **load report** (written by ``benchmarks/load/run_load.py``) carries one entry per workload:

* ``latency`` — quantile summary of the run at the measured rate;
* ``latency_hist`` — the full :class:`~repro.obs.hist.StreamingHistogram`
  encoding, so offline tools can re-query any quantile;
* ``steps`` — the stepped-rate search ladder (offered vs achieved rate,
  sustained verdict, per-step quantiles);
* ``max_sustainable_throughput`` — the search result;
* ``windows`` — the per-window timeline rows from the
  :class:`~repro.obs.timeseries.WindowedCollector` (latency-over-time,
  throughput-over-time, in-flight occupancy);
* ``slo`` — the verdicts this module computed for it.

``python -m repro.obs report`` renders the summary + verdict tables;
``python -m repro.obs top`` replays the window rows as live ``top``-style
frames.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "SloSpec",
    "evaluate_slo",
    "load_report",
    "render_report",
    "render_top_frame",
    "top_frames",
    "DEFAULT_SLO_SPEC",
]

#: The checks a workload spec may state, with their comparison direction.
#: Latency percentiles are ceilings; the throughput floor is a floor.
LATENCY_KEYS = ("p50", "p99", "p999")

#: Default spec used by the load harness when none is supplied.  Ceilings
#: are stated in simulated seconds and calibrated against the quick-mode
#: topology (see ``benchmarks/load/harness.py``); the throughput floors
#: are what it sustains with >2x headroom on the search ladder.
DEFAULT_SLO_SPEC: Dict[str, Any] = {
    "echo": {
        "latency": {"p50": 0.050, "p99": 0.250, "p999": 0.500},
        "throughput_floor": 400.0,
    },
    "pipeline": {
        "latency": {"p50": 0.100, "p99": 0.400, "p999": 0.800},
        "throughput_floor": 150.0,
    },
    "kv": {
        "latency": {"p50": 0.050, "p99": 0.250, "p999": 0.500},
        "throughput_floor": 400.0,
    },
}


class SloSpec:
    """A parsed SLO spec: per-workload ceilings and floors."""

    def __init__(self, spec: Optional[Dict[str, Any]] = None) -> None:
        self.spec = dict(spec if spec is not None else DEFAULT_SLO_SPEC)
        for workload, entry in self.spec.items():
            unknown = set(entry) - {"latency", "throughput_floor"}
            if unknown:
                raise ValueError(
                    "unknown SLO keys %r for workload %r" % (sorted(unknown), workload)
                )
            bad = set(entry.get("latency", {})) - set(LATENCY_KEYS)
            if bad:
                raise ValueError(
                    "unknown latency percentiles %r for workload %r "
                    "(known: %s)" % (sorted(bad), workload, ", ".join(LATENCY_KEYS))
                )

    @classmethod
    def from_file(cls, path: str) -> "SloSpec":
        with open(path) as handle:
            return cls(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        return dict(self.spec)

    def workloads(self) -> List[str]:
        return sorted(self.spec)

    def evaluate(self, workload: str, summary: Dict[str, Any]) -> Dict[str, Any]:
        """Judge one workload's load summary against its spec entry.

        *summary* needs ``latency`` (a quantile dict) and, when the spec
        states a throughput floor, ``max_sustainable_throughput``.
        Returns ``{"checks": [...], "ok": bool}``; a workload with no
        spec entry passes vacuously with no checks.
        """
        entry = self.spec.get(workload)
        checks: List[Dict[str, Any]] = []
        if entry is None:
            return {"checks": checks, "ok": True}
        latency = summary.get("latency", {})
        for key, ceiling in sorted(entry.get("latency", {}).items()):
            actual = latency.get(key)
            checks.append(
                {
                    "check": "latency_" + key,
                    "kind": "ceiling",
                    "limit": ceiling,
                    "actual": actual,
                    "ok": actual is not None and actual <= ceiling,
                }
            )
        floor = entry.get("throughput_floor")
        if floor is not None:
            actual = summary.get("max_sustainable_throughput")
            checks.append(
                {
                    "check": "max_sustainable_throughput",
                    "kind": "floor",
                    "limit": floor,
                    "actual": actual,
                    "ok": actual is not None and actual >= floor,
                }
            )
        return {"checks": checks, "ok": all(check["ok"] for check in checks)}


def evaluate_slo(
    spec: SloSpec, workloads: Dict[str, Dict[str, Any]]
) -> Dict[str, Any]:
    """Judge every workload in a load report; overall ``ok`` is the AND."""
    verdicts = {
        name: spec.evaluate(name, summary) for name, summary in sorted(workloads.items())
    }
    return {
        "workloads": verdicts,
        "ok": all(verdict["ok"] for verdict in verdicts.values()),
    }


# ----------------------------------------------------------------------
# Report rendering (the ``report`` and ``top`` CLI subcommands)
# ----------------------------------------------------------------------
def load_report(path: str) -> Dict[str, Any]:
    """Read a load report written by ``benchmarks/load/run_load.py``."""
    with open(path) as handle:
        report = json.load(handle)
    if "workloads" not in report:
        raise ValueError(
            "%s does not look like a load report (no 'workloads' key)" % (path,)
        )
    return report


def _fmt(value: Any, width: int = 10, digits: int = 4) -> str:
    if value is None:
        return "-".rjust(width)
    if isinstance(value, float):
        return ("%%%d.%df" % (width, digits)) % value
    return str(value).rjust(width)


def render_report(report: Dict[str, Any]) -> str:
    """The per-workload summary + SLO verdict tables, as terminal text."""
    lines: List[str] = []
    mode = report.get("mode", "?")
    lines.append(
        "load report: mode=%s  agents=%s  workloads=%d"
        % (mode, report.get("agents", "?"), len(report.get("workloads", {})))
    )
    for name in sorted(report.get("workloads", {})):
        entry = report["workloads"][name]
        latency = entry.get("latency", {})
        lines.append("")
        lines.append("workload %s" % name)
        lines.append(
            "  requests=%s  errors=%s  reconnects=%s  max_sustainable=%s ops/s"
            % (
                entry.get("requests"),
                entry.get("errors"),
                entry.get("reconnects"),
                _fmt(entry.get("max_sustainable_throughput"), 1, 1).strip(),
            )
        )
        lines.append(
            "  latency: p50=%s  p99=%s  p999=%s  max=%s"
            % (
                _fmt(latency.get("p50"), 1),
                _fmt(latency.get("p99"), 1),
                _fmt(latency.get("p999"), 1),
                _fmt(latency.get("max"), 1),
            )
        )
        steps = entry.get("steps") or []
        if steps:
            lines.append("  rate ladder (offered -> achieved, sustained?):")
            for step in steps:
                lines.append(
                    "    %8.1f -> %8.1f ops/s  p99=%s  %s"
                    % (
                        step["offered_rate"],
                        step["achieved_rate"],
                        _fmt(step.get("p99"), 1),
                        "sustained" if step["sustained"] else "COLLAPSED",
                    )
                )
        slo = entry.get("slo")
        if slo is not None:
            lines.append("  SLO: %s" % ("ok" if slo["ok"] else "BREACHED"))
            for check in slo["checks"]:
                lines.append(
                    "    %-28s %-8s limit=%s actual=%s  %s"
                    % (
                        check["check"],
                        check["kind"],
                        _fmt(check["limit"], 1),
                        _fmt(check["actual"], 1),
                        "ok" if check["ok"] else "FAIL",
                    )
                )
    overall = report.get("slo", {}).get("ok")
    if overall is not None:
        lines.append("")
        lines.append("overall SLO verdict: %s" % ("ok" if overall else "BREACHED"))
    return "\n".join(lines)


_BAR_WIDTH = 24


def _bar(value: float, peak: float) -> str:
    if peak <= 0.0:
        return " " * _BAR_WIDTH
    filled = int(round(_BAR_WIDTH * min(value / peak, 1.0)))
    return ("#" * filled).ljust(_BAR_WIDTH)


def render_top_frame(
    name: str, rows: List[Dict[str, Any]], index: int
) -> str:
    """One ``top``-style frame: the window at *index* over its run context.

    Shows the current window's throughput/latency/occupancy plus a small
    scrolling tail of earlier windows with throughput bars, so replaying
    frames in sequence reads like watching the run live.
    """
    row = rows[index]
    peak_rate = max((r.get("load.completed_rate", 0) or 0) for r in rows) or 1.0
    lines = [
        "obs top — %s   window %d/%d   t=[%.2f, %.2f)"
        % (name, index + 1, len(rows), row["t0"], row["t1"]),
        "  throughput %8.1f ops/s   offered %8.1f ops/s   in-flight %s (max %s)"
        % (
            row.get("load.completed_rate", 0.0) or 0.0,
            row.get("load.issued_rate", 0.0) or 0.0,
            _fmt(row.get("load.inflight_last"), 1, 0),
            _fmt(row.get("load.inflight_max"), 1, 0),
        ),
        "  latency    p50=%s  p99=%s  p999=%s  max=%s"
        % (
            _fmt(row.get("load.latency_p50"), 1),
            _fmt(row.get("load.latency_p99"), 1),
            _fmt(row.get("load.latency_p999"), 1),
            _fmt(row.get("load.latency_max"), 1),
        ),
        "  errors     %s   reconnects %s   churn %s"
        % (
            _fmt(row.get("load.errors", 0), 1, 0),
            _fmt(row.get("load.reconnects", 0), 1, 0),
            _fmt(row.get("load.churn", 0), 1, 0),
        ),
        "",
        "  %-16s %-*s %10s %10s" % ("window", _BAR_WIDTH, "throughput", "ops/s", "p99"),
    ]
    tail = rows[max(0, index - 9): index + 1]
    for past in tail:
        rate = past.get("load.completed_rate", 0.0) or 0.0
        marker = "▶" if past is row else " "
        lines.append(
            " %s[%7.2f,%7.2f) %s %10.1f %10s"
            % (
                marker,
                past["t0"],
                past["t1"],
                _bar(rate, peak_rate),
                rate,
                _fmt(past.get("load.latency_p99"), 1),
            )
        )
    return "\n".join(lines)


def top_frames(report: Dict[str, Any], workload: str) -> Iterable[str]:
    """Every frame of *workload*'s window replay, in time order."""
    entry = report.get("workloads", {}).get(workload)
    if entry is None:
        raise KeyError(
            "no workload %r in report (known: %s)"
            % (workload, ", ".join(sorted(report.get("workloads", {}))))
        )
    rows = entry.get("windows") or []
    for index in range(len(rows)):
        yield render_top_frame(workload, rows, index)
