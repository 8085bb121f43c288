"""Windowed time-series: per-sim-time-window counters, histograms, gauges.

The load harness needs *latency over time*, *throughput over time* and
*occupancy over time* for runs with 10^5–10^6 requests — without keeping
any per-request record.  :class:`WindowedCollector` buckets observations
into fixed-width simulated-time windows; each window holds plain counters,
:class:`~repro.obs.hist.StreamingHistogram` distributions, and min/mean/
max gauge samples, so a whole run reduces to ``O(windows x series)``
memory regardless of traffic volume.

The collector reads its clock from a callable (typically
``lambda: env.now``), so writers never pass timestamps explicitly and the
:class:`~repro.obs.metrics.Metrics` registry can forward into a collector
transparently (``Metrics(collector=...)``).

``rows()`` flattens the windows into JSON-ready dicts — the schema the
load report embeds and ``python -m repro.obs top`` replays.  A
``max_windows`` cap turns the store into a ring (oldest windows evicted,
counted in ``dropped_windows``) for genuinely unbounded runs.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.hist import DEFAULT_RELATIVE_ERROR, StreamingHistogram

__all__ = ["WindowedCollector", "WindowStats"]


class WindowStats:
    """One window's aggregates: counters, distributions, gauges."""

    __slots__ = ("index", "counters", "histograms", "gauges")

    def __init__(self, index: int) -> None:
        self.index = index
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, StreamingHistogram] = {}
        #: name -> [n, total, min, max, last]
        self.gauges: Dict[str, List[float]] = {}


class WindowedCollector:
    """Aggregate observations into fixed-width simulated-time windows."""

    def __init__(
        self,
        window: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
        relative_error: float = DEFAULT_RELATIVE_ERROR,
        max_windows: Optional[int] = None,
    ) -> None:
        if window <= 0.0:
            raise ValueError("window width must be positive, got %r" % (window,))
        if max_windows is not None and max_windows <= 0:
            raise ValueError("max_windows must be positive, got %r" % (max_windows,))
        self.window = window
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.relative_error = relative_error
        self.max_windows = max_windows
        #: Windows evicted by the ``max_windows`` ring cap.
        self.dropped_windows = 0
        self._windows: Dict[int, WindowStats] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _window_at(self, t: Optional[float]) -> WindowStats:
        if t is None:
            t = self.clock()
        index = int(t // self.window)
        stats = self._windows.get(index)
        if stats is None:
            stats = self._windows[index] = WindowStats(index)
            if self.max_windows is not None and len(self._windows) > self.max_windows:
                oldest = min(self._windows)
                del self._windows[oldest]
                self.dropped_windows += 1
        return stats

    def inc(self, name: str, amount: float = 1, t: Optional[float] = None) -> None:
        """Add *amount* to counter *name* in the window covering *t* (or now)."""
        counters = self._window_at(t).counters
        counters[name] = counters.get(name, 0) + amount

    def observe(self, name: str, value: float, t: Optional[float] = None) -> None:
        """Record *value* into the windowed distribution *name*."""
        histograms = self._window_at(t).histograms
        histogram = histograms.get(name)
        if histogram is None:
            histogram = histograms[name] = StreamingHistogram(self.relative_error)
        histogram.observe(value)

    def gauge(self, name: str, value: float, t: Optional[float] = None) -> None:
        """Record one sample of an instantaneous level (occupancy, queue)."""
        gauges = self._window_at(t).gauges
        entry = gauges.get(name)
        if entry is None:
            gauges[name] = [1, value, value, value, value]
        else:
            entry[0] += 1
            entry[1] += value
            if value < entry[2]:
                entry[2] = value
            if value > entry[3]:
                entry[3] = value
            entry[4] = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def window_count(self) -> int:
        return len(self._windows)

    def counter_series(self, name: str) -> List[Any]:
        """``[(window_start, value), ...]`` for counter *name*, time order."""
        return [
            (stats.index * self.window, stats.counters.get(name, 0))
            for stats in self._sorted_windows()
        ]

    def merged_histogram(self, name: str) -> StreamingHistogram:
        """Distribution *name* pooled across every window."""
        merged = StreamingHistogram(self.relative_error)
        for stats in self._windows.values():
            histogram = stats.histograms.get(name)
            if histogram is not None:
                merged.merge(histogram)
        return merged

    def _sorted_windows(self) -> List[WindowStats]:
        return [self._windows[index] for index in sorted(self._windows)]

    def rows(self) -> List[Dict[str, Any]]:
        """The per-window timeline as JSON-ready dicts, in time order.

        Each row carries the window bounds, every counter both raw and as
        a per-second rate, every distribution as quantile summary columns
        (``<name>_p50`` etc.), and every gauge as mean/max columns.
        """
        rows: List[Dict[str, Any]] = []
        width = self.window
        for stats in self._sorted_windows():
            row: Dict[str, Any] = {
                "t0": stats.index * width,
                "t1": (stats.index + 1) * width,
            }
            for name, value in sorted(stats.counters.items()):
                row[name] = value
                row[name + "_rate"] = value / width
            for name, histogram in sorted(stats.histograms.items()):
                row[name + "_count"] = histogram.count
                row[name + "_mean"] = histogram.mean
                row[name + "_p50"] = histogram.percentile(50)
                row[name + "_p99"] = histogram.percentile(99)
                row[name + "_p999"] = histogram.percentile(99.9)
                row[name + "_max"] = histogram.max
            for name, (n, total, lo, hi, last) in sorted(stats.gauges.items()):
                row[name + "_mean"] = total / n
                row[name + "_min"] = lo
                row[name + "_max"] = hi
                row[name + "_last"] = last
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    # Serialization (full fidelity, unlike the flattened rows)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "window": self.window,
            "relative_error": self.relative_error,
            "dropped_windows": self.dropped_windows,
            "windows": [
                {
                    "index": stats.index,
                    "counters": dict(stats.counters),
                    "histograms": {
                        name: histogram.to_dict()
                        for name, histogram in stats.histograms.items()
                    },
                    "gauges": {name: list(entry) for name, entry in stats.gauges.items()},
                }
                for stats in self._sorted_windows()
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WindowedCollector":
        collector = cls(
            window=data["window"], relative_error=data["relative_error"]
        )
        collector.dropped_windows = data.get("dropped_windows", 0)
        for entry in data["windows"]:
            stats = WindowStats(entry["index"])
            stats.counters = dict(entry["counters"])
            stats.histograms = {
                name: StreamingHistogram.from_dict(payload)
                for name, payload in entry["histograms"].items()
            }
            stats.gauges = {name: list(value) for name, value in entry["gauges"].items()}
            collector._windows[stats.index] = stats
        return collector

    def __repr__(self) -> str:
        return "WindowedCollector(window=%r, windows=%d)" % (
            self.window,
            len(self._windows),
        )
