"""Metrics: counters and latency histograms aggregated during a run.

A run produces at most a few hundred thousand observations, so
histograms keep their raw samples and report exact means and
percentiles.  The constant-memory alternative for unbounded runs is
:class:`~repro.obs.hist.StreamingHistogram` (~1% relative error on
quantiles), which shares this module's histogram API.

Every counter and histogram is keyed by a metric *name* plus a small set
of labels (``node=...``, ``stream=...``, ``reason=...``), mirroring how
production systems (and the Reitz many-task runtime instrumentation in
PAPERS.md) break per-operation statistics down by entity.

All values are plain Python numbers and the :meth:`Metrics.summary` report
is JSON-serializable, so tests and benchmarks can assert on it directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.hist import nearest_rank

__all__ = ["Counter", "Histogram", "Metrics", "format_key"]

#: A label set, canonicalized as a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def format_key(name: str, label_key: LabelKey) -> str:
    """Render ``name{k=v,...}`` (just ``name`` when there are no labels)."""
    if not label_key:
        return name
    return "%s{%s}" % (name, ",".join("%s=%s" % kv for kv in label_key))


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return "Counter(%d)" % self.value


class Histogram:
    """Exact distribution of observed values (latencies, sizes, counts)."""

    __slots__ = ("_values", "_sorted")

    def __init__(self) -> None:
        self._values: List[float] = []
        self._sorted = True

    def observe(self, value: float) -> None:
        if self._sorted and self._values and value < self._values[-1]:
            self._sorted = False
        self._values.append(value)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def total(self) -> float:
        return sum(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return self.total / len(self._values)

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def values(self) -> List[float]:
        """The raw observations, in observation order."""
        return list(self._values)

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold *other*'s observations into this histogram (in place).

        Merging an empty histogram — on either side — is a no-op for the
        non-empty one, and the result's statistics are exactly those of
        the pooled samples.  Returns ``self`` for chaining.
        """
        values = other.values()
        if values:
            if self._sorted and (not self._values or values[0] >= self._values[-1]):
                # Fast path: appending a sorted run that starts past our
                # current tail keeps the merged list sorted.
                self._sorted = all(
                    values[i] <= values[i + 1] for i in range(len(values) - 1)
                )
            else:
                self._sorted = False
            self._values.extend(values)
        return self

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0 <= p <= 100), nearest-rank method."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % (p,))
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values[nearest_rank(p, len(self._values)) - 1]

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly summary statistics."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
        }

    def __repr__(self) -> str:
        return "Histogram(count=%d, mean=%.4f)" % (self.count, self.mean)


class Metrics:
    """A registry of labelled counters and histograms.

    ``inc``/``observe`` create series lazily; readers use
    :meth:`counter_value` / :meth:`histogram` (exact label match) or
    :meth:`total` (sum over every label set of a name).
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1, **labels: Any) -> None:
        """Increment counter *name* (with *labels*) by *amount*."""
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter()
        counter.inc(amount)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record *value* into histogram *name* (with *labels*)."""
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> int:
        """The exact series' value (0 if never incremented)."""
        counter = self._counters.get((name, _label_key(labels)))
        return counter.value if counter is not None else 0

    def total(self, name: str) -> int:
        """Sum of counter *name* across all of its label sets."""
        return sum(
            counter.value
            for (counter_name, _), counter in self._counters.items()
            if counter_name == name
        )

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """The histogram series (an empty one if never observed)."""
        histogram = self._histograms.get((name, _label_key(labels)))
        return histogram if histogram is not None else Histogram()

    def merged_histogram(self, name: str) -> Histogram:
        """All observations of *name* pooled across label sets."""
        merged = Histogram()
        for (histogram_name, _), histogram in self._histograms.items():
            if histogram_name == name:
                merged.merge(histogram)
        return merged

    def counter_names(self) -> List[str]:
        return sorted({name for name, _ in self._counters})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """A JSON-serializable report of every series."""
        counters = {
            format_key(name, label_key): counter.value
            for (name, label_key), counter in sorted(self._counters.items())
        }
        histograms = {
            format_key(name, label_key): histogram.snapshot()
            for (name, label_key), histogram in sorted(self._histograms.items())
        }
        return {"counters": counters, "histograms": histograms}
