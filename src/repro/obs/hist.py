"""Constant-memory streaming histogram with bounded relative error.

The exact :class:`~repro.obs.metrics.Histogram` keeps every raw sample —
perfect for simulation tests ("a few hundred thousand observations") but
unusable under the open-loop load harness, where 10^5–10^6 simulated
agents produce one latency sample per request.  This module provides the
HDR/DDSketch-style alternative: **log-bucketed counts**.

A value ``v > 0`` lands in bucket ``ceil(log_gamma(v))`` where
``gamma = (1 + e) / (1 - e)`` for the configured relative error ``e``
(default 1%).  Bucket *i* covers ``(gamma^(i-1), gamma^i]`` and is
reported as the bucket midpoint ``2 * gamma^i / (gamma + 1)``, which is
within ``e`` of every value in the bucket — so any quantile estimate is
within ``e`` *relative* error of the exact sample quantile (zero is kept
in its own bucket and reported exactly).  Memory is O(distinct buckets):
a span of values from 1 microsecond to 1 hour needs ~1100 buckets at 1%
error, independent of how many observations fall into them.

Design properties the load harness leans on:

* **mergeable** — :meth:`merge` adds bucket counts; merging is
  associative and commutative, so per-window / per-node histograms roll
  up without replay (``tests/obs/test_hist.py`` pins associativity);
* **serializable** — :meth:`to_dict` / :meth:`from_dict` round-trip
  through JSON, so the load report can carry full distributions and
  ``python -m repro.obs report`` can re-query them offline;
* **API-compatible** — ``count`` / ``total`` / ``mean`` / ``min`` /
  ``max`` / ``percentile`` / ``snapshot`` match the exact histogram, so
  :class:`~repro.obs.metrics.Metrics` can swap one for the other behind
  its ``streaming=`` mode flag.

``min``/``max`` are tracked exactly (they are single floats) and quantile
answers are clamped into ``[min, max]``, so the edges never show
bucket-rounding artifacts.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

__all__ = ["StreamingHistogram", "DEFAULT_RELATIVE_ERROR", "nearest_rank"]

#: Default bound on the relative error of quantile estimates (~1%).
DEFAULT_RELATIVE_ERROR = 0.01


def nearest_rank(p: float, count: int) -> int:
    """1-based rank of the *p*-th percentile among *count* >= 1 samples:
    ``ceil(p * count / 100)``, at least 1.  The one rank rule of both
    histograms (and of ``benchmarks/suite``)."""
    return min(max(1, int(-(-p * count // 100))), count)


class StreamingHistogram:
    """Log-bucketed distribution of non-negative values (latencies, sizes)."""

    __slots__ = (
        "relative_error",
        "_gamma",
        "_inv_log_gamma",
        "_half_width",
        "_buckets",
        "_zero_count",
        "count",
        "total",
        "_min",
        "_max",
    )

    def __init__(self, relative_error: float = DEFAULT_RELATIVE_ERROR) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                "relative_error must be in (0, 1), got %r" % (relative_error,)
            )
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._inv_log_gamma = 1.0 / math.log(self._gamma)
        # Midpoint factor: bucket i is reported as 2*gamma^i/(gamma+1).
        self._half_width = 2.0 / (self._gamma + 1.0)
        self._buckets: Dict[int, int] = {}
        self._zero_count = 0
        self.count = 0
        self.total = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation (must be >= 0)."""
        if value < 0.0:
            raise ValueError(
                "StreamingHistogram records non-negative values, got %r" % (value,)
            )
        if value == 0.0:
            self._zero_count += 1
        else:
            index = math.ceil(math.log(value) * self._inv_log_gamma)
            buckets = self._buckets
            buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def merge(self, other: "StreamingHistogram") -> "StreamingHistogram":
        """Fold *other*'s counts into this histogram (in place).

        Both sides must use the same ``relative_error`` (their bucket
        boundaries line up exactly); merging an empty histogram — on
        either side — is a no-op for the non-empty one.  Returns ``self``
        for chaining.
        """
        if not isinstance(other, StreamingHistogram):
            raise TypeError(
                "can only merge StreamingHistogram, got %r" % type(other).__name__
            )
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge histograms with different relative errors "
                "(%r vs %r)" % (self.relative_error, other.relative_error)
            )
        buckets = self._buckets
        for index, n in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + n
        self._zero_count += other._zero_count
        self.count += other.count
        self.total += other.total
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        return self

    # ------------------------------------------------------------------
    # Reading (exact-Histogram-compatible surface)
    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        return self.total / self.count

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    @property
    def bucket_count(self) -> int:
        """Distinct non-empty buckets — the memory footprint driver."""
        return len(self._buckets) + (1 if self._zero_count else 0)

    def percentile(self, p: float) -> float:
        """The *p*-th percentile (0 <= p <= 100), nearest-rank over buckets.

        Within ``relative_error`` of the exact sample percentile; 0.0 for
        an empty histogram (matching the exact histogram's convention).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be in [0, 100], got %r" % (p,))
        if not self.count:
            return 0.0
        remaining = nearest_rank(p, self.count) - self._zero_count
        if remaining <= 0:
            return 0.0
        for index in sorted(self._buckets):
            remaining -= self._buckets[index]
            if remaining <= 0:
                estimate = self._half_width * self._gamma ** index
                # Clamp to the exactly-tracked range so the extreme
                # quantiles never exceed the observed min/max.
                return min(max(estimate, self.min), self.max)
        return self.max  # unreachable unless counts drifted

    def quantiles(self, *ps: float) -> Dict[str, float]:
        """Several percentiles at once, keyed ``p50``-style."""
        return {
            ("p%g" % p).replace(".", ""): self.percentile(p) for p in ps
        }

    def snapshot(self) -> Dict[str, float]:
        """JSON-friendly summary statistics (exact-histogram superset)."""
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

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable full-fidelity encoding (sparse buckets)."""
        return {
            "relative_error": self.relative_error,
            "count": self.count,
            "total": self.total,
            "min": self._min,
            "max": self._max,
            "zero_count": self._zero_count,
            "buckets": {str(index): n for index, n in sorted(self._buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamingHistogram":
        """Inverse of :meth:`to_dict` (JSON string keys are re-interned)."""
        histogram = cls(relative_error=data["relative_error"])
        histogram.count = data["count"]
        histogram.total = data["total"]
        histogram._min = data["min"]
        histogram._max = data["max"]
        histogram._zero_count = data["zero_count"]
        histogram._buckets = {int(index): n for index, n in data["buckets"].items()}
        return histogram

    def __repr__(self) -> str:
        return "StreamingHistogram(count=%d, buckets=%d, mean=%.4f)" % (
            self.count,
            self.bucket_count,
            self.mean,
        )
