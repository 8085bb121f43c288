"""Unit tests for the metrics registry (counters, histograms, summary)."""

import json

import pytest

from repro.obs import Histogram, Metrics


def test_counters_with_labels_are_separate_series():
    metrics = Metrics()
    metrics.inc("net.messages_sent", node="a")
    metrics.inc("net.messages_sent", node="a")
    metrics.inc("net.messages_sent", node="b")
    assert metrics.counter_value("net.messages_sent", node="a") == 2
    assert metrics.counter_value("net.messages_sent", node="b") == 1
    assert metrics.counter_value("net.messages_sent", node="c") == 0
    assert metrics.total("net.messages_sent") == 3


def test_counter_custom_amount_and_names():
    metrics = Metrics()
    metrics.inc("bytes", 100)
    metrics.inc("bytes", 28)
    assert metrics.counter_value("bytes") == 128
    assert metrics.counter_names() == ["bytes"]


def test_histogram_statistics():
    histogram = Histogram()
    for value in [4.0, 1.0, 3.0, 2.0]:
        histogram.observe(value)
    assert histogram.count == 4
    assert histogram.total == 10.0
    assert histogram.mean == 2.5
    assert histogram.min == 1.0
    assert histogram.max == 4.0
    assert histogram.percentile(50) == 2.0
    assert histogram.percentile(100) == 4.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_empty_histogram_is_all_zero():
    histogram = Histogram()
    assert histogram.count == 0
    assert histogram.mean == 0.0
    assert histogram.percentile(99) == 0.0
    snapshot = histogram.snapshot()
    assert snapshot["count"] == 0


def test_observe_creates_labelled_series_and_merged_view():
    metrics = Metrics()
    metrics.observe("latency", 1.0, stream="s1")
    metrics.observe("latency", 3.0, stream="s2")
    assert metrics.histogram("latency", stream="s1").count == 1
    assert metrics.histogram("latency", stream="missing").count == 0
    merged = metrics.merged_histogram("latency")
    assert merged.count == 2
    assert merged.mean == 2.0


def test_summary_is_json_serializable_and_keyed():
    metrics = Metrics()
    metrics.inc("calls", stream="s1", kind="send")
    metrics.observe("wait", 5.0)
    report = metrics.summary()
    text = json.dumps(report)
    parsed = json.loads(text)
    assert parsed["counters"]["calls{kind=send,stream=s1}"] == 1
    assert parsed["histograms"]["wait"]["mean"] == 5.0


def test_histogram_snapshot_includes_p999():
    histogram = Histogram()
    for value in range(1, 1001):
        histogram.observe(float(value))
    snapshot = histogram.snapshot()
    assert snapshot["p999"] == histogram.percentile(99.9)
    assert snapshot["p99"] <= snapshot["p999"] <= snapshot["max"]


def test_exact_histogram_merge():
    left, right = Histogram(), Histogram()
    for value in (1.0, 5.0):
        left.observe(value)
    for value in (2.0, 4.0, 3.0):
        right.observe(value)
    assert left.merge(right) is left
    assert left.count == 5
    assert left.percentile(50) == 3.0
    # Merging an empty histogram is the identity.
    before = left.count
    left.merge(Histogram())
    assert left.count == before
