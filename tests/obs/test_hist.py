"""StreamingHistogram: accuracy bound, merge algebra, serialization.

The histogram's contract is *relative* quantile error: every estimate is
within ``relative_error`` of the true sample quantile.  The property
tests drive that contract with adversarial shapes (constant, bimodal
with a huge gap, heavy-tailed) and check the algebraic laws — merge
associativity/commutativity and dict round-trip — that let shards'
histograms be pooled and shipped in reports.
"""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Histogram, StreamingHistogram


def assert_within_relative(estimate, exact, relative_error):
    assert estimate == pytest.approx(exact, rel=relative_error)


# ----------------------------------------------------------------------
# Unit tests: edge cases and the basic contract
# ----------------------------------------------------------------------
def test_empty_histogram_is_all_zero():
    hist = StreamingHistogram()
    assert hist.count == 0
    assert hist.mean == 0.0
    assert hist.percentile(50) == 0.0
    assert hist.percentile(99.9) == 0.0
    snapshot = hist.snapshot()
    assert snapshot["count"] == 0
    assert snapshot["p999"] == 0.0


def test_single_sample_every_percentile_is_the_sample():
    hist = StreamingHistogram()
    hist.observe(42.0)
    for p in (0, 1, 50, 99, 99.9, 100):
        assert hist.percentile(p) == pytest.approx(42.0, rel=0.01)


def test_zero_values_have_their_own_exact_bucket():
    hist = StreamingHistogram()
    for _ in range(10):
        hist.observe(0.0)
    hist.observe(5.0)
    assert hist.percentile(50) == 0.0
    assert hist.percentile(100) == pytest.approx(5.0, rel=0.01)


def test_negative_values_are_rejected():
    hist = StreamingHistogram()
    with pytest.raises(ValueError):
        hist.observe(-1.0)


def test_percentile_out_of_range_is_rejected():
    hist = StreamingHistogram()
    hist.observe(1.0)
    with pytest.raises(ValueError):
        hist.percentile(101)
    with pytest.raises(ValueError):
        hist.percentile(-1)


RANK_NS = (1, 2, 4, 6, 10, 100, 200)
RANK_PS = (0, 50, 90, 99, 99.9, 100)


@pytest.mark.parametrize("cls", [Histogram, StreamingHistogram])
def test_percentile_picks_the_ceiling_rank(cls):
    # Nearest rank = ceil(p * n / 100), at least 1.  Sample k of n is
    # 2**k, so the 1%-accurate streaming estimate still names its rank.
    # The spot checks are ranks where p * n / 100 is an odd integer — the
    # cases a round-half-even "+ 0.5" rule puts one too high.
    table = {
        (n, p): max(1, math.ceil(Fraction(str(p)) * n / 100))
        for n in RANK_NS
        for p in RANK_PS
    }
    assert [table[key] for key in [(10, 50), (4, 50), (6, 50), (100, 99)]] == [5, 2, 3, 99]
    assert table[(200, 99.9)] == 200 and table[(1, 0)] == 1
    for (n, p), rank in table.items():
        hist = cls()
        for k in range(n, 0, -1):
            hist.observe(2.0 ** k)
        assert round(math.log2(hist.percentile(p))) == rank, (n, p)


def test_both_histograms_agree_with_the_benchmark_suite_rule():
    from benchmarks.suite.harness import percentile as suite_percentile

    rng = random.Random(20)
    for n in RANK_NS:
        samples = [rng.lognormvariate(0.0, 2.0) for _ in range(n)]
        exact, streaming = Histogram(), StreamingHistogram()
        for value in samples:
            exact.observe(value)
            streaming.observe(value)
        for p in RANK_PS:
            picked = suite_percentile(sorted(samples), p)
            assert exact.percentile(p) == picked, (n, p)
            assert_within_relative(
                streaming.percentile(p), picked, streaming.relative_error
            )


def test_min_max_and_mean_are_exact():
    hist = StreamingHistogram()
    for value in (3.0, 1.0, 4.0, 1.5):
        hist.observe(value)
    assert hist.min == 1.0
    assert hist.max == 4.0
    assert hist.mean == pytest.approx((3.0 + 1.0 + 4.0 + 1.5) / 4)


def test_estimates_clamp_to_observed_min_max():
    hist = StreamingHistogram()
    hist.observe(10.0)
    hist.observe(10.0)
    assert hist.percentile(0) >= hist.min
    assert hist.percentile(100) <= hist.max


def test_merge_with_empty_is_identity():
    hist = StreamingHistogram()
    for value in (1.0, 2.0, 3.0):
        hist.observe(value)
    before = hist.to_dict()
    hist.merge(StreamingHistogram())
    assert hist.to_dict() == before
    empty = StreamingHistogram()
    empty.merge(hist)
    assert empty.to_dict() == before


def test_merge_requires_matching_error_bound():
    coarse = StreamingHistogram(relative_error=0.05)
    fine = StreamingHistogram(relative_error=0.01)
    with pytest.raises(ValueError):
        fine.merge(coarse)


def test_merge_rejects_exact_histogram():
    hist = StreamingHistogram()
    with pytest.raises(TypeError):
        hist.merge(Histogram())


def test_quantiles_key_naming():
    hist = StreamingHistogram()
    hist.observe(1.0)
    keys = hist.quantiles(50, 99, 99.9)
    assert sorted(keys) == ["p50", "p99", "p999"]


def test_constant_memory_under_many_observations():
    hist = StreamingHistogram()
    rng = random.Random(7)
    for _ in range(50_000):
        hist.observe(rng.uniform(0.0001, 1000.0))
    # 0.01 relative error over 7 decades needs ~800 buckets at most.
    assert hist.bucket_count < 1000
    assert hist.count == 50_000


# ----------------------------------------------------------------------
# Property tests: streaming vs exact on adversarial distributions
# ----------------------------------------------------------------------
def _exact_percentile(values, p):
    exact = Histogram()
    for value in values:
        exact.observe(value)
    return exact.percentile(p)


positive_values = st.floats(
    min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False
)


@settings(max_examples=100, deadline=None)
@given(st.lists(positive_values, min_size=1, max_size=200))
def test_quantile_error_bound_random(values):
    hist = StreamingHistogram(relative_error=0.01)
    for value in values:
        hist.observe(value)
    for p in (0, 50, 90, 99, 99.9, 100):
        # Documented bound is 1%; allow epsilon for float rounding.
        assert_within_relative(
            hist.percentile(p), _exact_percentile(values, p), 0.0101
        )


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.sampled_from([0.001, 0.0011, 900.0, 1000.0]), min_size=1, max_size=300)
)
def test_quantile_error_bound_bimodal(values):
    """A six-decade gap between modes must not smear the estimates."""
    hist = StreamingHistogram(relative_error=0.01)
    for value in values:
        hist.observe(value)
    for p in (25, 50, 75, 99.9):
        assert_within_relative(
            hist.percentile(p), _exact_percentile(values, p), 0.0101
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_quantile_error_bound_heavy_tailed(seed):
    rng = random.Random(seed)
    values = [rng.paretovariate(1.1) for _ in range(500)]
    hist = StreamingHistogram(relative_error=0.01)
    for value in values:
        hist.observe(value)
    for p in (50, 90, 99, 99.9):
        assert_within_relative(
            hist.percentile(p), _exact_percentile(values, p), 0.0101
        )


@settings(max_examples=50, deadline=None)
@given(st.lists(positive_values | st.just(0.0), min_size=1, max_size=120))
def test_constant_and_zero_mixtures(values):
    hist = StreamingHistogram(relative_error=0.01)
    for value in values:
        hist.observe(value)
    assert hist.count == len(values)
    p100 = hist.percentile(100)
    assert p100 <= hist.max
    assert hist.percentile(0) >= 0.0
    assert_within_relative(p100, max(values), 0.0101)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(positive_values, max_size=60),
    st.lists(positive_values, max_size=60),
    st.lists(positive_values, max_size=60),
)
def test_merge_is_associative_and_commutative(a, b, c):
    def build(values):
        hist = StreamingHistogram(relative_error=0.01)
        for value in values:
            hist.observe(value)
        return hist

    left = build(a).merge(build(b)).merge(build(c))
    right = build(b).merge(build(c)).merge(build(a))
    left_dict, right_dict = left.to_dict(), right.to_dict()
    # ``total`` is a float sum, so merge order may shift its last bits.
    assert left_dict.pop("total") == pytest.approx(
        right_dict.pop("total"), rel=1e-9, abs=1e-12
    )
    assert left_dict == right_dict
    # Merged quantiles match a histogram built from the concatenation.
    pooled = build(a + b + c)
    for p in (50, 99, 99.9):
        assert left.percentile(p) == pooled.percentile(p)


@settings(max_examples=60, deadline=None)
@given(st.lists(positive_values | st.just(0.0), max_size=120))
def test_serialization_round_trip(values):
    hist = StreamingHistogram(relative_error=0.02)
    for value in values:
        hist.observe(value)
    encoded = json.loads(json.dumps(hist.to_dict()))
    clone = StreamingHistogram.from_dict(encoded)
    assert clone.to_dict() == hist.to_dict()
    assert clone.count == hist.count
    for p in (0, 50, 99.9, 100):
        assert clone.percentile(p) == hist.percentile(p)


@settings(max_examples=40, deadline=None)
@given(st.lists(positive_values, min_size=1, max_size=100), st.integers(1, 5))
def test_sharded_merge_matches_single_histogram(values, shards):
    """Splitting a stream across shards and merging loses nothing."""
    whole = StreamingHistogram()
    parts = [StreamingHistogram() for _ in range(shards)]
    for index, value in enumerate(values):
        whole.observe(value)
        parts[index % shards].observe(value)
    merged = StreamingHistogram()
    for part in parts:
        merged.merge(part)
    merged_dict, whole_dict = merged.to_dict(), whole.to_dict()
    assert merged_dict.pop("total") == pytest.approx(
        whole_dict.pop("total"), rel=1e-9, abs=1e-12
    )
    assert merged_dict == whole_dict
