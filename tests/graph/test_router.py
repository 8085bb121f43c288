"""Sched-key routing: the fixed splitmix64 mix and the shard map."""

import pytest

from repro.graph import ShardRouter, mix64


def test_mix64_is_deterministic_and_64_bit():
    seen = set()
    for key in list(range(200)) + [-1, -(2**63), 2**63 - 1, 2**64 + 7]:
        value = mix64(key)
        assert 0 <= value < 2**64
        assert value == mix64(key)  # pure function of the key
        seen.add(value)
    # A well-distributed mix: no collisions over this sample.  2**64 + 7
    # aliases key 7 by construction (the mix is of the low 64 bits), so
    # 203 distinct values, not 204.
    assert len(seen) == 203
    assert mix64(2**64 + 7) == mix64(7)


def test_mix64_spreads_small_keys_across_shards():
    # Sequential integer keys (the common sched_key shape) must not all
    # land on one shard — that is the whole point of mixing first.
    for n_shards in (2, 3, 5, 8):
        slots = {mix64(key) % n_shards for key in range(64)}
        assert slots == set(range(n_shards))


def test_router_is_stable_and_consistent():
    router = ShardRouter(["a", "b", "c"])
    assert len(router) == 3
    for key in range(100):
        index = router.shard_index(key)
        assert router.shard_name(key) == router.shard_names[index]
        assert router.index_of(router.shard_name(key)) == index


def test_router_rejects_bad_groups():
    with pytest.raises(ValueError):
        ShardRouter([])
    with pytest.raises(ValueError):
        ShardRouter(["a", "b", "a"])
    with pytest.raises(KeyError):
        ShardRouter(["a"]).index_of("not-a-shard")
