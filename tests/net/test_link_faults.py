"""Link-level chaos: per-message drop / delay / duplication / reordering."""

import random

import pytest

from repro.entities import ArgusSystem
from repro.net.faults import LinkFaultInjector, LinkFaultProfile
from repro.streams import StreamConfig

from ..streams.helpers import build_echo_world, run_main

FAST = StreamConfig(batch_size=4, max_buffer_delay=1.0, rto=5.0, max_retries=8)


# ----------------------------------------------------------------------
# LinkFaultProfile
# ----------------------------------------------------------------------

def test_profile_validates_rates():
    with pytest.raises(ValueError):
        LinkFaultProfile(drop_rate=1.0)
    with pytest.raises(ValueError):
        LinkFaultProfile(dup_rate=-0.1)
    with pytest.raises(ValueError):
        LinkFaultProfile(delay_rate=0.1, delay_min=5.0, delay_max=1.0)


def test_profile_round_trips_through_dict():
    profile = LinkFaultProfile(
        drop_rate=0.1, dup_rate=0.05, delay_rate=0.2, reorder_rate=0.15,
        delay_min=0.5, delay_max=4.0,
    )
    assert LinkFaultProfile.from_dict(profile.to_dict()) == profile
    with pytest.raises(ValueError):
        LinkFaultProfile.from_dict({"drop_rate": 0.1, "bogus": 1})


def test_profile_active_flag():
    assert not LinkFaultProfile().active
    assert LinkFaultProfile(drop_rate=0.01).active


# ----------------------------------------------------------------------
# LinkFaultInjector
# ----------------------------------------------------------------------

def test_injector_decisions_are_seed_deterministic():
    profile = LinkFaultProfile(drop_rate=0.2, dup_rate=0.2, delay_rate=0.3, reorder_rate=0.2)

    def decisions(seed):
        injector = LinkFaultInjector(random.Random(seed), default=profile)
        return [injector.decide("node:a", "node:b") for _ in range(200)]

    assert decisions(7) == decisions(7)
    assert decisions(7) != decisions(8)


def test_injector_fast_path_without_profile():
    injector = LinkFaultInjector(random.Random(0))
    assert injector.decide("node:a", "node:b") is None
    assert injector.decisions == 0  # no draw burned on fault-free links


def test_injector_per_link_profiles_are_direction_agnostic():
    drop_all = LinkFaultProfile(drop_rate=0.999999)
    injector = LinkFaultInjector(
        random.Random(0), per_link={("node:a", "node:b"): drop_all}
    )
    assert injector.profile_for("node:b", "node:a") is drop_all
    assert injector.profile_for("node:a", "node:c") is None


# ----------------------------------------------------------------------
# Network integration
# ----------------------------------------------------------------------

def _chaos_world(profile, seed=11, **kwargs):
    system, server, client = build_echo_world(stream_config=FAST, seed=seed, **kwargs)
    system.network.install_link_faults(
        LinkFaultInjector(system.rng.stream("chaos.link"), default=profile)
    )
    return system, server, client


def _echo_round_trip(n):
    def main(ctx):
        echo = ctx.lookup("server", "echo")
        promises = [echo.stream(index) for index in range(n)]
        echo.flush()
        values = []
        for promise in promises:
            values.append((yield promise.claim()))
        return values

    return main


def test_drops_are_recovered_by_retransmission():
    system, server, client = _chaos_world(LinkFaultProfile(drop_rate=0.3))
    values = run_main(system, client, _echo_round_trip(12))
    assert values == list(range(12))
    assert system.network.stats.messages_dropped_chaos > 0
    assert server.state["echo_calls"] == 12  # exactly-once end to end


def test_duplicates_never_duplicate_execution():
    system, server, client = _chaos_world(LinkFaultProfile(dup_rate=0.5))
    values = run_main(system, client, _echo_round_trip(12))
    assert values == list(range(12))
    assert system.network.stats.messages_duplicated > 0
    assert server.state["echo_calls"] == 12


def test_reordering_never_reorders_delivery_to_handlers():
    profile = LinkFaultProfile(reorder_rate=0.4, delay_min=0.5, delay_max=6.0)
    system = ArgusSystem(latency=1.0, kernel_overhead=0.1, stream_config=FAST, seed=5)
    server = system.create_guardian("server")
    server.state["order"] = []

    from repro.types import INT, HandlerType

    def record(ctx, x):
        ctx.guardian.state["order"].append(x)
        yield ctx.compute(0.01)
        return x

    server.create_handler("record", HandlerType(args=[INT], returns=[INT]), record)
    client = system.create_guardian("client")
    system.network.install_link_faults(
        LinkFaultInjector(system.rng.stream("chaos.link"), default=profile)
    )

    def main(ctx):
        ref = ctx.lookup("server", "record")
        promises = [ref.stream(index) for index in range(16)]
        ref.flush()
        for promise in promises:
            yield promise.claim()
        return ctx.guardian.system.guardian("server").state["order"]

    order = run_main(system, client, main)
    # The wire reordered packets, but retransmission + the receiver's
    # out-of-order buffer must deliver calls in stream order regardless.
    assert order == list(range(16))


def test_delay_chaos_preserves_fifo_and_completes():
    profile = LinkFaultProfile(delay_rate=0.5, delay_min=1.0, delay_max=6.0)
    system, server, client = _chaos_world(profile, seed=3)
    values = run_main(system, client, _echo_round_trip(10))
    assert values == list(range(10))


def test_no_injector_means_identical_stats():
    """The fast path: a world without link faults burns no chaos draws and
    counts nothing in the chaos counters."""
    system, server, client = build_echo_world(stream_config=FAST, seed=2)
    values = run_main(system, client, _echo_round_trip(8))
    assert values == list(range(8))
    assert system.network.stats.messages_dropped_chaos == 0
    assert system.network.stats.messages_duplicated == 0
