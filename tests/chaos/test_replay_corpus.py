"""The checked-in seed corpus replays to its recorded verdicts + digests."""

import os

import pytest

from repro.chaos.engine import run_one
from repro.chaos.seeds import (
    corpus_paths,
    load_seed,
    replay_seed,
    save_seed,
    seed_record,
)

CORPUS = os.path.join(os.path.dirname(__file__), "seeds")


def _corpus():
    return corpus_paths(CORPUS)


def test_corpus_is_not_empty():
    assert len(_corpus()) >= 4  # at least one seed per workload


@pytest.mark.parametrize("path", _corpus(), ids=os.path.basename)
def test_corpus_seed_replays_identically(path):
    record = load_seed(path)
    ok, result, mismatches = replay_seed(record)
    assert ok, "%s drifted: %s (problems=%r violations=%r)" % (
        path,
        mismatches,
        result.problems,
        result.violations,
    )


def test_seed_record_round_trips(tmp_path):
    result = run_one("echo", seed=0)
    record = seed_record(result, note="round-trip test")
    path = tmp_path / "echo-seed0.seed.json"
    save_seed(record, str(path))
    loaded = load_seed(str(path))
    assert loaded == record
    ok, _, mismatches = replay_seed(loaded)
    assert ok, mismatches


def test_replay_detects_digest_drift(tmp_path):
    result = run_one("echo", seed=0)
    record = seed_record(result)
    record["expect"]["digest"] = "0" * 64
    ok, _, mismatches = replay_seed(record)
    assert not ok
    assert any("digest" in mismatch for mismatch in mismatches)


def test_replay_detects_verdict_drift():
    result = run_one("echo", seed=0)
    record = seed_record(result)
    record["expect"]["verdict"] = "fail" if result.verdict == "pass" else "pass"
    ok, _, mismatches = replay_seed(record)
    assert not ok
    assert any("verdict" in mismatch for mismatch in mismatches)


def test_load_seed_rejects_bad_format(tmp_path):
    path = tmp_path / "bad.json"
    save_seed({"format": 99}, str(path))
    with pytest.raises(ValueError):
        load_seed(str(path))


def test_replay_names_each_moved_count():
    result = run_one("echo", seed=0)
    record = seed_record(result)
    counts = record["expect"]["event_counts"]
    assert counts == result.event_counts
    assert sum(counts.values()) == result.event_count
    resumed = counts["process.resumed"]
    counts["process.resumed"] = resumed + 2
    record["expect"]["sim_time"] += 1.0
    ok, _, mismatches = replay_seed(record)
    assert not ok
    assert "process.resumed: recorded %d, replay produced %d" % (resumed + 2, resumed) in mismatches
    assert any(mismatch.startswith("sim_time: recorded") for mismatch in mismatches)
    assert not any(mismatch.startswith("process.created") for mismatch in mismatches)
