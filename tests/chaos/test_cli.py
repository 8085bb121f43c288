"""``python -m repro.chaos``: the run, replay and shrink commands end to end."""

import json
import os
import shutil

import pytest

from repro.chaos.__main__ import main
from repro.chaos.workloads import WORKLOADS, EchoWorkload

CORPUS = os.path.join(os.path.dirname(__file__), "seeds")


def test_run_reports_a_clean_campaign(capsys):
    assert main(["run", "--workload", "echo", "--seeds", "0:3", "--intensity", "light"]) == 0
    out = capsys.readouterr().out
    assert "campaign: 3 run(s), 0 failure(s)" in out
    assert "FAIL" not in out


def test_run_reports_a_failing_workload(capsys, tmp_path):
    class BrokenEcho(EchoWorkload):
        def expected(self):
            return {key: value + 1000 for key, value in super().expected().items()}

    original = dict(WORKLOADS)
    BrokenEcho.name = "broken-echo"
    WORKLOADS["broken-echo"] = BrokenEcho
    try:
        code = main([
            "run", "--workload", "broken-echo", "--seeds", "0", "--intensity", "light",
            "--no-shrink", "--artifacts", str(tmp_path),
        ])
    finally:
        WORKLOADS.clear()
        WORKLOADS.update(original)
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL broken-echo seed=0" in out
    assert "campaign: 1 run(s), 1 failure(s)" in out
    assert "shrink[" not in out
    assert sorted(os.listdir(tmp_path)) == [
        "broken-echo-seed0.seed.json", "broken-echo-seed0.trace.jsonl",
    ]


def test_shrink_has_nothing_to_do_on_a_passing_run(capsys):
    assert main(["shrink", "--workload", "echo", "--seed", "0", "--intensity", "light"]) == 1
    assert "echo seed=0 at intensity=light — nothing to shrink" in capsys.readouterr().out


def test_shrink_writes_a_seed_file_that_replays(capsys, tmp_path):
    class BrokenEcho(EchoWorkload):
        def expected(self):
            return {key: value + 1000 for key, value in super().expected().items()}

    original = dict(WORKLOADS)
    BrokenEcho.name = "broken-echo"
    WORKLOADS["broken-echo"] = BrokenEcho
    path = str(tmp_path / "broken-echo-seed0.json")
    try:
        code = main([
            "shrink", "--workload", "broken-echo", "--seed", "0", "--intensity", "light",
            "--out", path,
        ])
        shrunk = capsys.readouterr().out
        replayed = main(["replay", path])
    finally:
        WORKLOADS.clear()
        WORKLOADS.update(original)
    assert code == 0
    assert "minimal schedule: 0 op(s) after" in shrunk
    assert "wrote %s" % path in shrunk
    assert replayed == 0
    out = capsys.readouterr().out
    assert "ok   %s (broken-echo seed=0 verdict=fail)" % path in out
    assert "replay: 1 seed(s), 0 drifted" in out


def test_replay_passes_the_corpus(capsys):
    assert main(["replay", CORPUS]) == 0
    out = capsys.readouterr().out
    assert "DRIFT" not in out
    assert "replay: %d seed(s), 0 drifted" % len(os.listdir(CORPUS)) in out


def test_replay_flags_a_tampered_digest(capsys, tmp_path):
    path = str(tmp_path / "echo-seed3-default.json")
    shutil.copy(os.path.join(CORPUS, "echo-seed3-default.json"), path)
    with open(path) as handle:
        record = json.load(handle)
    record["expect"]["digest"] = "0" * 64
    with open(path, "w") as handle:
        json.dump(record, handle)
    assert main(["replay", path]) == 1
    out = capsys.readouterr().out
    assert "DRIFT %s" % path in out
    assert "replay: 1 seed(s), 1 drifted" in out


@pytest.mark.parametrize("spec", ["5:2", ",", "x"])
def test_run_rejects_a_bad_seed_spec_as_usage_error(capsys, spec):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--workload", "echo", "--seeds", spec])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert "--seeds" in err
