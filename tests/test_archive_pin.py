"""Pinned replay archives: the exact files `archive_run` writes.

Each case fixes a sha256 over `index.json` and every entry file (name and
content) of one run's archive. `manifest.json` is left out because its
run id holds the process id. Changing how or when stage results are
serialized must reproduce every pin byte for byte, or existing archives
would stop replaying.
"""

import hashlib
import json

import pytest

from conftest import build_checkpoint, build_pipe
import planlens.pipeline as pipeline_mod
from planlens.agents import Candidate
from planlens.feedback import Coalition, Representation, default_components
from planlens.pipeline import (
    ExecutionMode,
    Intervention,
    PipelineConfig,
    PlanMode,
    RunLedger,
    archive_run,
    replay_load,
)
from planlens.trajectory import ExecutionRecord

FULL = Coalition.of(*default_components())
FAILS = frozenset({("s001", 1), ("s002", 0), ("s002", 1), ("s002", 2)})
CRASHES = frozenset({("s000", 0), ("s003", 2)})

# name -> (samples, config fields, intervention, failed attempts, crashes)
CASES = {
    "serial": (
        4,
        dict(execution_mode=ExecutionMode.SERIAL, k=3),
        Intervention(coalition=FULL),
        frozenset(),
        frozenset(),
    ),
    "stage-sync-rounds2-summarized": (
        5,
        dict(execution_mode=ExecutionMode.STAGE_SYNC, k=3, rounds=2),
        Intervention(coalition=FULL, representation=Representation.SUMMARIZED),
        frozenset(),
        frozenset(),
    ),
    "multi-async-formatted": (
        6,
        dict(execution_mode=ExecutionMode.MULTI_ASYNC, k=4),
        Intervention(coalition=Coalition(5), representation=Representation.FORMATTED),
        frozenset(),
        frozenset(),
    ),
    "plan-dummy": (
        4,
        dict(k=3),
        Intervention(coalition=FULL, plan_mode=PlanMode.DUMMY),
        frozenset(),
        frozenset(),
    ),
    "plan-none": (
        4,
        dict(k=3),
        Intervention(coalition=Coalition(2), plan_mode=PlanMode.NONE),
        frozenset(),
        frozenset(),
    ),
    "fails-and-crashes": (
        5,
        dict(k=3, rounds=2),
        Intervention(coalition=FULL),
        FAILS,
        CRASHES,
    ),
}

# name -> (entries, sha256 of index.json and the entry files), as written
# by the implementation that built the archive cache during the run.
PINS = {
    "fails-and-crashes": (42, "f18723dbe4129de390cdc038b70036bac4a354c5e569571510beac1c43cc59c8"),
    "multi-async-formatted": (36, "336924c074ddf4425cb3139e63cb3bb786dbd63a836be3c69d8fdea87ca6e4c4"),
    "plan-dummy": (20, "6b3d4eef0f9c7ea012b3664bdbb207361ea7a904538da5b9a49ccb7ae20490c7"),
    "plan-none": (20, "5c56e849a9a7a3ca5c095c142dc1292ee3a77cfa3b821dfb8bfe350611fd05e8"),
    "serial": (20, "b5cd83b887fa6a8866f37a6316541b99dccb4dfe7143d0678b490c36b1352288"),
    "stage-sync-rounds2-summarized": (50, "fe8ada3962e5ba437b11bc661f8ef49d53b03d2d21072d82d106f8644e9e40bf"),
}


def archive_digest(directory) -> tuple[int, str]:
    index = (directory / "index.json").read_bytes()
    h = hashlib.sha256(index)
    for path in sorted((directory / "entries").iterdir()):
        h.update(b"\0" + path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return len(json.loads(index)), h.hexdigest()


def run_case(name, replay=None):
    n_samples, fields, intervention, fails, crashes = CASES[name]
    checkpoint = build_checkpoint(n_samples)
    pipe = build_pipe(
        checkpoint,
        config=PipelineConfig(seed=3, **fields),
        fail_attempts=fails,
        crash_on=crashes,
    )
    run_id = pipe.submit(checkpoint, intervention, seed=17, replay=replay)
    return pipe, run_id, pipe.run_to_completion(run_id)


def agent_calls(pipe) -> tuple[int, int, int, int]:
    a = pipe.agents
    return (a.summarizer.calls, a.planner.calls, a.generator.calls, a.evaluator.calls)


def test_cases_cover_required_shapes():
    fields = [f for _, f, _, _, _ in CASES.values()]
    modes = {f.get("execution_mode", ExecutionMode.MULTI_ASYNC) for f in fields}
    assert modes == set(ExecutionMode)
    assert any(
        f.get("execution_mode") is ExecutionMode.STAGE_SYNC and f.get("rounds") == 2
        for f in fields
    )
    plan_modes = {i.plan_mode for _, _, i, _, _ in CASES.values()}
    assert {PlanMode.DUMMY, PlanMode.NONE, PlanMode.SELF} <= plan_modes
    assert any(fails and crashes for _, _, _, fails, crashes in CASES.values())
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_pinned(name, tmp_path):
    pipe, run_id, _ = run_case(name)
    archive_run(pipe, run_id, tmp_path)
    assert archive_digest(tmp_path) == PINS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_unarchived_run_serializes_nothing(name, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("archive work done for a run nobody archived")

    monkeypatch.setattr(pipeline_mod, "_report_to_json", refuse)
    monkeypatch.setattr(Candidate, "to_json", refuse)
    monkeypatch.setattr(ExecutionRecord, "to_json", refuse)
    monkeypatch.setattr(RunLedger, "stage_key", refuse)
    pipe, run_id, _ = run_case(name)
    monkeypatch.undo()
    archive_run(pipe, run_id, tmp_path)
    assert archive_digest(tmp_path) == PINS[name]


@pytest.mark.parametrize(
    "kinds", [None, {"anlz"}, {"anlz", "gen"}], ids=["all", "anlz", "anlz-gen"]
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_of_replayed_run_equals_original(name, kinds, tmp_path):
    pipe, run_id, original = run_case(name)
    archive_run(pipe, run_id, tmp_path / "original")
    cp = pipe.ledger(run_id).checkpoint
    cache = replay_load(tmp_path / "original", cp)
    pipe, run_id, replayed = run_case(name, cache.filter(kinds) if kinds else cache)
    archive_run(pipe, run_id, tmp_path / "replayed")
    assert archive_digest(tmp_path / "replayed") == PINS[name]

    # Replaying the replayed run's archive redoes no agent work.
    pipe, _, again = run_case(name, replay_load(tmp_path / "replayed", cp))
    assert agent_calls(pipe) == (0, 0, 0, 0)
    assert again.stats == replayed.stats == original.stats
