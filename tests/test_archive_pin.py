"""Pinned replay archives: the exact files `archive_run` writes.

Each case fixes a sha256 over `index.json` and every entry (name and
content) of one run's archive. `manifest.json` is left out because its
run id holds the process id. The pins were taken when each entry had a
file of its own under `entries/` (archive format version 1); an entry of
the `entries.json` pack hashes as the text of that file, so the pins hold
for both layouts. Changing how or when stage results are serialized must
reproduce every pin byte for byte, or existing archives would stop
replaying.
"""

import hashlib
import json

import pytest

from conftest import build_checkpoint, build_pipe, only_stages
import planlens.pipeline as pipeline_mod
from planlens.agents import Candidate
from planlens.feedback import Coalition, Representation, default_components
from planlens.pipeline import (
    ExecutionMode,
    Intervention,
    PipelineConfig,
    PlanMode,
    ReplayArchiveError,
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


def digest(index: bytes, entries: dict[str, bytes]) -> tuple[int, str]:
    h = hashlib.sha256(index)
    for name in sorted(entries):
        h.update(b"\0" + name.encode("utf-8") + b"\0")
        h.update(entries[name])
    return len(json.loads(index)), h.hexdigest()


def archive_digest(directory) -> tuple[int, str]:
    """The digest of an archive's index and of each entry of its pack, as
    the text the entry's own file held in format version 1. The pack is
    itself written as `json.dumps(pack, sort_keys=True)`."""
    text = (directory / "entries.json").read_text(encoding="utf-8")
    pack = json.loads(text)
    assert text == json.dumps(pack, sort_keys=True)
    entries = {name: json.dumps(payload, sort_keys=True).encode("utf-8") for name, payload in pack.items()}
    return digest((directory / "index.json").read_bytes(), entries)


def v1_archive_digest(directory) -> tuple[int, str]:
    """The digest of a version-1 archive: its index and each file of `entries/`."""
    entries = {path.name: path.read_bytes() for path in (directory / "entries").iterdir()}
    return digest((directory / "index.json").read_bytes(), entries)


def write_v1_archive(archive, directory) -> None:
    """Lay `archive` out in `directory` as format version 1 wrote it: one
    file per entry under `entries/`, and `format_version` 1."""
    (directory / "entries").mkdir(parents=True)
    for name, payload in json.loads((archive / "entries.json").read_text(encoding="utf-8")).items():
        (directory / "entries" / name).write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
    (directory / "index.json").write_bytes((archive / "index.json").read_bytes())
    manifest = json.loads((archive / "manifest.json").read_text(encoding="utf-8"))
    (directory / "manifest.json").write_text(json.dumps(dict(manifest, format_version=1)), encoding="utf-8")


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
    return pipe, pipe.run_to_completion(run_id)


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
    _, result = run_case(name)
    archive_run(result, tmp_path)
    assert archive_digest(tmp_path) == PINS[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_unarchived_run_serializes_nothing(name, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("archive work done for a run nobody archived")

    monkeypatch.setattr(pipeline_mod, "_report_to_json", refuse)
    monkeypatch.setattr(Candidate, "to_json", refuse)
    monkeypatch.setattr(ExecutionRecord, "to_json", refuse)
    monkeypatch.setattr(RunLedger, "stage_key", refuse)
    _, result = run_case(name)
    monkeypatch.undo()
    archive_run(result, tmp_path)
    assert archive_digest(tmp_path) == PINS[name]


@pytest.mark.parametrize(
    "kinds", [None, {"anlz"}, {"anlz", "gen"}], ids=["all", "anlz", "anlz-gen"]
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_archive_of_replayed_run_equals_original(name, kinds, tmp_path):
    _, original = run_case(name)
    archive_run(original, tmp_path / "original")
    cp = original.ledger.checkpoint
    cache = replay_load(tmp_path / "original", cp)
    _, replayed = run_case(name, only_stages(cache, kinds) if kinds else cache)
    archive_run(replayed, tmp_path / "replayed")
    assert archive_digest(tmp_path / "replayed") == PINS[name]

    # Replaying the replayed run's archive redoes no agent work.
    pipe, again = run_case(name, replay_load(tmp_path / "replayed", cp))
    assert agent_calls(pipe) == (0, 0, 0, 0)
    assert again.stats == replayed.stats == original.stats


@pytest.mark.parametrize("name", sorted(CASES))
def test_version_1_archive_still_replays(name, tmp_path):
    """An archive written in the one-file-per-entry layout of format version
    1 holds the pinned bytes and replays as the pack it was built from."""
    _, original = run_case(name)
    archive_run(original, tmp_path / "v2")
    write_v1_archive(tmp_path / "v2", tmp_path / "v1")
    assert v1_archive_digest(tmp_path / "v1") == PINS[name]
    cp = original.ledger.checkpoint
    replays = {}
    for layout in ("v1", "v2"):
        pipe, replays[layout] = run_case(name, replay_load(tmp_path / layout, cp))
        assert agent_calls(pipe) == (0, 0, 0, 0)
    assert replays["v1"].stats == replays["v2"].stats == original.stats
    assert replays["v1"].trace == replays["v2"].trace != ()


def test_recording_over_version_1_archive_leaves_only_the_pack(tmp_path):
    """Re-recording over a version-1 archive removes its `entries/`, which
    would otherwise count in any size or digest taken over the directory."""
    _, first = run_case("serial")
    archive_run(first, tmp_path / "v2")
    write_v1_archive(tmp_path / "v2", tmp_path / "archive")
    _, second = run_case("plan-dummy")
    archive_run(second, tmp_path / "archive")
    assert sorted(p.name for p in (tmp_path / "archive").iterdir()) == ["entries.json", "index.json", "manifest.json"]
    assert archive_digest(tmp_path / "archive") == PINS["plan-dummy"]
    pipe, replayed = run_case("plan-dummy", replay_load(tmp_path / "archive", second.ledger.checkpoint))
    assert agent_calls(pipe) == (0, 0, 0, 0)
    assert replayed.stats == second.stats


def test_failed_removal_of_version_1_entries_leaves_no_manifest(tmp_path, monkeypatch):
    _, result = run_case("serial")
    archive_run(result, tmp_path / "v2")
    write_v1_archive(tmp_path / "v2", tmp_path / "archive")

    def refuse(path):
        raise PermissionError(f"cannot remove {path}")

    monkeypatch.setattr(pipeline_mod.shutil, "rmtree", refuse)
    with pytest.raises(PermissionError):
        archive_run(result, tmp_path / "archive")
    monkeypatch.undo()
    assert not (tmp_path / "archive" / "manifest.json").exists()
    with pytest.raises(ReplayArchiveError, match="manifest.json"):
        replay_load(tmp_path / "archive", result.ledger.checkpoint)
