"""A replay archive is outside data, and `replay_load` is the one place that
reads, checks and decodes it. Two properties: a recorded archive mutated
in either layout (the `entries.json` pack, or version 1's `entries/` files)
either replays or is refused with exit 3 naming a file of the archive,
never with a traceback; and every product `replay_load` decodes from
`archive_run`'s archive equals what the recorded run's stage produced."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_checkpoint, build_pipe
from test_archive_pin import write_v1_archive
from planlens.cli import EXIT_DATA, EXIT_OK, main
from planlens.feedback import Coalition, default_components, randomize_feedback
from planlens.pipeline import (
    ExecutionMode,
    Intervention,
    PipelineConfig,
    PlanMode,
    Stage,
    archive_run,
    replay_load,
)
from planlens.trajectory import save_checkpoint

FULL = Coalition.of(*default_components())
# The recorded run; `--retries 3` and two rounds give GEN entries with
# several candidates and failures and EVAL entries that share a name.
RUN = ["--coalition", "d,a", "--rollouts", "1", "--retries", "3", "--rounds", "2", "--seed", "5"]
ARCHIVE_FILES = ("manifest.json", "index.json", "entries.json", "entries/")


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """(checkpoint file, {layout: archive directory}) of one recorded run."""
    base = tmp_path_factory.mktemp("recorded")
    checkpoint = base / "checkpoint.ndjson"
    save_checkpoint(build_checkpoint(4), str(checkpoint))
    pack = base / "pack"
    argv = ["intervene", "--checkpoint", str(checkpoint), *RUN, "--out", str(base / "x.csv"), "--archive", str(pack)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    write_v1_archive(pack, base / "v1")
    return checkpoint, {"pack": pack, "v1": base / "v1"}


def replay(checkpoint, archive) -> tuple[int, str]:
    """`intervene --replay archive`'s exit code and standard error."""
    argv = ["intervene", "--checkpoint", str(checkpoint), *RUN, "--out", str(archive.parent / "y.csv"),
            "--replay", str(archive)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def nodes(value, path=()):
    """Every (path, value) inside a JSON value, the value itself first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from nodes(item, (*path, key))


def parent_of(document, path):
    for key in path[:-1]:
        document = document[key]
    return document


OTHER_TYPES = st.sampled_from([None, True, False, 0, -1, 2.5, "", "x", [], {}, [0], {"kind": "gen"}])
# Numbers a stage entry might hold out of range: attempts, levels, masks, ids, speedups.
NUMBERS = st.integers(-3, 9) | st.sampled_from([2**63, -(2**63), 0.5, -0.0, 1e300])


def mutate(data, archive: Path, layout: str) -> None:
    """Apply one drawn mutation to an archive directory."""
    files = ["manifest.json", "index.json"]
    files += sorted(f"entries/{p.name}" for p in (archive / "entries").iterdir()) if layout == "v1" else ["entries.json"]
    what = data.draw(st.sampled_from(["truncate", "drop-key", "retype", "renumber", "remap", "duplicate"]))
    if what in ("remap", "duplicate"):
        index = json.loads((archive / "index.json").read_text())
        keys = sorted(index)
        key, other = data.draw(st.sampled_from(keys)), data.draw(st.sampled_from(keys))
        if what == "remap":  # a stage key given another stage key's entry
            index[key] = index[other]
            (archive / "index.json").write_text(json.dumps(index))
        elif layout == "v1":  # one entry's file holding another's payload
            (archive / "entries" / index[key]).write_bytes((archive / "entries" / index[other]).read_bytes())
        else:  # a name given twice in the pack, the second time with another entry's payload
            text = (archive / "entries.json").read_text()
            pack = json.loads(text)
            extra = json.dumps({index[key]: pack[index[other]]})[1:-1]
            (archive / "entries.json").write_text(text[:-1] + ", " + extra + "}")
        return
    path = archive / data.draw(st.sampled_from(files))
    text = path.read_text()
    if what == "truncate":
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
        return
    document = json.loads(text)
    if what == "drop-key":
        targets = [p for p, _ in nodes(document) if p and isinstance(parent_of(document, p), dict)]
    elif what == "renumber":
        targets = [p for p, v in nodes(document) if type(v) in (int, float)]
    else:  # retype, the whole document included
        targets = [p for p, _ in nodes(document)]
    if targets:
        target = data.draw(st.sampled_from(targets))
        if what == "drop-key":
            del parent_of(document, target)[target[-1]]
        elif not target:
            document = data.draw(OTHER_TYPES)
        else:
            parent_of(document, target)[target[-1]] = data.draw(NUMBERS if what == "renumber" else OTHER_TYPES)
    path.write_text(json.dumps(document))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), layout=st.sampled_from(["pack", "v1"]))
def test_mutated_archive_replays_or_is_refused_naming_a_file(recorded, data, layout):
    checkpoint, archives = recorded
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "archive"
        shutil.copytree(archives[layout], archive)
        mutate(data, archive, layout)
        code, err = replay(checkpoint, archive)
    assert code in (EXIT_OK, EXIT_DATA), err
    assert "Traceback" not in err
    if code == EXIT_DATA:
        assert any(name in err for name in ARCHIVE_FILES), err


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(ExecutionMode),
    rounds=st.integers(1, 2),
    k=st.integers(1, 3),
    faults=st.lists(st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2)), max_size=4),
    plan_mode=st.sampled_from(PlanMode),
    shuffle_seed=st.none() | st.integers(0, 100),
)
def test_loaded_products_equal_the_recorded_run(mode, rounds, k, faults, plan_mode, shuffle_seed):
    cp = build_checkpoint(3)
    sids = cp.sample_ids()
    fails, crashes = (frozenset((sids[i], a) for crash, i, a in faults if crash is c) for c in (False, True))
    config = PipelineConfig(k=k, rounds=rounds, seed=3, execution_mode=mode)
    permutation = None if shuffle_seed is None else randomize_feedback(cp, shuffle_seed)
    intervention = Intervention(coalition=FULL, plan_mode=plan_mode, permutation=permutation)
    pipe = build_pipe(cp, config=config, fail_attempts=fails, crash_on=crashes)
    result = pipe.run_to_completion(pipe.submit(cp, intervention))
    with tempfile.TemporaryDirectory() as tmp:
        archive_run(result, tmp)
        products = replay_load(tmp, cp).products
    led = result.ledger
    expected = {}
    for (sid, r), state in led.rounds.items():
        expected[led.stage_key(Stage.ANLZ, sid, r)] = Stage.ANLZ, (state.report, state.plan)
        expected[led.stage_key(Stage.GEN, sid, r)] = Stage.GEN, (list(state.candidates.values()), state.failures)
        for attempt, record in state.records.items():
            expected[led.stage_key(Stage.EVAL, sid, r, attempt)] = Stage.EVAL, record
    assert products == expected


# Failures the mutation property found, each pinned as an example.


def test_component_id_beyond_the_coalition_is_refused(recorded, tmp_path):
    # An ANLZ entry's component id becomes a shift count (`1 << id`): one of
    # 2**63 raised MemoryError through `main` instead of a data error.
    checkpoint, archives = recorded
    archive = tmp_path / "archive"
    shutil.copytree(archives["pack"], archive)
    pack = json.loads((archive / "entries.json").read_text())
    name = next(n for n in sorted(pack) if pack[n]["kind"] == "anlz" and pack[n]["report"]["artifacts"])
    pack[name]["report"]["artifacts"][0]["component"]["id"] = 2**63
    (archive / "entries.json").write_text(json.dumps(pack))
    code, err = replay(checkpoint, archive)
    assert code == EXIT_DATA
    assert f"{archive / 'entries.json'} entry {name} holds no ANLZ entry" in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [("k", 6), ("seed", 6), ("checkpoint_hash", "x")])
def test_run_identity_mismatch_names_the_manifest(recorded, tmp_path, key, value):
    # An archive of another run is refused (exit 3); the message named no file.
    checkpoint, archives = recorded
    archive = tmp_path / "archive"
    shutil.copytree(archives["pack"], archive)
    manifest = json.loads((archive / "manifest.json").read_text())
    (archive / "manifest.json").write_text(json.dumps({**manifest, key: value}))
    code, err = replay(checkpoint, archive)
    assert code == EXIT_DATA
    assert "manifest.json" in err and "Traceback" not in err
