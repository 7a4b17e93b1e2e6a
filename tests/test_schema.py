"""`check_json`, the one checker of the JSON documents read from outside:
the experiment config (with its agent behaviour), checkpoint headers and
sample records, and a replay archive's manifest, index and stage entries."""

import json
import re
import tempfile
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_checkpoint, build_pipe
from planlens.agents import BEHAVIOR_SCHEMA, CANDIDATE_SCHEMA
from planlens.cli import _CONFIG_SCHEMA
from planlens.feedback import Coalition, default_components
from planlens.pipeline import _ENTRY_SCHEMA, _INDEX_SCHEMA, _MANIFEST_SCHEMA, Intervention, Stage, archive_run
from planlens.trajectory import (
    CHECKPOINT_HEADER_SCHEMA,
    EXECUTION_SCHEMA,
    SAMPLE_SCHEMA,
    ExecutionRecord,
    GenerationCheckpoint,
    ListOf,
    Required,
    Sample,
    check_json,
    load_checkpoint,
    save_checkpoint,
)

SCHEMAS = {
    "config": _CONFIG_SCHEMA,
    "behavior": BEHAVIOR_SCHEMA,
    "checkpoint-header": CHECKPOINT_HEADER_SCHEMA,
    "sample": SAMPLE_SCHEMA,
    "execution": EXECUTION_SCHEMA,
    "manifest": _MANIFEST_SCHEMA,
    "index": _INDEX_SCHEMA,
    **{f"{stage.name.lower()}-entry": schema for stage, schema in _ENTRY_SCHEMA.items()},
    "candidate": CANDIDATE_SCHEMA,
}

TEXT = st.text(max_size=4)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = {str: TEXT, int: st.integers(-3, 3), float: FLOATS, bool: st.booleans(), type(None): st.none(),
           dict: st.dictionaries(TEXT, st.integers(), max_size=2), list: st.lists(st.integers(), max_size=2)}
ANY_JSON = st.recursive(
    st.one_of(*SCALARS.values()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
    max_leaves=6,
)


def near(schema):
    """Values shaped like `schema`, any part of which may be arbitrary JSON."""
    if type(schema) is Required:
        return near(schema.schema)
    if type(schema) is dict and str in schema:
        shaped = st.dictionaries(TEXT, near(schema[str]), max_size=3)
    elif type(schema) is dict:
        shaped = st.fixed_dictionaries({}, optional={key: near(sub) for key, sub in schema.items()})
    elif type(schema) is ListOf:
        shaped = st.lists(near(schema.item), max_size=3)
    elif type(schema) is list:
        shaped = st.sampled_from(schema)
    elif type(schema) is tuple:
        shaped = st.one_of(*(SCALARS[kind] for kind in schema))
    elif schema is Any:  # any JSON value; a non-finite number in it is refused
        shaped = st.lists(st.floats(), max_size=2)
    else:
        shaped = SCALARS[schema]
    return shaped | ANY_JSON


@pytest.mark.parametrize("name", list(SCHEMAS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_checker_returns_the_value_or_raises_value_error(name, data):
    schema = SCHEMAS[name]
    value = data.draw(near(schema))
    try:
        assert check_json(value, schema, name) is value
    except ValueError as exc:
        assert name in str(exc)


def test_bool_is_not_int_and_int_is_a_float():
    assert check_json(3, float, "x") == 3
    assert check_json({"a": 1}, {"a": (float, type(None))}, "x") == {"a": 1}
    for value, schema in [(True, int), (True, float), (1.0, int), ("1", float), (None, float)]:
        with pytest.raises(ValueError, match="x is not a JSON"):
            check_json(value, schema, "x")


def test_any_is_any_json_value_with_finite_numbers():
    schema = {"m": {str: Any}}
    value = {"m": {"a": [1, {"b": 2.5, "c": None}], "d": "e"}}
    assert check_json(value, schema, "x") is value
    for bad, key in [(float("inf"), "m.a"), ([1, {"b": float("-inf")}], "m.a[1].b"), ([float("nan")], "m.a[0]")]:
        with pytest.raises(ValueError, match=re.escape(f"x key {key!r} is not a finite number")):
            check_json({"m": {"a": bad}}, schema, "x")


RECORDS = st.builds(
    ExecutionRecord,
    compiled=st.booleans(),
    validations_passed=st.booleans(),
    speedup_vs_baseline=st.none() | FLOATS,
    wall_time=st.none() | FLOATS,
    raw_logs=st.lists(st.text(max_size=8), max_size=2).map(tuple),
)


@st.composite
def checkpoints(draw):
    g = draw(st.integers(0, 5))
    ids = draw(st.lists(st.text(min_size=1, max_size=6), max_size=4, unique=True))
    samples = tuple(
        Sample(
            sample_id=sid,
            generation_index=g,
            program_text=draw(st.text(max_size=12)),
            parent_id=draw(st.none() | st.text(max_size=4)),
            executions=tuple(draw(st.lists(RECORDS, max_size=3))),
            metadata=draw(st.dictionaries(TEXT, ANY_JSON, max_size=2)),
        )
        for sid in ids
    )
    return GenerationCheckpoint(draw(st.text(max_size=6)), g, samples, tuple(draw(st.lists(TEXT, max_size=2))))


@settings(max_examples=20, deadline=None)
@given(cp=checkpoints(), meta=st.none() | st.dictionaries(TEXT, ANY_JSON, max_size=2))
def test_save_checkpoint_writes_what_the_checker_accepts(cp, meta):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cp.ndjson"
        save_checkpoint(cp, str(path), meta=meta)
        header, *records = (json.loads(line) for line in path.read_text(encoding="utf-8").splitlines())
        check_json(header, CHECKPOINT_HEADER_SCHEMA, "header")
        for record in records:
            check_json(record, SAMPLE_SCHEMA, "record")
            for execution in record["executions"]:
                check_json(execution, EXECUTION_SCHEMA, "execution")
        assert load_checkpoint(str(path)) == cp


def test_archive_run_writes_what_the_checker_accepts(tmp_path):
    checkpoint = build_checkpoint(3)
    pipe = build_pipe(checkpoint)
    result = pipe.run_to_completion(pipe.submit(checkpoint, Intervention(Coalition.of(*default_components()))))
    archive_run(result, tmp_path)
    check_json(json.loads((tmp_path / "manifest.json").read_text()), _MANIFEST_SCHEMA, "manifest")
    check_json(json.loads((tmp_path / "index.json").read_text()), _INDEX_SCHEMA, "index")
    kinds = set()
    for entry in json.loads((tmp_path / "entries.json").read_text()).values():
        kinds.add(entry["kind"])
        check_json(entry, _ENTRY_SCHEMA[Stage[entry["kind"].upper()]], "entry")
        for candidate in entry.get("candidates", ()):
            check_json(candidate, CANDIDATE_SCHEMA, "candidate")
    assert kinds == {"anlz", "gen", "eval"}


def test_readme_config_example_passes_the_checker():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    example = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    assert check_json(example, _CONFIG_SCHEMA, "config") is example
