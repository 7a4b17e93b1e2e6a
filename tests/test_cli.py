import argparse
import csv
import hashlib
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from conftest import count_schedule_work, save_trajectory, serve_chat
from test_archive_pin import write_v1_archive
from planlens.agents import MockBehavior, mock_bundle
from planlens.attribution import rollout_seed
from planlens.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_OK,
    EXIT_RUNTIME,
    MODE_ONLY_FLAGS,
    OUTPUT_FLAGS,
    RUN_SETTINGS,
    build_parser,
    load_experiment_config,
    main,
    synthetic_artifact_source,
)
from planlens.feedback import Coalition, default_components
from planlens.pipeline import Intervention, InterventionPipeline, PipelineConfig, export_trace
from planlens.trajectory import ExecutionRecord, Sample, TrajectoryStore, load_checkpoint

# (events, final simulated time, digest) of the default 8-sample `--coalition d` trace.
PINNED_DEFAULT_TRACE = (48, 26.976224820540175, "b4688a2aee6a779a")


@pytest.fixture
def trajectory_file(tmp_path):
    rng = random.Random(3)
    store = TrajectoryStore("traj-cli")
    for g in range(3):
        for i in range(8):
            executions = tuple(
                ExecutionRecord(compiled=rng.random() < 0.8)
                for _ in range(rng.randint(1, 3))
            )
            store.append(
                Sample(
                    sample_id=f"g{g}i{i}",
                    generation_index=g,
                    program_text=f"kernel {g}/{i}",
                    executions=executions,
                )
            )
    path = tmp_path / "traj.ndjson"
    save_trajectory(store, str(path))
    return path


@pytest.fixture
def checkpoint_file(tmp_path, trajectory_file):
    out = tmp_path / "frozen"
    assert main(
        ["freeze", "--trajectory", str(trajectory_file), "-g", "1", "--out", str(out)]
    ) == EXIT_OK
    return out / "checkpoint_g1.ndjson"


class TestFreeze:
    def test_writes_checkpoint_files(self, tmp_path, trajectory_file, capsys):
        out = tmp_path / "frozen"
        code = main(
            [
                "freeze",
                "--trajectory",
                str(trajectory_file),
                "-g",
                "0",
                "1",
                "2",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        files = sorted(p.name for p in out.glob("checkpoint_g*.ndjson"))
        assert files == [
            "checkpoint_g0.ndjson",
            "checkpoint_g1.ndjson",
            "checkpoint_g2.ndjson",
        ]
        contents = {p.read_text() for p in out.glob("checkpoint_g*.ndjson")}
        assert len(contents) == 3  # distinct generations, distinct content

    def test_unknown_generation_exit_code_names_g(self, tmp_path, trajectory_file, capsys):
        code = main(
            [
                "freeze",
                "--trajectory",
                str(trajectory_file),
                "-g",
                "9",
                "--out",
                str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_DATA
        assert "9" in capsys.readouterr().err

    def test_missing_trajectory_is_data_error(self, tmp_path):
        code = main(
            ["freeze", "--trajectory", str(tmp_path / "none.ndjson"), "-g", "0", "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA

    def test_number_line_is_data_error(self, tmp_path, trajectory_file, capsys):
        lines = trajectory_file.read_text().splitlines()
        trajectory_file.write_text("\n".join(lines[:2] + ["5"] + lines[2:]) + "\n")
        code = main(["freeze", "--trajectory", str(trajectory_file), "-g", "0", "--out", str(tmp_path / "x")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 3" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "record, named",
        [
            ({"executions": [{"compiled": "false", "validations_passed": "false"}]}, "'compiled'"),
            ({"generation_index": 2.7}, "'generation_index'"),
        ],
        ids=["string-booleans", "generation-index-float"],
    )
    def test_mistyped_record_is_data_error(self, tmp_path, capsys, record, named):
        # Coerced, the first record would read as a passing one and the second as generation 2.
        trajectory = tmp_path / "t.ndjson"
        trajectory.write_text(json.dumps({"trajectory_id": "t", "sample_id": "a", "generation_index": 0, **record}))
        out = tmp_path / "x"
        assert main(["freeze", "--trajectory", str(trajectory), "-g", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 1:" in err and named in err and "Traceback" not in err
        assert not out.exists()


def edit_json(path, edit):
    """Rewrite a JSON file with `edit` applied to its value."""
    value = json.loads(path.read_text())
    edit(value)
    path.write_text(json.dumps(value))


def entry_name(pack, kind):
    """The name of one stage entry of this kind in a replay archive's pack."""
    return next(name for name in sorted(pack) if pack[name]["kind"] == kind)


def edit_entry(archive, kind, edit):
    """Rewrite a replay archive's pack with `edit` applied to one entry of this kind."""
    edit_json(archive / "entries.json", lambda pack: edit(pack[entry_name(pack, kind)]))


def write_entry(archive, kind, text):
    """Rewrite a replay archive's pack with one entry of this kind replaced by
    `text`, which need not be JSON."""
    pack = json.loads((archive / "entries.json").read_text())
    name = entry_name(pack, kind)
    pack[name] = None
    (archive / "entries.json").write_text(json.dumps(pack).replace(f'"{name}": null', f'"{name}": {text}'))


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# What an error names for a replayed entry that does not decode: the pack
# and, after it, the entry's name.
DECODED = "entries.json entry "

# A JSON document nested deeper than the parser can follow.
DEEP_JSON = "[" * 100000 + "]" * 100000


class TestDeeplyNestedJson:
    """Each reader of outside JSON refuses a too deeply nested document with
    its usual error, naming the file or line, not with a traceback (replay
    archive files: `test_damaged_replay_archive_is_data_error`)."""

    def test_config_is_configuration_error(self, tmp_path, checkpoint_file, capsys):
        config = tmp_path / "deep.json"
        config.write_text(DEEP_JSON)
        out = tmp_path / "x.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "Traceback" not in err
        assert not out.exists()

    def test_trajectory_line_is_data_error(self, tmp_path, trajectory_file, capsys):
        lines = trajectory_file.read_text().splitlines()
        trajectory_file.write_text("\n".join(lines[:1] + [DEEP_JSON] + lines[1:]) + "\n")
        assert main(["freeze", "--trajectory", str(trajectory_file), "-g", "0", "--out", str(tmp_path / "x")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 2:" in err and "Traceback" not in err

    @pytest.mark.parametrize("line", [1, 3])
    def test_checkpoint_line_is_data_error(self, tmp_path, checkpoint_file, capsys, line):
        lines = checkpoint_file.read_text().splitlines()
        lines[line - 1] = DEEP_JSON
        checkpoint_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        assert main(["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"cannot parse checkpoint: line {line}:" in err and "Traceback" not in err


class TestNonFiniteJson:
    """`NaN`, `Infinity` and `-Infinity`, which `json.dumps` writes for
    non-finite floats, are not JSON: each reader of outside JSON refuses
    them with its usual error, naming the file or line."""

    def test_config_is_configuration_error(self, tmp_path, checkpoint_file, capsys):
        config = tmp_path / "nan.json"
        config.write_text('{"agents": {"behavior": {"base_pass": NaN}}}')
        out = tmp_path / "x.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "NaN" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_trajectory_line_is_data_error(self, tmp_path, trajectory_file, capsys, constant):
        record = {"sample_id": "extra", "generation_index": 0, "trajectory_id": "traj-cli",
                  "executions": [{"compiled": True, "validations_passed": True, "speedup_vs_baseline": 0.5}]}
        line = json.dumps(record).replace("0.5", constant)
        lines = trajectory_file.read_text().splitlines()
        trajectory_file.write_text("\n".join(lines[:1] + [line] + lines[1:]) + "\n")
        out = tmp_path / "x"
        assert main(["freeze", "--trajectory", str(trajectory_file), "-g", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 2:" in err and constant in err and "Traceback" not in err
        assert not (out / "checkpoint_g0.ndjson").exists()

    def test_checkpoint_line_is_data_error(self, tmp_path, checkpoint_file, capsys):
        lines = checkpoint_file.read_text().splitlines()
        record = json.loads(lines[2])
        record["executions"] = [{"compiled": True, "validations_passed": True, "speedup_vs_baseline": float("inf")}]
        lines[2] = json.dumps(record)
        checkpoint_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        assert main(["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot parse checkpoint: line 3:" in err and "Infinity" in err and "Traceback" not in err
        assert not out.exists()

    def test_archive_file_is_data_error(self, tmp_path, checkpoint_file, capsys):
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--rollouts", "1",
                "--retries", "1"]
        archive = tmp_path / "archive"
        assert main(base + ["--out", str(tmp_path / "x.csv"), "--archive", str(archive)]) == EXIT_OK
        edit_entry(archive, "gen", lambda e: e["candidates"][0].update(quality=float("nan")))
        out = tmp_path / "y.csv"
        assert main(base + ["--out", str(out), "--replay", str(archive)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(archive / "entries.json") in err and "NaN" in err and "Traceback" not in err
        assert not out.exists()

    # A number literal too large for a float decodes to infinity; a reader
    # refuses it wherever its schema asks for a number.
    overflowing = pytest.mark.parametrize("literal", ["1e400", "-1e400"])

    @overflowing
    def test_overflowing_config_number_is_configuration_error(self, tmp_path, checkpoint_file, capsys, literal):
        config = tmp_path / "big.json"
        config.write_text('{"agents": {"behavior": {"base_pass": %s}}}' % literal)
        out = tmp_path / "x.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--config", str(config)]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(config) in err and "base_pass" in err and "finite" in err and "Traceback" not in err
        assert not out.exists()

    @overflowing
    def test_overflowing_trajectory_number_is_data_error(self, tmp_path, trajectory_file, capsys, literal):
        record = {"sample_id": "extra", "generation_index": 0, "trajectory_id": "traj-cli",
                  "executions": [{"compiled": True, "validations_passed": True, "speedup_vs_baseline": 0.5}]}
        lines = trajectory_file.read_text().splitlines()
        trajectory_file.write_text("\n".join(lines[:1] + [json.dumps(record).replace("0.5", literal)] + lines[1:]) + "\n")
        out = tmp_path / "x"
        assert main(["freeze", "--trajectory", str(trajectory_file), "-g", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "line 2:" in err and "speedup_vs_baseline" in err and "finite" in err and "Traceback" not in err
        assert not (out / "checkpoint_g0.ndjson").exists()

    @pytest.mark.parametrize("metadata, key", [
        pytest.param('{"x": 1e400}', "metadata.x", id="flat"),
        pytest.param('{"a": {"b": [1, -1e400]}}', "metadata.a.b[1]", id="nested"),
    ])
    def test_overflowing_metadata_number_is_data_error(self, tmp_path, trajectory_file, capsys, metadata, key):
        record = {"sample_id": "extra", "generation_index": 0, "trajectory_id": "traj-cli", "metadata": "M"}
        lines = trajectory_file.read_text().splitlines()
        trajectory_file.write_text("\n".join(lines[:1] + [json.dumps(record).replace('"M"', metadata)] + lines[1:]) + "\n")
        out = tmp_path / "x"
        assert main(["freeze", "--trajectory", str(trajectory_file), "-g", "0", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(trajectory_file) in err and "line 2:" in err and repr(key) in err and "finite" in err
        assert "Traceback" not in err
        assert not (out / "checkpoint_g0.ndjson").exists()

    @overflowing
    def test_overflowing_checkpoint_number_is_data_error(self, tmp_path, checkpoint_file, capsys, literal):
        lines = checkpoint_file.read_text().splitlines()
        record = json.loads(lines[2])
        record["executions"] = [{"compiled": True, "validations_passed": True, "speedup_vs_baseline": 0.5}]
        lines[2] = json.dumps(record).replace("0.5", literal)
        checkpoint_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "x.csv"
        assert main(["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot parse checkpoint: line 3:" in err and "finite" in err and "Traceback" not in err
        assert not out.exists()

    @overflowing
    def test_overflowing_archive_number_is_data_error(self, tmp_path, checkpoint_file, capsys, literal):
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--rollouts", "1",
                "--retries", "1"]
        archive = tmp_path / "archive"
        assert main(base + ["--out", str(tmp_path / "x.csv"), "--archive", str(archive)]) == EXIT_OK
        pack = json.loads((archive / "entries.json").read_text())
        entry = pack[entry_name(pack, "gen")]
        entry["candidates"][0]["quality"] = 0.125
        write_entry(archive, "gen", json.dumps(entry).replace("0.125", literal))
        out = tmp_path / "y.csv"
        assert main(base + ["--out", str(out), "--replay", str(archive)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(archive / "entries.json") in err and "finite" in err and "Traceback" not in err
        assert not out.exists()


class TestUnreadableInput:
    """No input file makes `main` print a traceback: a directory or a file
    that is not UTF-8 exits 3 (a config 2) naming the file, and the line of
    an NDJSON file, counted as it stands in the file."""

    @pytest.mark.parametrize(
        "case, code, line",
        [
            pytest.param("trajectory-bytes", EXIT_DATA, 2, id="trajectory-bytes"),
            pytest.param("checkpoint-bytes", EXIT_DATA, 3, id="checkpoint-bytes"),
            pytest.param("tables-bytes", EXIT_DATA, None, id="tables-bytes"),
            pytest.param("dot-bytes", EXIT_DATA, None, id="dot-bytes"),
            pytest.param("trajectory-dir", EXIT_DATA, None, id="trajectory-dir"),
            pytest.param("checkpoint-dir", EXIT_DATA, None, id="checkpoint-dir"),
            pytest.param("tables-dir", EXIT_DATA, None, id="tables-dir"),
            pytest.param("config-dir", EXIT_CONFIG, None, id="config-dir"),
        ],
    )
    def test_unreadable_input_names_the_file(
        self, tmp_path, trajectory_file, checkpoint_file, capsys, case, code, line
    ):
        kind, damage = case.split("-")
        bad, good_dot = tmp_path / "bad", tmp_path / "good.dot"
        good_dot.write_text("digraph { a -> b; }")
        if damage == "dir":
            bad.mkdir()
        elif line is not None:
            source = trajectory_file if kind == "trajectory" else checkpoint_file
            lines = source.read_bytes().splitlines(keepends=True)
            bad.write_bytes(b"".join(lines[: line - 1] + [b"\xff\xfe\n"] + lines[line - 1 :]))
        else:
            bad.write_bytes(b"\xff\xfe" + good_dot.read_bytes())
        out = tmp_path / "out"
        intervene = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--out", str(out)]
        argv = {
            "trajectory": ["freeze", "--trajectory", str(bad), "-g", "0", "--out", str(out)],
            "checkpoint": ["intervene", "--checkpoint", str(bad), "--coalition", "d", "--out", str(out)],
            "tables": ["attribute", "--tables", str(bad), "--out", str(out)],
            "dot": ["gate", "--current", str(bad), "--reference", str(good_dot), "--status", "pass"],
            "config": intervene + ["--config", str(bad)],
        }[kind]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err
        assert line is None or f"line {line}:" in err
        assert not out.exists()

    def test_checkpoint_error_names_the_physical_line(self, tmp_path, checkpoint_file, capsys):
        header, *samples = checkpoint_file.read_text().splitlines()
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join([header, "", samples[0], samples[1], "[]", *samples[2:]]) + "\n")
        out = tmp_path / "out.csv"
        assert main(["intervene", "--checkpoint", str(bad), "--coalition", "d", "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "cannot parse checkpoint: line 5:" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "case", ["run-out", "sweep-out", "trace", "archive", "gate-out", "cost-out", "report-out"]
)
def test_unwritable_output_is_runtime_error(tmp_path, checkpoint_file, capsys, case):
    """An output path in a missing directory, or a directory output that
    names a regular file, exits 4 naming the path."""
    missing, regular = tmp_path / "nodir" / "out", tmp_path / "file"
    regular.write_text("")
    out = str(tmp_path / "out.csv")
    run = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--rollouts", "1"]
    argv, bad = {
        "run-out": (run + ["--out", str(missing)], missing),
        "sweep-out": (["intervene", "--checkpoint", str(checkpoint_file), "--sweep", "--rollouts", "1",
                       "--out", str(missing)], missing),
        "trace": (run + ["--out", out, "--trace", str(missing)], missing),
        "archive": (run + ["--out", out, "--archive", str(regular)], regular),
        "gate-out": (["gate", "--status", "failed", "--out", str(missing)], missing),
        "cost-out": (["cost", "--sweep", "1:3", "--out", str(regular)], regular),
        "report-out": (["report", "--out", str(regular)], regular),
    }[case]
    assert main(argv) == EXIT_RUNTIME
    err = capsys.readouterr().err
    assert err.startswith("runtime error:") and str(bad) in err and "Traceback" not in err


class TestIntervene:
    def test_sweep_simulates_no_schedule(self, tmp_path, checkpoint_file, monkeypatch):
        # A sweep reads only each rollout's stats: no latency draw, no event.
        work = count_schedule_work(monkeypatch)
        out = tmp_path / "sweep.csv"
        args = ["intervene", "--checkpoint", str(checkpoint_file), "--sweep", "--rollouts", "2"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        assert out.exists() and work == Counter()

    def test_single_coalition_rollouts(self, tmp_path, checkpoint_file, capsys):
        out = tmp_path / "stats.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "d,a",
                "--rollouts",
                "3",
                "--retries",
                "2",
                "--seed",
                "5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(out)
        assert len(rows) == 3 * 4  # three rollouts x four metrics
        assert {row["metric"] for row in rows} == {"compiled", "pass", "fast", "overall"}

    def test_empty_coalition_baseline(self, tmp_path, checkpoint_file):
        out = tmp_path / "baseline.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "none",
                "--rollouts",
                "2",
                "--retries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert read_csv_rows(out)

    def test_requires_coalition_or_sweep(self, tmp_path, checkpoint_file, capsys):
        code = main(
            ["intervene", "--checkpoint", str(checkpoint_file), "--out", str(tmp_path / "o.csv")]
        )
        assert code == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_sweep_produces_complete_table(self, tmp_path, checkpoint_file):
        out = tmp_path / "table.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--sweep",
                "--rollouts",
                "2",
                "--retries",
                "1",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        rows = read_csv_rows(out)
        masks = {row["metric"]: set() for row in rows}
        for row in rows:
            masks[row["metric"]].add(int(row["coalition_mask"]))
        for metric_masks in masks.values():
            assert metric_masks == set(range(8))

    def test_rerun_byte_identical(self, tmp_path, checkpoint_file):
        args = [
            "intervene",
            "--checkpoint",
            str(checkpoint_file),
            "--sweep",
            "--rollouts",
            "2",
            "--retries",
            "1",
            "--seed",
            "3",
        ]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_trace_and_archive_outputs(self, tmp_path, checkpoint_file):
        out = tmp_path / "stats.csv"
        trace = tmp_path / "trace.ndjson"
        archive = tmp_path / "archive"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "d",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
                "--trace",
                str(trace),
                "--archive",
                str(archive),
            ]
        )
        assert code == EXIT_OK
        assert trace.exists() and trace.read_text().strip()
        assert (archive / "manifest.json").exists()
        assert (archive / "index.json").exists()

    def test_replay_flag_reuses_archive(self, tmp_path, checkpoint_file, capsys):
        out = tmp_path / "first.csv"
        archive = tmp_path / "archive"
        base = [
            "intervene",
            "--checkpoint",
            str(checkpoint_file),
            "--coalition",
            "d",
            "--rollouts",
            "1",
            "--retries",
            "2",
            "--seed",
            "4",
        ]
        assert main(base + ["--out", str(out), "--archive", str(archive)]) == EXIT_OK
        out2 = tmp_path / "second.csv"
        assert main(base + ["--out", str(out2), "--replay", str(archive)]) == EXIT_OK
        assert out.read_text().splitlines()[1:] == out2.read_text().splitlines()[1:]

    def test_archive_refuses_more_than_one_rollout(self, tmp_path, checkpoint_file, capsys):
        out, archive = tmp_path / "x.csv", tmp_path / "archive"
        code = main(["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--rollouts", "2",
                     "--retries", "1", "--out", str(out), "--archive", str(archive)])
        assert code == EXIT_CONFIG
        assert not out.exists() and not archive.exists()
        err = capsys.readouterr().err
        assert "--archive" in err and "--rollouts 2" in err

    def test_replay_refuses_more_than_one_rollout(self, tmp_path, checkpoint_file, capsys, monkeypatch):
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--retries", "1"]
        archive = tmp_path / "archive"
        assert main(base + ["--rollouts", "1", "--out", str(tmp_path / "x.csv"), "--archive", str(archive)]) == EXIT_OK
        capsys.readouterr()
        # Refused before any rollout runs: rollout r > 0 never has the archive's seed.
        monkeypatch.setattr(InterventionPipeline, "submit", None)
        out = tmp_path / "y.csv"
        assert main(base + ["--rollouts", "2", "--out", str(out), "--replay", str(archive)]) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert "--replay" in err and "--rollouts 2" in err and "Traceback" not in err

    def test_replay_flag_mismatch_is_data_error(self, tmp_path, trajectory_file, checkpoint_file, capsys):
        archive = tmp_path / "archive"
        assert (
            main(
                [
                    "intervene",
                    "--checkpoint",
                    str(checkpoint_file),
                    "--coalition",
                    "d",
                    "--rollouts",
                    "1",
                    "--retries",
                    "1",
                    "--out",
                    str(tmp_path / "x.csv"),
                    "--archive",
                    str(archive),
                ]
            )
            == EXIT_OK
        )
        frozen = tmp_path / "other"
        assert (
            main(
                ["freeze", "--trajectory", str(trajectory_file), "-g", "0", "--out", str(frozen)]
            )
            == EXIT_OK
        )
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(frozen / "checkpoint_g0.ndjson"),
                "--coalition",
                "d",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(tmp_path / "y.csv"),
                "--replay",
                str(archive),
            ]
        )
        assert code == EXIT_DATA
        assert "mismatch" in capsys.readouterr().err

    def test_replay_of_another_coalition_is_data_error(self, tmp_path, checkpoint_file, capsys):
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--rollouts", "1", "--retries", "1"]
        archive = tmp_path / "archive"
        code = main(base + ["--coalition", "d,a", "--out", str(tmp_path / "x.csv"), "--archive", str(archive)])
        assert code == EXIT_OK
        out = tmp_path / "y.csv"
        code = main(base + ["--coalition", "d", "--out", str(out), "--replay", str(archive)])
        assert code == EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert "intervention signature" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda a: (a / "index.json").unlink(), "index.json"),
            (lambda a: (a / "manifest.json").unlink(), "manifest.json"),
            (lambda a: (a / "manifest.json").write_text("{not json"), "manifest.json"),
            (lambda a: (a / "manifest.json").write_text("[]"), "manifest.json"),
            (
                lambda a: (a / "manifest.json").write_text(
                    json.dumps({k: v for k, v in json.loads((a / "manifest.json").read_text()).items() if k != "k"})
                ),
                "manifest.json",
            ),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.pop("seed")), "manifest.json"),
            (lambda a: edit_json(a / "entries.json", lambda p: p.pop(min(p))), "entries.json"),
            (lambda a: edit_json(a / "index.json", lambda i: i.update({min(i): "0000000000000000.json"})),
             "entries.json"),
            (lambda a: write_entry(a, "anlz", '{"kind": '), "entries.json"),
            (lambda a: write_entry(a, "anlz", DEEP_JSON), "entries.json"),
            (lambda a: (a / "entries.json").write_text("[]"), "entries.json"),
            (lambda a: (a / "entries.json").unlink(), "entries.json"),
            (lambda a: edit_json(a / "index.json", lambda i: i.update({min(i): 5})), "index.json"),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.update(checkpoint_hash=5)), "manifest.json"),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.update(intervention_signature=None)),
             "manifest.json"),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.update(k="2")), "manifest.json"),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.update(rounds=True)), "manifest.json"),
            (lambda a: write_entry(a, "gen", '{"kind": "eval"}'), DECODED),
            (lambda a: write_entry(a, "gen", "[]"), DECODED),
            (lambda a: edit_entry(a, "eval", lambda e: e["record"].update(compiled=False, validations_passed=True)),
             DECODED),
            (lambda a: edit_entry(a, "gen", lambda e: e["candidates"][0].update(attempt=9)), DECODED),
            (lambda a: edit_entry(a, "gen", lambda e: e["candidates"].append(e["candidates"][0])), DECODED),
            (lambda a: edit_entry(a, "gen", lambda e: e["candidates"][0].update(attempt="0", quality="0.5")),
             DECODED),
            (lambda a: edit_entry(a, "anlz", lambda e: e["report"].update(coalition_mask="3")), DECODED),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.update(format_version=99)), "manifest.json"),
            (lambda a: edit_json(a / "manifest.json", lambda m: m.pop("format_version")), "manifest.json"),
        ],
        ids=["no-index", "no-manifest", "manifest-not-json", "manifest-list", "manifest-without-k", "manifest-without-seed",
             "no-entry-file", "index-names-missing-entry", "entry-not-json", "entry-nested-too-deeply",
             "pack-list", "no-pack", "index-value-int",
             "checkpoint-hash-int", "signature-null", "k-string", "rounds-bool", "gen-entry-of-eval-kind", "gen-entry-list",
             "eval-record-passed-not-compiled", "gen-attempt-out-of-range", "gen-attempt-twice",
             "gen-attempt-and-quality-strings", "anlz-mask-string",
             "format-version-99", "no-format-version"],
    )
    def test_damaged_replay_archive_is_data_error(self, tmp_path, checkpoint_file, capsys, damage, named):
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--rollouts", "1",
                "--retries", "1"]
        archive = tmp_path / "archive"
        assert main(base + ["--out", str(tmp_path / "x.csv"), "--archive", str(archive)]) == EXIT_OK
        damage(archive)
        out = tmp_path / "y.csv"
        assert main(base + ["--out", str(out), "--replay", str(archive)]) == EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(archive) in err and named in err and "Traceback" not in err

    def test_corrupt_entry_refused_before_any_rollout(self, tmp_path, checkpoint_file, capsys, monkeypatch):
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--rollouts", "1",
                "--retries", "1"]
        archive = tmp_path / "archive"
        assert main(base + ["--out", str(tmp_path / "x.csv"), "--archive", str(archive)]) == EXIT_OK
        pack = json.loads((archive / "entries.json").read_text())
        name = entry_name(pack, "eval")
        edit_entry(archive, "eval", lambda e: e["record"].update(compiled="yes"))
        capsys.readouterr()
        monkeypatch.setattr(InterventionPipeline, "submit", None)  # `replay_load` refuses it first
        outputs = {flag: tmp_path / name for flag, name in
                   (("--out", "y.csv"), ("--trace", "t.ndjson"), ("--archive", "again"))}
        argv = base + [arg for flag, path in outputs.items() for arg in (flag, str(path))] + ["--replay", str(archive)]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{archive / 'entries.json'} entry {name} holds no EVAL entry" in err and "Traceback" not in err
        assert not any(path.exists() for path in outputs.values())

    def test_index_name_outside_the_archive_is_data_error(self, tmp_path, checkpoint_file, capsys):
        # A version-1 archive reads entries/<name>: a name that leaves the
        # directory is refused even where it points at a valid entry.
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d,a", "--rollouts", "1",
                "--retries", "1"]
        recorded = tmp_path / "recorded"
        assert main(base + ["--out", str(tmp_path / "x.csv"), "--archive", str(recorded)]) == EXIT_OK
        archive = tmp_path / "a" / "archive"
        write_v1_archive(recorded, archive)
        index = json.loads((archive / "index.json").read_text())
        key = min(index)
        shutil.copy(archive / "entries" / index[key], tmp_path / "outside.json")
        index[key] = "../../../outside.json"
        (archive / "index.json").write_text(json.dumps(index))
        out = tmp_path / "y.csv"
        assert main(base + ["--out", str(out), "--replay", str(archive)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(archive / "index.json") in err and "../../../outside.json" in err and "Traceback" not in err
        assert not out.exists()

    def test_torn_rerecording_is_data_error(self, tmp_path, checkpoint_file, monkeypatch, capsys):
        """Re-recording into an archive and failing to write its index leaves
        no manifest, so the replay is refused instead of matching no stage key
        of the older run's index and silently regenerating every stage."""
        base = ["intervene", "--checkpoint", str(checkpoint_file), "--rollouts", "1", "--retries", "1"]
        archive = tmp_path / "archive"
        assert main(base + ["--coalition", "d,a", "--out", str(tmp_path / "a.csv"), "--archive", str(archive)]) == EXIT_OK
        write_text = Path.write_text

        def failing_index(path, *args, **kwargs):
            if path.name == "index.json":
                raise OSError("no space left on device")
            return write_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", failing_index)
        assert main(base + ["--coalition", "d", "--out", str(tmp_path / "b.csv"), "--archive", str(archive)]) == EXIT_RUNTIME
        monkeypatch.undo()
        out = tmp_path / "replayed.csv"
        assert main(base + ["--coalition", "d", "--out", str(out), "--replay", str(archive)]) == EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert str(archive / "manifest.json") in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "case, line",
        [
            ("header-without-trajectory-id", 1),
            ("repeated-sample-id", 3),
            ("sample-of-another-generation", 2),
            ("sample-of-another-trajectory", 2),
            ("reference-ids-string", 1),
        ],
    )
    def test_malformed_checkpoint_is_data_error(self, tmp_path, checkpoint_file, capsys, case, line):
        records = [json.loads(ln) for ln in checkpoint_file.read_text().splitlines()]
        header = records[0]["checkpoint"]
        if case == "header-without-trajectory-id":
            del header["trajectory_id"]
        if case == "repeated-sample-id":
            records[2]["sample_id"] = records[1]["sample_id"]
        if case == "sample-of-another-generation":
            records[1]["generation_index"] = header["g"] + 1
        if case == "sample-of-another-trajectory":
            records[1]["trajectory_id"] = "another"
        if case == "reference-ids-string":
            header["reference_ids"] = "abc"
        bad = tmp_path / "bad.ndjson"
        bad.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out.csv"
        code = main(["intervene", "--checkpoint", str(bad), "--coalition", "d", "--rollouts", "1", "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert f"cannot parse checkpoint: line {line}:" in err and "Traceback" not in err

    def test_mistyped_checkpoint_record_is_data_error(self, tmp_path, checkpoint_file, capsys):
        lines = checkpoint_file.read_text().splitlines()
        record = json.loads(lines[2])
        record["executions"] = [{"compiled": "false", "validations_passed": "false"}]
        bad = tmp_path / "bad.ndjson"
        bad.write_text("\n".join(lines[:2] + [json.dumps(record)] + lines[3:]) + "\n")
        out = tmp_path / "out.csv"
        code = main(["intervene", "--checkpoint", str(bad), "--coalition", "d", "--rollouts", "1", "--out", str(out)])
        assert code == EXIT_DATA
        assert not out.exists()
        err = capsys.readouterr().err
        assert "cannot parse checkpoint: line 3:" in err and "'compiled'" in err and "Traceback" not in err

    def test_dummy_plan_mode(self, tmp_path, checkpoint_file):
        out = tmp_path / "dummy.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "d,a,p",
                "--plan-mode",
                "dummy",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK

    def test_summarized_representation(self, tmp_path, checkpoint_file):
        out = tmp_path / "summarized.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "d,a,p",
                "--representation",
                "summarized",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK

    def test_randomized_feedback_control(self, tmp_path, checkpoint_file):
        out = tmp_path / "prf.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "d,a,p",
                "--randomize-feedback",
                "13",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK

    def test_experiment_config_supplies_defaults(self, tmp_path, checkpoint_file):
        config = {
            "k": 2,
            "rollouts": 2,
            "seed": 11,
            "game": "components",
            "pipeline": {"mode": "serial", "concurrency": 4},
        }
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "from_config.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--config",
                str(config_path),
                "--coalition",
                "d",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert len(read_csv_rows(out)) == 2 * 4

    def test_bad_config_rejected(self, tmp_path, checkpoint_file, capsys):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"nonsense": True}))
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--config",
                str(config_path),
                "--coalition",
                "d",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert "nonsense" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("trajectory", "traj.ndjson"), ("checkpoints", ["g0.json"]), ("gate", {"tau_s": 0.5})],
        ids=["trajectory", "checkpoints", "gate"],
    )
    def test_unread_config_keys_rejected(self, tmp_path, checkpoint_file, capsys, key, value):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({key: value}))
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--config",
                str(config_path),
                "--coalition",
                "d",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--coalition", "d"),
            ("--plan-mode", "dummy"),
            ("--randomize-feedback", "5"),
            ("--trace", "trace.ndjson"),
            ("--archive", "archive"),
            ("--replay", "archive"),
        ],
    )
    def test_sweep_rejects_flags_it_would_ignore(
        self, tmp_path, checkpoint_file, capsys, flag, value
    ):
        out = tmp_path / "table.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--sweep",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
                flag,
                value,
            ]
        )
        assert code == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_reports_failed_rollouts(self, tmp_path, checkpoint_file, capsys, monkeypatch):
        from planlens import cli
        from planlens.seeding import derive_seed

        failing = {derive_seed(0, "rollout", mask, 0) for mask in (3, 6)}
        make_rollout_fn = cli.make_rollout_fn

        def flaky_rollout_fn(*args, **kwargs):
            rollout = make_rollout_fn(*args, **kwargs)

            def flaky(checkpoint, coalition, seed):
                if seed in failing:
                    raise RuntimeError("injected agent failure")
                return rollout(checkpoint, coalition, seed)

            return flaky

        out = tmp_path / "table.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--sweep", "--rollouts", "2",
                "--retries", "1", "--out", str(out)]
        assert main(argv) == EXIT_OK
        clean = capsys.readouterr().out
        assert clean == f"swept 8 coalitions x 2 rollouts -> {out}\n"
        monkeypatch.setattr(cli, "make_rollout_fn", flaky_rollout_fn)
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == f"swept 8 coalitions x 2 rollouts -> {out} (2 of 16 rollouts failed)\n"
        n = {(row["metric"], row["coalition_mask"]): row["n"] for row in read_csv_rows(out)}
        assert {key for key, value in n.items() if value == "1"} == {
            (metric, mask) for metric in ("compiled", "pass", "fast") for mask in ("3", "6")
        }

    def test_metrics_rejected_without_sweep(self, tmp_path, checkpoint_file, capsys):
        out = tmp_path / "stats.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--coalition",
                "d",
                "--metrics",
                "pass",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "--metrics" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_sweep_metric_is_config_error(
        self, tmp_path, checkpoint_file, capsys
    ):
        out = tmp_path / "table.csv"
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--sweep",
                "--metrics",
                "pass,bogus",
                "--rollouts",
                "1",
                "--retries",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_CONFIG
        assert "'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_sweep_metrics_is_config_error(self, tmp_path, checkpoint_file, capsys):
        # An empty --metrics names no metric; it does not fall back to the defaults.
        out = tmp_path / "table.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--sweep", "--rollouts", "1", "--retries", "1"]
        assert main(argv + ["--metrics", "", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--metrics" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_retries_above_queue_capacity_is_config_error(self, tmp_path, checkpoint_file, capsys, source):
        # The GEN -> EVAL queue has no flag; the refusal names the setting that has.
        out = tmp_path / "stats.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--coalition", "d", "--rollouts", "1"]
        if source == "flag":
            argv += ["--retries", "300"]
        else:
            (tmp_path / "exp.json").write_text(json.dumps({"k": 300}))
            argv += ["--config", str(tmp_path / "exp.json")]
        assert main(argv + ["--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--retries (config key 'k')" in err and "256" in err and "queue_capacity" not in err
        assert not out.exists()

    @pytest.mark.parametrize("origin", ["--metrics", "config key 'metrics'"])
    def test_repeated_sweep_metric_is_config_error(self, tmp_path, checkpoint_file, capsys, origin):
        # Its table would hold every row of the metric twice, which `attribute` refuses.
        out = tmp_path / "table.csv"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--sweep", "--rollouts", "2", "--out", str(out)]
        if origin == "--metrics":
            argv += ["--metrics", "pass,fast,pass"]
        else:
            config_path = tmp_path / "exp.json"
            config_path.write_text(json.dumps({"metrics": ["pass", "fast", "pass"]}))
            argv += ["--config", str(config_path)]
        assert main(argv) == EXIT_CONFIG
        assert f"{origin} names metric 'pass' twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, expected", [(None, {"pass"}), ("fast", {"fast"})], ids=["config", "flag"]
    )
    def test_sweep_metrics_from_config_unless_flag(
        self, tmp_path, checkpoint_file, flag, expected
    ):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"metrics": ["pass"]}))
        out = tmp_path / "table.csv"
        argv = [
            "intervene",
            "--checkpoint",
            str(checkpoint_file),
            "--config",
            str(config_path),
            "--sweep",
            "--rollouts",
            "1",
            "--retries",
            "1",
            "--out",
            str(out),
        ]
        if flag is not None:
            argv += ["--metrics", flag]
        assert main(argv) == EXIT_OK
        assert {row["metric"] for row in read_csv_rows(out)} == expected

    def test_config_metrics_leave_a_coalition_run_unchanged(self, tmp_path, checkpoint_file):
        # `metrics` is a sweep setting: a run writes every metric, with or without it.
        outputs = []
        for name, config in (("with", {"metrics": ["pass"]}), ("without", {})):
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config))
            out = tmp_path / f"{name}.csv"
            argv = ["intervene", "--checkpoint", str(checkpoint_file), "--config", str(config_path)]
            argv += ["--coalition", "d", "--rollouts", "1", "--retries", "1", "--out", str(out)]
            assert main(argv) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]  # the `# meta` line included
        assert [row["metric"] for row in read_csv_rows(out)] == ["compiled", "pass", "fast", "overall"]

    def intervene_with_backend(self, tmp_path, checkpoint_file, agents, backend):
        argv = [
            "intervene",
            "--checkpoint",
            str(checkpoint_file),
            "--coalition",
            "d",
            "--rollouts",
            "1",
            "--retries",
            "1",
            "--out",
            str(tmp_path / "stats.csv"),
        ]
        if agents is not None:
            config_path = tmp_path / "exp.json"
            config_path.write_text(json.dumps({"agents": agents}))
            argv += ["--config", str(config_path)]
        if backend is not None:
            argv += ["--backend", backend]
        return main(argv)

    @pytest.mark.parametrize(
        "agents, backend",
        [({"backend": "mock"}, "http"), ({"backend": "http"}, "mock")],
        ids=["config-mock-flag-http", "config-http-flag-mock"],
    )
    def test_backend_flag_conflicting_with_config_rejected(
        self, tmp_path, checkpoint_file, capsys, monkeypatch, agents, backend
    ):
        monkeypatch.delenv("PLANLENS_BACKEND_URL", raising=False)
        code = self.intervene_with_backend(tmp_path, checkpoint_file, agents, backend)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--backend" in err and "agents.backend" in err
        assert not (tmp_path / "stats.csv").exists()

    @pytest.mark.parametrize(
        "agents, backend",
        [
            (None, "http"),
            ({"behavior": {"base_compiled": 0.5}}, "http"),
            ({"backend": "http"}, None),
        ],
        ids=["flag", "flag-and-config-behavior", "config"],
    )
    def test_http_backend_without_url_is_config_error(
        self, tmp_path, checkpoint_file, capsys, monkeypatch, agents, backend
    ):
        monkeypatch.delenv("PLANLENS_BACKEND_URL", raising=False)
        code = self.intervene_with_backend(tmp_path, checkpoint_file, agents, backend)
        assert code == EXIT_CONFIG
        assert "PLANLENS_BACKEND_URL" in capsys.readouterr().err

    def test_agent_error_in_a_coalition_run_is_runtime_error(
        self, tmp_path, checkpoint_file, capsys, monkeypatch
    ):
        monkeypatch.setenv("PLANLENS_BACKEND_URL", "http://127.0.0.1:9")  # a closed loopback port
        monkeypatch.setattr("planlens.agents.time.sleep", lambda seconds: None)
        code = self.intervene_with_backend(tmp_path, checkpoint_file, None, "http")
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert "runtime error" in err and "Traceback" not in err
        assert not (tmp_path / "stats.csv").exists()

    def test_hash_covers_the_server_url_and_never_the_api_key(self, tmp_path, checkpoint_file, monkeypatch):
        outs = {}
        with serve_chat() as first, serve_chat() as second:
            for name, url, key in (("first", first, "k1"), ("second", second, "k1"), ("other-key", first, "k2")):
                monkeypatch.setenv("PLANLENS_BACKEND_URL", url)
                monkeypatch.setenv("PLANLENS_API_KEY", key)
                run_dir = tmp_path / name
                run_dir.mkdir()
                assert self.intervene_with_backend(run_dir, checkpoint_file, None, "http") == EXIT_OK
                outs[name] = run_dir / "stats.csv"
        assert config_of(outs["first"]) != config_of(outs["second"])
        assert outs["first"].read_bytes() == outs["other-key"].read_bytes()  # the `# meta` line included

    def test_mock_backend_named_anywhere_gives_one_output(
        self, tmp_path, checkpoint_file
    ):
        outputs = set()
        for i, (agents, backend) in enumerate(
            [(None, None), (None, "mock"), ({"backend": "mock"}, "mock"), ({}, "mock")]
        ):
            run_dir = tmp_path / str(i)
            run_dir.mkdir()
            code = self.intervene_with_backend(run_dir, checkpoint_file, agents, backend)
            assert code == EXIT_OK
            outputs.add((run_dir / "stats.csv").read_text())
        assert len(outputs) == 1  # provenance line included

    def test_config_hash_covers_agent_behavior(self, tmp_path, checkpoint_file):
        meta = []
        for base_compiled in (0.9, 0.2):
            config_path = tmp_path / f"exp_{base_compiled}.json"
            config_path.write_text(
                json.dumps(
                    {
                        "agents": {
                            "backend": "mock",
                            "behavior": {"base_compiled": base_compiled},
                        }
                    }
                )
            )
            out = tmp_path / f"stats_{base_compiled}.csv"
            code = main(
                [
                    "intervene",
                    "--checkpoint",
                    str(checkpoint_file),
                    "--config",
                    str(config_path),
                    "--coalition",
                    "d",
                    "--rollouts",
                    "1",
                    "--retries",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            assert code == EXIT_OK
            meta.append(out.read_text().splitlines()[0])
        assert meta[0].startswith("# planlens") and "config=" in meta[0]
        assert meta[0] != meta[1]

    @pytest.mark.parametrize(
        "config, argv, named",
        [
            pytest.param(None, ["--coalition", "da"], "'da'", id="coalition-da"),
            pytest.param({"agents": {"behavior": []}}, [], "agents.behavior", id="behavior-list"),
            pytest.param(
                {"agents": {"behavior": {"latency": {"gen": {"mean": "x", "tail": 1}}}}},
                [],
                "agents.behavior",
                id="latency-mean-str",
            ),
            pytest.param(
                {"agents": {"behavior": {"effects": [{"level": "pass"}]}}},
                [],
                "agents.behavior",
                id="effect-missing-keys",
            ),
            pytest.param(
                {"agents": {"behavior": {"latency": []}}}, [], "agents.behavior.latency", id="latency-list"
            ),
            pytest.param({"agents": {"bakend": "http"}}, [], "agents.bakend", id="unknown-agents-key"),
            pytest.param(
                {"agents": {"behavior": {"base_complied": 1.0}}}, [], "agents.behavior.base_complied",
                id="unknown-behavior-key",
            ),
            pytest.param({"agents": {"behavior": {"seed": 2.7}}}, [], "agents.behavior.seed", id="behavior-seed-float"),
            pytest.param(
                {"agents": {"behavior": {"effects": [{"requires": 1.9, "level": "pass", "delta": 0.1}]}}},
                [],
                "agents.behavior.effects[0].requires",
                id="effect-requires-float",
            ),
            pytest.param(
                {"agents": {"behavior": {"producer_effects": {"p": [{"level": "pass", "delta": "0.1"}]}}}},
                [],
                "agents.behavior.producer_effects.p[0].delta",
                id="producer-effect-delta-str",
            ),
            pytest.param(
                {"pipeline": {"queue_capacity": 8}}, [], "pipeline.queue_capacity", id="unknown-pipeline-key"
            ),
            pytest.param({"pipeline": {"mode": "async"}}, [], "pipeline.mode", id="pipeline-mode"),
            pytest.param({"pipeline.mode": "serial"}, [], "'pipeline.mode'", id="dotted-top-level-pipeline-key"),
            pytest.param({"agents.backend": "http"}, [], "'agents.backend'", id="dotted-top-level-agents-key"),
            pytest.param({"pipeline": {"concurrency": "x"}}, [], "pipeline.concurrency", id="concurrency-str"),
            pytest.param(
                {"pipeline": {"eval_concurrency": 2.5}}, [], "pipeline.eval_concurrency", id="eval-concurrency-float"
            ),
            pytest.param({"representation": "fancy"}, [], "'representation'", id="representation"),
            pytest.param({"k": True}, [], "'k'", id="k-bool"),
            pytest.param({"pipeline": {"concurrency": True}}, [], "pipeline.concurrency", id="concurrency-bool"),
            pytest.param({"rollouts": 0}, [], "'rollouts'", id="config-rollouts-0"),
            pytest.param({"metrics": []}, ["--sweep", "--rollouts", "1"], "'metrics'", id="sweep-empty-metrics"),
            pytest.param(None, ["--rollouts", "0"], "--rollouts", id="coalition-rollouts-0"),
            pytest.param(None, ["--sweep", "--rollouts", "0"], "--rollouts", id="sweep-rollouts-0"),
        ],
    )
    def test_malformed_input_is_config_error(
        self, tmp_path, checkpoint_file, capsys, config, argv, named
    ):
        out = tmp_path / "out.csv"
        args = ["intervene", "--checkpoint", str(checkpoint_file), "--out", str(out), *argv]
        if "--sweep" not in argv and "--coalition" not in argv:
            args += ["--coalition", "d"]
        if config is not None:
            config_path = tmp_path / "exp.json"
            config_path.write_text(json.dumps(config))
            args += ["--config", str(config_path)]
        assert main(args) == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err


@pytest.fixture
def sweep_table(tmp_path, checkpoint_file):
    out = tmp_path / "table.csv"
    assert (
        main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--sweep",
                "--rollouts",
                "2",
                "--retries",
                "1",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        == EXIT_OK
    )
    return out


class TestAttribute:
    def test_report_files_and_term_rows(self, tmp_path, sweep_table):
        out = tmp_path / "report"
        code = main(["attribute", "--tables", str(sweep_table), "--out", str(out)])
        assert code == EXIT_OK
        report_csv = (out / "attribution.csv").read_text()
        lines = [ln for ln in report_csv.splitlines() if not ln.startswith("#")]
        terms = [
            ln.split(",")[1]
            for ln in lines
            if ln.startswith("compiled,")
        ]
        assert terms == [
            "phi_d",
            "phi_a",
            "phi_p",
            "sigma_da",
            "sigma_dp",
            "sigma_ap",
            "sigma_dap",
        ]
        report = json.loads((out / "attribution.json").read_text())
        assert report["rows"]
        assert "_meta" in report
        for metric in ("compiled", "pass", "fast"):
            assert (out / f"attribution_{metric}.svg").exists()

    def test_clip_affects_charts_not_csv(self, tmp_path, sweep_table):
        out_a = tmp_path / "plain"
        out_b = tmp_path / "clipped"
        assert main(["attribute", "--tables", str(sweep_table), "--out", str(out_a)]) == EXIT_OK
        assert (
            main(
                [
                    "attribute",
                    "--tables",
                    str(sweep_table),
                    "--clip",
                    "0.05",
                    "--out",
                    str(out_b),
                ]
            )
            == EXIT_OK
        )
        csv_a = [
            ln
            for ln in (out_a / "attribution.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        csv_b = [
            ln
            for ln in (out_b / "attribution.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert csv_a == csv_b
        json_a = json.loads((out_a / "attribution.json").read_text())
        json_b = json.loads((out_b / "attribution.json").read_text())
        assert json_a["rows"] == json_b["rows"]

    def test_missing_table_is_data_error(self, tmp_path):
        code = main(
            ["attribute", "--tables", str(tmp_path / "none.csv"), "--out", str(tmp_path)]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("case", ["mask-outside-game", "mask-not-int", "no-g-column"])
    def test_bad_table_is_data_error(self, tmp_path, sweep_table, capsys, case):
        rows = read_csv_rows(sweep_table)
        game = "plan-feedback" if case == "mask-outside-game" else "components"  # a 3-player table
        if case == "mask-not-int":
            rows[0]["coalition_mask"] = "x"
        if case == "no-g-column":
            for row in rows:
                del row["g"]
        bad = tmp_path / "bad.csv"
        with bad.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        code = main(["attribute", "--game", game, "--tables", str(bad), "--out", str(tmp_path / "report")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("column, value", [("v", "nan"), ("stderr", "inf")], ids=["v-nan", "stderr-inf"])
    def test_non_finite_value_is_data_error(self, tmp_path, sweep_table, capsys, column, value):
        rows = read_csv_rows(sweep_table)
        rows[1][column] = value
        bad = tmp_path / "bad.csv"
        with bad.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "report"
        assert main(["attribute", "--tables", str(bad), "--out", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "non-finite" in err and "Traceback" not in err
        assert not out.exists()

    def test_duplicate_table_is_data_error(self, tmp_path, checkpoint_file, sweep_table, capsys):
        # A second sweep of the same generation gives a second `pass` table.
        dup = tmp_path / "dup.csv"
        assert main(["intervene", "--checkpoint", str(checkpoint_file), "--sweep", "--rollouts", "2",
                     "--retries", "1", "--seed", "4", "--metrics", "pass", "--out", str(dup)]) == EXIT_OK
        out = tmp_path / "report"
        code = main(["attribute", "--tables", str(sweep_table), str(dup), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(sweep_table) in err and str(dup) in err and "metric=pass" in err
        assert not out.exists()

    def test_repeated_mask_row_is_data_error(self, tmp_path, sweep_table, capsys):
        lines = sweep_table.read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines + [lines[-1]]) + "\n")
        code = main(["attribute", "--tables", str(bad), "--out", str(tmp_path / "report")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad) in err and "repeated" in err and "Traceback" not in err

    def test_method_choices_come_from_methods_table(self, tmp_path, sweep_table, monkeypatch):
        from planlens.attribution import METHODS, banzhaf

        argv = ["attribute", "--tables", str(sweep_table), "--method", "plain", "--out", str(tmp_path / "r")]
        with pytest.raises(SystemExit):
            main(argv)
        monkeypatch.setitem(METHODS, "plain", (banzhaf, None))
        assert main(argv) == EXIT_OK

    def test_shapley_flag(self, tmp_path, sweep_table):
        out = tmp_path / "shapley"
        code = main(
            [
                "attribute",
                "--tables",
                str(sweep_table),
                "--method",
                "shapley",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK


DOT_PATH = "digraph {{ a [label=\"n\"]; b [label=\"n\"]; c [label=\"n\"]; a -> b; b -> c; {extra} }}"


class TestGateCommand:
    def write_dots(self, tmp_path):
        current = tmp_path / "current.dot"
        reference = tmp_path / "reference.dot"
        current.write_text(DOT_PATH.format(extra=""))
        reference.write_text(DOT_PATH.format(extra="c -> a;"))
        return current, reference

    def test_prints_similarity_and_phase(self, tmp_path, capsys):
        current, reference = self.write_dots(tmp_path)
        code = main(
            [
                "gate",
                "--current",
                str(current),
                "--reference",
                str(reference),
                "--status",
                "pass",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "s=" in out and "phase=" in out

    def test_decision_log_json(self, tmp_path):
        current, reference = self.write_dots(tmp_path)
        log = tmp_path / "gate.json"
        code = main(
            [
                "gate",
                "--current",
                str(current),
                "--reference",
                str(reference),
                "--status",
                "failed",
                "--out",
                str(log),
            ]
        )
        assert code == EXIT_OK
        record = json.loads(log.read_text().strip())
        assert record["phase"] == "correctness"
        assert record["admitted_mask"] == 1
        assert record["s"] is None

    def test_tau_flag_moves_boundary(self, tmp_path, capsys):
        current, reference = self.write_dots(tmp_path)
        main(
            [
                "gate",
                "--current",
                str(current),
                "--reference",
                str(reference),
                "--status",
                "pass",
                "--tau-s",
                "0.999",
            ]
        )
        out_low = capsys.readouterr().out
        assert "structural_exploration" in out_low
        main(
            [
                "gate",
                "--current",
                str(current),
                "--reference",
                str(reference),
                "--status",
                "pass",
                "--tau-s",
                "0.01",
            ]
        )
        out_high = capsys.readouterr().out
        assert "performance_exploitation" in out_high

    def test_bad_dot_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dot"
        bad.write_text("graph { a -- b; }")
        good = tmp_path / "good.dot"
        good.write_text("digraph { a -> b; }")
        code = main(
            ["gate", "--current", str(bad), "--reference", str(good), "--status", "pass"]
        )
        assert code == EXIT_DATA

    def test_unknown_status_is_config_error(self, tmp_path):
        code = main(["gate", "--status", "excellent"])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "status, graphs, extra, flag",
        [
            ("pass", "current", [], "--reference"),
            ("failed", "current", [], "--reference"),
            ("compiled", "reference", [], "--current"),
            ("fast", "", [], "--current"),
            ("pass", "both", ["--tau-s", "2"], "--tau-s"),
            ("pass", "both", ["--tau-s", "nan"], "--tau-s"),
            ("pass", "both", ["--wl-iters", "0"], "--wl-iters"),
        ],
        ids=[
            "pass-no-reference",
            "failed-no-reference",
            "compiled-no-current",
            "fast-no-graphs",
            "tau-above-one",
            "tau-nan",
            "wl-iters-zero",
        ],
    )
    def test_bad_flags_are_config_errors(
        self, tmp_path, capsys, status, graphs, extra, flag
    ):
        current, reference = self.write_dots(tmp_path)
        argv = ["gate", "--status", status, "--out", str(tmp_path / "gate.json")]
        if graphs in ("current", "both"):
            argv += ["--current", str(current)]
        if graphs in ("reference", "both"):
            argv += ["--reference", str(reference)]
        assert main(argv + extra) == EXIT_CONFIG
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "gate.json").exists()


class TestCostCommand:
    def test_defaults_print_both_volumes(self, capsys):
        assert main(["cost"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "10000" in out
        assert "2050" in out

    def test_sweep_writes_csv_and_svg(self, tmp_path):
        code = main(["cost", "--sweep", "10:20", "--out", str(tmp_path)])
        assert code == EXIT_OK
        csv_text = (tmp_path / "cost_scaling.csv").read_text()
        assert len([ln for ln in csv_text.splitlines() if not ln.startswith("#")]) == 12
        svg = (tmp_path / "cost_scaling.svg").read_text()
        assert svg.startswith("<svg")
        assert "end-to-end ablation" in svg

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--depth", "0", "depth"),
            ("--population", "0", "population"),
            ("--repetitions", "0", "repetitions"),
            ("--feedback-components", "0", "feedback_components"),
            ("--checkpoints", "0", "checkpoints"),
            ("--k-local", "0", "k_local"),
            ("--feedback-components", "40", "feedback_components"),
        ],
        ids=["depth", "population", "repetitions", "feedback-components", "checkpoints", "k-local",
             "feedback-components-40"],
    )
    def test_out_of_range_flag_is_config_error(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "cost"
        assert main(["cost", flag, value, "--sweep", "1:3", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_sweep_range(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--sweep", "20:10"])
        assert exc.value.code == 2  # argparse usage error


class TestReportCommand:
    def test_bundles_inputs(self, tmp_path, sweep_table):
        attr_dir = tmp_path / "attr"
        assert main(["attribute", "--tables", str(sweep_table), "--out", str(attr_dir)]) == EXIT_OK
        bundle = tmp_path / "bundle"
        code = main(
            [
                "report",
                "--tables",
                str(sweep_table),
                "--attribution",
                str(attr_dir),
                "--out",
                str(bundle),
            ]
        )
        assert code == EXIT_OK
        manifest = json.loads((bundle / "bundle.json").read_text())
        assert "attribution.csv" in manifest["files"]
        assert manifest["config_hash"]
        assert (bundle / "table.csv").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(
            ["report", "--stats", str(tmp_path / "none.csv"), "--out", str(tmp_path / "b")]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize("names", [("a/s.csv", "b/s.csv"), ("a/bundle.json", "b/t.csv")], ids=["same", "manifest"])
    def test_inputs_bundled_under_one_name_are_config_error(self, tmp_path, capsys, names):
        # One would overwrite the other, or the manifest would overwrite it.
        stats, tables = (tmp_path / name for name in names)
        for path in (stats, tables):
            path.parent.mkdir(exist_ok=True)
            path.write_text("x\n")
        out = tmp_path / "bund"
        assert main(["report", "--stats", str(stats), "--tables", str(tables), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert str(stats) in err and (str(tables) if stats.name == tables.name else str(out / "bundle.json")) in err
        assert not out.exists()

    @pytest.mark.parametrize("attribution", ["..", "."], ids=["parent", "no-name"])
    def test_input_without_a_file_name_is_config_error(self, tmp_path, sweep_table, capsys, monkeypatch, attribution):
        # `..` would be copied to `bundle/..`, the working directory, and `.`
        # into `bundle` itself.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = ["report", "--tables", str(sweep_table), "--attribution", attribution, "--out", "bundle"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"report input {attribution} " in err and "bundle" in err and "Traceback" not in err
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("out", ["report", "report/bundle", "report/a/b"])
    def test_directory_input_holding_the_output_is_config_error(self, tmp_path, capsys, monkeypatch, out):
        # Copying it would copy the copy, until the path is too deep.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "report").mkdir()
        (tmp_path / "report" / "a.csv").write_text("x\n")
        assert main(["report", "--attribution", "report", "--out", out]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "report input report " in err and f"output directory {out}" in err and "Traceback" not in err
        assert [p.name for p in (tmp_path / "report").iterdir()] == ["a.csv"]

    def test_directory_input_lists_its_own_entries(self, tmp_path):
        # An entry an earlier bundle left in the destination was not bundled now.
        rep = tmp_path / "rep"
        rep.mkdir()
        (rep / "a.csv").write_text("x\n")
        out = tmp_path / "bund"
        (out / "rep").mkdir(parents=True)
        (out / "rep" / "old.txt").write_text("stale\n")
        assert main(["report", "--attribution", str(rep), "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "bundle.json").read_text())["files"] == ["a.csv"]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "planlens" in capsys.readouterr().out


def test_module_runs_the_cli_without_an_install():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "planlens", "--version"], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0
    assert done.stdout.startswith("planlens ")


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", readme, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("planlens ")]
    assert [argv[0] for argv in commands] == [
        "freeze", "intervene", "intervene", "intervene", "intervene", "attribute", "gate", "cost", "report"
    ]
    store = TrajectoryStore("readme")
    for g in (0, 3, 7):
        for i in range(3):
            executions = (ExecutionRecord(compiled=(g + i) % 2 == 0),)
            store.append(Sample(f"g{g}i{i}", g, f"kernel {g}/{i}", executions=executions))
    monkeypatch.chdir(tmp_path)
    save_trajectory(store, "traj.ndjson")
    Path("cand.dot").write_text("digraph cand { entry -> loop; loop -> loop; loop -> exit; }")
    Path("ref.dot").write_text("digraph ref { entry -> loop; loop -> exit; }")
    for argv in commands:
        assert main(argv) == EXIT_OK, argv


def test_parser_built_once_per_process():
    from planlens.cli import build_parser

    assert build_parser() is build_parser()


# sha256 (first 16 hex digits) of each `--help` text at COLUMNS=80.
PINNED_HELP = {
    "": "bb2230e0d74d156a",
    "freeze": "7378137204b38785",
    "intervene": "c5c350b8dbbd5ec3",
    "attribute": "3ead41021e302888",
    "gate": "c18e2d4821fcccb4",
    "cost": "f19b40058c0a8eda",
    "report": "2fe9657a59d68e41",
}


@pytest.mark.parametrize("command", list(PINNED_HELP), ids=lambda c: c or "planlens")
def test_help_text_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"] if command else ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == PINNED_HELP[command]


class TestLatencyConfig:
    """`agents.behavior.latency` sets the simulated stage durations of
    `intervene`, over the default latencies for stages it leaves out."""

    def traced_run(self, tmp_path, checkpoint_file, name, behavior):
        args = [
            "intervene",
            "--checkpoint",
            str(checkpoint_file),
            "--coalition",
            "d",
            "--rollouts",
            "1",
            "--retries",
            "2",
            "--out",
            str(tmp_path / f"{name}.csv"),
            "--trace",
            str(tmp_path / f"{name}.ndjson"),
        ]
        if behavior is not None:
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps({"agents": {"behavior": behavior}}))
            args += ["--config", str(config_path)]
        assert main(args) == EXIT_OK
        lines = (tmp_path / f"{name}.ndjson").read_text().splitlines()
        # Run ids carry the process id; the rest of each event is compared.
        events = [json.loads(line) for line in lines]
        for event in events:
            del event["run_id"]
        return events

    def test_gen_mean_moves_the_simulated_clock(self, tmp_path, checkpoint_file):
        ends = []
        for mean in (4.0, 500.0):
            behavior = {"seed": 0, "latency": {"gen": {"mean": mean, "tail": 0.0}}}
            events = self.traced_run(tmp_path, checkpoint_file, f"gen{mean}", behavior)
            ends.append(events[-1]["wall_time"])
        assert ends[0] < ends[1]
        assert ends[1] >= 500.0

    @pytest.mark.parametrize(
        "latency, stage",
        [
            ({"gne": {"mean": 500.0, "tail": 0.0}}, "gne"),  # not a stage
            ({"gen": {"mean": 500.0}}, "gen"),  # tail would silently default
            ({"eval": {"tail": 0.0}}, "eval"),
        ],
        ids=["unknown-stage", "no-tail", "no-mean"],
    )
    def test_bad_latency_entry_is_config_error(
        self, tmp_path, checkpoint_file, capsys, latency, stage
    ):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"agents": {"behavior": {"latency": latency}}}))
        code = main(
            [
                "intervene",
                "--checkpoint",
                str(checkpoint_file),
                "--config",
                str(config_path),
                "--coalition",
                "d",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == EXIT_CONFIG
        assert stage in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_no_latency_key_keeps_default_trace(self, tmp_path, checkpoint_file):
        plain = self.traced_run(tmp_path, checkpoint_file, "plain", None)
        configured = self.traced_run(tmp_path, checkpoint_file, "seeded", {"seed": 0})
        assert configured == plain
        digest = hashlib.sha256(
            json.dumps(plain, sort_keys=True).encode("utf-8")
        ).hexdigest()
        assert (len(plain), plain[-1]["wall_time"], digest[:16]) == PINNED_DEFAULT_TRACE


class TestBehaviorLatency:
    """A behaviour's latency is read and applied by the library alone, so
    the CLI and a library pipeline on one behaviour run the same schedule."""

    BEHAVIOR = {"seed": 0, "latency": {"gen": {"mean": 500.0, "tail": 0.0}}}

    def test_library_trace_equals_intervene_trace(self, tmp_path, checkpoint_file):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"agents": {"behavior": self.BEHAVIOR}}))
        cli_trace = tmp_path / "cli.ndjson"
        argv = ["intervene", "--checkpoint", str(checkpoint_file), "--config", str(config_path), "--coalition",
                "d", "--rollouts", "1", "--retries", "2", "--seed", "3", "--out", str(tmp_path / "x.csv"),
                "--trace", str(cli_trace)]
        assert main(argv) == EXIT_OK
        checkpoint = load_checkpoint(str(checkpoint_file))
        players = default_components()
        pipe = InterventionPipeline(
            mock_bundle(MockBehavior.from_json(self.BEHAVIOR)),
            synthetic_artifact_source(checkpoint, players),
            config=PipelineConfig(k=2, seed=3),
        )
        coalition = Coalition.parse("d", players)
        run_id = pipe.submit(checkpoint, Intervention(coalition), seed=rollout_seed(3, coalition, 0))
        result = pipe.run_to_completion(run_id)
        assert result.makespan >= 500.0
        export_trace(result, tmp_path / "library.ndjson")
        # Both pipelines' first run, in one process: the run ids match too.
        assert (tmp_path / "library.ndjson").read_text() == cli_trace.read_text()

    @pytest.mark.parametrize(
        "behavior",
        [{"latency": {"gne": {"mean": 1.0, "tail": 1.0}}}, {"effects": [{"level": "pass"}]}],
        ids=["unknown-latency-stage", "effect-missing-keys"],
    )
    def test_bad_behavior_fails_before_the_checkpoint_is_read(self, tmp_path, capsys, behavior):
        config_path = tmp_path / "exp.json"
        config_path.write_text(json.dumps({"agents": {"behavior": behavior}}))
        argv = ["intervene", "--checkpoint", str(tmp_path / "missing.ndjson"), "--config", str(config_path),
                "--coalition", "d", "--out", str(tmp_path / "x.csv")]
        assert main(argv) == EXIT_CONFIG
        assert "agents.behavior" in capsys.readouterr().err


def config_of(path):
    """The `config=` hash in an output file's `# planlens ...` header."""
    header = path.read_text().splitlines()[0]
    assert header.startswith("# planlens ")
    return header.split("config=")[1]


# Each run setting: (name, flag argv, the same value as an experiment config).
RUN_SETTING_CASES = [
    ("game", ["--game", "plan-feedback"], {"game": "plan-feedback"}),
    ("representation", ["--representation", "formatted"], {"representation": "formatted"}),
    ("k", ["--retries", "2"], {"k": 2}),
    ("rounds", ["--rounds", "2"], {"rounds": 2}),
    ("rollouts", ["--rollouts", "2"], {"rollouts": 2}),
    ("seed", ["--seed", "5"], {"seed": 5}),
    ("pipeline.mode", ["--mode", "serial"], {"pipeline": {"mode": "serial"}}),
    ("pipeline.concurrency", ["--concurrency", "3"], {"pipeline": {"concurrency": 3}}),
    (
        "pipeline.eval_concurrency",
        ["--eval-concurrency", "4"],
        {"pipeline": {"eval_concurrency": 4}},
    ),
]

# Every run setting away from its default, for the pinned provenance hashes.
ALL_SETTINGS_ARGV = [
    "--game", "plan-summary", "--representation", "summarized", "--retries", "2",
    "--rounds", "2", "--rollouts", "2", "--seed", "5", "--mode", "stage-sync",
    "--concurrency", "3", "--eval-concurrency", "4",
]


# The flags of a run, over which each provenance case changes one flag: a
# value of None drops a flag, True gives it bare, and `{name}` stands for a
# file the test makes.
BASE_RUN = {"--checkpoint": "{g1}", "--coalition": "d", "--rollouts": "1", "--retries": "1"}

# One case per `intervene` flag, by dest: the changes to BASE_RUN of two runs
# that differ in that flag. Each run writes its own --out, so the `out` case
# changes nothing else; a sweep refuses --coalition, so `sweep` drops it.
PROVENANCE_CASES = {
    "checkpoint": ({}, {"--checkpoint": "{g2}"}),
    "config": ({"--config": "{config_a}"}, {"--config": "{config_b}"}),
    "coalition": ({}, {"--coalition": "a"}),
    "sweep": ({}, {"--coalition": None, "--sweep": True}),
    "game": ({"--coalition": "none"}, {"--coalition": "none", "--game": "plan-feedback"}),
    "representation": ({}, {"--representation": "formatted"}),
    "retries": ({}, {"--retries": "2"}),
    "rounds": ({}, {"--rounds": "2"}),
    "rollouts": ({}, {"--rollouts": "2"}),
    "seed": ({}, {"--seed": "5"}),
    "mode": ({}, {"--mode": "serial"}),
    "concurrency": ({}, {"--concurrency": "3"}),
    "eval_concurrency": ({}, {"--eval-concurrency": "4"}),
    "plan_mode": ({}, {"--plan-mode": "dummy"}),
    "randomize_feedback": ({}, {"--randomize-feedback": "1"}),
    "metrics": ({"--coalition": None, "--sweep": True}, {"--coalition": None, "--sweep": True, "--metrics": "pass"}),
    "backend": ({"--backend": "mock"}, {"--backend": "http"}),
    "out": ({}, {}),
    "trace": ({}, {"--trace": "{tmp}/trace.ndjson"}),
    "archive": ({}, {"--archive": "{tmp}/archive"}),
    "replay": ({}, {"--replay": "{recorded}"}),
}


def intervene_dests():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest for a in subcommands.choices["intervene"]._actions} - {"help"}


class TestRunSettings:
    def intervene(self, tmp_path, checkpoint_file, name, argv, config=None):
        out = tmp_path / f"{name}.csv"
        args = ["intervene", "--checkpoint", str(checkpoint_file), "--out", str(out), *argv]
        if config is not None:
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(config))
            args += ["--config", str(config_path)]
        assert main(args) == EXIT_OK
        return out

    @pytest.mark.parametrize(
        "flag, config", [case[1:] for case in RUN_SETTING_CASES], ids=[c[0] for c in RUN_SETTING_CASES]
    )
    def test_flag_and_config_key_give_one_output(self, tmp_path, checkpoint_file, flag, config):
        base = {"--retries": "1", "--rollouts": "1"}
        base.pop(flag[0], None)
        argv = ["--sweep", *(item for pair in base.items() for item in pair)]
        by_flag = self.intervene(tmp_path, checkpoint_file, "flag", argv + flag)
        by_config = self.intervene(tmp_path, checkpoint_file, "config", argv, config)
        default = self.intervene(tmp_path, checkpoint_file, "default", argv)
        assert by_flag.read_bytes() == by_config.read_bytes()  # header included
        assert config_of(by_flag) != config_of(default)

    def test_provenance_hashes_pinned(self, tmp_path, checkpoint_file):
        sweep = self.intervene(tmp_path, checkpoint_file, "sweep", ["--sweep", *ALL_SETTINGS_ARGV])
        coalition = self.intervene(
            tmp_path, checkpoint_file, "coalition", ["--coalition", "S,P", *ALL_SETTINGS_ARGV]
        )
        cost_dir = tmp_path / "cost"
        assert main(["cost", "--depth", "7", "--k-local", "2", "--sweep", "2:4", "--out", str(cost_dir)]) == EXIT_OK
        assert (config_of(sweep), config_of(coalition), config_of(cost_dir / "cost_scaling.csv")) == (
            "746235b4eb2e", "948f11c8a34d", "784b8b44531b"
        )

    def test_unset_flags_take_defaults_after_a_call_that_set_them(self, tmp_path, checkpoint_file):
        argv = ["--coalition", "d", "--rollouts", "1"]
        set_first = self.intervene(tmp_path, checkpoint_file, "set", [*argv, "--seed", "5", "--mode", "serial"])
        unset = self.intervene(tmp_path, checkpoint_file, "unset", argv)
        explicit = self.intervene(
            tmp_path, checkpoint_file, "explicit", [*argv, "--seed", "0", "--mode", "multi-async"]
        )
        assert config_of(unset) == config_of(explicit) != config_of(set_first)
        assert unset.read_bytes() == explicit.read_bytes()

    def test_every_intervene_flag_is_classified(self):
        """Each flag is a run setting, shared by both modes, or in exactly one
        list of `MODE_ONLY_FLAGS`, so no flag can skip the mode check."""
        dests = intervene_dests()
        run_settings = {dest for dest, *_ in RUN_SETTINGS}
        shared = {"checkpoint", "config", "sweep", "backend", "out"}
        for dest in dests:
            lists = sum(dest in flags for flags in MODE_ONLY_FLAGS.values())
            assert (dest in run_settings) + (dest in shared) + lists == 1, dest
        assert {dest for flags in MODE_ONLY_FLAGS.values() for dest in flags} <= dests

    def test_every_intervene_flag_has_a_provenance_case(self):
        assert set(PROVENANCE_CASES) == intervene_dests()

    @pytest.mark.parametrize("dest", sorted(PROVENANCE_CASES))
    def test_hash_covers_every_flag_but_the_output_flags(
        self, tmp_path, checkpoint_file, trajectory_file, monkeypatch, request, dest
    ):
        files = {"tmp": tmp_path, "g1": checkpoint_file, "g2": tmp_path / "frozen" / "checkpoint_g2.ndjson"}
        assert main(["freeze", "--trajectory", str(trajectory_file), "-g", "2", "--out", str(files["g2"].parent)]) == EXIT_OK
        for name, base_compiled in (("config_a", 0.9), ("config_b", 0.2)):
            files[name] = tmp_path / f"{name}.json"
            files[name].write_text(json.dumps({"agents": {"behavior": {"base_compiled": base_compiled}}}))
        if dest == "backend":
            monkeypatch.setenv("PLANLENS_BACKEND_URL", request.getfixturevalue("chat_server"))

        def intervene(name, changes):
            argv = ["intervene", "--out", str(tmp_path / f"{name}.csv")]
            for flag, value in {**BASE_RUN, **changes}.items():
                if value is True:
                    argv.append(flag)
                elif value is not None:
                    argv += [flag, value.format(**files)]
            assert main(argv) == EXIT_OK
            return tmp_path / f"{name}.csv"

        files["recorded"] = tmp_path / "recorded"
        intervene("record", {"--archive": str(files["recorded"])})
        first, second = (intervene(str(i), changes) for i, changes in enumerate(PROVENANCE_CASES[dest]))
        if dest in OUTPUT_FLAGS:
            assert first.read_bytes() == second.read_bytes()  # the `# meta` line included
        else:
            assert config_of(first) != config_of(second)

    def test_readme_config_example_names_every_run_setting(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        example = tmp_path / "exp.json"
        example.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        config = load_experiment_config(str(example))
        for _, section, key, _, _, _ in RUN_SETTINGS:
            assert key in (config[section] if section else config), (section, key)
