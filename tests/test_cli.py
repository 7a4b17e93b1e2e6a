import csv
import json
import random

import pytest

from planlens.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from planlens.trajectory import ExecutionRecord, Sample, TrajectoryStore


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
    store.save(str(path))
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


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class TestIntervene:
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "planlens" in capsys.readouterr().out
