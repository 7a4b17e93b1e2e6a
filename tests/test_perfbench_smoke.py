"""Smoke test of the benchmark's traced run at tiny sizes.

perfbench/tracing.py attaches to planlens from outside, at named seams:
the `InterventionPipeline.submit` signature, `RunLedger.stage_key`,
`LatencyModel.duration`, `archive_run` and others. A change to one of
them should fail here rather than only when the benchmark runs.
"""

import gzip
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", PERFBENCH / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Per workload, a layer its traced run must have reached: gate never runs the pipeline.
REACHED = {
    "sweep": "pipeline.stages",
    "wide": "pipeline.stages",
    "cli-replay": "pipeline.stages",
    "gate": "gating.gate.calls",
}


@pytest.mark.parametrize("workload", sorted(REACHED))
def test_traced_worker_runs_clean(workload, tmp_path, monkeypatch):
    # Leave no bytecode cache inside perfbench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    work = tmp_path / "work"
    work.mkdir()
    params = load_inputs().generate(workload, 0, "tiny", work)
    (work / "params.json").write_text(json.dumps(params), encoding="utf-8")
    out = tmp_path / "result.json"
    proc = subprocess.run(
        [
            sys.executable,
            str(PERFBENCH / "worker.py"),
            "--work",
            str(work),
            "--seconds",
            "0.2",
            "--trace",
            "1",
            "--out",
            str(out),
        ],
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["problems"]
    assert result["layers"][REACHED[workload]] > 0
    if workload != "gate":
        # The tracer subclasses LatencyModel to wrap `duration`; the schedule
        # must still call it, or the latency spans fall silent.
        with gzip.open(tmp_path / f"spans-{workload}.tsv.gz", "rt", encoding="utf-8") as spans:
            assert "pipeline.latency" in {line.split("\t")[3] for line in spans}
