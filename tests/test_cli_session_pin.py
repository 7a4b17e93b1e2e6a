"""One pinned command-line session: every file it writes and its stdout.

The session runs `main` through each command and the run controls that
reach different code: freeze; a sweep per representation; a recorded
`--coalition` run with trace and archive in each execution mode, then its
replay; `--plan-mode dummy` and `--randomize-feedback`; attribute, gate,
cost and report. Paths are relative to the session directory and the
process id is fixed, because both enter provenance hashes and run ids.
A refactor that keeps outputs byte-identical keeps every pin.
"""

import hashlib
import os
import random
from pathlib import Path

from conftest import save_trajectory
from planlens.cli import EXIT_OK, main
from planlens.trajectory import ExecutionRecord, Sample, TrajectoryStore

RUN = ["--rollouts", "1", "--retries", "2", "--config", "exp.json"]
CHECKPOINT = ["intervene", "--checkpoint", "frozen/checkpoint_g1.ndjson"]

SESSION = [
    ["freeze", "--trajectory", "traj.ndjson", "-g", "0", "1", "--out", "frozen"],
    *(
        CHECKPOINT + ["--sweep", "--rollouts", "2", "--retries", "2", "--representation", rep,
                      "--config", "exp.json", "--out", f"tables_{rep}.csv"]
        for rep in ("raw", "formatted", "summarized")
    ),
    ["intervene", "--checkpoint", "frozen/checkpoint_g0.ndjson", "--sweep", "--rollouts", "2",
     "--retries", "2", "--metrics", "pass,fast", "--out", "tables_g0.csv"],
    *(
        argv
        for mode in ("serial", "stage-sync", "multi-async")
        for argv in (
            CHECKPOINT + ["--coalition", "d,a", "--mode", mode, *RUN, "--out", f"rec_{mode}.csv",
                          "--trace", f"rec_{mode}.ndjson", "--archive", f"arch_{mode}"],
            CHECKPOINT + ["--coalition", "d,a", "--mode", mode, *RUN, "--out", f"rep_{mode}.csv",
                          "--trace", f"rep_{mode}.ndjson", "--replay", f"arch_{mode}"],
        )
    ),
    CHECKPOINT + ["--coalition", "p", "--plan-mode", "dummy", *RUN, "--out", "dummy.csv"],
    CHECKPOINT + ["--coalition", "d,a,p", "--randomize-feedback", "7", "--rollouts", "2",
                  "--out", "randomized.csv"],
    ["attribute", "--tables", "tables_g0.csv", "tables_raw.csv", "--out", "report"],
    ["gate", "--current", "cur.dot", "--reference", "ref.dot", "--status", "fast", "--out", "gate.json"],
    ["cost", "--sweep", "1:4", "--out", "cost"],
    ["report", "--tables", "tables_raw.csv", "--stats", "rec_serial.csv", "--attribution", "report",
     "--out", "bundle"],
]

# sha256 prefix of each top-level output (a directory hashes its files'
# relative paths and contents) and of the session's stdout.
PINNED = {
    "arch_multi-async": "ce3cbb79e48feeeb",
    "arch_serial": "ce3cbb79e48feeeb",
    "arch_stage-sync": "ce3cbb79e48feeeb",
    "bundle": "dbe3ee2f7959c076",
    "cost": "fc1b9d3e4dc4b0ca",
    "dummy.csv": "dca0c78787ab73dc",
    "frozen": "4b879ee3373936f7",
    "gate.json": "08bee8e4a3d57a8d",
    "randomized.csv": "324c0b83a48c4edb",
    "rec_multi-async.csv": "8a06cddd28ef74ba",
    "rec_multi-async.ndjson": "a37d12fac2c98f4c",
    "rec_serial.csv": "11c77e9689c55d3b",
    "rec_serial.ndjson": "f78dc70eccb11973",
    "rec_stage-sync.csv": "185aaadffc08e121",
    "rec_stage-sync.ndjson": "1f1759e237ade8eb",
    "rep_multi-async.csv": "6a561d23782eff2c",
    "rep_multi-async.ndjson": "60f8ffa060091f1c",
    "rep_serial.csv": "4b7127127636cd06",
    "rep_serial.ndjson": "2f2d3c470e269bb4",
    "rep_stage-sync.csv": "953c33a7200967aa",
    "rep_stage-sync.ndjson": "dea12dff81807251",
    "report": "dc7916d2604649cc",
    "tables_formatted.csv": "70c54a699ab91044",
    "tables_g0.csv": "fc5431b0042f01ad",
    "tables_raw.csv": "c0054e39aa447668",
    "tables_summarized.csv": "8501f099d16b815b",
    "stdout": "a38faceae9a25c47",
}


def write_inputs(root: Path) -> set[str]:
    rng = random.Random(11)
    store = TrajectoryStore("traj-session")
    for g in range(2):
        for i in range(6):
            compiled = [rng.random() < 0.8 for _ in range(rng.randint(1, 3))]
            executions = tuple(ExecutionRecord(c, c and rng.random() < 0.5) for c in compiled)
            store.append(Sample(f"g{g}i{i}", g, f"kernel {g}/{i}", executions=executions))
    save_trajectory(store, str(root / "traj.ndjson"))
    (root / "exp.json").write_text(
        '{"pipeline": {"concurrency": 2, "eval_concurrency": 3},'
        ' "agents": {"behavior": {"seed": 4}}}',
        encoding="utf-8",
    )
    (root / "cur.dot").write_text("digraph { a -> b; b -> c; c -> a; }", encoding="utf-8")
    (root / "ref.dot").write_text("digraph { a -> b; b -> c; }", encoding="utf-8")
    return {"traj.ndjson", "exp.json", "cur.dot", "ref.dot"}


def digest(path: Path) -> str:
    h = hashlib.sha256()
    if path.is_dir():
        for file in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(file.relative_to(path).as_posix().encode("utf-8") + b"\0")
            h.update(hashlib.sha256(file.read_bytes()).digest())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def test_cli_session_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "getpid", lambda: 4242)
    inputs = write_inputs(tmp_path)
    for argv in SESSION:
        assert main(argv) == EXIT_OK, argv
    outputs = {p.name: digest(p) for p in tmp_path.iterdir() if p.name not in inputs}
    outputs["stdout"] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()[:16]
    assert outputs == PINNED
