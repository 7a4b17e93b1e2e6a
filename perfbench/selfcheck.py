"""Quick self-check of the benchmark at tiny sizes (about a minute).

Run from the repository root:  python3 perfbench/selfcheck.py

For every workload, untraced and traced, it runs perfbench/run.py at the
tiny size and asserts that the result line is correct with no failed
op, and that it carries every metric BENCHMARK.json names, with that
metric's unit and a finite value. It also checks BENCHMARK.json against
its schema limits, and that the benchmark refuses to run (exit code not
0, no result line) in a directory holding only BENCHMARK.json and
perfbench/.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_schema(bench: dict) -> None:
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= len(bench["paths"]) <= 16 and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])
    print(f"schema ok: {len(bench['workloads'])} workloads, runs of {bench['run_seconds']} s")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_run(root: Path, bench: dict, workload: str, trace: int) -> None:
    out = run(root, workload, trace)
    assert out.returncode == 0, out.stderr
    line = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, out.stdout
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in declared}, sorted(line["metrics"])
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (m, got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), (m, got)
    print(f"{workload:<11} trace={trace}: {len(declared)} metrics, "
          f"{line['attempted']} ops, failed_ratio {line['failed'] / line['attempted']}")


def check_bare_directory(root: Path) -> None:
    bare = root / ".perfbench-work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bare, "sweep", 0)
        assert out.returncode != 0 and '"correct"' not in out.stdout, out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("bare directory: refused with exit code", out.returncode)


def main() -> int:
    if not __debug__:
        sys.exit("selfcheck relies on assert; run it without -O")
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_schema(bench)
    missing = set(metrics.PER_LAYER) ^ {m["name"] for m in bench["per_layer"]}
    assert not missing, f"per-layer metrics without a layer map entry: {missing}"
    for workload in metrics.WORKLOADS:
        for trace in (0, 1):
            check_run(root, bench, workload, trace)
    check_bare_directory(root)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
