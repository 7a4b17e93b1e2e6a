"""planlens benchmark: one workload, one seed, one fresh process.

Run from the repository root:
  python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

It writes the workload's inputs from the seed into .perfbench-work/,
measures set-up in several fresh processes, runs the workload in one
more fresh process (a single closed-loop caller, no threads), checks
every output, scales its timings by the machine speed measured
alongside them (perfbench/reference.py), prints a readable report and,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the
metrics are the end-to-end ones in BENCHMARK.json, with --trace 1 the
per-layer ones from the span recorder, whose spans are kept in
.perfbench-work/spans-<workload>.tsv.gz. Everything else the run writes
is removed when it ends. Quick self-check: python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import metrics  # noqa: E402

# Extra fresh processes that only set up, half before and half after the
# run (which adds one more sample), so they fall in different stretches
# of machine load.
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 10
RUN_TIMEOUT_S = 110  # with the probes, the whole command ends within 180 s


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0


def _catalogue_problems(bench: dict) -> list[str]:
    """Differences between BENCHMARK.json and metrics.py."""
    problems = []
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != metrics.END_TO_END:
        problems.append(f"end_to_end {declared} != {metrics.END_TO_END}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    known = {name: (unit, better) for name, (unit, better, _) in metrics.PER_LAYER.items()}
    if declared != known:
        problems.append(f"per_layer differs in {sorted(set(declared.items()) ^ set(known.items()))}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(metrics.WORKLOADS):
        problems.append("workload names differ")
    return problems


def _worker(work: Path, out: Path, timeout: float, *extra: str) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--work", str(work), "--out", str(out), *extra],
        check=True,
        timeout=timeout,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def _report(args, params, result, setups) -> None:
    print(f"planlens benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size}")
    print(f"  batch: {json.dumps({k: v for k, v in params.items() if k not in ('behavior',)})}")
    e2e = result["e2e"]
    print("  end-to-end (untraced), times scaled by the machine-speed factors of perfbench/reference.py:")
    print(f"    {'setup_s':<24}{_median([s['setup_s'] for s in setups]):>14.6g} s      "
          f"n={len(setups)} processes; raw {_median([s['setup_raw_s'] for s in setups]):.6g} s, "
          f"factors {min(s['setup_speed'] for s in setups):.3f}-{max(s['setup_speed'] for s in setups):.3f}")
    for name, (unit, scope) in {**{k: (u, metrics.WORKLOADS) for k, u in metrics.END_TO_END.items()},
                                **metrics.REPORT_ONLY}.items():
        if name == "setup_s":
            continue
        if args.workload not in scope or name not in e2e:
            print(f"    {name:<24}{'n/a':>14}")
            continue
        value, n = e2e[name]
        samples = "ops" if name.startswith(("op_", "failed")) else "batches"
        if name == "peak_rss_mb":
            samples = "process"
        if name in ("wall_s", "programs_per_s") or name.startswith("op_"):
            samples += f", medians of {result['positions']} op positions over {result['batches']} batches"
        print(f"    {name:<24}{value:>14.6g} {unit:<6} n={n} {samples}")
        if name == "wall_s":
            low, mid, high = result["speed"]
            print(f"    {'':<24}unscaled {result['raw_wall_s']:.6g} s; per-op factors {low:.3f}/{mid:.3f}/{high:.3f}"
                  f" (min/median/max) from {result['reference_slices']} reference slices")
    if result["layers"]:
        print("  per-layer (traced run):")
        for name, value in sorted(result["layers"].items()):
            unit, _, moves = metrics.PER_LAYER[name]
            print(f"    {name:<36}{value:>14.6g} {unit:<9} -> {moves}")
    print(f"  digest: {result['digest']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planlens benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(inputs.SIZES), default="full",
                        help="tiny is for perfbench/selfcheck.py")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "planlens" / "__init__.py").is_file():
        print("error: run from the repository root (src/planlens not found)", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = _catalogue_problems(bench)
    if problems:
        print("error: BENCHMARK.json and perfbench/metrics.py disagree:", *problems, sep="\n  ",
              file=sys.stderr)
        return 2

    work_root = root / ".perfbench-work"
    work = work_root / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        params = inputs.generate(args.workload, args.seed, args.size, work)
        (work / "params.json").write_text(json.dumps(params), encoding="utf-8")
        def probe(i: int) -> dict:
            return _worker(work, work / f"setup-{i}.json", PROBE_TIMEOUT_S, "--setup-only")

        setups = [probe(i) for i in range(SETUP_PROBES // 2)]
        result = _worker(work, work / "result.json", RUN_TIMEOUT_S,
                         "--seconds", str(args.seconds), "--trace", str(args.trace))
        setups.append(result)
        setups += [probe(i) for i in range(SETUP_PROBES // 2, SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_samples = [s["setup_s"] for s in setups]
    _report(args, params, result, setups)
    if args.trace:
        values = {name: (result["layers"][name], m["unit"]) for name, m in
                  ((m["name"], m) for m in bench["per_layer"])}
    else:
        measured = {name: value for name, (value, _) in result["e2e"].items()}
        measured["setup_s"] = _median(setup_samples)
        values = {m["name"]: (measured[m["name"]], m["unit"]) for m in bench["end_to_end"]}
    line = {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
