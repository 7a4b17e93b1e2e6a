"""One workload in one fresh process: set up, run batches, check, report.

Usage (normally started by run.py):
  python3 perfbench/worker.py --work DIR --seconds S --trace 0|1 --out FILE
  python3 perfbench/worker.py --work DIR --setup-only --out FILE

DIR holds the generated inputs and `params.json`. With --trace 0 the
whole run is untraced and yields the end-to-end metrics. With --trace 1
the first half is untraced, the second half runs with the span recorder
installed, and the per-layer metrics come from that second half.

A run repeats the workload's fixed batch until the time is up. Every
batch makes the same ops in the same order, so op position j of one
batch does the same work as position j of any other. Every op latency
is first scaled by the machine-speed factor of reference.py, taken from
reference slices timed around that op. Each position's latency is then
the median of its scaled samples over the run's batches, and so is the
scaled batch time outside the ops. wall_s is the sum of those figures,
programs_per_s is a batch's programs over wall_s, and op_ms.p50 /
op_ms.p95 are percentiles over the positions. Reason: on the shared
two-core machine this was written on, the speed of plain Python code
changes about 1.8x for stretches longer than a run, so raw times, even
the best third of a run's batches, spread 30-50% from run to run.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from reference import ReferenceLoop

_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
MIN_BATCHES = 10  # samples per op position
SETUP_REFERENCE_SLICES = 60  # timed right after set-up
PROBE_RUNS = 16  # runs kept alive by one pipeline while tracemalloc counts


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def batch_estimate(batches, latency_s, factors=None):
    """(wall_s, per-position op latencies in s) of identical batches.

    Each op position, and the batch time outside the ops, contributes
    the median over the batches of its time scaled by `factors` (one per
    op; the time outside a batch's ops takes the mean of its ops').
    """
    n_ops = batches[0].n_ops
    if any(b.n_ops != n_ops for b in batches):
        raise ValueError("batches differ in their number of ops")
    scale = factors or [1.0] * len(latency_s)
    positions = [
        _median([latency_s[b.first_op + j] * scale[b.first_op + j] for b in batches])
        for j in range(n_ops)
    ]
    outside = []
    for b in batches:
        ops = range(b.first_op, b.first_op + n_ops)
        outside.append(
            (b.wall_s - sum(latency_s[i] for i in ops)) * _mean(scale[i] for i in ops)
        )
    return sum(positions) + _median(outside), positions


def run_phase(workload, ops, seconds, min_batches, inst=None):
    batches = []
    deadline = time.perf_counter() + seconds
    while len(batches) < min_batches or time.perf_counter() < deadline:
        in_reference = ops.reference.total_s if ops.reference else 0.0
        batch = workload.batch(ops, inst)
        if ops.reference:
            batch.wall_s -= ops.reference.total_s - in_reference
        batches.append(batch)
    return batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    params = json.loads((args.work / "params.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # imports planlens: part of set-up

    workload = workloads.WORKLOADS[params["workload"]](params, args.work)
    setup_s = time.perf_counter() - _START
    reference = ReferenceLoop()
    setup = {
        "setup_raw_s": setup_s,
        "setup_speed": reference.burst_factor(SETUP_REFERENCE_SLICES),
    }
    setup["setup_s"] = setup_s * setup["setup_speed"]
    if args.setup_only:
        args.out.write_text(json.dumps(setup), encoding="utf-8")
        return 0

    full = params["size"] == "full"
    min_batches = MIN_BATCHES if full else 1
    ops = workloads.OpLog(reference=reference)
    untraced_s = args.seconds / 2 if args.trace else args.seconds
    batches = run_phase(workload, ops, untraced_s, min_batches)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced, layers, op_logs = [], {}, [ops]
    if args.trace:
        import tracing

        recorder = tracing.SpanRecorder()
        inst = tracing.Instrumentation(recorder)
        traced_ops = workloads.OpLog(recorder)
        op_logs.append(traced_ops)
        inst.install()
        try:
            traced = run_phase(workload, traced_ops, args.seconds / 2, 1, inst)
        finally:
            inst.remove()
        layers, overdrawn = tracing.derive(recorder, inst)
        if overdrawn:
            traced[0].failures.append(f"{overdrawn} ops have child self time above their wall time")
        layers["trace.overhead_ratio"] = (
            batch_estimate(traced, traced_ops.latency_s)[0] / batch_estimate(batches, ops.latency_s)[0]
        )
        layers["pipeline.retained_kb_per_run"] = (
            workload.retained_kb_per_run(PROBE_RUNS) if hasattr(workload, "retained_kb_per_run") else 0.0
        )
        layers["pipeline.archive_bytes"] = _mean(getattr(workload, "archive_bytes", ()))
        layers["pipeline.trace_bytes"] = _mean(getattr(workload, "trace_bytes", ()))
        layers["attribution.llm_calls_x_se2"] = batches[0].extras.get("llm_calls_x_se2", 0.0)
        recorder.write(args.work.parent / f"spans-{params['workload']}.tsv.gz")

    every = batches + traced
    failures = [f for b in every for f in b.failures]
    digests = sorted({b.digest for b in every})
    if len(digests) != 1:
        failures.append(f"outputs differ between batches: {digests}")
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    if full and params["seed"] == DEFAULT_SEED and digests != [golden.get(params["workload"])]:
        failures.append(f"digest {digests} does not match golden.json")

    attempted = sum(len(log) for log in op_logs)
    failed_ops = [msg for log in op_logs for msg in log.failed.values()]
    failed = attempted if failures else len(failed_ops)

    factors = reference.factors(len(ops))
    wall_s, positions = batch_estimate(batches, ops.latency_s, factors)
    positions_ms = [t * 1000.0 for t in positions]
    e2e = {
        "wall_s": (wall_s, len(batches)),
        "programs_per_s": (batches[0].programs / wall_s, len(batches)),
        "op_ms.p50": (_percentile(positions_ms, 0.50), len(ops)),
        "op_ms.p95": (_percentile(positions_ms, 0.95), len(ops)),
        "peak_rss_mb": (peak_rss_mb, 1),
        "failed_ratio": (failed / attempted if attempted else 1.0, attempted),
    }
    for name in ("sim_programs_per_hour", "llm_calls_x_se2"):
        if name in batches[0].extras:
            e2e[name] = (batches[0].extras[name], len(batches))
    result = dict(
        **setup,
        raw_wall_s=batch_estimate(batches, ops.latency_s)[0],
        speed=(min(factors), _median(factors), max(factors)),
        reference_slices=len(reference.samples),
        attempted=attempted,
        failed=failed,
        problems=(failures + failed_ops)[:10],
        digest=digests[0] if len(digests) == 1 else None,
        e2e=e2e,
        batches=len(batches),
        positions=len(positions),
        layers=layers,
    )
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
