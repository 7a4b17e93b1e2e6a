"""Metric catalogue: names, units, scope, and which end-to-end metric each
per-layer metric is expected to move, on which workload.

`BENCHMARK.json` at the repository root lists the same names and units
(its schema has no room for the layer map, so the map lives here);
`run.py` refuses to run if the two disagree.
"""

from __future__ import annotations

WORKLOADS = ("sweep", "wide", "cli-replay", "gate")

# planlens modules measured as layers. costmodel is left out: it is
# closed-form arithmetic taking microseconds that no workload spends time in.
LAYERS = ("pipeline", "seeding", "trajectory", "feedback", "agents", "attribution", "cli", "charts", "gating")

# End-to-end metrics reported by every workload (trace off).
END_TO_END = {
    "wall_s": "s",
    "programs_per_s": "1/s",
    "op_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Further end-to-end figures printed in the human-readable report only.
# op_ms.p95 is a percentile over a batch's op positions (see worker.py),
# and wide, cli-replay and gate have fewer than 200 positions, so fewer
# than ten lie beyond it: too few to carry a regression bound. The others
# are zero or undefined on some workloads; failed_ratio is also the
# result line's failed/attempted.
REPORT_ONLY = {
    "op_ms.p95": ("ms", WORKLOADS),
    "failed_ratio": ("ratio", WORKLOADS),
    "sim_programs_per_hour": ("1/h", ("sweep", "wide")),
    "llm_calls_x_se2": ("calls", ("sweep", "wide")),
}

_AGENT_ROLES = ("summarizer", "planner", "generator", "evaluator")

# Per-layer metrics (traced run) -> (unit, better, what it should move).
PER_LAYER = {
    **{
        f"{layer}.self_ms": ("ms/op", "lower", f"self time of every span in `{layer}`, per op; moves wall_s and programs_per_s where the layer runs")
        for layer in LAYERS
    },
    "pipeline.run_ms.p50": ("ms", "lower", "wall_s, programs_per_s on wide most, then sweep"),
    "pipeline.events": ("count/op", "lower", "wall_s, programs_per_s on wide and sweep"),
    "pipeline.max_gen_inflight": ("count", "higher", "explains sim_programs_per_hour on sweep and wide"),
    "pipeline.max_eval_queue": ("count", "lower", "explains sim_programs_per_hour on sweep and wide"),
    "pipeline.stage_key.calls": ("count/op", "lower", "programs_per_s on sweep and wide; must equal pipeline.stages on cli-replay"),
    "pipeline.stages": ("count/op", "lower", "reference for pipeline.stage_key.calls"),
    "pipeline.retained_kb_per_run": ("KB", "lower", "peak_rss_mb and op_ms.p95 on sweep"),
    "pipeline.summary_cache.hit_ratio": ("ratio", "higher", "wall_s on wide"),
    "pipeline.archive_write_ms": ("ms", "lower", "op_ms.p50, wall_s on cli-replay"),
    "pipeline.replay_load_ms": ("ms", "lower", "op_ms.p50, wall_s on cli-replay"),
    "pipeline.archive_bytes": ("B", "lower", "op_ms.p50, wall_s on cli-replay"),
    "pipeline.trace_bytes": ("B", "lower", "op_ms.p50, wall_s on cli-replay"),
    "pipeline.replay_hit_ratio": ("ratio", "higher", "op_ms.p50, wall_s on cli-replay"),
    "pipeline.sim_programs_per_hour": ("1/h", "higher", "simulated throughput; moves only with the scheduling policy"),
    "seeding.calls": ("count/op", "lower", "programs_per_s on sweep; little on wide or gate"),
    "trajectory.checkpoint_hash.calls": ("count/op", "lower", "wall_s on sweep and cli-replay"),
    "trajectory.checkpoint_hash.self_ms": ("ms/op", "lower", "wall_s on sweep and cli-replay"),
    "trajectory.store_io_ms": ("ms/op", "lower", "wall_s on cli-replay (sweep loads its checkpoint during set-up)"),
    "feedback.artifact_get.calls": ("count/op", "lower", "wall_s on wide"),
    "feedback.build_report.self_ms": ("ms/op", "lower", "wall_s on wide"),
    **{
        f"agents.{role}.{what}": (unit, "lower", "llm_calls_x_se2 and programs_per_s on sweep")
        for role in _AGENT_ROLES
        for what, unit in (("calls", "count/op"), ("self_ms", "ms/op"))
    },
    "attribution.llm_calls_x_se2": ("calls", "lower", "LLM calls per unit of squared standard error on a Banzhaf value (sweep, wide)"),
    "attribution.estimator.self_ms": ("ms/op", "lower", "wall_s on sweep (predicted small)"),
    "attribution.attribute_ms": ("ms/op", "lower", "wall_s on sweep (predicted small)"),
    "attribution.serialize_ms": ("ms/op", "lower", "wall_s on sweep (predicted small)"),
    "charts.render_ms": ("ms", "lower", "op_ms.p50, wall_s on cli-replay"),
    **{
        f"cli.{kind}_ms.p50": ("ms", "lower", "op_ms.p50, wall_s on cli-replay")
        for kind in ("freeze", "sweep", "record", "replay", "attribute", "report")
    },
    **{
        f"gating.{what}_ms.n{n}": ("ms", "lower", "wall_s, op_ms.p95 on gate")
        for what in ("parse", "wl")
        for n in (10, 100, 1000)
    },
    "gating.gate.calls": ("count/op", "lower", "wall_s, op_ms.p95 on gate"),
    "trace.overhead_ratio": ("ratio", "lower", "traced batch wall time / untraced batch wall time"),
}
