"""Span recorder for the traced run, attached to planlens from outside.

Nothing in the program is edited. The recorder wraps calls at public
seams: module attributes that `pipeline`, `agents`, `attribution` and
`cli` imported from `seeding`, `feedback` and `trajectory`; class methods
such as `RunLedger.stage_key`; the `GenerationCheckpoint.checkpoint_hash`
property; and proxy objects for the agent bundle and the artifact source.

Each span is (name, start, end, parent, op). Spans are kept in flat
arrays in memory while the run goes on and are written out once at the
end. A span's self time is its duration minus the durations of its
direct children; the program is single-threaded, so children nest.
"""

from __future__ import annotations

import gzip
import time
from array import array
from pathlib import Path

import planlens.attribution as attribution_mod
import planlens.agents as agents_mod
import planlens.charts as charts_mod
import planlens.cli as cli_mod
import planlens.feedback as feedback_mod
import planlens.gating as gating_mod
import planlens.pipeline as pipeline_mod
import planlens.trajectory as trajectory_mod
from planlens.agents import AgentBundle
from planlens.feedback import Representation

NO_OP = -1


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._op_id = NO_OP
        self.op_kinds: list[str] = []
        self.op_roots: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter
        name_ids, parents, ops, starts, ends = (
            self.name_id, self.parent, self.op_of, self.start, self.end,
        )

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self._op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def op(self, name: str, kind: str, fn, *args, **kwargs):
        """Run one benchmark op as a root span that tags all spans inside it."""
        op_id = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.op_roots.append(len(self.start))
        self._op_id = op_id
        try:
            return self.wrap(name, fn)(*args, **kwargs)
        finally:
            self._op_id = NO_OP

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> array:
        child = array("d", bytes(8 * len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        return array("d", (self.end[i] - self.start[i] - child[i] for i in range(len(child))))

    def write(self, path: Path) -> None:
        """Dump every span as gzipped TSV: index, op, parent, name, start_ns, end_ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\top\tparent\tname\tstart_ns\tend_ns\n")
            names, t0 = self.names, self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.op_of[i]}\t{self.parent[i]}\t{names[self.name_id[i]]}\t"
                    f"{int((self.start[i] - t0) * 1e9)}\t{int((self.end[i] - t0) * 1e9)}\n"
                )


class _Proxy:
    """Forwards every attribute to `inner` except the ones given."""

    def __init__(self, inner, **overrides):
        self._inner = inner
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class Instrumentation:
    """Installs span wrappers on planlens and removes them again.

    Also counts what spans cannot show: summarized-artifact lookups, and
    a per-run record of every `RunResult` (events, stages, replayed
    stages, simulated makespan, in-flight maxima).
    """

    def __init__(self, recorder: SpanRecorder):
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []
        self.summarized_lookups = 0
        self.runs: list[dict] = []
        self._replay_runs: set[tuple[int, str]] = set()

    # -- proxies -----------------------------------------------------------

    def bundle(self, bundle: AgentBundle) -> AgentBundle:
        w = self.rec.wrap
        return AgentBundle(
            summarizer=_Proxy(bundle.summarizer, summarize=w("agents.summarizer", bundle.summarizer.summarize)),
            planner=_Proxy(bundle.planner, plan=w("agents.planner", bundle.planner.plan)),
            generator=_Proxy(bundle.generator, generate=w("agents.generator", bundle.generator.generate)),
            evaluator=_Proxy(bundle.evaluator, evaluate=w("agents.evaluator", bundle.evaluator.evaluate)),
        )

    def source(self, source):
        traced_get = self.rec.wrap("feedback.artifact_get", source.get)

        def get(sample_id, component, representation):
            if representation is Representation.SUMMARIZED:
                self.summarized_lookups += 1
            return traced_get(sample_id, component, representation)

        return _Proxy(source, get=get)

    # -- install / remove ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_attr(self, owner, attr: str, name: str) -> None:
        self._patch(owner, attr, self.rec.wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        w = self.rec.wrap
        seeding_names = {
            pipeline_mod: ("derive_seed", "hash_uniform", "rng_for"),
            agents_mod: ("hash_uniform",),
            attribution_mod: ("derive_seed",),
            cli_mod: ("derive_seed",),
            feedback_mod: ("rng_for",),
        }
        for module, names in seeding_names.items():
            for attr in names:
                self._wrap_attr(module, attr, f"seeding.{attr}")
        for attr in ("build_report", "dummy_plan"):
            self._wrap_attr(pipeline_mod, attr, f"feedback.{attr}")
        self._wrap_attr(attribution_mod, "enumerate_coalitions", "feedback.enumerate_coalitions")
        self._wrap_attr(cli_mod, "randomize_feedback", "feedback.randomize_feedback")

        checkpoint_hash = vars(trajectory_mod.GenerationCheckpoint)["checkpoint_hash"]
        self._patch(
            trajectory_mod.GenerationCheckpoint,
            "checkpoint_hash",
            property(w("trajectory.checkpoint_hash", checkpoint_hash.fget)),
        )
        load = vars(trajectory_mod.TrajectoryStore)["load"]
        self._patch(trajectory_mod.TrajectoryStore, "load", classmethod(w("trajectory.store_io", load.__func__)))
        for attr in ("load_checkpoint", "save_checkpoint"):
            self._wrap_attr(cli_mod, attr, "trajectory.store_io")

        pipe_cls = pipeline_mod.InterventionPipeline
        self._wrap_attr(pipeline_mod.RunLedger, "stage_key", "pipeline.stage_key")
        traced_submit = w("pipeline.submit", pipe_cls.submit)
        traced_run = w("pipeline.run_to_completion", pipe_cls.run_to_completion)

        # Run ids restart in every pipeline, so replay runs are keyed by pipeline too.
        def submit(pipe, checkpoint, intervention, seed=None, replay=None):
            run_id = traced_submit(pipe, checkpoint, intervention, seed=seed, replay=replay)
            if replay is not None:
                self._replay_runs.add((id(pipe), run_id))
            return run_id

        def run_to_completion(pipe, run_id):
            result = traced_run(pipe, run_id)
            key = (id(pipe), run_id)
            self._record_run(result, key in self._replay_runs)
            self._replay_runs.discard(key)
            return result

        self._patch(pipe_cls, "submit", submit)
        self._patch(pipe_cls, "run_to_completion", run_to_completion)

        class TracedLatencyModel(pipeline_mod.LatencyModel):
            duration = w("pipeline.latency", pipeline_mod.LatencyModel.duration)

        self._patch(pipeline_mod, "LatencyModel", TracedLatencyModel)
        make_rollout_fn = pipeline_mod.make_rollout_fn
        self._patch(
            cli_mod,
            "make_rollout_fn",
            lambda *a, **kw: w("pipeline.rollout", make_rollout_fn(*a, **kw)),
        )
        self._wrap_attr(cli_mod, "archive_run", "pipeline.archive_run")
        self._wrap_attr(cli_mod, "replay_load", "pipeline.replay_load")
        self._wrap_attr(cli_mod, "export_trace", "pipeline.export_trace")

        build_agents = cli_mod.build_agents
        self._patch(cli_mod, "build_agents", lambda config: self.bundle(build_agents(config)))
        synthetic_source = cli_mod.synthetic_artifact_source
        self._patch(
            cli_mod,
            "synthetic_artifact_source",
            lambda checkpoint, players: self.source(synthetic_source(checkpoint, players)),
        )

        for module in (attribution_mod, cli_mod):
            self._wrap_attr(module, "sweep_characteristic_tables", "attribution.sweep")
            self._wrap_attr(module, "attribution_report", "attribution.attribute")
        for attr in ("tables_to_csv", "bundle_to_json"):
            self._wrap_attr(attribution_mod, attr, "attribution.serialize")
        for attr in ("tables_to_csv", "tables_from_csv", "bundle_to_csv", "bundle_to_json"):
            self._wrap_attr(cli_mod, attr, "attribution.serialize")

        self._wrap_attr(charts_mod.LineChart, "render", "charts.render")
        for attr in ("parse_dot", "similarity", "gate"):
            self._wrap_attr(gating_mod, attr, f"gating.{attr}")

    def remove(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _record_run(self, result, replayed_run: bool) -> None:
        counts = {kind.value: n for kind, n in result.event_counts.items()}
        stages = counts["FeedbackBuilt"] + counts["CandidatesGenerated"] + counts["EvalCompleted"]
        replayed = sum(1 for event in result.trace if event.payload.get("replayed"))
        self.runs.append(
            {
                "events": sum(counts.values()),
                "stages": stages,
                "replay": replayed_run,
                "replayed": replayed,
                "programs": result.programs,
                "makespan": result.makespan,
                "max_gen_inflight": result.max_gen_inflight,
                "max_eval_queue": result.max_eval_queue,
            }
        )


def _median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0


def derive(rec: SpanRecorder, inst: Instrumentation) -> tuple[dict[str, float], int]:
    """Per-layer metrics from the recorded spans; also counts ops whose
    non-root self times add up to more than the op's own wall time."""
    self_t = rec.self_times()
    n_ops = max(1, len(rec.op_kinds))
    roots = set(rec.op_roots)
    by_layer: dict[str, float] = {}
    count: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    durations: dict[tuple[str, str], list[float]] = {}
    op_self = [0.0] * len(rec.op_kinds)
    for i in range(len(rec)):
        name = rec.names[rec.name_id[i]]
        dur = rec.end[i] - rec.start[i]
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_t[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + self_t[i]
        op = rec.op_of[i]
        kind = rec.op_kinds[op] if op >= 0 else ""
        durations.setdefault((name, kind), []).append(dur)
        if op >= 0 and i not in roots:
            op_self[op] += self_t[i]
    overdrawn = sum(
        1
        for op, root in enumerate(rec.op_roots)
        if op_self[op] > rec.end[root] - rec.start[root] + 1e-9
    )

    def per_op_ms(value: float) -> float:
        return value * 1000.0 / n_ops

    def calls(*names: str) -> float:
        return sum(count.get(n, 0) for n in names) / n_ops

    def mean_ms(name: str) -> float:
        return total.get(name, 0.0) * 1000.0 / count[name] if count.get(name) else 0.0

    def median_ms(name: str, kind: str) -> float:
        return _median(durations.get((name, kind), ())) * 1000.0

    seeding = [n for n in count if n.startswith("seeding.")]
    serialize = "attribution.serialize"
    runs = inst.runs
    fresh = [r for r in runs if not r["replay"]]
    replays = [r for r in runs if r["replay"]]
    summarize_calls = count.get("agents.summarizer", 0)
    m = {f"{layer}.self_ms": per_op_ms(by_layer.get(layer, 0.0)) for layer in (
        "pipeline", "seeding", "trajectory", "feedback", "agents", "attribution", "cli", "charts", "gating")}
    m.update({
        "pipeline.run_ms.p50": _median(
            d for (n, _), ds in durations.items() if n == "pipeline.run_to_completion" for d in ds
        ) * 1000.0,
        "pipeline.events": sum(r["events"] for r in runs) / n_ops,
        "pipeline.max_gen_inflight": max((r["max_gen_inflight"] for r in runs), default=0),
        "pipeline.max_eval_queue": max((r["max_eval_queue"] for r in runs), default=0),
        "pipeline.stage_key.calls": calls("pipeline.stage_key"),
        "pipeline.stages": sum(r["stages"] for r in runs) / n_ops,
        "pipeline.summary_cache.hit_ratio": (
            1.0 - summarize_calls / inst.summarized_lookups if inst.summarized_lookups else 0.0
        ),
        "pipeline.archive_write_ms": mean_ms("pipeline.archive_run"),
        "pipeline.replay_load_ms": mean_ms("pipeline.replay_load"),
        "pipeline.replay_hit_ratio": (
            sum(r["replayed"] for r in replays) / sum(r["stages"] for r in replays) if replays else 0.0
        ),
        "pipeline.sim_programs_per_hour": (
            3600.0 * sum(r["programs"] for r in fresh) / sum(r["makespan"] for r in fresh) if fresh else 0.0
        ),
        "seeding.calls": calls(*seeding),
        "trajectory.checkpoint_hash.calls": calls("trajectory.checkpoint_hash"),
        "trajectory.checkpoint_hash.self_ms": per_op_ms(own.get("trajectory.checkpoint_hash", 0.0)),
        "trajectory.store_io_ms": per_op_ms(total.get("trajectory.store_io", 0.0)),
        "feedback.artifact_get.calls": calls("feedback.artifact_get"),
        "feedback.build_report.self_ms": per_op_ms(own.get("feedback.build_report", 0.0)),
        "attribution.estimator.self_ms": per_op_ms(own.get("attribution.sweep", 0.0)),
        "attribution.attribute_ms": per_op_ms(total.get("attribution.attribute", 0.0)),
        "attribution.serialize_ms": per_op_ms(total.get(serialize, 0.0)),
        "charts.render_ms": mean_ms("charts.render"),
        "gating.gate.calls": calls("gating.gate"),
    })
    for role in ("summarizer", "planner", "generator", "evaluator"):
        m[f"agents.{role}.calls"] = calls(f"agents.{role}")
        m[f"agents.{role}.self_ms"] = per_op_ms(own.get(f"agents.{role}", 0.0))
    for kind in ("freeze", "sweep", "record", "replay", "attribute", "report"):
        m[f"cli.{kind}_ms.p50"] = median_ms("cli.main", kind)
    for n in (10, 100, 1000):
        m[f"gating.parse_ms.n{n}"] = median_ms("gating.parse_dot", f"n{n}")
        m[f"gating.wl_ms.n{n}"] = median_ms("gating.similarity", f"n{n}")
    return m, overdrawn
