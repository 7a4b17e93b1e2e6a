"""The benchmark workloads, each a repeatable batch of fixed work.

A batch runs its ops through an `OpLog`, which times every op (and, in
the traced run, makes it a root span). After the timed region the batch
checks its outputs; every failed check names the op it blames, or the
whole batch. The checks are invariants that hold for every seed, plus a
digest of the data the batch produced, which must repeat exactly from
batch to batch (and, at the default seed, match `golden.json`).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import planlens.attribution as attribution_mod
import planlens.cli as cli_mod
import planlens.gating as gating_mod
import planlens.pipeline as pipeline_mod
from planlens.agents import MockBehavior, mock_bundle
from planlens.feedback import Coalition, Representation, default_components
from planlens.trajectory import OutcomeLevel, load_checkpoint

METRICS = ("compiled", "pass", "fast")
STAGE_EVENTS = ("FeedbackBuilt", "CandidatesGenerated", "EvalCompleted")


class OpLog:
    """Latency and outcome of every op; one closed-loop caller, no threads.

    With a `reference` loop, a slice of it may run after an op, outside
    the op's latency (see reference.py).
    """

    def __init__(self, recorder=None, reference=None):
        self.recorder = recorder
        self.reference = reference
        self.kinds: list[str] = []
        self.latency_s: list[float] = []
        self.failed: dict[int, str] = {}

    def __len__(self) -> int:
        return len(self.latency_s)

    def call(self, span: str, kind: str, fn, *args, **kwargs):
        index = len(self.latency_s)
        start = time.perf_counter()
        try:
            if self.recorder is not None:
                return self.recorder.op(span, kind, fn, *args, **kwargs)
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed.setdefault(index, f"{kind}: raised {exc!r}")
            raise
        finally:
            self.latency_s.append(time.perf_counter() - start)
            self.kinds.append(kind)
            if self.reference is not None:
                self.reference.maybe(len(self.latency_s) - 1)

    def wrap(self, span: str, kind: str, fn):
        return lambda *args, **kwargs: self.call(span, kind, fn, *args, **kwargs)

    def fail(self, index: int, message: str) -> None:
        self.failed.setdefault(index, message)


@dataclass
class Batch:
    wall_s: float
    programs: int
    digest: str
    first_op: int
    n_ops: int
    extras: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)  # batch-level


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()


class ObservedPipeline(pipeline_mod.InterventionPipeline):
    """Keeps (programs, simulated makespan, stats) of every finished run."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.finished: list[tuple[int, float, object]] = []

    def run_to_completion(self, run_id):
        result = super().run_to_completion(run_id)
        self.finished.append((result.programs, result.makespan, result.stats))
        return result


def _nests(compiled: float, passed: float, fast: float) -> bool:
    return 1.0 >= compiled >= passed >= fast >= 0.0


# -- sweep / wide --------------------------------------------------------------


class SweepWorkload:
    """Characteristic-table sweep through one pipeline, then attribution."""

    def __init__(self, params: dict, inputs: Path):
        self.params = params
        self.seed = params["seed"]
        self.rollouts = params["rollouts"]
        self.checkpoint = load_checkpoint(str(inputs / params["checkpoint"]))
        self.players = default_components()
        self.behavior = MockBehavior.from_json(params["behavior"])
        self.representation = Representation(params["representation"])
        self.config = pipeline_mod.PipelineConfig(
            generator_concurrency=params["concurrency"],
            eval_concurrency=params["eval_concurrency"],
            k=params["k"],
            rounds=params["rounds"],
            seed=self.seed,
            execution_mode=pipeline_mod.ExecutionMode(params["mode"]),
            record_trace=False,
        )
        self.specs = [
            attribution_mod.GameSpec(players=self.players, metric=m, g=self.checkpoint.g)
            for m in METRICS
        ]
        self.source = cli_mod.synthetic_artifact_source(self.checkpoint, self.players)
        self._pipeline(mock_bundle(self.behavior), self.source)  # set-up builds one, as each batch does

    def _pipeline(self, agents, source) -> ObservedPipeline:
        return ObservedPipeline(agents, source, players=self.players, config=self.config)

    @property
    def programs_per_run(self) -> int:
        return len(self.checkpoint.samples) * self.config.k * self.config.rounds

    def batch(self, ops: OpLog, inst=None) -> Batch:
        start = time.perf_counter()
        first = len(ops)
        agents = mock_bundle(self.behavior)
        pipe = self._pipeline(
            inst.bundle(agents) if inst else agents,
            inst.source(self.source) if inst else self.source,
        )
        rollout = ops.wrap(
            "pipeline.rollout",
            "rollout",
            pipeline_mod.make_rollout_fn(pipe, representation=self.representation),
        )
        tables = attribution_mod.sweep_characteristic_tables(
            self.checkpoint, self.specs, rollout, self.rollouts, self.seed
        )
        report = attribution_mod.attribution_report(tables)
        csv_text = attribution_mod.tables_to_csv(tables)
        json_text = attribution_mod.bundle_to_json(report)
        wall = time.perf_counter() - start

        n_ops = len(ops) - first
        batch = Batch(wall, agents.evaluator.calls, _digest(csv_text, json_text), first, n_ops)
        self._check(ops, batch, pipe, tables, report, agents)
        if batch.failures:
            return batch
        batch.extras = {
            "llm_calls_x_se2": (
                agents.summarizer.calls + agents.planner.calls + agents.generator.calls
            )
            * max(
                (se or 0.0) ** 2
                for r in report.reports.values()
                for se in r.phi_stderr.values()
            ),
            "sim_programs_per_hour": 3600.0
            * sum(p for p, _, _ in pipe.finished)
            / sum(m for _, m, _ in pipe.finished),
        }
        return batch

    def _check(self, ops, batch, pipe, tables, report, agents) -> None:
        expected_runs = (1 << len(self.players)) * self.rollouts
        if len(pipe.finished) != batch.n_ops or batch.n_ops != expected_runs:
            batch.failures.append(
                f"{len(pipe.finished)} runs finished, {batch.n_ops} rollouts, "
                f"{expected_runs} expected"
            )
            return
        for i, (programs, _, st) in enumerate(pipe.finished):
            if programs != self.programs_per_run:
                ops.fail(batch.first_op + i, f"run produced {programs} programs")
            if not _nests(st.rate_compiled, st.rate_pass, st.rate_fast):
                ops.fail(batch.first_op + i, f"rates do not nest: {st}")
        if agents.evaluator.calls != expected_runs * self.programs_per_run:
            batch.failures.append(f"evaluator ran {agents.evaluator.calls} times")
        for table in tables:
            if table.missing_masks() or set(table.n_rollouts.values()) != {self.rollouts}:
                batch.failures.append(f"incomplete {table.spec.metric} table")
        for mask in range(1 << len(self.players)):
            if not _nests(*(t.values.get(mask, -1.0) for t in tables)):
                batch.failures.append(f"table values do not nest at mask {mask}")
        if report.errors:
            batch.failures.append(f"attribution errors: {report.errors}")
        planted = self.params["planted"]
        if self.params["recover_planted"] and self.params["size"] == "full":
            phi = report.reports[(self.checkpoint.g, "pass")].phi
            if not phi[planted] > 0 or max(phi, key=phi.get) != planted:
                batch.failures.append(f"planted effect on {planted} not recovered: {phi}")

    def retained_kb_per_run(self, runs: int) -> float:
        """Memory one pipeline still holds per finished run (tracemalloc)."""
        import gc
        import tracemalloc

        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            pipe = self._pipeline(mock_bundle(self.behavior), self.source)
            rollout = pipeline_mod.make_rollout_fn(pipe, representation=self.representation)
            for r in range(runs):
                rollout(self.checkpoint, Coalition(r % 8), r)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        return retained / runs / 1024.0


# -- cli-replay ----------------------------------------------------------------


def _data_rows(path: Path) -> list[str]:
    """CSV/NDJSON lines without `#` provenance lines."""
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln and not ln.startswith("#")]


def _csv_rows(path: Path) -> list[dict]:
    return list(csv.DictReader(io.StringIO("\n".join(_data_rows(path)))))


def _stage_replayed(path: Path) -> list[bool]:
    flags = []
    for line in _data_rows(path):
        event = json.loads(line)
        if event["kind"] in STAGE_EVENTS:
            flags.append(bool(event["payload"]["replayed"]))
    return flags


class CliReplayWorkload:
    """One command-line session: freeze, sweeps, record/replay, attribute, report.

    Per generation: one sweep per representation, then per coalition a
    record (trace + archive) whose archive is replayed twice. The op mix
    is deliberate: replays are over half of the ops, so op_ms.p50 lies
    inside the replay class rather than on the replay/record boundary,
    and sweeps are a tenth, so op_ms.p95 lies inside the sweep class.
    """

    LABELS = ("none", "d", "a", "d,a", "p", "d,p", "a,p", "d,a,p")
    REPLAYS = 2

    def __init__(self, params: dict, inputs: Path):
        self.params = params
        self.inputs = inputs
        self.generations = list(range(params["generations"]))
        self.plan = self._plan()
        self.archive_bytes: list[int] = []
        self.trace_bytes: list[int] = []

    def _plan(self) -> list[tuple[str, list[str], dict]]:
        p = self.params
        common = ["--retries", str(p["k"]), "--seed", str(p["seed"]), "--mode", "serial",
                  "--config", p["config"]]
        gens = [str(g) for g in self.generations]
        plan = [("freeze", ["freeze", "--trajectory", p["trajectory"], "-g", *gens, "--out", "frozen"], {})]
        for g in self.generations:
            cp = ["intervene", "--checkpoint", f"frozen/checkpoint_g{g}.ndjson"]
            for rep in ("raw", "formatted", "summarized"):
                plan.append(("sweep", cp + ["--sweep", "--rollouts", str(p["rollouts"]),
                                            "--representation", rep,
                                            "--out", f"tables_{rep}_g{g}.csv"] + common,
                             {"tables": f"tables_{rep}_g{g}.csv"}))
            for i, label in enumerate(self.LABELS):
                control = {1: ["--plan-mode", "dummy"], 3: ["--randomize-feedback", str(p["seed"] + i)]}
                base = cp + ["--coalition", label, "--rollouts", "1"] + common + control.get(i % 4, [])
                rec, archive = f"rec_g{g}_c{i}", f"arch_g{g}_c{i}"
                plan.append(("record", base + ["--out", f"{rec}.csv", "--trace", f"{rec}.ndjson",
                                               "--archive", archive],
                             {"stats": f"{rec}.csv", "trace": f"{rec}.ndjson", "archive": archive}))
                for j in range(self.REPLAYS):
                    rep = f"rep{j}_g{g}_c{i}"
                    plan.append(("replay", base + ["--out", f"{rep}.csv", "--trace", f"{rep}.ndjson",
                                                   "--replay", archive],
                                 {"stats": f"{rep}.csv", "trace": f"{rep}.ndjson", "record": f"{rec}.csv"}))
        tables = [f"tables_raw_g{g}.csv" for g in self.generations]
        plan.append(("attribute", ["attribute", "--tables", *tables, "--out", "report"], {}))
        plan.append(("report", ["report", "--tables", tables[0], "--attribution", "report",
                                "--out", "bundle"], {}))
        return plan

    def batch(self, ops: OpLog, inst=None) -> Batch:
        # Every session reuses one directory and overwrites its files. Creating
        # and deleting ~1500 files per session made file creation 2-4x slower
        # on the ext4 (discard) disk measured. The first session starts from
        # an empty directory, so an output a command fails to write is caught
        # there; the commands are deterministic, so later sessions repeat it.
        session = self.inputs / "cli" / "session"
        session.mkdir(parents=True, exist_ok=True)
        for name in (self.params["trajectory"], self.params["config"]):
            shutil.copy(self.inputs / name, session / name)
        home = os.getcwd()
        os.chdir(session)
        try:
            first = len(ops)
            codes = []
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                for kind, argv, _ in self.plan:
                    codes.append(ops.call("cli.main", kind, cli_mod.main, argv))
                wall = time.perf_counter() - start
            batch = Batch(wall, self._programs(self.plan), "", first, len(ops) - first)
            batch.digest = self._check(ops, batch, self.plan, codes)
        finally:
            os.chdir(home)
        return batch

    def _programs(self, plan) -> int:
        per_run = self.params["samples"] * self.params["k"]
        sweeps = sum(1 for kind, _, _ in plan if kind == "sweep")
        records = sum(1 for kind, _, _ in plan if kind == "record")
        return per_run * (sweeps * 8 * self.params["rollouts"] + records)

    def _check(self, ops, batch, plan, codes) -> str:
        parts = []
        n = self.params["samples"]
        for offset, ((kind, argv, files), code) in enumerate(zip(plan, codes)):
            index = batch.first_op + offset
            if code != 0:
                ops.fail(index, f"{kind} exited {code}: {' '.join(argv)}")
                continue
            problem = None
            if kind == "freeze":
                for g in self.generations:
                    if len(_data_rows(Path(f"frozen/checkpoint_g{g}.ndjson"))) != n + 1:
                        problem = f"checkpoint g{g} lost samples"
            elif kind == "sweep":
                rows = _csv_rows(Path(files["tables"]))
                parts.append("\n".join(_data_rows(Path(files["tables"]))))
                values = {(r["metric"], int(r["coalition_mask"])): float(r["v"]) for r in rows}
                if len(rows) != 8 * 3 or any(int(r["n"]) != self.params["rollouts"] for r in rows):
                    problem = "incomplete characteristic table"
                elif not all(_nests(*(values[(m, mask)] for m in METRICS)) for mask in range(8)):
                    problem = "table values do not nest"
            elif kind in ("record", "replay"):
                rows = _csv_rows(Path(files["stats"]))
                rates = {r["metric"]: float(r["rate"]) for r in rows}
                parts.append("\n".join(_data_rows(Path(files["stats"]))))
                flags = _stage_replayed(Path(files["trace"]))
                self.trace_bytes.append(Path(files["trace"]).stat().st_size)
                if kind == "record":
                    self.archive_bytes.append(
                        sum(f.stat().st_size for f in Path(files["archive"]).rglob("*") if f.is_file())
                    )
                if not rows or any(int(r["n_samples"]) != n for r in rows):
                    problem = "stats rows missing"
                elif not _nests(*(rates[m] for m in METRICS)):
                    problem = f"rates do not nest: {rates}"
                elif set(flags) != {kind == "replay"}:
                    problem = f"replayed stages {sum(flags)}/{len(flags)}"
                elif kind == "replay" and _data_rows(Path(files["stats"])) != _data_rows(Path(files["record"])):
                    problem = "replay stats differ from record stats"
            elif kind == "attribute":
                data = json.loads(Path("report/attribution.json").read_text(encoding="utf-8"))
                data.pop("_meta", None)
                parts.append(json.dumps(data, sort_keys=True))
                parts.append("\n".join(_data_rows(Path("report/attribution.csv"))))
                if data["errors"] or len(data["rows"]) != 3 * len(self.generations):
                    problem = "attribution rows missing"
                elif not all(Path(f"report/attribution_{m}.svg").is_file() for m in METRICS):
                    problem = "charts missing"
            elif kind == "report":
                manifest = json.loads(Path("bundle/bundle.json").read_text(encoding="utf-8"))
                if "attribution.json" not in manifest["files"]:
                    problem = "bundle manifest incomplete"
            if problem:
                ops.fail(index, f"{kind}: {problem}")
        return _digest(*parts)


# -- gate ------------------------------------------------------------------------


class GateWorkload:
    """parse_dot -> similarity -> gate over seeded CFGs at three sizes."""

    def __init__(self, params: dict, inputs: Path):
        manifest = json.loads((inputs / params["manifest"]).read_text(encoding="utf-8"))
        self.cfg = gating_mod.GateConfig()
        # Checks call the function as it was before any span wrapper went on,
        # so the traced run's gating figures hold only the ops' own calls.
        self._check_similarity = gating_mod.similarity
        self.classes = []
        for cls in manifest["classes"]:
            reference = gating_mod.parse_dot((inputs / cls["reference"]).read_text(encoding="utf-8"))
            candidates = [
                (c["file"], (inputs / c["file"]).read_text(encoding="utf-8"), OutcomeLevel.parse(c["status"]))
                for c in cls["candidates"]
            ]
            self.classes.append((f"n{cls['n']}", cls["reference"], reference, candidates))

    def _decide(self, text, reference, status, reference_id):
        graph = gating_mod.parse_dot(text)
        s = gating_mod.similarity(graph, reference, self.cfg)
        return graph, s, gating_mod.gate(status, s, self.cfg, reference_id=reference_id)

    def batch(self, ops: OpLog, inst=None) -> Batch:
        first = len(ops)
        decided = []
        start = time.perf_counter()
        for kind, ref_id, reference, candidates in self.classes:
            for name, text, status in candidates:
                decided.append(
                    (kind, reference, name, status,
                     ops.call("bench.gate_op", kind, self._decide, text, reference, status, ref_id))
                )
        wall = time.perf_counter() - start
        batch = Batch(wall, len(decided), "", first, len(decided))
        rows = []
        for offset, (kind, reference, name, status, (graph, s, decision)) in enumerate(decided):
            rows.append(f"{name} {s!r} {decision.phase.value} {decision.admitted_components.mask}")
            if self._check_similarity(reference, graph, self.cfg) != s or not 0.0 <= s <= 1.0:
                ops.fail(first + offset, f"{name}: similarity {s} is not symmetric or not in [0, 1]")
            elif (decision.admitted_components.mask, decision.phase) != self._expected(status, s):
                ops.fail(first + offset, f"{name}: wrong phase {decision.phase} for {status.name}, s={s}")
        for kind, _, reference, _ in self.classes:
            if self._check_similarity(reference, reference, self.cfg) != 1.0:
                batch.failures.append(f"{kind}: reference self-similarity is not 1.0")
        batch.digest = _digest(*rows)
        return batch

    def _expected(self, status, s):
        if status < OutcomeLevel.PASS:
            return 1, gating_mod.Phase.CORRECTNESS
        if s < self.cfg.tau_s:
            return 3, gating_mod.Phase.STRUCTURAL_EXPLORATION
        return 7, gating_mod.Phase.PERFORMANCE_EXPLOITATION


WORKLOADS = {
    "sweep": SweepWorkload,
    "wide": SweepWorkload,
    "cli-replay": CliReplayWorkload,
    "gate": GateWorkload,
}
