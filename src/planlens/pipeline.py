"""Sample-centric execution of feedback interventions.

A run replays one frozen generation checkpoint under one intervention
(coalition x representation x plan handling). Samples advance
independently: feedback construction triggers prompting, prompting fans
out to k evaluations, and evaluations fan in to an online, commutative
aggregation. The stage work runs in sample order. Its schedule is a
separate timing layer: a simulated-clock event loop with three policies
(serial, stage-sync barriers, multi-async) over the recorded tasks, run
once, when a result's timing or trace is first read; a traced schedule
only logs its completions. The trace's NDJSON lines are formatted from
that log, and its events are decoded from those lines. Schedule
permutations are first-class, and order independence is testable rather
than assumed.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
import os
import re
import shutil
import threading
from dataclasses import asdict, dataclass, field, replace
from enum import Enum, IntEnum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple

from .agents import (
    DEFAULT_LATENCIES,
    AgentBundle,
    Candidate,
    GeneratorAttemptError,
    LatencyParams,
    PlanArtifact,
    crash_record,
)
from .feedback import (
    ArtifactSource,
    Coalition,
    FeedbackArtifact,
    FeedbackComponent,
    Memo,
    Report,
    Representation,
    build_report,
    default_components,
    dummy_plan,
    plan_feedback_players,
    plan_summary_players,
)
# `hash_uniform` stays importable here: perfbench/tracing.py wraps it by name.
from .seeding import LABEL, SeedPrefix, derive_seed, hash_uniform, rng_for  # noqa: F401
from .trajectory import (
    ExecutionRecord,
    GenerationCheckpoint,
    GenerationStats,
    ListOf,
    NoneType,
    OutcomeLevel,
    Required,
    check_json,
    classify_execution,
    parse_json,
    stats_from_outcomes,
)

ARCHIVE_FORMAT_VERSION = 2
# The values a run is recorded under, by name: every stage key hashes them in
# this order, an archive's manifest holds them and a replay must match them.
RUN_IDENTITY = ("checkpoint_hash", "intervention_signature", "seed", "k", "rounds")


class PipelineConfigError(ValueError):
    """The run was misconfigured; no work was started."""


class ReplayMismatchError(ValueError):
    """Replay archive does not match the submitted checkpoint."""


class ReplayArchiveError(ReplayMismatchError):
    """A replay archive file is missing, unparsable or corrupt."""


class PipelineStalledError(RuntimeError):
    """The run cannot finish although nothing is running: an internal
    fault. Carries a dump of each sample's progress."""

    def __init__(self, message: str, dump: str):
        super().__init__(f"{message}\n{dump}")
        self.dump = dump


class CheckpointMutatedError(RuntimeError):
    """A checkpoint's content hash changed across a run."""


class ExecutionMode(Enum):
    SERIAL = "serial"
    STAGE_SYNC = "stage-sync"
    MULTI_ASYNC = "multi-async"


class EventKind(Enum):
    SAMPLE_LOADED = "SampleLoaded"
    FEEDBACK_BUILT = "FeedbackBuilt"
    CANDIDATES_GENERATED = "CandidatesGenerated"
    EVAL_COMPLETED = "EvalCompleted"
    AGGREGATED = "Aggregated"


class Stage(IntEnum):
    ANLZ = 1
    GEN = 2
    EVAL = 3
    AGG = 4


@dataclass(frozen=True)
class Event:
    """One trace event, as `RunResult.trace` decodes it from its line."""

    kind: EventKind
    sample_id: str
    run_id: str
    payload: Mapping
    logical_time: int
    wall_time: float


@dataclass(frozen=True)
class PipelineConfig:
    generator_concurrency: int = 16  # LLM pool P, shared by ANLZ and GEN
    eval_concurrency: int = 32
    k: int = 5
    rounds: int = 1
    seed: int = 0
    execution_mode: ExecutionMode = ExecutionMode.MULTI_ASYNC
    schedule_seed: int | None = None  # permutes the schedule in every mode: a random priority per ready task
    queue_capacity: int = 256  # bound on the GEN -> EVAL queue
    record_trace: bool = True

    def __post_init__(self):
        if self.generator_concurrency < 1:
            raise PipelineConfigError("generator_concurrency must be >= 1")
        if self.eval_concurrency < 1:
            raise PipelineConfigError("eval_concurrency must be >= 1")
        if self.k < 1:
            raise PipelineConfigError("k must be >= 1")
        if self.rounds < 1:
            raise PipelineConfigError("rounds must be >= 1")
        if self.queue_capacity < self.k:
            raise PipelineConfigError("queue_capacity must be >= k or prompting can never start")


class PlanMode(Enum):
    SELF = "self"  # planner runs on the report
    NONE = "none"  # implicit planning: empty plan slot
    DUMMY = "dummy"  # fixed content-free template, planner bypassed


@dataclass(frozen=True)
class Intervention:
    coalition: Coalition = Coalition(0)
    representation: Representation = Representation.RAW
    plan_mode: PlanMode = PlanMode.SELF
    permutation: Mapping[str, str] | None = None  # randomized-feedback donors

    def signature(self) -> str:
        perm = tuple(sorted(self.permutation.items())) if self.permutation else ()
        mode = (self.coalition.mask, self.representation.value, self.plan_mode.value)
        # None fills the retired injected-plan slot so stage keys and archives still match.
        return str((*mode, None, perm))


# Game name -> player set; `game_intervention` maps each game's coalitions.
GAMES = {
    "components": default_components,
    "plan-feedback": plan_feedback_players,
    "plan-summary": plan_summary_players,
}


def game_intervention(
    game: str,
    coalition: Coalition,
    components: tuple[FeedbackComponent, ...] | None = None,
    representation: Representation = Representation.RAW,
) -> Intervention:
    """Translate a game coalition into a pipeline intervention.

    ``components``: players ARE the feedback components; plans are always
    explicit. ``plan-feedback``: bit 0 toggles the full component set,
    bit 1 toggles explicit planning. ``plan-summary``: feedback is always
    present; bit 0 switches raw to summarized, bit 1 toggles planning.
    """
    components = components or default_components()
    full = Coalition.of(*components)
    if game == "components":
        return Intervention(coalition=coalition, representation=representation)
    plan_mode = PlanMode.SELF if coalition.mask & 2 else PlanMode.NONE
    if game == "plan-feedback":
        feedback = full if coalition.mask & 1 else Coalition(0)
        return Intervention(coalition=feedback, representation=representation, plan_mode=plan_mode)
    if game == "plan-summary":
        summary = Representation.SUMMARIZED if coalition.mask & 1 else Representation.RAW
        return Intervention(coalition=full, representation=summary, plan_mode=plan_mode)
    raise PipelineConfigError(f"unknown game {game!r}")


class Task(NamedTuple):
    """One stage of one (sample, round), or one EVAL attempt of it. Tasks
    order by sample, round, stage and attempt, so a task is its own heap key."""

    sample_index: int
    round_index: int
    stage: Stage
    attempt: int  # the EVAL's candidate; -1 for the other stages
    sample_id: str


@dataclass
class _RoundState:
    """One (sample, round)'s stage results, as the stages produced them."""

    report: Report | None = None
    plan: PlanArtifact | None = None
    candidates: dict[int, Candidate] = field(default_factory=dict)  # by attempt
    failures: list[tuple[int, str]] = field(default_factory=list)
    records: dict[int, ExecutionRecord] = field(default_factory=dict)


class RunLedger:
    """All state owned by one run; runs never share per-sample state."""

    def __init__(
        self,
        run_id: str,
        checkpoint: GenerationCheckpoint,
        intervention: Intervention,
        config: PipelineConfig,
        seed: int,
        replay: "ReplayCache | None" = None,
    ):
        self.run_id = run_id
        self.checkpoint = checkpoint
        self.intervention = intervention
        self.config = config
        self.seed = seed
        values = (checkpoint.checkpoint_hash, intervention.signature(), seed, config.k, config.rounds)
        self.identity = dict(zip(RUN_IDENTITY, values))
        self._stage_prefix = SeedPrefix(0, "stage", *self.identity.values())
        self.replay = replay
        self.rounds: dict[tuple[str, int], _RoundState] = {}
        self.best_outcomes: dict[str, OutcomeLevel] = {}
        self.replayed: set[Task] = set()  # tasks whose product came from `replay`
        # The schedule's; `InterventionPipeline._schedule` fills them. The
        # log of (task, finish time) per completion is kept only when tracing.
        self.completions: list[tuple[tuple, float]] | None = None
        self.clock = 0.0
        self.max_llm_inflight = self.max_gen_inflight = self.max_eval_queue = 0

    def stage_key(self, stage: Stage, sample_id: str, round_index: int, attempt: int = -1) -> str:
        """Archive key: derive_seed(0, "stage", the run identity's values,
        stage name, sample, round, attempt)."""
        return "%016x" % self._stage_prefix.derive(stage.name, sample_id, round_index, attempt)

    def replayed_product(self, task: Task) -> object:
        """The task's ANLZ, GEN or EVAL product from the replay archive, noting
        the task in `replayed`; None if the archive holds none. An entry of
        another stage under the task's stage key raises ReplayArchiveError."""
        key = self.stage_key(task.stage, task.sample_id, task.round_index, task.attempt)
        found = self.replay.products.get(key)
        if found is None:
            return None
        stage, product = found
        if stage is not task.stage:
            raise ReplayArchiveError(
                f"replay archive index.json maps {task.stage.name} key {key} to an entry of kind {stage.name.lower()}"
            )
        self.replayed.add(task)
        return product

    def archive_entries(self) -> dict[str, dict]:
        """Stage key -> archive payload for every stage of the run, replayed
        stages included; `archive_run` writes these."""
        entries: dict[str, dict] = {}
        for (sid, r), state in self.rounds.items():
            entries[self.stage_key(Stage.ANLZ, sid, r)] = _encode_anlz((state.report, state.plan))
            entries[self.stage_key(Stage.GEN, sid, r)] = _encode_gen(
                (state.candidates.values(), state.failures)
            )
            for attempt, record in state.records.items():
                entries[self.stage_key(Stage.EVAL, sid, r, attempt)] = _encode_eval(record)
        return entries

    def dump(self, ready: int, last: list[Task | None], evals_left: list[int]) -> str:
        """Each sample's progress in the schedule, in checkpoint order: its
        last completed task and, out of its current round's recorded EVALs,
        how many completed."""
        aggregated = sum(task is not None and task.stage is Stage.AGG for task in last)
        lines = [
            f"run {self.run_id} clock={self.clock:.3f}",
            f"ready={ready} aggregated={aggregated}/{len(self.checkpoint.samples)}",
        ]
        for index, sample in enumerate(self.checkpoint.samples):
            sid, task = sample.sample_id, last[index]
            if task is None:
                text = "loaded"
            elif task.stage is Stage.ANLZ:
                text = f"analyzed r{task.round_index}"
            elif task.stage is Stage.AGG:
                text = f"aggregated ({self.best_outcomes[sid].name})"
            else:
                r = task.round_index
                state = self.rounds[sid, r]
                done = len(state.candidates) - evals_left[index]
                text = f"generated r{r}, evaluated {done}/{len(state.records)}"
            lines.append(f"  sample {sid}: {text}")
        return "\n".join(lines)


@dataclass(eq=False)
class RunResult:
    """A finished run. Its stats and counts are known when it completes; its
    simulated schedule (makespan, high-water marks and, when tracing, the
    completion log) is computed from the recorded tasks once, when one of
    them is first read, through this result's own `Memo`, so the schedules of
    other results run meanwhile. `trace` decodes the lines `export_trace`
    writes into `Event`s, once, under a second key of that `Memo`; it is ()
    for a run that kept no trace."""

    run_id: str
    stats: GenerationStats
    event_counts: Mapping[EventKind, int]
    programs: int
    ledger: RunLedger = field(repr=False)  # freed with the result
    _schedule: Callable[[], RunLedger] = field(repr=False)  # fills the ledger's timing
    _timing: Memo = field(default_factory=Memo, repr=False)

    def _timed(self) -> RunLedger:
        return self._timing.get("schedule", self._schedule)

    trace = property(lambda self: self._timing.get("trace", self._decode_trace))
    makespan = property(lambda self: self._timed().clock)
    max_gen_inflight = property(lambda self: self._timed().max_gen_inflight)
    max_eval_queue = property(lambda self: self._timed().max_eval_queue)

    def _decode_trace(self) -> tuple[Event, ...]:
        if not self.ledger.config.record_trace:
            return ()
        lines = map(json.loads, _trace_lines(self))
        return tuple(
            Event(EventKind(d["kind"]), d["sample_id"], d["run_id"], d["payload"], d["logical_time"], d["wall_time"])
            for d in lines
        )


class LatencyModel:
    """Simulated task duration: mean + tail * Exp(1), keyed by task identity.

    The Exp(1) draw is hash_uniform(seed, "latency", run_seed, stage name,
    sample, round, attempt); AGG takes no time. A run's schedule draws through
    `drawer(run_seed)`, which hashes each stage's label prefix once, then per
    task copies that state, adds the frame of (sample, round, attempt) and
    digests it. In a subclass overriding `duration` it calls that, with a `Task`.
    """

    def __init__(self, seed: int = 0, params: Mapping[str, LatencyParams] | None = None):
        self.seed = seed
        self.params = dict(params or {})

    def drawer(self, run_seed: int) -> Callable[[tuple], float]:
        """`duration(run_seed, task)` for one run, for any task but AGG, as a `Task` or a plain tuple."""
        # `__class__` is this class, also where a profiler rebinds the module's name to a subclass.
        if type(self).duration is not __class__.duration:
            return lambda task: self.duration(run_seed, Task._make(task))
        table: list = [None] * (len(Stage) + 1)  # by stage value
        for s in (Stage.ANLZ, Stage.GEN, Stage.EVAL):
            p = self.params.get(s.name.lower(), LatencyParams())
            table[s] = (SeedPrefix(self.seed, "latency", run_seed, s.name).hasher.copy, p.mean, p.tail)
        frame, log, from_bytes = LABEL * 3, math.log, int.from_bytes

        def draw(task: tuple) -> float:
            copy, mean, tail = table[task[2]]
            hasher = copy()
            hasher.update((frame % (task[4], task[1], task[3])).encode())
            return mean + tail * -log(1.0 - from_bytes(hasher.digest(), "big") / 2.0**64)

        return draw

    def duration(self, run_seed: int, task: Task) -> float:
        if task.stage is Stage.AGG:
            return 0.0
        p = self.params.get(task.stage.name.lower(), LatencyParams())
        x = derive_seed(self.seed, "latency", run_seed, task.stage.name, task.sample_id, task.round_index, task.attempt)
        return p.mean + p.tail * -math.log(1.0 - x / 2.0**64)


class _RepresentationSource:
    """Serves the requested representation, derived from the one read of
    the raw artifact: formatted output is a local deterministic transform;
    summarized output goes through the summarizer agent exactly once per
    distinct raw artifact (content-addressed cache). Under randomized
    feedback the raw artifact is the donor's (`donors` maps sample -> donor);
    the report stays the receiving sample's.
    """

    def __init__(self, inner: ArtifactSource, donors: Mapping[str, str], summarizer, cache: Memo):
        self._inner = inner
        self._donors = donors
        self._summarizer = summarizer
        self._cache = cache

    def get(self, sample_id, component, representation):
        raw = self._inner.get(self._donors.get(sample_id, sample_id), component, Representation.RAW)
        if raw is None or representation is Representation.RAW:
            return raw
        if representation is Representation.FORMATTED:
            return FeedbackArtifact(
                component=raw.component,
                representation=Representation.FORMATTED,
                payload=f"[{raw.component.name}] {raw.payload}",
                source_sample=raw.source_sample,
            )
        return self._cache.get(
            raw.content_hash, lambda: self._summarizer.summarize([raw])[0]
        )


class InterventionPipeline:
    """Executes intervention runs over frozen checkpoints.

    Multiple runs may be submitted and driven concurrently (one thread
    per run); per-run state lives in its ledger, and the shared pieces
    (agents, artifact source, summary cache) are safe for concurrent use.
    """

    def __init__(
        self,
        agents: AgentBundle,
        artifact_source: ArtifactSource,
        players: tuple[FeedbackComponent, ...] | None = None,
        config: PipelineConfig | None = None,
    ):
        self.agents = agents
        self.artifact_source = artifact_source
        self.players = players or default_components()
        self.config = config or PipelineConfig()
        # The generator's behaviour overrides the default latencies stage by stage.
        self.latency_model = LatencyModel(
            seed=self.config.seed,
            params={**DEFAULT_LATENCIES, **agents.generator.behavior.latency},
        )
        self._ledgers: dict[str, RunLedger] = {}  # submitted, not yet driven
        self._lock = threading.Lock()
        self._summary_cache = Memo()
        # (source version, memo of (sample id, intervention signature) -> ANLZ product); see `_run_samples`.
        self._anlz_cache: tuple[object, Memo] = (None, Memo())
        self._run_counter = itertools.count()

    # -- run lifecycle -------------------------------------------------------

    def submit(
        self,
        checkpoint: GenerationCheckpoint,
        intervention: Intervention,
        seed: int | None = None,
        replay: "ReplayCache | None" = None,
    ) -> str:
        self.agents.require_complete()
        max_mask = (1 << len(self.players)) - 1
        if intervention.coalition.mask > max_mask:
            raise PipelineConfigError(
                f"coalition mask {intervention.coalition.mask} exceeds the {len(self.players)}-player game"
            )
        seed = self.config.seed if seed is None else seed
        ledger = RunLedger("", checkpoint, intervention, self.config, seed, replay)
        if replay is not None:
            # An archive recorded under another run identity matches no stage key.
            for name, value in ledger.identity.items():
                if replay.identity[name] != value:
                    raise ReplayMismatchError(
                        f"replay archive (manifest.json) was recorded under a different {name.replace('_', ' ')} "
                        f"({replay.identity[name]} != {value})"
                    )
        with self._lock:
            ledger.run_id = run_id = f"run-{next(self._run_counter):04d}-{os.getpid()}"
            self._ledgers[run_id] = ledger
        return run_id

    def _take(self, run_id: str) -> RunLedger:
        with self._lock:
            ledger = self._ledgers.pop(run_id, None)
        if ledger is None:
            raise PipelineConfigError(
                f"run {run_id!r} is not a submitted run awaiting completion"
            )
        return ledger

    def cancel(self, run_id: str) -> None:
        """Drop a submitted run that will not be driven, freeing its ledger."""
        self._take(run_id)

    def run_to_completion(self, run_id: str) -> RunResult:
        ledger = self._take(run_id)
        self._run_samples(ledger)
        if ledger.checkpoint.checkpoint_hash != ledger.identity["checkpoint_hash"]:
            raise CheckpointMutatedError(f"checkpoint hash changed during run {run_id}")
        samples = ledger.checkpoint.samples
        outcomes = [ledger.best_outcomes[s.sample_id] for s in samples]
        budget = self.config.k * self.config.rounds
        rounds = ledger.rounds.values()
        programs = sum(len(state.candidates) + len(state.failures) for state in rounds)
        # The events a traced run emits: per sample, per round (ANLZ, GEN), per record.
        event_counts = {
            EventKind.SAMPLE_LOADED: len(samples),
            EventKind.FEEDBACK_BUILT: len(rounds),
            EventKind.CANDIDATES_GENERATED: len(rounds),
            EventKind.EVAL_COMPLETED: sum(len(state.records) for state in rounds),
            EventKind.AGGREGATED: len(samples),
        }
        latency_model = self.latency_model  # even if replaced before timing is read

        def schedule() -> RunLedger:
            self._schedule(ledger, latency_model)
            return ledger

        stats = stats_from_outcomes(ledger.checkpoint.g, outcomes, budget)
        return RunResult(run_id, stats, event_counts, programs, ledger, schedule)

    # -- dataflow ----------------------------------------------------------------

    def _run_samples(self, led: RunLedger) -> None:
        """Do each sample's stage work in sample order: per round ANLZ, GEN and
        one EVAL per candidate, then AGG. A replaying run takes each stage's
        product from its archive where it holds one. The products go to the
        round states and `best_outcomes`; no order of the stages can change
        them."""
        k, rounds, seed, replay = self.config.k, self.config.rounds, led.seed, led.replay
        generate, evaluate = self.agents.generator.generate, self.agents.evaluator.evaluate
        # A frozen sample's ANLZ product depends only on the intervention and
        # the source's artifacts, so it is computed once per source version,
        # unless a planner that does not declare itself deterministic plans on it.
        intervention, anlz_key = led.intervention, led.identity["intervention_signature"]
        version, (memo_version, anlz_memo) = getattr(self.artifact_source, "version", None), self._anlz_cache
        if memo_version != version:  # a new version drops the older one's products
            self._anlz_cache = (version, anlz_memo := Memo())
        memoized = intervention.plan_mode is not PlanMode.SELF or getattr(self.agents.planner, "deterministic", False)
        for index, sample in enumerate(led.checkpoint.samples):
            sid = sample.sample_id
            best = OutcomeLevel.FAILED
            for r in range(rounds):
                state = led.rounds[sid, r] = _RoundState()
                product = None if replay is None else led.replayed_product(Task(index, r, Stage.ANLZ, -1, sid))
                if product is None:
                    analyze = functools.partial(self._analyze, sid, intervention)
                    product = anlz_memo.get((sid, anlz_key), analyze) if memoized else analyze()
                state.report, state.plan = product
                product = None if replay is None else led.replayed_product(Task(index, r, Stage.GEN, -1, sid))
                if product is None:
                    outputs = generate(sample, state.report, state.plan, k, run_seed=seed, round_index=r)
                    product = [], []  # (candidates, failures), split in one pass
                    for j, out in enumerate(outputs):
                        if isinstance(out, GeneratorAttemptError):
                            product[1].append((j, str(out)))
                        else:
                            product[0].append(out)
                candidates, state.failures = product
                state.candidates = {cand.attempt: cand for cand in candidates}
                records, level = state.records, OutcomeLevel.FAILED  # the round's best so far
                for attempt, candidate in state.candidates.items():
                    record = None if replay is None else led.replayed_product(Task(index, r, Stage.EVAL, attempt, sid))
                    if record is None:
                        try:
                            record = evaluate(candidate)
                        except Exception as exc:  # noqa: BLE001 - crash becomes a Failed record
                            record = crash_record(str(exc))
                    records[attempt] = record
                    if (graded := classify_execution(record)) > level:
                        level = graded
                best = max(best, level)
            led.best_outcomes[sid] = best

    def _analyze(self, sid: str, intervention: Intervention) -> tuple[Report, PlanArtifact | None]:
        """One sample's ANLZ work: its report, built from the artifact source
        through the intervention's permutation and representation, and, by
        plan mode, its plan."""
        source = _RepresentationSource(
            self.artifact_source, intervention.permutation or {}, self.agents.summarizer, self._summary_cache
        )
        report = build_report(sid, intervention.coalition, intervention.representation, source, self.players)
        plan: PlanArtifact | None = None
        if intervention.plan_mode is PlanMode.SELF:
            plan = self.agents.planner.plan(report)
        elif intervention.plan_mode is PlanMode.DUMMY:
            plan = PlanArtifact(dummy_plan(), "dummy-plan", report.content_hash)
        if plan is not None:
            report = replace(report, plan_slot=plan.text)
        return report, plan

    # -- timing layer ------------------------------------------------------------

    def _schedule(self, led: RunLedger, latency: LatencyModel) -> None:
        """Simulate the run's schedule over its recorded tasks and fill the
        ledger's clock, high-water marks and, when tracing, completion log. A task
        start draws its latency. A completion makes its follow-ups ready:
        after ANLZ the GEN; after GEN one EVAL per recorded EVAL; once the
        round's EVALs, one per candidate, completed (at once if it has no
        candidates), the next round's ANLZ or the sample's AGG."""
        cfg = led.config
        ANLZ, GEN, EVAL, AGG = Stage
        heappush, heappop = heapq.heappush, heapq.heappop
        duration, rounds, k = latency.drawer(led.seed), cfg.rounds, cfg.k
        stage_sync = cfg.execution_mode is ExecutionMode.STAGE_SYNC
        serial = cfg.execution_mode is ExecutionMode.SERIAL
        trace, samples, led_rounds = cfg.record_trace, led.checkpoint.samples, led.rounds
        log = [] if trace else None
        # Keyed by the run's seed, not its id: the id holds the process id.
        draw = None if cfg.schedule_seed is None else rng_for(cfg.schedule_seed, "schedule", led.seed).random
        # Ready tasks: one heap per stage, by stage value, of tasks or, under
        # schedule_seed, (random priority drawn once when the task becomes
        # ready, task). The EVAL heap is the GEN -> EVAL queue. A task is a plain
        # tuple of `Task`'s fields: it orders, compares and hashes as one.
        ready: list[list] = [[] for _ in range(len(Stage) + 1)]
        _, anlz_ready, gen_ready, eval_queue, agg_ready = ready
        # Stage-sync turns on only the current stage of this cycle. A
        # sample's next-round tasks become ready only after its current
        # round's stages ran, so a stage's heap never holds two rounds here.
        cycle = [ANLZ, GEN, EVAL] * rounds + [AGG]
        wave = 0
        anlz_on, gen_on, eval_on, agg_on = (not stage_sync or s is cycle[wave] for s in Stage)
        # Progress by sample: its last completed task, and the EVALs of its
        # current round still to complete (its rounds run one after another).
        last: list[tuple | None] = [None] * len(samples)
        evals_left = [0] * len(samples)
        replayed = led.replayed
        llm_slots, eval_slots, capacity = cfg.generator_concurrency, cfg.eval_concurrency, cfg.queue_capacity
        running: list[tuple] = []  # (finish, start order, task)
        clock, started, stall = 0.0, 0, None
        llm_inflight = gen_inflight = eval_inflight = max_llm = max_gen = max_queue = 0
        for index, sample in enumerate(samples):
            task = (index, 0, ANLZ, -1, sample.sample_id)
            heappush(anlz_ready, task if draw is None else (draw(), task))

        while True:
            # A scan starts ready tasks in key order: it pops the smallest
            # head above the cursor among the heaps whose stage is on and
            # has a free resource. LLM and EVAL slots only fill within a
            # scan and AGG needs none, so an open ANLZ, EVAL or AGG heap was
            # open at every earlier pick and its head is above the cursor.
            # Only GEN reopens (an EVAL start shortens the queue): its
            # entries at or below the cursor, passed over while it was
            # closed, are set aside until the scan ends.
            cursor = ()  # sorts before every entry
            aside = None
            while not (serial and running):
                best = None
                if llm_inflight < llm_slots:
                    if anlz_on and anlz_ready:
                        best = anlz_ready
                    # Backpressure: each in-flight GEN will enqueue up to k
                    # EVALs, so queue space is reserved at start. Not under
                    # stage-sync, whose barrier would deadlock against it.
                    if gen_on and gen_ready and (stage_sync or len(eval_queue) + (gen_inflight + 1) * k <= capacity):
                        while gen_ready and gen_ready[0] <= cursor:
                            (aside := aside or []).append(heappop(gen_ready))
                        if gen_ready and (best is None or gen_ready[0] < best[0]):
                            best = gen_ready
                if eval_on and eval_queue and eval_inflight < eval_slots and (best is None or eval_queue[0] < best[0]):
                    best = eval_queue
                if agg_on and agg_ready and (best is None or agg_ready[0] < best[0]):
                    best = agg_ready
                if best is None:
                    break
                cursor = heappop(best)
                task = cursor if draw is None else cursor[1]
                stage = task[2]
                if stage is EVAL:
                    eval_inflight += 1
                elif stage is not AGG:
                    llm_inflight += 1
                    if llm_inflight > max_llm:
                        max_llm = llm_inflight
                    if stage is GEN:
                        gen_inflight += 1
                        if gen_inflight > max_gen:
                            max_gen = gen_inflight
                started += 1
                # AGG and a replayed task take no time.
                finish = clock if stage is AGG or replayed and task in replayed else clock + duration(task)
                heappush(running, (finish, started, task))
            for passed_over in aside or ():
                heappush(gen_ready, passed_over)

            if not running:
                if not any(ready):
                    break
                if stage_sync and not ready[cycle[wave]] and wave + 1 < len(cycle):
                    wave += 1
                    anlz_on, gen_on, eval_on, agg_on = (not stage_sync or s is cycle[wave] for s in Stage)
                    continue
                stall = "ready tasks cannot acquire resources"
                break

            finish, _, task = heappop(running)
            if finish > clock:
                clock = finish
            i, r, stage, _, sid = task
            last[i] = task
            if trace:
                log.append((task, clock))
            # A round has k EVALs but one ANLZ, one GEN and at most one AGG.
            if stage is EVAL:
                eval_inflight -= 1
                evals_left[i] -= 1
            elif stage is GEN:
                llm_inflight -= 1
                gen_inflight -= 1
                state = led_rounds[sid, r]
                for attempt in state.records:
                    followup = (i, r, EVAL, attempt, sid)
                    heappush(eval_queue, followup if draw is None else (draw(), followup))
                if len(eval_queue) > max_queue:
                    max_queue = len(eval_queue)
                evals_left[i] = len(state.candidates)
            elif stage is ANLZ:
                llm_inflight -= 1
                followup = (i, r, GEN, -1, sid)
                heappush(gen_ready, followup if draw is None else (draw(), followup))
                continue
            else:  # AGG
                continue
            if evals_left[i]:
                continue
            if r + 1 < rounds:
                heap, followup = anlz_ready, (i, r + 1, ANLZ, -1, sid)
            else:
                heap, followup = agg_ready, (i, r, AGG, -1, sid)
            heappush(heap, followup if draw is None else (draw(), followup))

        led.clock, led.max_llm_inflight, led.max_gen_inflight, led.max_eval_queue = clock, max_llm, max_gen, max_queue
        if stall is None and any(task is None or task[2] is not AGG for task in last):
            stall = "run incomplete but no tasks remain"
        if stall is not None:
            last = [task and Task._make(task) for task in last]  # `dump` reads fields by name
            raise PipelineStalledError(stall, led.dump(sum(map(len, ready)), last, evals_left))
        led.completions = log


# -- rollout glue --------------------------------------------------------------


def make_rollout_fn(
    pipe: InterventionPipeline,
    game: str = "components",
    representation: Representation = Representation.RAW,
):
    """Adapt a pipeline into attribution's rollout callable.

    Each rollout submits a fresh run whose seed is supplied by the
    estimator, so repeated rollouts differ while staying reproducible.
    """

    def rollout(
        checkpoint: GenerationCheckpoint, coalition: Coalition, seed: int
    ) -> GenerationStats:
        intervention = game_intervention(
            game, coalition, pipe.players, representation
        )
        run_id = pipe.submit(checkpoint, intervention, seed=seed)
        return pipe.run_to_completion(run_id).stats

    return rollout


# -- event trace + replay archives ----------------------------------------------

# Encodes as json.dumps(obj, sort_keys=True) does, without building an
# encoder per call.
_JSON = json.JSONEncoder(sort_keys=True)

# A trace line per event kind, by stage value (0 for SampleLoaded), as
# `json.dumps` with `sort_keys=True` writes its object: keys sorted, strings escaped by
# `encode_basestring_ascii`, the wall time by `repr`. It takes the logical
# time, the payload's values in its keys' order, run id, sample id and wall time.
_TRACE_TAIL = '}, "run_id": %s, "sample_id": %s, "wall_time": %r}\n'
_TRACE_LINES = (
    '{"kind": "SampleLoaded", "logical_time": %d, "payload": {"index": %d' + _TRACE_TAIL,
    '{"kind": "FeedbackBuilt", "logical_time": %d, "payload": {"replayed": %s, "report_hash": %s, "round": %d'
    + _TRACE_TAIL,
    '{"kind": "CandidatesGenerated", "logical_time": %d, "payload": {"n_candidates": %d, "n_failed": %d, '
    '"replayed": %s, "round": %d' + _TRACE_TAIL,
    '{"kind": "EvalCompleted", "logical_time": %d, "payload": {"attempt": %d, "level": %s, "replayed": %s, '
    '"round": %d' + _TRACE_TAIL,
    '{"kind": "Aggregated", "logical_time": %d, "payload": {"best": %s, "round": %d' + _TRACE_TAIL,
)


def export_trace(result: RunResult, path: str | Path) -> None:
    """Write the ordered event trace as newline-delimited JSON. A run that
    kept no trace raises ValueError."""
    if not result.ledger.config.record_trace:
        raise ValueError(f"run {result.run_id} kept no trace: its pipeline ran with record_trace off")
    Path(path).write_text("".join(_trace_lines(result)), encoding="utf-8")


def _trace_lines(result: RunResult) -> list[str]:
    """A traced run's trace, one NDJSON line per event, formatted straight
    from its completion log: each sample's SampleLoaded, in checkpoint order
    at time 0, then one event per completion, its payload read from the
    recorded results. The one definition of what an event carries."""
    led = result.ledger
    log = result._timed().completions
    enc, flag = encode_basestring_ascii, ("false", "true")
    run, replayed, rounds, best = enc(result.run_id), led.replayed, led.rounds, led.best_outcomes
    sids = [enc(s.sample_id) for s in led.checkpoint.samples]
    out = [_TRACE_LINES[0] % (i, i, run, sid, 0.0) for i, sid in enumerate(sids)]
    for t, (task, clock) in enumerate(log, len(sids)):
        i, r, stage, attempt, sid = task
        if stage is Stage.AGG:
            payload = enc(best[sid].name), r
        else:
            state, done = rounds[sid, r], flag[task in replayed]
            if stage is Stage.EVAL:
                payload = attempt, enc(classify_execution(state.records[attempt]).name), done, r
            elif stage is Stage.GEN:
                payload = len(state.candidates), len(state.failures), done, r
            else:
                payload = done, enc(state.report.content_hash), r
        out.append(_TRACE_LINES[stage] % (t, *payload, run, sids[i], clock))
    return out


class ReplayCache(NamedTuple):
    """A prior run's stage products, checked and decoded by `replay_load`,
    with the run identity it was recorded under. `products` maps a stage key
    to (stage, product); stages with equal payloads, and every run that
    replays this cache, share one product, as none is mutated after its stage."""

    identity: Mapping[str, object]
    products: Mapping[str, tuple[Stage, object]]


def archive_run(result: RunResult, directory: str | Path) -> None:
    """Persist a completed run's stage results as one content-addressed pack.
    Any older manifest is removed first, then a version-1 archive's
    `entries/`, and the new manifest is written last, so an archive torn by a
    failed write or removal has none and is refused."""
    led = result.ledger
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    (base / "manifest.json").unlink(missing_ok=True)
    if (base / "entries").is_dir():
        shutil.rmtree(base / "entries")
    index: dict[str, str] = {}
    blobs: dict[str, str] = {}  # stages with equal payloads share one entry
    for stage_key, payload in led.archive_entries().items():
        blob = _JSON.encode(payload)
        name = "%016x.json" % derive_seed(0, "entry", blob)
        blobs[name] = blob
        index[stage_key] = name
    # Joined as _JSON.encode would write {name: payload}, each blob as it is.
    pack = "{%s}" % ", ".join(f'"{name}": {blob}' for name, blob in sorted(blobs.items()))
    (base / "entries.json").write_text(pack, encoding="utf-8")
    (base / "index.json").write_text(json.dumps(index, indent=2, sort_keys=True), encoding="utf-8")
    manifest = {"format_version": ARCHIVE_FORMAT_VERSION, "run_id": result.run_id, **led.identity}
    (base / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")


# The replay archive's manifest and index files, as `archive_run` writes them.
_MANIFEST_SCHEMA = {
    "format_version": Required([1, ARCHIVE_FORMAT_VERSION]),
    "run_id": str,
    "checkpoint_hash": Required(str),
    "intervention_signature": Required(str),
    "seed": Required(int),
    "k": Required(int),
    "rounds": Required(int),
}
_INDEX_SCHEMA = {str: str}  # stage key -> entry name
_ENTRY_NAME = re.compile(r"[0-9a-f]{16}\.json")


def _read_archive_json(path: Path, schema: dict | type | None = None):
    """One archive file's JSON value, checked against `schema` if given."""
    try:
        value = parse_json(path.read_text(encoding="utf-8"))
        return value if schema is None else check_json(value, schema, path.name)
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8, not JSON, not the schema
        raise ReplayArchiveError(f"cannot read replay archive file {path}: {exc}") from exc


def replay_load(directory: str | Path, checkpoint: GenerationCheckpoint) -> ReplayCache:
    """Load a replay archive, checking and decoding each distinct entry once;
    refuse checkpoints it was not recorded on. A missing or unparsable file,
    one that does not match its schema (another format version included), an
    index naming an entry by other than a `%016x.json` name or one the pack
    lacks, and an entry that does not decode raise ReplayArchiveError naming
    the file (and the entry and its stage)."""
    base = Path(directory)
    manifest = _read_archive_json(base / "manifest.json", _MANIFEST_SCHEMA)
    recorded, actual = manifest["checkpoint_hash"], checkpoint.checkpoint_hash
    if recorded != actual:
        raise ReplayMismatchError(
            f"replay archive {base / 'manifest.json'} checkpoint hash mismatch "
            f"({recorded[:12]} != {actual[:12]}); refusing to mix trajectories"
        )
    index = _read_archive_json(base / "index.json", _INDEX_SCHEMA)
    names = dict.fromkeys(index.values())
    if bad := [name for name in names if not _ENTRY_NAME.fullmatch(name)]:  # a name may be joined into a path
        raise ReplayArchiveError(f"replay archive file {base / 'index.json'} names entry {bad[0]!r}: not %016x.json")
    if manifest["format_version"] == 1:  # one file per entry, entries/<name>
        paths = {name: base / "entries" / name for name in names}
        products = {name: _decode_entry(path, _read_archive_json(path), manifest["k"]) for name, path in paths.items()}
    else:
        path = base / "entries.json"
        pack = _read_archive_json(path, dict)  # entry name -> payload
        if missing := names.keys() - pack.keys():
            raise ReplayArchiveError(f"replay archive file {path} lacks entry {min(missing)} named in index.json")
        products = {name: _decode_entry(f"{path} entry {name}", pack[name], manifest["k"]) for name in names}
    return ReplayCache(
        {name: manifest[name] for name in RUN_IDENTITY},
        {stage_key: products[name] for stage_key, name in index.items()},
    )


def _report_from_json(data: Mapping) -> Report:
    coalition, ids = Coalition(data["coalition_mask"]), [a["component"]["id"] for a in data["artifacts"]]
    if not all(0 <= i < coalition.mask.bit_length() for i in ids):  # else a component's `bit` shifts by any id
        raise ValueError(f"artifact component ids {ids} are not all members of coalition mask {coalition.mask}")
    artifacts = tuple(
        FeedbackArtifact(
            FeedbackComponent(a["component"]["id"], a["component"]["name"], a["component"].get("short", "")),
            Representation(a["representation"]), a["payload"], a["source_sample"],
        )
        for a in data["artifacts"]
    )
    return Report(data["sample_id"], coalition, artifacts, data.get("plan_slot"))


def _report_to_json(report: Report) -> dict:
    artifacts = [
        {
            "component": {"id": a.component.id, "name": a.component.name, "short": a.component.short},
            "representation": a.representation.value,
            "payload": a.payload,
            "source_sample": a.source_sample,
        }
        for a in report.artifacts
    ]
    return {
        "sample_id": report.sample_id, "coalition_mask": report.coalition.mask,
        "plan_slot": report.plan_slot, "artifacts": artifacts,
    }


# -- archive codec ---------------------------------------------------------------
# One archive payload per ANLZ, GEN and EVAL stage. Each encoder takes the
# product the stage's work returns and its decoder, given the run's k, gives
# that product back. `RunLedger.archive_entries` encodes; `replay_load` checks
# and decodes each entry by its `kind`, through `_decode_entry`.

_ARTIFACT_SCHEMA = {
    "component": Required({"id": Required(int), "name": Required(str), "short": str}),
    "representation": Required([r.value for r in Representation]),
    "payload": Required(str),
    "source_sample": Required(str),
}
_REPORT_SCHEMA = {
    "sample_id": Required(str),
    "coalition_mask": Required(int),
    "plan_slot": (str, NoneType),
    "artifacts": Required(ListOf(_ARTIFACT_SCHEMA)),
}
_PLAN_SCHEMA = {"text": Required(str), "producer_tag": Required(str), "generation_context_hash": str}
# A GEN entry's candidates and an EVAL entry's record are checked by their `from_json`.
_ENTRY_SCHEMA = {
    Stage.ANLZ: {"kind": Required(["anlz"]), "report": Required(_REPORT_SCHEMA), "plan": (dict, NoneType)},
    Stage.GEN: {"kind": Required(["gen"]), "candidates": Required(list), "failures": ListOf(list)},
    Stage.EVAL: {"kind": Required(["eval"]), "record": Required(dict)},
}


def _encode_anlz(product: tuple[Report, PlanArtifact | None]) -> dict:
    report, plan = product
    return {"kind": "anlz", "report": _report_to_json(report), "plan": asdict(plan) if plan else None}


def _decode_anlz(entry: Mapping, k: int) -> tuple[Report, PlanArtifact | None]:
    plan = entry.get("plan")
    if plan is not None:
        plan = PlanArtifact(**check_json(plan, _PLAN_SCHEMA, "ANLZ entry plan"))
    return _report_from_json(entry["report"]), plan


def _encode_gen(product: tuple[Iterable[Candidate], list[tuple[int, str]]]) -> dict:
    candidates, failures = product
    return {"kind": "gen", "candidates": [c.to_json() for c in candidates], "failures": [[a, n] for a, n in failures]}


def _decode_gen(entry: Mapping, k: int) -> tuple[list[Candidate], list[tuple[int, str]]]:
    candidates = [Candidate.from_json(c) for c in entry["candidates"]]
    failures = [(a, n) for a, n in entry.get("failures", [])]
    if not all(type(a) is int and type(n) is str for a, n in failures):
        raise ValueError(f"failures {failures} are not [attempt, note] pairs")
    attempts = [c.attempt for c in candidates] + [a for a, _ in failures]
    if len(set(attempts)) < len(attempts) or not all(0 <= a < k for a in attempts):
        raise ValueError(f"attempts {attempts} are not distinct ones of 0..{k - 1}")
    return candidates, failures


def _encode_eval(record: ExecutionRecord) -> dict:
    return {"kind": "eval", "record": record.to_json()}


def _decode_eval(entry: Mapping, k: int) -> ExecutionRecord:
    record = ExecutionRecord.from_json(entry["record"])
    classify_execution(record)  # MalformedRecordError if it breaks the level invariants
    return record


# An entry's `kind` -> (its stage, the stage's decoder).
_DECODE = {"anlz": (Stage.ANLZ, _decode_anlz), "gen": (Stage.GEN, _decode_gen), "eval": (Stage.EVAL, _decode_eval)}


def _decode_entry(where: Path | str, entry: object, k: int) -> tuple[Stage, object]:
    """An archive entry's (stage, product), by its `kind`; one that does not
    decode raises ReplayArchiveError naming `where` and the stage."""
    stage = None
    try:
        stage, decode = _DECODE[entry["kind"]]
        return stage, decode(check_json(entry, _ENTRY_SCHEMA[stage], f"{stage.name} entry"), k)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        named = stage.name if stage else "ANLZ, GEN or EVAL"
        raise ReplayArchiveError(f"replay archive file {where} holds no {named} entry ({exc!r})") from exc
