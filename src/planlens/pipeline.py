"""Sample-centric execution of feedback interventions.

A run replays one frozen generation checkpoint under one intervention
(coalition x representation x plan handling). Samples advance
independently: feedback construction triggers prompting, prompting fans
out to k evaluations, and evaluations fan in to an online, commutative
aggregation. The stage work runs in sample order. Its schedule is a
separate timing layer: a simulated-clock event loop with three policies
(serial, stage-sync barriers, multi-async) over the recorded tasks, run
once, when a result's timing or trace is first read. Schedule
permutations are first-class, and order independence is testable rather
than assumed.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import os
import threading
from dataclasses import asdict, dataclass, field, replace
from enum import Enum, IntEnum
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
    PermutedArtifactSource,
    Report,
    Representation,
    build_report,
    default_components,
    dummy_plan,
    plan_feedback_players,
    plan_summary_players,
)
# `hash_uniform` stays importable here: perfbench/tracing.py wraps it by name.
from .seeding import SeedPrefix, derive_seed, hash_uniform, rng_for  # noqa: F401
from .trajectory import (
    ExecutionRecord,
    GenerationCheckpoint,
    GenerationStats,
    OutcomeLevel,
    classify_execution,
    stats_from_outcomes,
)

ARCHIVE_FORMAT_VERSION = 1


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


_STAGE_EVENT = {
    Stage.ANLZ: EventKind.FEEDBACK_BUILT,
    Stage.GEN: EventKind.CANDIDATES_GENERATED,
    Stage.EVAL: EventKind.EVAL_COMPLETED,
    Stage.AGG: EventKind.AGGREGATED,
}

@dataclass(frozen=True)
class Event:
    kind: EventKind
    sample_id: str
    run_id: str
    payload: Mapping
    logical_time: int
    wall_time: float

    def to_json(self) -> dict:
        return {
            "kind": self.kind.value,
            "sample_id": self.sample_id,
            "run_id": self.run_id,
            "logical_time": self.logical_time,
            "wall_time": self.wall_time,
            "payload": dict(self.payload),
        }


@dataclass(frozen=True)
class PipelineConfig:
    generator_concurrency: int = 16  # LLM pool P, shared by ANLZ and GEN
    eval_concurrency: int = 32
    k: int = 5
    rounds: int = 1
    seed: int = 0
    execution_mode: ExecutionMode = ExecutionMode.MULTI_ASYNC
    schedule_seed: int | None = None  # randomizes multi-async tie-breaking
    queue_capacity: int = 256  # bound on the GEN -> EVAL queue
    record_trace: bool = True

    def validate(self) -> None:
        if self.generator_concurrency < 1:
            raise PipelineConfigError("generator_concurrency must be >= 1")
        if self.eval_concurrency < 1:
            raise PipelineConfigError("eval_concurrency must be >= 1")
        if self.k < 1:
            raise PipelineConfigError("k must be >= 1")
        if self.rounds < 1:
            raise PipelineConfigError("rounds must be >= 1")
        if self.queue_capacity < self.k:
            raise PipelineConfigError(
                "queue_capacity must be >= k or prompting can never start"
            )


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
        return Intervention(
            coalition=full if coalition.mask & 1 else Coalition(0),
            representation=representation,
            plan_mode=plan_mode,
        )
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
    """One (sample, round)'s stage results, as the stages produced them, and
    their fan-in: `best` is the max of its EVAL levels, in any order (failed
    attempts are FAILED)."""

    report: Report | None = None
    plan: PlanArtifact | None = None
    candidates: dict[int, Candidate] = field(default_factory=dict)  # by attempt
    failures: list[tuple[int, str]] = field(default_factory=list)
    records: dict[int, ExecutionRecord] = field(default_factory=dict)
    best: OutcomeLevel = OutcomeLevel.FAILED


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
        self.checkpoint_hash = checkpoint.checkpoint_hash
        self.intervention = intervention
        self.intervention_signature = intervention.signature()
        self.config = config
        self.seed = seed
        self._stage_prefix = SeedPrefix(
            0, "stage", self.checkpoint_hash, self.intervention_signature,
            seed, config.k, config.rounds,
        )
        self.replay = replay
        self.rounds: dict[tuple[str, int], _RoundState] = {}
        self.best_outcomes: dict[str, OutcomeLevel] = {}
        self.replayed: set[Task] = set()  # tasks whose product came from `replay`
        # The schedule's; `InterventionPipeline._schedule` fills them.
        self.events: tuple[Event, ...] = ()  # kept only when tracing
        self.clock = 0.0
        self.max_llm_inflight = self.max_gen_inflight = self.max_eval_queue = 0

    @property
    def replay_hits(self) -> int:
        return len(self.replayed)

    def stage_key(self, stage: Stage, sample_id: str, round_index: int, attempt: int = -1) -> str:
        """Archive key: derive_seed(0, "stage", checkpoint hash, intervention
        signature, seed, k, rounds, stage name, sample, round, attempt)."""
        return "%016x" % self._stage_prefix.derive(stage.name, sample_id, round_index, attempt)

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
        last completed task and its current round's completed EVALs."""
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
                attempts = len(self.rounds[sid, r].candidates)
                text = f"generated r{r}, evaluated {attempts - evals_left[index]}/{attempts}"
            lines.append(f"  sample {sid}: {text}")
        return "\n".join(lines)


@dataclass(eq=False)
class RunResult:
    """A finished run. Its stats and counts are known when it completes; its
    simulated schedule (trace, makespan, high-water marks) is computed from
    the recorded tasks once, when one of them is first read, under a lock
    of this result's own, so the schedules of other results run meanwhile."""

    run_id: str
    stats: GenerationStats
    event_counts: Mapping[EventKind, int]
    programs: int
    ledger: RunLedger = field(repr=False)  # freed with the result
    _schedule: Callable[[], None] | None = field(repr=False)  # None once it ran
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def _timed(self) -> RunLedger:
        if self._schedule is not None:
            with self._lock:
                if self._schedule is not None:
                    self._schedule()
                    self._schedule = None
        return self.ledger

    trace = property(lambda self: self._timed().events)
    makespan = property(lambda self: self._timed().clock)
    max_gen_inflight = property(lambda self: self._timed().max_gen_inflight)
    max_eval_queue = property(lambda self: self._timed().max_eval_queue)


class LatencyModel:
    """Simulated task duration: mean + tail * Exp(1), keyed by task identity.

    The Exp(1) draw is hash_uniform(seed, "latency", run_seed, stage name,
    sample, round, attempt). Each stage's labels up to its name, and its
    params, are resolved once per run seed; runs on other threads replace
    that state whole, so a draw never mixes two runs.
    """

    def __init__(self, seed: int = 0, params: Mapping[str, LatencyParams] | None = None):
        self.seed = seed
        self.params = dict(params or {})
        # (run_seed, stage -> (SeedPrefix, params)) of the latest run seed
        self._run: tuple | None = None

    def duration(self, run_seed: int, task: Task) -> float:
        if task.stage is Stage.AGG:
            return 0.0
        run = self._run
        if run is None or run[0] != run_seed:
            stages = {
                s: (
                    SeedPrefix(self.seed, "latency", run_seed, s.name),
                    self.params.get(s.name.lower(), LatencyParams()),
                )
                for s in Stage
                if s is not Stage.AGG
            }
            run = self._run = (run_seed, stages)
        prefix, p = run[1][task.stage]
        u = prefix.derive(task.sample_id, task.round_index, task.attempt) / 2.0**64
        return p.mean + p.tail * -math.log(1.0 - u)


class _RepresentationSource:
    """Serves the requested representation, derived from the one read of
    the raw artifact: formatted output is a local deterministic transform;
    summarized output goes through the summarizer agent exactly once per
    distinct raw artifact (content-addressed cache).
    """

    def __init__(self, inner: ArtifactSource, summarizer, cache: Memo):
        self._inner = inner
        self._summarizer = summarizer
        self._cache = cache

    def get(self, sample_id, component, representation):
        raw = self._inner.get(sample_id, component, Representation.RAW)
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
        self.config.validate()
        # The generator's behaviour overrides the default latencies stage by stage.
        self.latency_model = LatencyModel(
            seed=self.config.seed,
            params={**DEFAULT_LATENCIES, **agents.generator.behavior.latency},
        )
        self._ledgers: dict[str, RunLedger] = {}  # submitted, not yet driven
        self._lock = threading.Lock()
        self._summary_cache = Memo()
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
                f"coalition mask {intervention.coalition.mask} exceeds the "
                f"{len(self.players)}-player game"
            )
        if replay is not None:
            # An archive recorded under other settings matches no stage key.
            for name, recorded, actual in (
                ("checkpoint", replay.checkpoint_hash, checkpoint.checkpoint_hash),
                ("intervention signature", replay.intervention_signature, intervention.signature()),
                ("k", replay.k, self.config.k),
                ("rounds", replay.rounds, self.config.rounds),
            ):
                if recorded != actual:
                    raise ReplayMismatchError(
                        f"replay archive was recorded under a different {name} "
                        f"({recorded} != {actual})"
                    )
        seed = self.config.seed if seed is None else seed
        with self._lock:
            run_id = f"run-{next(self._run_counter):04d}-{os.getpid()}"
            ledger = RunLedger(run_id, checkpoint, intervention, self.config, seed, replay)
            self._ledgers[run_id] = ledger
        return run_id

    def run_to_completion(self, run_id: str) -> RunResult:
        with self._lock:
            ledger = self._ledgers.pop(run_id, None)
        if ledger is None:
            raise PipelineConfigError(
                f"run {run_id!r} is not a submitted run awaiting completion"
            )
        self._run_samples(ledger)
        if ledger.checkpoint.checkpoint_hash != ledger.checkpoint_hash:
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
        return RunResult(
            run_id=run_id,
            stats=stats_from_outcomes(ledger.checkpoint.g, outcomes, budget),
            event_counts=event_counts,
            programs=programs,
            ledger=ledger,
            _schedule=lambda: self._schedule(ledger, latency_model),
        )

    # -- dataflow ----------------------------------------------------------------

    def _run_samples(self, led: RunLedger) -> None:
        """Do each sample's stage work in sample order: per round ANLZ, GEN and
        one EVAL per candidate, then AGG. The products go to the round states
        and `best_outcomes`; no order of the stages can change them."""
        source = self._feedback_source(led.intervention)
        for index, sample in enumerate(led.checkpoint.samples):
            sid = sample.sample_id
            best = OutcomeLevel.FAILED
            for r in range(self.config.rounds):
                state = led.rounds[sid, r] = _RoundState()
                state.report, state.plan = self._execute(led, source, Stage.ANLZ, index, r)
                candidates, state.failures = self._execute(led, source, Stage.GEN, index, r)
                state.candidates = {cand.attempt: cand for cand in candidates}
                for attempt in state.candidates:
                    record = self._execute(led, source, Stage.EVAL, index, r, attempt)
                    state.records[attempt] = record
                    state.best = max(state.best, classify_execution(record))
                best = max(best, state.best)
            led.best_outcomes[sid] = best

    def _feedback_source(self, intervention: Intervention) -> ArtifactSource:
        """The artifact source a run's ANLZ stages build reports from."""
        source: ArtifactSource = self.artifact_source
        if intervention.permutation:
            source = PermutedArtifactSource(source, intervention.permutation)
        return _RepresentationSource(source, self.agents.summarizer, self._summary_cache)

    def _execute(
        self, led: RunLedger, source: ArtifactSource, stage: Stage, index: int, r: int, attempt=-1
    ) -> object:
        """Produce sample `index`'s round-`r` ANLZ, GEN or EVAL product: decode
        it from the replay archive, noting its `Task` in `led.replayed`, or do
        its work (agent calls)."""
        sample = led.checkpoint.samples[index]
        sid = sample.sample_id
        replay = led.replay  # the archive's (entry file, payload) by stage key
        entry = replay and replay.entries.get(led.stage_key(stage, sid, r, attempt))
        if entry:
            path, payload = entry
            try:
                product = _DECODE[stage](payload, self.config.k)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise ReplayArchiveError(
                    f"replay archive file {path} holds no {stage.name} entry ({exc!r})"
                ) from exc
            led.replayed.add(Task(index, r, stage, attempt, sid))
            return product
        if stage is Stage.ANLZ:
            intervention = led.intervention
            report = build_report(
                sid, intervention.coalition, intervention.representation, source, self.players
            )
            plan: PlanArtifact | None = None
            if intervention.plan_mode is PlanMode.SELF:
                plan = self.agents.planner.plan(report)
            elif intervention.plan_mode is PlanMode.DUMMY:
                plan = PlanArtifact(
                    text=dummy_plan(),
                    producer_tag="dummy-plan",
                    generation_context_hash=report.content_hash,
                )
            if plan is not None:
                report = replace(report, plan_slot=plan.text)
            return report, plan
        state = led.rounds[sid, r]
        if stage is Stage.GEN:
            outputs = self.agents.generator.generate(
                sample, state.report, state.plan,
                self.config.k, run_seed=led.seed, round_index=r,
            )
            candidates, failures = [], []
            for j, item in enumerate(outputs):
                if isinstance(item, GeneratorAttemptError):
                    failures.append((j, str(item)))
                else:
                    candidates.append(item)
            return candidates, failures
        try:
            return self.agents.evaluator.evaluate(state.candidates[attempt])
        except Exception as exc:  # noqa: BLE001 - crash becomes a Failed record
            return crash_record(str(exc))

    # -- timing layer ------------------------------------------------------------

    def _schedule(self, led: RunLedger, latency: LatencyModel) -> None:
        """Simulate the run's schedule over its recorded tasks and fill the
        ledger's clock, high-water marks and, when tracing, events. A task
        start draws its latency; a completion makes its follow-ups ready."""
        cfg = led.config
        stage_sync = cfg.execution_mode is ExecutionMode.STAGE_SYNC
        serial = cfg.execution_mode is ExecutionMode.SERIAL
        led.clock, led.max_llm_inflight, led.max_gen_inflight, led.max_eval_queue = 0.0, 0, 0, 0
        events = [
            Event(EventKind.SAMPLE_LOADED, s.sample_id, led.run_id, {"index": i}, i, 0.0)
            for i, s in enumerate(led.checkpoint.samples)
            if cfg.record_trace
        ]
        # Keyed by the run's seed, not its id: the id holds the process id.
        schedule_rng = (
            None if cfg.schedule_seed is None else rng_for(cfg.schedule_seed, "schedule", led.seed)
        )
        # Ready tasks: one heap per stage, whose entries are the tasks or,
        # under schedule_seed, (random priority drawn once when the task
        # becomes ready, task). The EVAL heap is the GEN -> EVAL queue.
        ready: dict[Stage, list] = {stage: [] for stage in Stage}
        eval_queue = ready[Stage.EVAL]
        # Stage-sync starts only the current stage of this cycle. A sample's
        # next-round tasks become ready only after its current round's
        # stages ran, so a stage's heap never holds two rounds here.
        cycle = [Stage.ANLZ, Stage.GEN, Stage.EVAL] * cfg.rounds + [Stage.AGG]
        wave = 0
        # Progress by sample: its last completed task, and the EVALs of its
        # current round still to complete (its rounds run one after another).
        last: list[Task | None] = [None] * len(led.checkpoint.samples)
        evals_left = [0] * len(led.checkpoint.samples)
        replayed = led.replayed

        def make_ready(task: Task) -> None:
            entry = task if schedule_rng is None else (schedule_rng.random(), task)
            heapq.heappush(ready[task.stage], entry)

        def stalled(message: str) -> PipelineStalledError:
            dump = led.dump(sum(map(len, ready.values())), last, evals_left)
            return PipelineStalledError(message, dump)

        lanes = [(cycle[0], ready[cycle[0]])] if stage_sync else list(ready.items())
        running: list[tuple] = []  # (finish, start order, task)
        start_order = itertools.count()
        llm_inflight = gen_inflight = eval_inflight = 0
        for index, sample in enumerate(led.checkpoint.samples):
            make_ready(Task(index, 0, Stage.ANLZ, -1, sample.sample_id))

        while True:
            # A scan visits ready tasks in key order and starts each one
            # whose stage is open. Openness changes only when a task starts,
            # so the scan pops the smallest entry above the cursor among the
            # open heaps. Entries at or below the cursor in a heap that
            # reopened were passed over while it was closed: they are set
            # aside until the scan ends. Only GEN reopens within a scan (an
            # EVAL start shortens the queue), so the EVAL heap's length
            # stays the GEN -> EVAL queue's.
            cursor = ()  # sorts before every entry
            aside: list[tuple[list, tuple]] = []
            while not (serial and running):
                llm_open = llm_inflight < cfg.generator_concurrency
                # Backpressure on the GEN -> EVAL queue: each in-flight GEN
                # will enqueue up to k evaluations, so space is reserved at
                # start. Not applied under stage-sync, where the barrier
                # already serializes the stages and blocking producers
                # would deadlock against it.
                gen_open = llm_open and (
                    stage_sync
                    or len(eval_queue) + (gen_inflight + 1) * cfg.k <= cfg.queue_capacity
                )
                # By stage: ANLZ, GEN, EVAL, AGG.
                is_open = (None, llm_open, gen_open, eval_inflight < cfg.eval_concurrency, True)
                best = None
                for stage, heap in lanes:
                    if not heap or not is_open[stage]:
                        continue
                    while heap and heap[0] <= cursor:
                        aside.append((heap, heapq.heappop(heap)))
                    if heap and (best is None or heap[0] < best[0]):
                        best = heap
                if best is None:
                    break
                cursor = heapq.heappop(best)
                task = cursor if schedule_rng is None else cursor[1]
                if task.stage is Stage.EVAL:
                    eval_inflight += 1
                elif task.stage is not Stage.AGG:
                    llm_inflight += 1
                    if llm_inflight > led.max_llm_inflight:
                        led.max_llm_inflight = llm_inflight
                    if task.stage is Stage.GEN:
                        gen_inflight += 1
                        if gen_inflight > led.max_gen_inflight:
                            led.max_gen_inflight = gen_inflight
                timeless = replayed and task in replayed  # a replayed task takes no time
                duration = 0.0 if timeless else latency.duration(led.seed, task)
                heapq.heappush(running, (led.clock + duration, next(start_order), task))
            for heap, passed_over in aside:
                heapq.heappush(heap, passed_over)

            if not running:
                if not any(ready.values()):
                    break
                if stage_sync and not lanes[0][1] and wave + 1 < len(cycle):
                    wave += 1
                    lanes = [(cycle[wave], ready[cycle[wave]])]
                    continue
                raise stalled("ready tasks cannot acquire resources")

            finish, _, task = heapq.heappop(running)
            if finish > led.clock:
                led.clock = finish
            last[task.sample_index] = task
            for followup in self._followups(led, task, evals_left):
                make_ready(followup)
            if cfg.record_trace:
                events.append(_stage_event(led, task, len(events)))
            if task.stage in (Stage.ANLZ, Stage.GEN):
                llm_inflight -= 1
                if task.stage is Stage.GEN:
                    gen_inflight -= 1
                    if len(eval_queue) > led.max_eval_queue:
                        led.max_eval_queue = len(eval_queue)
            elif task.stage is Stage.EVAL:
                eval_inflight -= 1

        if any(task is None or task.stage is not Stage.AGG for task in last):
            raise stalled("run incomplete but no tasks remain")
        led.events = tuple(events)

    def _followups(self, led: RunLedger, task: Task, evals_left: list[int]) -> list[Task]:
        """The tasks that `task`'s completion makes ready, read from the
        recorded results: after GEN, the round's candidate attempts; after a
        round's last EVAL, or a GEN without candidates, the next round's
        ANLZ or the sample's AGG. Keeps `evals_left` by sample index."""
        stage, i, sid, r = task.stage, task.sample_index, task.sample_id, task.round_index
        if stage is Stage.ANLZ:
            return [Task(i, r, Stage.GEN, -1, sid)]
        if stage is Stage.AGG:
            return []
        if stage is Stage.GEN:
            attempts = led.rounds[sid, r].candidates
            evals_left[i] = len(attempts)
            if attempts:
                return [Task(i, r, Stage.EVAL, attempt, sid) for attempt in attempts]
        else:
            evals_left[i] -= 1
            if evals_left[i]:
                return []
        if r + 1 < self.config.rounds:
            return [Task(i, r + 1, Stage.ANLZ, -1, sid)]
        return [Task(i, r, Stage.AGG, -1, sid)]


def _stage_event(led: RunLedger, task: Task, logical_time: int) -> Event:
    """A task's trace event at completion; the payload is read from the recorded results."""
    sid, r = task.sample_id, task.round_index
    payload: dict = {"round": r}
    if task.stage is Stage.AGG:
        payload["best"] = led.best_outcomes[sid].name
    else:
        state = led.rounds[sid, r]
        if task.stage is Stage.ANLZ:
            payload["report_hash"] = state.report.content_hash
        elif task.stage is Stage.GEN:
            payload["n_candidates"] = len(state.candidates)
            payload["n_failed"] = len(state.failures)
        else:
            payload["attempt"] = task.attempt
            payload["level"] = classify_execution(state.records[task.attempt]).name
        payload["replayed"] = task in led.replayed
    return Event(_STAGE_EVENT[task.stage], sid, led.run_id, payload, logical_time, led.clock)


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


def export_trace(result: RunResult, path: str | Path) -> None:
    """Write the ordered event trace as newline-delimited JSON."""
    Path(path).write_text(
        "".join(_JSON.encode(event.to_json()) + "\n" for event in result.trace),
        encoding="utf-8",
    )


@dataclass(frozen=True)
class ReplayCache:
    """Preloaded stage results from a prior run, with the checkpoint hash,
    intervention signature, k and rounds it was recorded under. `entries`
    maps a stage key to its entry file and that file's JSON value, which
    is decoded, and so checked, only when a run replays it."""

    checkpoint_hash: str
    entries: Mapping[str, tuple[Path, object]] = field(repr=False)
    intervention_signature: str
    k: int
    rounds: int

    def filter(self, kinds: Iterable[str]) -> "ReplayCache":
        """Keep only the given stage kinds (e.g. {"anlz"})."""
        wanted = set(kinds)
        return replace(self, entries={
            key: entry for key, entry in self.entries.items()
            if isinstance(entry[1], dict) and entry[1].get("kind") in wanted
        })


def archive_run(result: RunResult, directory: str | Path) -> None:
    """Persist a completed run's stage results as content-addressed files."""
    led = result.ledger
    base = Path(directory)
    entries_dir = base / "entries"
    entries_dir.mkdir(parents=True, exist_ok=True)
    index: dict[str, str] = {}
    blobs: dict[str, str] = {}  # stages with equal payloads share one file
    for stage_key, payload in led.archive_entries().items():
        blob = _JSON.encode(payload)
        name = "%016x.json" % derive_seed(0, "entry", blob)
        blobs[name] = blob
        index[stage_key] = name
    for name, blob in blobs.items():
        (entries_dir / name).write_text(blob, encoding="utf-8")
    manifest = {
        "format_version": ARCHIVE_FORMAT_VERSION,
        "run_id": result.run_id,
        "checkpoint_hash": led.checkpoint_hash,
        "intervention_signature": led.intervention_signature,
        "seed": led.seed,
        "k": led.config.k,
        "rounds": led.config.rounds,
    }
    (base / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    (base / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True), encoding="utf-8"
    )


def _read_archive_json(path: Path, kind: type = object):
    """One archive file's JSON value, which must be a `kind`."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # missing, unreadable, not UTF-8, not JSON
        raise ReplayArchiveError(f"cannot read replay archive file {path}: {exc}") from exc
    if not isinstance(value, kind):
        raise ReplayArchiveError(f"replay archive file {path} must hold a JSON {kind.__name__}")
    return value


def _require_type(path: Path, what: str, value: object, kind: type) -> None:
    """A value read from an archive file must be a `kind`; a bool is no int."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ReplayArchiveError(
            f"replay archive file {path}: {what} must be of type {kind.__name__}, not {value!r}"
        )


def replay_load(
    directory: str | Path, checkpoint: GenerationCheckpoint
) -> ReplayCache:
    """Load a replay archive, refusing checkpoints it was not recorded on.
    A missing or unparsable manifest, index or entry file, a manifest
    without one of its keys, with a value of the wrong type or of another
    format version, and an index value that is not a file name, raise
    ReplayArchiveError naming the file."""
    base = Path(directory)
    manifest_path = base / "manifest.json"
    manifest = _read_archive_json(manifest_path, dict)
    keys = {"format_version": int, "checkpoint_hash": str, "intervention_signature": str,
            "k": int, "rounds": int}
    missing = [key for key in keys if key not in manifest]
    if missing:
        raise ReplayArchiveError(f"replay archive file {manifest_path} lacks {missing}")
    for key, kind in keys.items():
        _require_type(manifest_path, key, manifest[key], kind)
    version, recorded, signature, k, rounds = (manifest[key] for key in keys)
    if version != ARCHIVE_FORMAT_VERSION:
        raise ReplayArchiveError(
            f"replay archive file {manifest_path} has format_version {version}, not {ARCHIVE_FORMAT_VERSION}"
        )
    actual = checkpoint.checkpoint_hash
    if recorded != actual:
        raise ReplayMismatchError(
            "replay archive checkpoint hash mismatch "
            f"({recorded[:12]} != {actual[:12]}); refusing to mix trajectories"
        )
    index_path = base / "index.json"
    index = _read_archive_json(index_path, dict)
    for name in index.values():
        _require_type(index_path, "an entry file name", name, str)
    payloads = {}
    for name in dict.fromkeys(index.values()):
        path = base / "entries" / name
        payloads[name] = (path, _read_archive_json(path))
    return ReplayCache(
        recorded, {stage_key: payloads[name] for stage_key, name in index.items()},
        signature, k, rounds,
    )


def _report_from_json(data: Mapping) -> Report:
    artifacts = []
    for item in data["artifacts"]:
        comp = item["component"]
        artifacts.append(
            FeedbackArtifact(
                component=FeedbackComponent(int(comp["id"]), comp["name"], comp.get("short", "")),
                representation=Representation(item["representation"]),
                payload=item["payload"],
                source_sample=item["source_sample"],
            )
        )
    return Report(
        sample_id=data["sample_id"],
        coalition=Coalition(int(data["coalition_mask"])),
        artifacts=tuple(artifacts),
        plan_slot=data.get("plan_slot"),
    )


def _report_to_json(report: Report) -> dict:
    return {
        "sample_id": report.sample_id,
        "coalition_mask": report.coalition.mask,
        "plan_slot": report.plan_slot,
        "artifacts": [
            {
                "component": {
                    "id": a.component.id,
                    "name": a.component.name,
                    "short": a.component.short,
                },
                "representation": a.representation.value,
                "payload": a.payload,
                "source_sample": a.source_sample,
            }
            for a in report.artifacts
        ],
    }


# -- archive codec ---------------------------------------------------------------
# One archive payload per ANLZ, GEN and EVAL stage. Each encoder takes the
# product the stage's work returns and its decoder, given the run's k, gives
# that product back; `RunLedger.archive_entries` encodes and `_execute`
# decodes on replay, turning a decoder's error on a corrupt entry into
# ReplayArchiveError.


def _encode_anlz(product: tuple[Report, PlanArtifact | None]) -> dict:
    report, plan = product
    return {
        "kind": "anlz",
        "report": _report_to_json(report),
        "plan": asdict(plan) if plan else None,
    }


def _decode_anlz(entry: Mapping, k: int) -> tuple[Report, PlanArtifact | None]:
    plan = entry.get("plan")
    return _report_from_json(entry["report"]), PlanArtifact(**plan) if plan else None


def _encode_gen(product: tuple[Iterable[Candidate], list[tuple[int, str]]]) -> dict:
    candidates, failures = product
    return {
        "kind": "gen",
        "candidates": [c.to_json() for c in candidates],
        "failures": [[a, n] for a, n in failures],
    }


def _decode_gen(entry: Mapping, k: int) -> tuple[list[Candidate], list[tuple[int, str]]]:
    candidates = [Candidate.from_json(c) for c in entry["candidates"]]
    failures = [(int(a), str(n)) for a, n in entry.get("failures", [])]
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


_DECODE = {Stage.ANLZ: _decode_anlz, Stage.GEN: _decode_gen, Stage.EVAL: _decode_eval}
