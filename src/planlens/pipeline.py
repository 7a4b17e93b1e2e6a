"""Sample-centric, event-driven execution of feedback interventions.

A run replays one frozen generation checkpoint under one intervention
(coalition x representation x plan handling). Samples advance
independently: feedback construction triggers prompting, prompting fans
out to k evaluations, and evaluations fan in to an online, commutative
aggregation. Scheduling is an explicit simulated-clock event loop with
three policies (serial, stage-sync barriers, multi-async), so schedule
permutations are first-class and order independence is testable rather
than assumed.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, replace
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Mapping

from .agents import (
    AgentBundle,
    Candidate,
    GeneratorAttemptError,
    LatencyParams,
    MockBehavior,
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
)
from .seeding import SeedPrefix, derive_seed, hash_uniform, rng_for
from .trajectory import (
    ExecutionRecord,
    GenerationCheckpoint,
    GenerationStats,
    OutcomeLevel,
    classify_execution,
    stats_from_outcomes,
)

logger = logging.getLogger(__name__)

ARCHIVE_FORMAT_VERSION = 1


class PipelineConfigError(ValueError):
    """The run was misconfigured; no work was started."""


class ReplayMismatchError(ValueError):
    """Replay archive does not match the submitted checkpoint."""


class PipelineStalledError(RuntimeError):
    """No event progress; carries a diagnostic dump of the run state."""

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

# A sample's state in `RunLedger.dump` while the stage runs: (round, attempt).
_STAGE_STATE = {
    Stage.ANLZ: "analyzing r{0}",
    Stage.GEN: "generating r{0}",
    Stage.EVAL: "evaluating r{0}#{1}",
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
    watchdog_seconds: float = 60.0
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
    INJECTED = "injected"  # a provided plan artifact replaces the planner


@dataclass(frozen=True)
class Intervention:
    coalition: Coalition = Coalition(0)
    representation: Representation = Representation.RAW
    plan_mode: PlanMode = PlanMode.SELF
    injected_plan: PlanArtifact | None = None
    permutation: Mapping[str, str] | None = None  # randomized-feedback donors

    def signature(self) -> str:
        perm = (
            tuple(sorted(self.permutation.items())) if self.permutation else ()
        )
        injected = (
            (self.injected_plan.producer_tag, self.injected_plan.text)
            if self.injected_plan
            else None
        )
        return str(
            (
                self.coalition.mask,
                self.representation.value,
                self.plan_mode.value,
                injected,
                perm,
            )
        )


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
    if game == "plan-feedback":
        feedback_on = bool(coalition.mask & 1)
        plan_on = bool(coalition.mask & 2)
        return Intervention(
            coalition=full if feedback_on else Coalition(0),
            representation=representation,
            plan_mode=PlanMode.SELF if plan_on else PlanMode.NONE,
        )
    if game == "plan-summary":
        summary_on = bool(coalition.mask & 1)
        plan_on = bool(coalition.mask & 2)
        return Intervention(
            coalition=full,
            representation=(
                Representation.SUMMARIZED if summary_on else Representation.RAW
            ),
            plan_mode=PlanMode.SELF if plan_on else PlanMode.NONE,
        )
    raise PipelineConfigError(f"unknown game {game!r}")


@dataclass(frozen=True)
class Task:
    stage: Stage
    sample_index: int
    sample_id: str
    round_index: int
    attempt: int = -1

    def sort_key(self) -> tuple:
        return (self.sample_index, self.round_index, int(self.stage), self.attempt)


class Disposition(Enum):
    DUPLICATE = "duplicate"
    PENDING = "pending"
    ROUND_COMPLETE = "round_complete"


class FanIn:
    """Commutative per-sample fan-in state.

    Recording is idempotent (keyed by sample/round/attempt) and the final
    fold over best outcomes is order independent, so any interleaving of
    evaluation completions yields the same statistics.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.outcomes: dict[str, dict[tuple[int, int], OutcomeLevel]] = {}
        self.notes: dict[str, list[str]] = {}
        self._pending: dict[tuple[str, int], int] = {}
        self._expected: set[tuple[str, int]] = set()

    def record_failure(
        self, sample_id: str, round_index: int, attempt: int, note: str
    ) -> None:
        self.outcomes.setdefault(sample_id, {})[(round_index, attempt)] = (
            OutcomeLevel.FAILED
        )
        self.notes.setdefault(sample_id, []).append(note)

    def expect_evals(self, sample_id: str, round_index: int, count: int) -> None:
        key = (sample_id, round_index)
        if key in self._expected:
            raise RuntimeError(f"round {key} already registered")
        self._expected.add(key)
        self._pending[key] = count

    def record_eval(
        self, sample_id: str, round_index: int, attempt: int, level: OutcomeLevel
    ) -> Disposition:
        key = (round_index, attempt)
        per_sample = self.outcomes.setdefault(sample_id, {})
        if key in per_sample:
            return Disposition.DUPLICATE
        per_sample[key] = level
        pending_key = (sample_id, round_index)
        self._pending[pending_key] -= 1
        if self._pending[pending_key] > 0:
            return Disposition.PENDING
        return Disposition.ROUND_COMPLETE

    def best_outcome(self, sample_id: str) -> OutcomeLevel:
        levels = self.outcomes.get(sample_id, {}).values()
        return max(levels, default=OutcomeLevel.FAILED)


@dataclass
class _RoundState:
    """One (sample, round)'s stage results, as the stages produced them."""

    report: Report | None = None
    plan: PlanArtifact | None = None
    candidates: dict[int, Candidate] = field(default_factory=dict)
    failures: list[tuple[int, str]] | None = None  # None until GEN completes
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
        self.checkpoint_hash = checkpoint.checkpoint_hash
        self.intervention = intervention
        self.intervention_signature = intervention.signature()
        self.config = config
        self.seed = seed
        self._stage_prefix = SeedPrefix(
            0,
            "stage",
            self.checkpoint_hash,
            self.intervention_signature,
            seed,
            config.k,
            config.rounds,
        )
        self.replay = replay
        self.samples_by_id = {s.sample_id: s for s in checkpoint.samples}
        self.fan_in = FanIn(config.rounds)
        self.rounds: dict[tuple[str, int], _RoundState] = {}
        self.sample_state: dict[str, str] = {}
        self.aggregated: set[str] = set()
        self.best_outcomes: dict[str, OutcomeLevel] = {}
        self.events: list[Event] = []
        self.event_counts: dict[EventKind, int] = {kind: 0 for kind in EventKind}
        self.replay_hits = 0
        self.clock = 0.0
        self.stats: GenerationStats | None = None
        self.max_llm_inflight = 0
        self.max_gen_inflight = 0
        self.max_eval_queue = 0
        self.sample_spans: dict[str, list[tuple[float, float]]] = {}
        self._logical = itertools.count()
        self.done = False

    def emit(self, kind: EventKind, sample_id: str, payload: Mapping) -> None:
        logical_time = next(self._logical)
        self.event_counts[kind] += 1
        if self.config.record_trace:
            self.events.append(
                Event(kind, sample_id, self.run_id, payload, logical_time, self.clock)
            )

    def round_state(self, sample_id: str, round_index: int) -> _RoundState:
        return self.rounds.setdefault((sample_id, round_index), _RoundState())

    def stage_key(self, stage: Stage, sample_id: str, round_index: int, attempt: int = -1) -> str:
        """Archive key: derive_seed(0, "stage", checkpoint hash, intervention
        signature, seed, k, rounds, stage name, sample, round, attempt)."""
        return "%016x" % self._stage_prefix.derive(
            stage.name, sample_id, round_index, attempt
        )

    def replay_entry(
        self, stage: Stage, sample_id: str, round_index: int, attempt: int = -1
    ) -> dict | None:
        """The replay archive's payload for this stage, if there is one."""
        if self.replay is None:
            return None
        return self.replay.get(self.stage_key(stage, sample_id, round_index, attempt))

    def archive_entries(self) -> dict[str, dict]:
        """Stage key -> archive payload for every completed stage, replayed
        stages included; `archive_run` writes these."""
        entries: dict[str, dict] = {}
        for (sid, r), state in self.rounds.items():
            if state.report is not None:
                entries[self.stage_key(Stage.ANLZ, sid, r)] = _encode_anlz(
                    (state.report, state.plan)
                )
            if state.failures is not None:
                entries[self.stage_key(Stage.GEN, sid, r)] = _encode_gen(
                    (state.candidates.values(), state.failures)
                )
            for attempt, record in state.records.items():
                entries[self.stage_key(Stage.EVAL, sid, r, attempt)] = _encode_eval(
                    record
                )
        return entries

    def dump(self, ready: int, running: int) -> str:
        lines = [
            f"run {self.run_id} clock={self.clock:.3f}",
            f"ready={ready} running={running} "
            f"aggregated={len(self.aggregated)}/{len(self.checkpoint.samples)}",
        ]
        for sid, state in sorted(self.sample_state.items()):
            lines.append(f"  sample {sid}: {state}")
        return "\n".join(lines)


@dataclass(frozen=True)
class RunResult:
    run_id: str
    stats: GenerationStats
    trace: tuple[Event, ...]
    makespan: float
    event_counts: Mapping[EventKind, int]
    max_gen_inflight: int
    max_eval_queue: int
    programs: int
    sample_idle: Mapping[str, float]

    @property
    def programs_per_hour(self) -> float:
        if self.makespan <= 0:
            return float("inf") if self.programs else 0.0
        return self.programs / self.makespan * 3600.0


class LatencyModel:
    """Simulated task duration: mean + tail * Exp(1), keyed by task identity."""

    def __init__(self, seed: int = 0, params: Mapping[str, LatencyParams] | None = None):
        self.seed = seed
        self.params = dict(params or {})

    def duration(self, run_seed: int, task: Task) -> float:
        if task.stage is Stage.AGG:
            return 0.0
        p = self.params.get(task.stage.name.lower(), LatencyParams())
        u = hash_uniform(
            self.seed,
            "latency",
            run_seed,
            task.stage.name,
            task.sample_id,
            task.round_index,
            task.attempt,
        )
        return p.mean + p.tail * -math.log(1.0 - u)

    @classmethod
    def from_behavior(cls, behavior: MockBehavior) -> "LatencyModel":
        return cls(seed=behavior.seed, params=dict(behavior.latency))


DEFAULT_LATENCIES = {
    "anlz": LatencyParams(mean=2.0, tail=2.0),
    "gen": LatencyParams(mean=4.0, tail=3.0),
    "eval": LatencyParams(mean=1.0, tail=1.0),
}


class _RepresentationSource:
    """Serves the requested representation, deriving it from raw feedback.

    Formatted output is a local deterministic transform; summarized output
    goes through the summarizer agent exactly once per distinct raw
    artifact (content-addressed cache).
    """

    def __init__(self, inner: ArtifactSource, summarizer, cache: Memo):
        self._inner = inner
        self._summarizer = summarizer
        self._cache = cache

    def get(self, sample_id, component, representation):
        direct = self._inner.get(sample_id, component, representation)
        if direct is not None or representation is Representation.RAW:
            return direct
        raw = self._inner.get(sample_id, component, Representation.RAW)
        if raw is None:
            return None
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
        latency_model: LatencyModel | None = None,
    ):
        import threading

        self.agents = agents
        self.artifact_source = artifact_source
        self.players = players or default_components()
        self.config = config or PipelineConfig()
        self.config.validate()
        self.latency_model = latency_model or LatencyModel(
            seed=self.config.seed, params=DEFAULT_LATENCIES
        )
        self._ledgers: dict[str, RunLedger] = {}
        self._active: set[str] = set()
        self._lock = threading.Lock()
        self._summary_cache = Memo()
        self._run_counter = itertools.count()

    # -- run lifecycle -------------------------------------------------------

    def set_agents(self, agents: AgentBundle) -> None:
        """Rebinding agents is rejected while any run is in flight."""
        with self._lock:
            if self._active:
                raise PipelineConfigError(
                    "agent configuration is frozen while runs are active"
                )
            self.agents = agents

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
        if intervention.plan_mode is PlanMode.INJECTED and not intervention.injected_plan:
            raise PipelineConfigError("plan_mode=injected requires injected_plan")
        if replay is not None and replay.checkpoint_hash != checkpoint.checkpoint_hash:
            raise ReplayMismatchError(
                "replay archive was recorded on a different checkpoint "
                f"({replay.checkpoint_hash[:12]} != "
                f"{checkpoint.checkpoint_hash[:12]})"
            )
        effective_seed = self.config.seed if seed is None else seed
        with self._lock:
            run_id = f"run-{next(self._run_counter):04d}-{os.getpid()}"
            ledger = RunLedger(
                run_id,
                checkpoint,
                intervention,
                self.config,
                effective_seed,
                replay,
            )
            self._ledgers[run_id] = ledger
            self._active.add(run_id)
        for index, sample in enumerate(checkpoint.samples):
            ledger.sample_state[sample.sample_id] = "loaded"
            ledger.emit(EventKind.SAMPLE_LOADED, sample.sample_id, {"index": index})
        return run_id

    def ledger(self, run_id: str) -> RunLedger:
        return self._ledgers[run_id]

    def run_to_completion(self, run_id: str) -> RunResult:
        ledger = self._ledgers[run_id]
        if ledger.done:
            raise PipelineConfigError(f"run {run_id} already completed")
        try:
            self._drive(ledger)
        finally:
            with self._lock:
                self._active.discard(run_id)
        after = ledger.checkpoint.checkpoint_hash
        if after != ledger.checkpoint_hash:
            raise CheckpointMutatedError(
                f"checkpoint hash changed during run {run_id}"
            )
        ledger.done = True
        outcomes = [
            ledger.best_outcomes[s.sample_id]
            for s in ledger.checkpoint.samples
        ]
        budget = self.config.k * self.config.rounds
        ledger.stats = stats_from_outcomes(ledger.checkpoint.g, outcomes, budget)
        programs = sum(len(state.candidates) for state in ledger.rounds.values())
        programs += sum(map(len, ledger.fan_in.notes.values()))
        return RunResult(
            run_id=run_id,
            stats=ledger.stats,
            trace=tuple(ledger.events),
            makespan=ledger.clock,
            event_counts=dict(ledger.event_counts),
            max_gen_inflight=ledger.max_gen_inflight,
            max_eval_queue=ledger.max_eval_queue,
            programs=programs,
            sample_idle=self._idle_by_sample(ledger),
        )

    # -- scheduling ------------------------------------------------------------

    def _drive(self, led: RunLedger) -> None:
        cfg = self.config
        stage_sync = cfg.execution_mode is ExecutionMode.STAGE_SYNC
        serial = cfg.execution_mode is ExecutionMode.SERIAL
        schedule_rng = (
            rng_for(cfg.schedule_seed, "schedule", led.run_id)
            if cfg.schedule_seed is not None
            else None
        )
        wave_order = self._wave_order()
        wave_index = 0
        # Ready tasks: one heap of (key, task) per (round_index, stage). The
        # key is Task.sort_key, or under schedule_seed a random priority
        # drawn once when the task becomes ready.
        buckets: dict[tuple[int, Stage], list] = {wave: [] for wave in wave_order}

        def lanes_for(index: int) -> list[tuple[Stage, list]]:
            """The buckets a scan may start tasks from."""
            if stage_sync:
                wave = wave_order[index]
                return [(wave[1], buckets[wave])]
            return [(stage, heap) for (_, stage), heap in buckets.items()]

        def make_ready(task: Task) -> None:
            key = task.sort_key()
            if schedule_rng is not None:
                key = (schedule_rng.random(), key)
            heapq.heappush(buckets[task.round_index, task.stage], (key, task))

        def stalled(message: str) -> PipelineStalledError:
            ready = sum(len(heap) for heap in buckets.values())
            return PipelineStalledError(message, led.dump(ready, len(running)))

        lanes = lanes_for(wave_index)
        # (finish, start order, task, replayed, product, started_at)
        running: list[tuple] = []
        start_order = itertools.count()
        llm_inflight = 0
        gen_inflight = 0
        eval_inflight = 0
        eval_queued = 0
        for index, sample in enumerate(led.checkpoint.samples):
            make_ready(Task(Stage.ANLZ, index, sample.sample_id, round_index=0))
        last_progress = time.monotonic()

        while True:
            # A scan visits ready tasks in key order and starts each one
            # whose class is open. Openness changes only when a task starts,
            # so the scan pops the smallest key above the cursor among the
            # open buckets. Entries at or below the cursor in a bucket that
            # reopened were passed over while it was closed: they are set
            # aside until the scan ends.
            cursor = ()  # sorts before every key
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
                    or eval_queued + (gen_inflight + 1) * cfg.k <= cfg.queue_capacity
                )
                is_open = (
                    None,
                    llm_open,  # ANLZ
                    gen_open,  # GEN
                    eval_inflight < cfg.eval_concurrency,  # EVAL
                    True,  # AGG
                )
                best = None
                for stage, heap in lanes:
                    if not heap or not is_open[stage]:
                        continue
                    while heap and heap[0][0] <= cursor:
                        aside.append((heap, heapq.heappop(heap)))
                    if heap and (best is None or heap[0][0] < best[0][0]):
                        best = heap
                if best is None:
                    break
                cursor, task = heapq.heappop(best)
                if task.stage is Stage.EVAL:
                    eval_inflight += 1
                    eval_queued -= 1
                elif task.stage is not Stage.AGG:
                    llm_inflight += 1
                    led.max_llm_inflight = max(led.max_llm_inflight, llm_inflight)
                    if task.stage is Stage.GEN:
                        gen_inflight += 1
                        led.max_gen_inflight = max(led.max_gen_inflight, gen_inflight)
                # The agent call happens at task start; its results become
                # visible to the rest of the run only at completion time.
                replayed, product = self._execute(led, task)
                duration = (
                    0.0 if replayed else self.latency_model.duration(led.seed, task)
                )
                finish = led.clock + duration
                entry = (finish, next(start_order), task, replayed, product, led.clock)
                heapq.heappush(running, entry)
            for heap, passed_over in aside:
                heapq.heappush(heap, passed_over)

            if not running:
                if not any(buckets.values()):
                    break
                if (
                    stage_sync
                    and not buckets[wave_order[wave_index]]
                    and wave_index + 1 < len(wave_order)
                ):
                    wave_index += 1
                    lanes = lanes_for(wave_index)
                    continue
                raise stalled("ready tasks cannot acquire resources")

            finish, _, task, replayed, product, started_at = heapq.heappop(running)
            led.clock = max(led.clock, finish)
            led.sample_spans.setdefault(task.sample_id, []).append(
                (started_at, finish)
            )
            followups = self._commit(led, task, replayed, product)
            for followup in followups:
                make_ready(followup)
            if task.stage in (Stage.ANLZ, Stage.GEN):
                llm_inflight -= 1
                if task.stage is Stage.GEN:
                    gen_inflight -= 1
                    # Its follow-ups are all EVALs or one round-end task.
                    if followups[0].stage is Stage.EVAL:
                        eval_queued += len(followups)
                        led.max_eval_queue = max(led.max_eval_queue, eval_queued)
            elif task.stage is Stage.EVAL:
                eval_inflight -= 1

            now = time.monotonic()
            if now - last_progress > cfg.watchdog_seconds:
                raise stalled(
                    f"no event progress for {now - last_progress:.1f}s "
                    f"(watchdog {cfg.watchdog_seconds}s)"
                )
            last_progress = now

        if len(led.aggregated) < len(led.checkpoint.samples):
            raise stalled("run incomplete but no tasks remain")

    def _wave_order(self) -> list[tuple[int, Stage]]:
        order: list[tuple[int, Stage]] = []
        for r in range(self.config.rounds):
            order.extend([(r, Stage.ANLZ), (r, Stage.GEN), (r, Stage.EVAL)])
        order.append((self.config.rounds - 1, Stage.AGG))
        return order

    def _idle_by_sample(self, led: RunLedger) -> dict[str, float]:
        idle: dict[str, float] = {}
        for sid, spans in led.sample_spans.items():
            spans = sorted(spans)
            gap = 0.0
            for (_, end_prev), (start_next, _) in zip(spans, spans[1:]):
                if start_next > end_prev:
                    gap += start_next - end_prev
            idle[sid] = gap
        return idle

    # -- task effects ------------------------------------------------------------

    def _execute(self, led: RunLedger, task: Task) -> tuple[bool, object]:
        """Start a task: decode its product from the replay archive, or do
        its work (agent calls). Returns (replayed, product); no ledger
        state transitions."""
        stage, sid, r = task.stage, task.sample_id, task.round_index
        if stage is Stage.AGG:
            return False, None
        led.sample_state[sid] = _STAGE_STATE[stage].format(r, task.attempt)
        entry = led.replay_entry(stage, sid, r, task.attempt)
        if entry is not None:
            led.replay_hits += 1
            return True, _DECODE[stage](entry)
        if stage is Stage.ANLZ:
            intervention = led.intervention
            source: ArtifactSource = self.artifact_source
            if intervention.permutation:
                source = PermutedArtifactSource(source, intervention.permutation)
            report = build_report(
                sid,
                intervention.coalition,
                intervention.representation,
                _RepresentationSource(
                    source, self.agents.summarizer, self._summary_cache
                ),
                self.players,
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
            elif intervention.plan_mode is PlanMode.INJECTED:
                plan = intervention.injected_plan
            if plan is not None:
                report = replace(report, plan_slot=plan.text)
            return False, (report, plan)
        state = led.rounds[sid, r]
        if stage is Stage.GEN:
            outputs = self.agents.generator.generate(
                led.samples_by_id[sid],
                state.report,
                state.plan,
                self.config.k,
                run_seed=led.seed,
                round_index=r,
            )
            candidates, failures = [], []
            for attempt, item in enumerate(outputs):
                if isinstance(item, GeneratorAttemptError):
                    failures.append((attempt, str(item)))
                else:
                    candidates.append(item)
            return False, (candidates, failures)
        try:
            return False, self.agents.evaluator.evaluate(state.candidates[task.attempt])
        except Exception as exc:  # noqa: BLE001 - crash becomes a Failed record
            return False, crash_record(str(exc))

    def _commit(
        self, led: RunLedger, task: Task, replayed: bool, product: object
    ) -> list[Task]:
        """Apply a completed task's product and emit its event; returns the
        follow-up tasks."""
        stage, sid, r = task.stage, task.sample_id, task.round_index
        payload: dict = {"round": r}
        if stage is Stage.ANLZ:
            state = led.round_state(sid, r)
            state.report, state.plan = product
            payload["report_hash"] = state.report.content_hash
            followups = [Task(Stage.GEN, task.sample_index, sid, r)]
        elif stage is Stage.GEN:
            candidates, failures = product
            state = led.rounds[sid, r]
            for cand in candidates:
                state.candidates[cand.attempt] = cand
            state.failures = failures
            for attempt, note in failures:
                led.fan_in.record_failure(sid, r, attempt, note)
            led.fan_in.expect_evals(sid, r, len(candidates))
            payload["n_candidates"] = len(candidates)
            payload["n_failed"] = len(failures)
            followups = [
                Task(Stage.EVAL, task.sample_index, sid, r, cand.attempt)
                for cand in candidates
            ] or [self._after_round(task)]
        elif stage is Stage.EVAL:
            led.rounds[sid, r].records[task.attempt] = product
            level = classify_execution(product)
            payload["attempt"] = task.attempt
            payload["level"] = level.name
            followups = self._apply_eval(led, task, level)
        else:
            best = led.fan_in.best_outcome(sid)
            payload["best"] = best.name
            followups = []
            if sid in led.aggregated:
                logger.info("duplicate aggregation for %s ignored", sid)
            else:
                led.aggregated.add(sid)
                led.best_outcomes[sid] = best
                led.sample_state[sid] = f"aggregated ({best.name})"
        if stage is not Stage.AGG:
            payload["replayed"] = replayed
        led.emit(_STAGE_EVENT[stage], sid, payload)
        return followups

    def _apply_eval(
        self, led: RunLedger, task: Task, level: OutcomeLevel
    ) -> list[Task]:
        disposition = led.fan_in.record_eval(
            task.sample_id, task.round_index, task.attempt, level
        )
        if disposition is Disposition.DUPLICATE:
            logger.info(
                "duplicate evaluation event for %s r%d#%d ignored",
                task.sample_id,
                task.round_index,
                task.attempt,
            )
            return []
        if disposition is Disposition.PENDING:
            return []
        return [self._after_round(task)]

    def on_eval_complete(self, run_id: str, event: Event) -> list[Task]:
        """Deliver an evaluation-completed event; duplicates are ignored.

        This is the fan-in entry point the engine itself uses; exposing it
        lets tests deliver events out of order or twice.
        """
        if event.kind is not EventKind.EVAL_COMPLETED:
            raise ValueError("expected an EvalCompleted event")
        led = self._ledgers[run_id]
        index = led.checkpoint.sample_ids().index(event.sample_id)
        task = Task(
            Stage.EVAL,
            index,
            event.sample_id,
            int(event.payload["round"]),
            attempt=int(event.payload["attempt"]),
        )
        level = OutcomeLevel[event.payload["level"]]
        return self._apply_eval(led, task, level)

    def _after_round(self, task: Task) -> Task:
        next_round = task.round_index + 1
        if next_round < self.config.rounds:
            return Task(Stage.ANLZ, task.sample_index, task.sample_id, next_round)
        return Task(Stage.AGG, task.sample_index, task.sample_id, task.round_index)


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


def export_trace(result: RunResult, path: str | Path) -> None:
    """Write the ordered event trace as newline-delimited JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for event in result.trace:
            fh.write(json.dumps(event.to_json(), sort_keys=True) + "\n")


class ReplayCache:
    """Preloaded stage results from a prior run on the same checkpoint."""

    def __init__(self, checkpoint_hash: str, entries: Mapping[str, dict]):
        self.checkpoint_hash = checkpoint_hash
        self._entries = dict(entries)

    def get(self, stage_key: str) -> dict | None:
        return self._entries.get(stage_key)

    def __len__(self) -> int:
        return len(self._entries)

    def filter(self, kinds: Iterable[str]) -> "ReplayCache":
        """Keep only the given stage kinds (e.g. {"anlz"})."""
        wanted = set(kinds)
        return ReplayCache(
            self.checkpoint_hash,
            {k: v for k, v in self._entries.items() if v.get("kind") in wanted},
        )


def archive_run(pipe: InterventionPipeline, run_id: str, directory: str | Path) -> None:
    """Persist a completed run's stage results as content-addressed files."""
    led = pipe.ledger(run_id)
    base = Path(directory)
    entries_dir = base / "entries"
    entries_dir.mkdir(parents=True, exist_ok=True)
    index: dict[str, str] = {}
    blobs: dict[str, str] = {}  # stages with equal payloads share one file
    for stage_key, payload in led.archive_entries().items():
        blob = json.dumps(payload, sort_keys=True)
        name = "%016x.json" % derive_seed(0, "entry", blob)
        blobs[name] = blob
        index[stage_key] = name
    for name, blob in blobs.items():
        (entries_dir / name).write_text(blob, encoding="utf-8")
    manifest = {
        "format_version": ARCHIVE_FORMAT_VERSION,
        "run_id": run_id,
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


def replay_load(
    directory: str | Path, checkpoint: GenerationCheckpoint
) -> ReplayCache:
    """Load a replay archive, refusing checkpoints it was not recorded on."""
    base = Path(directory)
    manifest = json.loads((base / "manifest.json").read_text(encoding="utf-8"))
    recorded = manifest["checkpoint_hash"]
    actual = checkpoint.checkpoint_hash
    if recorded != actual:
        raise ReplayMismatchError(
            "replay archive checkpoint hash mismatch "
            f"({recorded[:12]} != {actual[:12]}); refusing to mix trajectories"
        )
    index = json.loads((base / "index.json").read_text(encoding="utf-8"))
    payloads = {
        name: json.loads((base / "entries" / name).read_text(encoding="utf-8"))
        for name in dict.fromkeys(index.values())
    }
    return ReplayCache(
        recorded, {stage_key: payloads[name] for stage_key, name in index.items()}
    )


def _report_from_json(data: Mapping) -> Report:
    artifacts = []
    for item in data["artifacts"]:
        comp = item["component"]
        artifacts.append(
            FeedbackArtifact(
                component=FeedbackComponent(
                    int(comp["id"]), comp["name"], comp.get("short", "")
                ),
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
# product the stage's work returns and its decoder gives that product back;
# `RunLedger.archive_entries` encodes and `_execute` decodes on replay.


def _encode_anlz(product: tuple[Report, PlanArtifact | None]) -> dict:
    report, plan = product
    return {
        "kind": "anlz",
        "report": _report_to_json(report),
        "plan": asdict(plan) if plan else None,
    }


def _decode_anlz(entry: Mapping) -> tuple[Report, PlanArtifact | None]:
    plan = entry.get("plan")
    return _report_from_json(entry["report"]), PlanArtifact(**plan) if plan else None


def _encode_gen(product: tuple[Iterable[Candidate], list[tuple[int, str]]]) -> dict:
    candidates, failures = product
    return {
        "kind": "gen",
        "candidates": [c.to_json() for c in candidates],
        "failures": [[a, n] for a, n in failures],
    }


def _decode_gen(entry: Mapping) -> tuple[list[Candidate], list[tuple[int, str]]]:
    return (
        [Candidate.from_json(c) for c in entry["candidates"]],
        [(int(a), str(n)) for a, n in entry.get("failures", [])],
    )


def _encode_eval(record: ExecutionRecord) -> dict:
    return {"kind": "eval", "record": record.to_json()}


def _decode_eval(entry: Mapping) -> ExecutionRecord:
    return ExecutionRecord.from_json(entry["record"])


_DECODE = {Stage.ANLZ: _decode_anlz, Stage.GEN: _decode_gen, Stage.EVAL: _decode_eval}
