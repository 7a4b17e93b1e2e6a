"""Agent roles: summarizer, planner, generator, evaluator.

Two families of implementations share the same call surfaces: seeded
deterministic mocks for desk-scale verification, and a thin JSON-over-HTTP
chat adapter for real language-model backends. Mocks encode causal
structure (coalition -> outcome-probability deltas) rather than canned
transcripts, so attribution tests can recover planted effects.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

from .feedback import Coalition, FeedbackArtifact, Memo, Report, Representation, read_asset
# `hash_uniform` stays importable here: perfbench/tracing.py wraps it by name.
from .seeding import SeedPrefix, hash_uniform  # noqa: F401
from .trajectory import ExecutionRecord, ListOf, NoneType, OutcomeLevel, Required, Sample, check_json

logger = logging.getLogger(__name__)


class Role(Enum):
    SUMMARIZER = "summarizer"
    PLANNER = "planner"
    GENERATOR = "generator"
    EVALUATOR = "evaluator"


@dataclass(frozen=True)
class DecodingConfig:
    temperature: float = 0.0
    max_tokens: int = 4096
    seed: int = 0


@dataclass(frozen=True)
class AgentRole:
    """Fixed per-experiment binding of a role to a model and its decoding;
    the prompt is the role's packaged template (`load_prompt`)."""

    role: Role
    model_tag: str = "mock"
    decoding: DecodingConfig = DecodingConfig()


@dataclass(frozen=True)
class PlanArtifact:
    """An immutable plan, reusable across generations and models."""

    text: str
    producer_tag: str
    generation_context_hash: str = ""


class RetryableAgentError(RuntimeError):
    """A backend call failed after the configured number of attempts."""

    def __init__(self, message: str, attempts: int):
        super().__init__(f"{message} (after {attempts} attempts)")
        self.attempts = attempts


class GeneratorAttemptError(RuntimeError):
    """One generation attempt failed; other attempts are unaffected."""


# -- mock behavior -----------------------------------------------------------


@dataclass(frozen=True)
class Effect:
    """Probability delta applied when `requires` is a subset of the coalition."""

    requires: int
    level: OutcomeLevel
    delta: float


@dataclass(frozen=True)
class LatencyParams:
    """Simulated latency: mean + tail * Exp(1), per stage draw."""

    mean: float = 1.0
    tail: float = 0.5


# Every pipeline's simulated stage latencies, unless its behaviour sets its own.
DEFAULT_LATENCIES = {
    "anlz": LatencyParams(mean=2.0, tail=2.0),
    "gen": LatencyParams(mean=4.0, tail=3.0),
    "eval": LatencyParams(mean=1.0, tail=1.0),
}


_EFFECT = {"requires": Required(int), "level": Required(str), "delta": Required(float)}
# An experiment config's `agents.behavior`; a producer effect may leave out
# `requires` (0: it applies under every coalition).
BEHAVIOR_SCHEMA = {
    "seed": int,
    "base_compiled": float,
    "base_pass": float,
    "base_fast": float,
    "effects": ListOf(_EFFECT),
    "producer_effects": {str: ListOf({**_EFFECT, "requires": int})},
    "latency": {stage: {"mean": Required(float), "tail": Required(float)} for stage in DEFAULT_LATENCIES},
}


@dataclass(frozen=True)
class MockBehavior:
    """Causal table driving every mock draw.

    base_rates are per-attempt probabilities P(outcome >= level); effects
    shift them per coalition; producer_effects shift them per plan
    producer tag. The level chain p_fast <= p_pass <= p_compiled is
    enforced by clamping (with a warning) after all deltas apply. latency
    sets the stage durations of every pipeline that runs this behaviour.
    """

    seed: int = 0
    base_compiled: float = 0.6
    base_pass: float = 0.35
    base_fast: float = 0.15
    effects: tuple[Effect, ...] = ()
    producer_effects: Mapping[str, tuple[Effect, ...]] = field(default_factory=dict)
    latency: Mapping[str, LatencyParams] = field(default_factory=dict)

    def probabilities(
        self, coalition: Coalition, producer_tag: str | None = None
    ) -> tuple[float, float, float]:
        """(p_compiled, p_pass, p_fast) for one attempt under a coalition."""
        probs = {
            OutcomeLevel.COMPILED: self.base_compiled,
            OutcomeLevel.PASS: self.base_pass,
            OutcomeLevel.FAST: self.base_fast,
        }
        for effect in self.effects:
            if coalition.contains_mask(effect.requires):
                probs[effect.level] += effect.delta
        if producer_tag is not None:
            for effect in self.producer_effects.get(producer_tag, ()):
                if coalition.contains_mask(effect.requires):
                    probs[effect.level] += effect.delta
        p_c = min(max(probs[OutcomeLevel.COMPILED], 0.0), 1.0)
        p_p = min(max(probs[OutcomeLevel.PASS], 0.0), 1.0)
        p_f = min(max(probs[OutcomeLevel.FAST], 0.0), 1.0)
        if p_p > p_c or p_f > p_p:
            logger.warning(
                "mock probabilities violate the level chain "
                "(c=%.3f p=%.3f f=%.3f); clamping",
                p_c,
                p_p,
                p_f,
            )
            p_p = min(p_p, p_c)
            p_f = min(p_f, p_p)
        return p_c, p_p, p_f

    @classmethod
    def from_json(cls, data: Mapping) -> "MockBehavior":
        """Read an experiment config's `agents.behavior`; ValueError names a
        key outside BEHAVIOR_SCHEMA, a value of the wrong type or a negative
        latency."""
        check_json(data, BEHAVIOR_SCHEMA, "agents.behavior")
        latency = {stage: LatencyParams(**p) for stage, p in data.get("latency", {}).items()}
        for stage, p in latency.items():
            if p.mean < 0 or p.tail < 0:
                raise ValueError(f"agents.behavior.latency.{stage} needs 'mean' and 'tail' >= 0")

        def effects(entries):
            return tuple(Effect(e.get("requires", 0), OutcomeLevel.parse(e["level"]), e["delta"]) for e in entries)

        return cls(
            **{key: data[key] for key in ("seed", "base_compiled", "base_pass", "base_fast") if key in data},
            effects=effects(data.get("effects", ())),
            producer_effects={tag: effects(entries) for tag, entries in data.get("producer_effects", {}).items()},
            latency=latency,
        )


# One candidate, as `Candidate.to_json` writes it.
CANDIDATE_SCHEMA = {
    "sample_id": Required(str),
    "attempt": Required(int),
    "text": str,
    "quality": Required(float),
    "thresholds": Required(ListOf(float)),
    "plan_tag": (str, NoneType),
}


@dataclass(frozen=True)
class Candidate:
    """One generated program attempt plus its mock grading thresholds."""

    sample_id: str
    attempt: int
    text: str
    quality: float
    thresholds: tuple[float, float, float]  # at-least (compiled, pass, fast)
    plan_tag: str | None = None

    # Fills the fields in one dict update; the generated frozen __init__
    # sets each through object.__setattr__, at twice the cost per candidate.
    def __init__(self, sample_id, attempt, text, quality, thresholds, plan_tag=None):
        vars(self).update(
            sample_id=sample_id, attempt=attempt, text=text, quality=quality, thresholds=thresholds, plan_tag=plan_tag
        )

    def to_json(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "attempt": self.attempt,
            "text": self.text,
            "quality": self.quality,
            "thresholds": list(self.thresholds),
            "plan_tag": self.plan_tag,
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "Candidate":
        """Read a candidate; ValueError names a key outside CANDIDATE_SCHEMA,
        a value of the wrong type, or thresholds that are not three numbers."""
        check_json(data, CANDIDATE_SCHEMA, "candidate")
        if len(data["thresholds"]) != 3:
            raise ValueError(f"candidate key 'thresholds' holds {len(data['thresholds'])} numbers, not 3")
        return cls(
            sample_id=data["sample_id"],
            attempt=data["attempt"],
            text=data.get("text", ""),
            quality=data["quality"],
            thresholds=tuple(data["thresholds"]),
            plan_tag=data.get("plan_tag"),
        )


class _CallCounter:
    """Thread-safe per-agent call counters.

    `calls` counts per-item work (one per artifact or candidate);
    `invocations` counts agent entry points (one per batch request).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0
        self.invocations = 0

    def bump(self) -> None:
        # Once per generate or evaluate call: acquire and release cost about
        # half of what `with self._lock` does.
        self._lock.acquire()
        try:
            self.calls += 1
        finally:
            self._lock.release()

    def begin(self) -> None:
        with self._lock:
            self.invocations += 1


class MockSummarizer(_CallCounter):
    """Derives each summary purely from its input artifact (hash-sealed)."""

    model_tag = "mock-summarizer"

    def summarize(
        self, artifacts: Sequence[FeedbackArtifact]
    ) -> tuple[FeedbackArtifact, ...]:
        self.begin()
        out = []
        for art in artifacts:
            self.bump()
            digest = hashlib.sha256(art.payload.encode()).hexdigest()
            out.append(
                FeedbackArtifact(
                    component=art.component,
                    representation=Representation.SUMMARIZED,
                    payload=f"summary[{art.component.name}:{digest[:16]}]",
                    source_sample=art.source_sample,
                )
            )
        return tuple(out)


class MockPlanner(_CallCounter):
    """Emits a plan whose text encodes the coalition mask for traceability."""

    # Its plan is a function of its report, so a pipeline may compute each
    # report's plan once and reuse it; a planner without this is asked anew.
    deterministic = True
    model_tag = "mock-planner"  # every mock plan's producer_tag

    def plan(self, report: Report) -> PlanArtifact:
        self.bump()
        if report.coalition.mask == 0:
            text = "no-feedback plan"
        else:
            text = f"plan(mask={report.coalition.mask})"
        return PlanArtifact(
            text=text,
            producer_tag=self.model_tag,
            generation_context_hash=report.content_hash,
        )


class MockGenerator(_CallCounter):
    """Produces k candidates with content-keyed quality draws.

    Within one run seed, the uniform draw for (sample, round, attempt)
    does not depend on the coalition; only the grading thresholds do.
    Rollouts under different coalitions do not share random numbers,
    though: each rollout's run seed is derive_seed(seed, "rollout", mask,
    r), so it differs per coalition. Rollouts are therefore independent
    across coalitions, as banzhaf_stderr assumes. The thresholds are
    resolved once per (coalition mask, plan producer tag), so a clamp
    warning is logged once per such key, not once per call.
    """

    model_tag = "mock-generator"

    def __init__(self, behavior: MockBehavior, fail_attempts: frozenset[tuple[str, int]] = frozenset()):
        super().__init__()
        self.behavior = behavior
        self.fail_attempts = fail_attempts
        # (coalition mask, producer tag) -> grading thresholds under `behavior`,
        # which is set once, here
        self._thresholds = Memo()

    def generate(
        self,
        sample: Sample,
        report: Report,
        plan: PlanArtifact | None,
        k: int,
        run_seed: int = 0,
        round_index: int = 0,
    ) -> list[Candidate | GeneratorAttemptError]:
        if k < 1:
            raise ValueError("k must be >= 1")
        self.bump()
        producer = plan.producer_tag if plan is not None else None
        coalition, sid = report.coalition, sample.sample_id
        thresholds = self._thresholds.get(
            (coalition.mask, producer),
            lambda: tuple(1.0 - p for p in self.behavior.probabilities(coalition, producer)),
        )
        # Attempt a's quality is hash_uniform(seed, "quality", run_seed,
        # sample, round, a); the labels before the attempt are hashed once.
        quality_seeds = SeedPrefix(self.behavior.seed, "quality", run_seed, sid, round_index)
        fail_attempts, mask = self.fail_attempts, coalition.mask
        out: list[Candidate | GeneratorAttemptError] = []
        for attempt in range(k):
            if fail_attempts and (sid, attempt) in fail_attempts:
                out.append(GeneratorAttemptError(f"injected failure on attempt {attempt} of sample {sid}"))
                continue
            # Positional: (sample_id, attempt, text, quality, thresholds, plan_tag).
            text = f"// candidate {sid}#{attempt} mask={mask}"
            out.append(Candidate(sid, attempt, text, quality_seeds.derive(attempt) / 2.0**64, thresholds, producer))
        return out


# The records of a failed and of a compiled-only attempt carry nothing per
# candidate; they are immutable, so every grading shares one of each.
_FAILED = ExecutionRecord(compiled=False, raw_logs=("mock: failed",))
_COMPILED = ExecutionRecord(compiled=True, validations_passed=False, raw_logs=("mock: compiled",))


class MockEvaluator(_CallCounter):
    """Grades a candidate's quality draw against its thresholds."""

    def __init__(self, crash_on: frozenset[tuple[str, int]] = frozenset()):
        super().__init__()
        self.crash_on = crash_on

    def evaluate(self, candidate: Candidate) -> ExecutionRecord:
        self.bump()
        if self.crash_on and (candidate.sample_id, candidate.attempt) in self.crash_on:
            raise RuntimeError(
                f"injected evaluator crash on {candidate.sample_id}"
                f"#{candidate.attempt}"
            )
        t_compiled, t_pass, t_fast = candidate.thresholds
        q = candidate.quality
        if q < t_compiled:
            return _FAILED
        if q < t_pass:
            return _COMPILED
        # Positional: (compiled, validations_passed, speedup_vs_baseline, wall_time, raw_logs).
        if q < t_fast:
            return ExecutionRecord(True, True, min(1.0, 0.5 + 0.5 * q), None, ("mock: pass",))
        return ExecutionRecord(True, True, 1.25 + q, None, ("mock: fast",))


def crash_record(note: str) -> ExecutionRecord:
    """Record an evaluator crash as a non-compiling execution."""
    return ExecutionRecord(compiled=False, raw_logs=(f"evaluator crash: {note}",))


@dataclass(frozen=True)
class AgentBundle:
    """The four registered roles a pipeline run requires."""

    summarizer: MockSummarizer | "HttpSummarizer"
    planner: MockPlanner | "HttpPlanner"
    generator: MockGenerator
    evaluator: MockEvaluator

    def require_complete(self) -> None:
        for name in ("summarizer", "planner", "generator", "evaluator"):
            if getattr(self, name) is None:
                raise ValueError(f"agent role {name!r} is not registered")


def mock_bundle(
    behavior: MockBehavior | None = None,
    fail_attempts: frozenset[tuple[str, int]] = frozenset(),
    crash_on: frozenset[tuple[str, int]] = frozenset(),
) -> AgentBundle:
    behavior = behavior or MockBehavior()
    return AgentBundle(
        summarizer=MockSummarizer(),
        planner=MockPlanner(),
        generator=MockGenerator(behavior, fail_attempts=fail_attempts),
        evaluator=MockEvaluator(crash_on=crash_on),
    )


# -- HTTP chat adapter --------------------------------------------------------

ENV_BACKEND_URL = "PLANLENS_BACKEND_URL"
ENV_API_KEY = "PLANLENS_API_KEY"


class HttpChatAgent:
    """Minimal JSON chat client: one POST per call, exponential backoff.

    Safe for concurrent use; every call builds its own request. The
    endpoint and credential come from arguments or the PLANLENS_* env
    vars.
    """

    def __init__(
        self,
        role: AgentRole,
        base_url: str | None = None,
        api_key: str | None = None,
        max_retries: int = 4,
        backoff: float = 0.5,
        timeout: float = 120.0,
    ):
        self.role = role
        self.base_url = base_url or os.environ.get(ENV_BACKEND_URL)
        self.api_key = api_key or os.environ.get(ENV_API_KEY)
        if not self.base_url:
            raise ValueError(
                f"no backend URL configured (set {ENV_BACKEND_URL})"
            )
        self.max_retries = max_retries
        self.backoff = backoff
        self.timeout = timeout

    def complete(self, messages: list[dict[str, str]]) -> str:
        import requests

        payload = {
            "model": self.role.model_tag,
            "messages": messages,
            "temperature": self.role.decoding.temperature,
            "max_tokens": self.role.decoding.max_tokens,
            "seed": self.role.decoding.seed,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        url = self.base_url.rstrip("/") + "/chat"
        last_error: Exception | None = None
        for attempt in range(1, self.max_retries + 1):
            try:
                response = requests.post(
                    url, json=payload, headers=headers, timeout=self.timeout
                )
                if response.status_code >= 500:
                    raise RuntimeError(f"server error {response.status_code}")
                response.raise_for_status()
                return response.json()["content"]
            except Exception as exc:  # noqa: BLE001 - every failure is retryable
                last_error = exc
                if attempt < self.max_retries:
                    time.sleep(self.backoff * (2 ** (attempt - 1)))
        raise RetryableAgentError(str(last_error), self.max_retries)


class _HttpRole(_CallCounter):
    """A role answered by a chat backend: the role's prompt asset is the
    system message and each request one user message."""

    def __init__(self, client: HttpChatAgent):
        super().__init__()
        self.client = client
        self.model_tag = client.role.model_tag

    def _ask(self, role: Role, text: str) -> str:
        system = {"role": "system", "content": load_prompt(role)}
        return self.client.complete([system, {"role": "user", "content": text}])


class HttpSummarizer(_HttpRole):
    def summarize(self, artifacts: Sequence[FeedbackArtifact]):
        self.begin()
        out = []
        for art in artifacts:
            self.bump()
            out.append(
                FeedbackArtifact(
                    component=art.component,
                    representation=Representation.SUMMARIZED,
                    payload=self._ask(Role.SUMMARIZER, art.payload),
                    source_sample=art.source_sample,
                )
            )
        return tuple(out)


class HttpPlanner(_HttpRole):
    def plan(self, report: Report) -> PlanArtifact:
        self.bump()
        return PlanArtifact(
            text=self._ask(Role.PLANNER, "\n\n".join(a.payload for a in report.artifacts)),
            producer_tag=self.model_tag,
            generation_context_hash=report.content_hash,
        )


# -- prompt assets ------------------------------------------------------------

_PROMPT_FILES = {
    Role.SUMMARIZER: "summarizer_system.md",
    Role.PLANNER: "planner_system.md",
    Role.GENERATOR: "generator_system.md",
}


def load_prompt(role: Role) -> str:
    """Load the fixed prompt asset for a role; the core never parses it."""
    name = _PROMPT_FILES.get(role)
    if name is None:
        raise KeyError(f"no prompt asset for role {role.value}")
    return read_asset("prompts", name)


def mock_artifact_payload(sample: Sample, component_name: str) -> str:
    """Deterministic synthetic raw tool output for a sample."""
    digest = hashlib.sha256(
        f"{sample.sample_id}|{component_name}|{sample.program_text}".encode()
    ).hexdigest()
    return f"{component_name} profile {digest[:20]} for {sample.sample_id}"
