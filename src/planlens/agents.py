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
from importlib import resources
from typing import Mapping, Sequence

from .feedback import Coalition, FeedbackArtifact, Report, Representation, count_tokens
from .seeding import hash_uniform
from .trajectory import ExecutionRecord, OutcomeLevel, Sample

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
    """Fixed per-experiment binding of a role to a model and prompt."""

    role: Role
    model_tag: str = "mock"
    prompt_template: str = ""
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


@dataclass(frozen=True)
class MockBehavior:
    """Causal table driving every mock draw.

    base_rates are per-attempt probabilities P(outcome >= level); effects
    shift them per coalition; producer_effects shift them per plan
    producer tag. The level chain p_fast <= p_pass <= p_compiled is
    enforced by clamping (with a warning) after all deltas apply.
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

    def latency_for(self, stage: str) -> LatencyParams:
        return self.latency.get(stage, LatencyParams())

    @classmethod
    def from_json(cls, data: Mapping) -> "MockBehavior":
        effects = tuple(
            Effect(int(e["requires"]), OutcomeLevel.parse(e["level"]), float(e["delta"]))
            for e in data.get("effects", ())
        )
        producer = {
            tag: tuple(
                Effect(
                    int(e.get("requires", 0)),
                    OutcomeLevel.parse(e["level"]),
                    float(e["delta"]),
                )
                for e in entries
            )
            for tag, entries in data.get("producer_effects", {}).items()
        }
        latency = {
            stage: LatencyParams(float(p.get("mean", 1.0)), float(p.get("tail", 0.5)))
            for stage, p in data.get("latency", {}).items()
        }
        return cls(
            seed=int(data.get("seed", 0)),
            base_compiled=float(data.get("base_compiled", 0.6)),
            base_pass=float(data.get("base_pass", 0.35)),
            base_fast=float(data.get("base_fast", 0.15)),
            effects=effects,
            producer_effects=producer,
            latency=latency,
        )


@dataclass(frozen=True)
class Candidate:
    """One generated program attempt plus its mock grading thresholds."""

    sample_id: str
    attempt: int
    text: str
    quality: float
    thresholds: tuple[float, float, float]  # at-least (compiled, pass, fast)
    plan_tag: str | None = None

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
        return cls(
            sample_id=str(data["sample_id"]),
            attempt=int(data["attempt"]),
            text=data.get("text", ""),
            quality=float(data["quality"]),
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
        with self._lock:
            self.calls += 1

    def begin(self) -> None:
        with self._lock:
            self.invocations += 1


class MockSummarizer(_CallCounter):
    """Derives each summary purely from its input artifact (hash-sealed)."""

    def __init__(self, model_tag: str = "mock-summarizer"):
        super().__init__()
        self.model_tag = model_tag

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

    def __init__(self, model_tag: str = "mock-planner"):
        super().__init__()
        self.model_tag = model_tag

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
    across coalitions, as banzhaf_stderr assumes.
    """

    def __init__(
        self,
        behavior: MockBehavior,
        model_tag: str = "mock-generator",
        fail_attempts: frozenset[tuple[str, int]] = frozenset(),
    ):
        super().__init__()
        self.behavior = behavior
        self.model_tag = model_tag
        self.fail_attempts = fail_attempts

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
        p_c, p_p, p_f = self.behavior.probabilities(report.coalition, producer)
        thresholds = (1.0 - p_c, 1.0 - p_p, 1.0 - p_f)
        out: list[Candidate | GeneratorAttemptError] = []
        for attempt in range(k):
            if (sample.sample_id, attempt) in self.fail_attempts:
                out.append(
                    GeneratorAttemptError(
                        f"injected failure on attempt {attempt} "
                        f"of sample {sample.sample_id}"
                    )
                )
                continue
            quality = hash_uniform(
                self.behavior.seed,
                "quality",
                run_seed,
                sample.sample_id,
                round_index,
                attempt,
            )
            out.append(
                Candidate(
                    sample_id=sample.sample_id,
                    attempt=attempt,
                    text=(
                        f"// candidate {sample.sample_id}#{attempt} "
                        f"mask={report.coalition.mask}"
                    ),
                    quality=quality,
                    thresholds=thresholds,
                    plan_tag=producer,
                )
            )
        return out


class MockEvaluator(_CallCounter):
    """Grades a candidate's quality draw against its thresholds."""

    def __init__(self, crash_on: frozenset[tuple[str, int]] = frozenset()):
        super().__init__()
        self.crash_on = crash_on

    def evaluate(self, candidate: Candidate) -> ExecutionRecord:
        self.bump()
        if (candidate.sample_id, candidate.attempt) in self.crash_on:
            raise RuntimeError(
                f"injected evaluator crash on {candidate.sample_id}"
                f"#{candidate.attempt}"
            )
        t_compiled, t_pass, t_fast = candidate.thresholds
        q = candidate.quality
        if q < t_compiled:
            return ExecutionRecord(compiled=False, raw_logs=("mock: failed",))
        if q < t_pass:
            return ExecutionRecord(
                compiled=True, validations_passed=False, raw_logs=("mock: compiled",)
            )
        if q < t_fast:
            return ExecutionRecord(
                compiled=True,
                validations_passed=True,
                speedup_vs_baseline=min(1.0, 0.5 + 0.5 * q),
                raw_logs=("mock: pass",),
            )
        return ExecutionRecord(
            compiled=True,
            validations_passed=True,
            speedup_vs_baseline=1.25 + q,
            raw_logs=("mock: fast",),
        )


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


# -- plan injection (strong-to-weak distillation) ----------------------------


@dataclass(frozen=True)
class GeneratorContext:
    """Prompt context with an explicit plan slot and a fixed length budget.

    plan_budget is the token length of the original self-plan; padding
    keeps plan + pad at exactly that length so injected plans change only
    semantic content, not context size.
    """

    preamble: str
    plan: str
    epilogue: str
    pad: str = ""
    plan_budget: int | None = None

    @property
    def total_tokens(self) -> int:
        return sum(
            count_tokens(part)
            for part in (self.preamble, self.plan, self.pad, self.epilogue)
        )

    def render(self) -> str:
        parts = [self.preamble, self.plan]
        if self.pad:
            parts.append(self.pad)
        parts.append(self.epilogue)
        return "\n\n".join(parts)


_PAD_COMMENT = "//"


def inject_plan(context: GeneratorContext, strong_plan: PlanArtifact) -> GeneratorContext:
    """Swap the plan slot, holding total context length fixed.

    The budget is taken from the context's original plan on first
    injection. Shorter plans are padded with neutral comment tokens;
    longer plans are truncated with a warning.
    """
    budget = context.plan_budget
    if budget is None:
        budget = count_tokens(context.plan)
    plan_text = strong_plan.text
    n_tokens = count_tokens(plan_text)
    if n_tokens > budget:
        logger.warning(
            "injected plan (%d tokens) exceeds the %d-token slot; truncating",
            n_tokens,
            budget,
        )
        plan_text = " ".join(plan_text.split()[:budget])
        n_tokens = budget
    pad = " ".join([_PAD_COMMENT] * (budget - n_tokens))
    return GeneratorContext(
        preamble=context.preamble,
        plan=plan_text,
        epilogue=context.epilogue,
        pad=pad,
        plan_budget=budget,
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


class HttpSummarizer(_CallCounter):
    def __init__(self, client: HttpChatAgent):
        super().__init__()
        self.client = client
        self.model_tag = client.role.model_tag

    def summarize(self, artifacts: Sequence[FeedbackArtifact]):
        out = []
        template = load_prompt(Role.SUMMARIZER)
        for art in artifacts:
            self.bump()
            content = self.client.complete(
                [
                    {"role": "system", "content": template},
                    {"role": "user", "content": art.payload},
                ]
            )
            out.append(
                FeedbackArtifact(
                    component=art.component,
                    representation=Representation.SUMMARIZED,
                    payload=content,
                    source_sample=art.source_sample,
                )
            )
        return tuple(out)


class HttpPlanner(_CallCounter):
    def __init__(self, client: HttpChatAgent):
        super().__init__()
        self.client = client
        self.model_tag = client.role.model_tag

    def plan(self, report: Report) -> PlanArtifact:
        self.bump()
        template = load_prompt(Role.PLANNER)
        body = "\n\n".join(a.payload for a in report.artifacts)
        content = self.client.complete(
            [
                {"role": "system", "content": template},
                {"role": "user", "content": body},
            ]
        )
        return PlanArtifact(
            text=content,
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
    ref = resources.files("planlens").joinpath("assets", "prompts", name)
    return ref.read_text(encoding="utf-8")


def prompt_inventory() -> dict[str, str]:
    """All shipped prompt assets keyed by file name."""
    base = resources.files("planlens").joinpath("assets", "prompts")
    out = {}
    for entry in base.iterdir():
        if entry.name.endswith(".md"):
            out[entry.name] = entry.read_text(encoding="utf-8")
    return out


def mock_artifact_payload(
    sample: Sample, component_name: str, representation: Representation
) -> str:
    """Deterministic synthetic tool output for a sample."""
    digest = hashlib.sha256(
        f"{sample.sample_id}|{component_name}|{sample.program_text}".encode()
    ).hexdigest()
    if representation is Representation.FORMATTED:
        return f"[{component_name}] sample={sample.sample_id} digest={digest[:20]}"
    return f"{component_name} profile {digest[:20]} for {sample.sample_id}"
