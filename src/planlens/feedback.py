"""Feedback components, coalitions, report assembly and counterfactual controls.

Feedback sources (debugger, analyzer, profiler in the default game) are
modeled as abstract players. A coalition is the subset of players whose
artifacts reach the planner; reports are assembled from an ArtifactSource
so the attribution math never touches tool specifics. The two
counterfactual controls are a within-generation permutation of feedback
assignments and a fixed content-free plan template.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path
from typing import Callable, Hashable, Iterable, Mapping, Protocol

from .seeding import rng_for
from .trajectory import GenerationCheckpoint

logger = logging.getLogger(__name__)

MAX_PLAYERS = 16


class MissingFeedbackError(KeyError):
    """An enabled component's artifact could not be supplied."""

    def __init__(self, component: "FeedbackComponent", sample_id: str):
        super().__init__(
            f"no {component.name!r} artifact for sample {sample_id!r}"
        )
        self.component = component
        self.sample_id = sample_id


@dataclass(frozen=True)
class FeedbackComponent:
    """One feedback player; ids are dense 0..N-1 within a game."""

    id: int
    name: str
    short: str = ""

    def __post_init__(self):
        if not self.short:
            object.__setattr__(self, "short", self.name[:1])

    @property
    def bit(self) -> int:
        return 1 << self.id


def default_components() -> tuple[FeedbackComponent, ...]:
    """The three-player tool game: debugger, analyzer, profiler."""
    return (
        FeedbackComponent(0, "debugger"),
        FeedbackComponent(1, "analyzer"),
        FeedbackComponent(2, "profiler"),
    )


def plan_feedback_players() -> tuple[FeedbackComponent, ...]:
    """The two-player game over external feedback (F) and planning (P)."""
    return (
        FeedbackComponent(0, "feedback", "F"),
        FeedbackComponent(1, "planning", "P"),
    )


def plan_summary_players() -> tuple[FeedbackComponent, ...]:
    """The two-player game over summarization (S) and planning (P)."""
    return (
        FeedbackComponent(0, "summary", "S"),
        FeedbackComponent(1, "planning", "P"),
    )


@dataclass(frozen=True, order=True)
class Coalition:
    """A subset of feedback players encoded as a bitmask."""

    mask: int = 0

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("coalition mask must be non-negative")

    def __contains__(self, component: FeedbackComponent) -> bool:
        return bool(self.mask & component.bit)

    def contains_mask(self, required: int) -> bool:
        return (self.mask & required) == required

    def members(
        self, players: Iterable[FeedbackComponent]
    ) -> tuple[FeedbackComponent, ...]:
        return tuple(p for p in sorted(players, key=lambda c: c.id) if p in self)

    def with_member(self, component: FeedbackComponent) -> "Coalition":
        return Coalition(self.mask | component.bit)

    def without_member(self, component: FeedbackComponent) -> "Coalition":
        return Coalition(self.mask & ~component.bit)

    def size(self) -> int:
        return bin(self.mask).count("1")

    def label(self, players: Iterable[FeedbackComponent]) -> str:
        names = [p.short for p in self.members(players)]
        return "".join(names) if names else "none"

    @classmethod
    def of(cls, *components: FeedbackComponent) -> "Coalition":
        mask = 0
        for c in components:
            mask |= c.bit
        return cls(mask)

    @classmethod
    def parse(
        cls, text: str, players: Iterable[FeedbackComponent]
    ) -> "Coalition":
        """Parse a comma list of names or shorts, e.g. ``d,a,p`` or ``none``."""
        text = text.strip()
        if text in ("", "none"):
            return cls(0)
        by_key = {}
        for p in players:
            by_key[p.name] = p
            by_key[p.short] = p
        mask = 0
        for token in text.split(","):
            token = token.strip()
            if token not in by_key:
                raise ValueError(
                    f"unknown feedback component {token!r}; "
                    f"known: {sorted(set(by_key))}"
                )
            mask |= by_key[token].bit
        return cls(mask)


def enumerate_coalitions(n_players: int) -> list[Coalition]:
    """All 2^n coalitions in ascending bitmask order."""
    if not 1 <= n_players <= MAX_PLAYERS:
        raise ValueError(f"n_players must be in 1..{MAX_PLAYERS}, got {n_players}")
    return [Coalition(mask) for mask in range(1 << n_players)]


class Representation(Enum):
    """How a component's feedback is rendered in the planning context."""

    RAW = "raw"
    FORMATTED = "formatted"
    SUMMARIZED = "summarized"


@dataclass(frozen=True)
class FeedbackArtifact:
    """One component's feedback for one sample, content-addressed."""

    component: FeedbackComponent
    representation: Representation
    payload: str
    source_sample: str

    @property
    def content_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.component.name.encode())
        digest.update(b"\x1f")
        digest.update(self.representation.value.encode())
        digest.update(b"\x1f")
        digest.update(self.payload.encode())
        return digest.hexdigest()


@dataclass(frozen=True)
class Report:
    """The planner's sole input: exactly the coalition's artifacts, in id order."""

    sample_id: str
    coalition: Coalition
    artifacts: tuple[FeedbackArtifact, ...]
    plan_slot: str | None = None

    def __post_init__(self):
        mask = 0
        for art in self.artifacts:
            mask |= art.component.bit
        if mask != self.coalition.mask:
            raise ValueError(
                f"artifacts (mask {mask}) do not match coalition "
                f"(mask {self.coalition.mask})"
            )
        ids = [a.component.id for a in self.artifacts]
        if ids != sorted(ids):
            raise ValueError("artifacts must be ordered by component id")

    @property
    def content_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.sample_id.encode())
        digest.update(str(self.coalition.mask).encode())
        for art in self.artifacts:
            digest.update(art.content_hash.encode())
        digest.update((self.plan_slot or "").encode())
        return digest.hexdigest()


class ArtifactSource(Protocol):
    """Supplies feedback artifacts; must be safe for concurrent reads."""

    def get(
        self,
        sample_id: str,
        component: FeedbackComponent,
        representation: Representation,
    ) -> FeedbackArtifact | None: ...


class InMemoryArtifactSource:
    def __init__(self):
        self._store: dict[tuple[str, int, Representation], FeedbackArtifact] = {}

    def put(self, artifact: FeedbackArtifact) -> None:
        key = (
            artifact.source_sample,
            artifact.component.id,
            artifact.representation,
        )
        self._store[key] = artifact

    def get(self, sample_id, component, representation):
        return self._store.get((sample_id, component.id, representation))


class Memo:
    """At most one computation per key, also under concurrency.

    The first caller of a missing key computes its value while later
    callers of that key wait on the key's in-flight guard; other keys go
    ahead meanwhile. A computation that raises caches nothing, so the next
    caller (a waiter included) computes it again.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._values: dict = {}
        self._in_flight: dict[Hashable, threading.Event] = {}

    def __len__(self) -> int:
        return len(self._values)

    def get(self, key: Hashable, compute: Callable[[], object]):
        # A hit needs no lock: a value is stored once and never removed.
        try:
            return self._values[key]
        except KeyError:
            pass
        while True:
            with self._lock:
                if key in self._values:
                    return self._values[key]
                guard = self._in_flight.get(key)
                if guard is None:
                    guard = self._in_flight[key] = threading.Event()
                    break
            guard.wait()
        try:
            value = self._values[key] = compute()
        finally:
            with self._lock:
                del self._in_flight[key]
            guard.set()
        return value


class DirectoryArtifactStore:
    """Content-addressed on-disk artifacts: hash-named files plus a JSON index.

    The index maps "sample_id|component_id|representation" to the payload
    file's content hash. Safe to reopen; writes are idempotent because the
    file name is the content hash.
    """

    def __init__(self, directory: str):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._index_path = self._dir / "index.json"
        self._lock = threading.Lock()
        if self._index_path.exists():
            self._index = json.loads(self._index_path.read_text(encoding="utf-8"))
        else:
            self._index = {}

    @staticmethod
    def _key(sample_id: str, component: FeedbackComponent, representation: Representation) -> str:
        return f"{sample_id}|{component.id}|{representation.value}"

    def put(self, artifact: FeedbackArtifact) -> str:
        digest = artifact.content_hash
        payload_path = self._dir / f"{digest}.txt"
        if not payload_path.exists():
            payload_path.write_text(artifact.payload, encoding="utf-8")
        key = self._key(artifact.source_sample, artifact.component, artifact.representation)
        with self._lock:
            self._index[key] = {
                "hash": digest,
                "component_id": artifact.component.id,
                "component_name": artifact.component.name,
                "component_short": artifact.component.short,
            }
            self._index_path.write_text(
                json.dumps(self._index, indent=2, sort_keys=True),
                encoding="utf-8",
            )
        return digest

    def get(self, sample_id, component, representation):
        key = self._key(sample_id, component, representation)
        entry = self._index.get(key)
        if entry is None:
            return None
        payload = (self._dir / f"{entry['hash']}.txt").read_text(encoding="utf-8")
        return FeedbackArtifact(
            component=FeedbackComponent(
                entry["component_id"], entry["component_name"], entry["component_short"]
            ),
            representation=representation,
            payload=payload,
            source_sample=sample_id,
        )


class PermutedArtifactSource:
    """Reroutes lookups through a sample->donor mapping (randomized feedback)."""

    def __init__(self, inner: ArtifactSource, mapping: Mapping[str, str]):
        self._inner = inner
        self._mapping = dict(mapping)

    def get(self, sample_id, component, representation):
        donor = self._mapping.get(sample_id, sample_id)
        art = self._inner.get(donor, component, representation)
        if art is None:
            return None
        # Keep the donor's payload; the report is for the receiving sample.
        return art


def build_report(
    sample_id: str,
    coalition: Coalition,
    representation: Representation,
    artifact_source: ArtifactSource,
    players: Iterable[FeedbackComponent],
    plan_slot: str | None = None,
) -> Report:
    """Assemble the report carrying exactly the coalition's artifacts."""
    artifacts = []
    for component in coalition.members(players):
        art = artifact_source.get(sample_id, component, representation)
        if art is None or not art.payload:
            raise MissingFeedbackError(component, sample_id)
        artifacts.append(art)
    return Report(
        sample_id=sample_id,
        coalition=coalition,
        artifacts=tuple(artifacts),
        plan_slot=plan_slot,
    )


@dataclass(frozen=True)
class FeedbackPermutation:
    """Seeded permutation of sample->artifact assignment within a generation."""

    mapping: Mapping[str, str] = field(default_factory=dict)
    seed: int = 0


def randomize_feedback(
    checkpoint: GenerationCheckpoint, seed: int
) -> FeedbackPermutation:
    """Uniform random reassignment of feedback within the generation.

    Fixed points are allowed (the permutation is uniform over all n!
    permutations, not just derangements). The multiset of artifacts is
    preserved; only the sample->artifact alignment is destroyed.
    """
    ids = list(checkpoint.sample_ids())
    if not ids:
        raise ValueError("cannot randomize feedback on an empty checkpoint")
    if len(ids) == 1:
        logger.warning(
            "generation %d has a single sample; feedback randomization is a no-op",
            checkpoint.g,
        )
        return FeedbackPermutation({ids[0]: ids[0]}, seed)
    donors = list(ids)
    rng_for(seed, "feedback-permutation", checkpoint.trajectory_id, checkpoint.g).shuffle(
        donors
    )
    return FeedbackPermutation(dict(zip(ids, donors)), seed)


# -- dummy plan control ----------------------------------------------------

_DUMMY_PLAN_ASSET = "dummy_plan.md"
_FILLER_SENTENCE = (
    "Continue to observe standard operating procedures and record any "
    "deviations for the next review cycle."
)


class TemplateAssetError(FileNotFoundError):
    """The dummy-plan template asset is missing from the installation."""


def _load_dummy_template() -> str:
    try:
        ref = resources.files("planlens").joinpath("assets", _DUMMY_PLAN_ASSET)
        return ref.read_text(encoding="utf-8")
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise TemplateAssetError(
            f"dummy plan template asset {_DUMMY_PLAN_ASSET!r} not found"
        ) from exc


def count_tokens(text: str) -> int:
    """Whitespace-token count used for all plan length accounting."""
    return len(text.split())


def dummy_plan(
    original_plan_length: int | None = None, pad: bool = False
) -> str:
    """The fixed, content-free plan template.

    Without padding the template is returned verbatim (byte-identical on
    every call). With ``pad=True`` and a target length, neutral filler
    sentences are appended (or the text truncated, with a warning) so the
    token count matches the original plan's.
    """
    template = _load_dummy_template()
    if not pad or original_plan_length is None:
        return template
    target = int(original_plan_length)
    if target < 1:
        raise ValueError("original_plan_length must be positive when padding")
    tokens = template.split()
    if len(tokens) > int(target * 1.1):
        logger.warning(
            "dummy plan template (%d tokens) exceeds 110%% of target %d; truncating",
            len(tokens),
            target,
        )
        return " ".join(tokens[:target])
    if len(tokens) >= target:
        return template
    filler = _FILLER_SENTENCE.split()
    needed = target - len(tokens)
    padding = [filler[i % len(filler)] for i in range(needed)]
    return template + "\n\n" + " ".join(padding)
