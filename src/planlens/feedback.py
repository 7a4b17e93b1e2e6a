"""Feedback components, coalitions, report assembly and counterfactual controls.

Feedback sources (debugger, analyzer, profiler in the default game) are
modeled as abstract players. A coalition is the subset of players whose
artifacts reach the planner; reports are assembled from an ArtifactSource
so the attribution math never touches tool specifics. The two
counterfactual controls are a within-generation permutation of feedback
assignments and a fixed content-free plan template.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import threading
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib import resources
from typing import Callable, Hashable, Iterable, Protocol

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

    @cached_property  # every field is immutable
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

    @cached_property  # every field is immutable
    def content_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.sample_id.encode())
        digest.update(str(self.coalition.mask).encode())
        for art in self.artifacts:
            digest.update(art.content_hash.encode())
        digest.update((self.plan_slot or "").encode())
        return digest.hexdigest()


class ArtifactSource(Protocol):
    """Supplies feedback artifacts; must be safe for concurrent reads. A
    source whose artifacts can change carries a `version` that changes with
    them; a pipeline takes a source without one never to change."""

    def get(
        self,
        sample_id: str,
        component: FeedbackComponent,
        representation: Representation,
    ) -> FeedbackArtifact | None: ...


class InMemoryArtifactSource:
    def __init__(self):
        self._store: dict[tuple[str, int, Representation], FeedbackArtifact] = {}
        self.version = 0  # counts the puts

    def put(self, artifact: FeedbackArtifact) -> None:
        key = (
            artifact.source_sample,
            artifact.component.id,
            artifact.representation,
        )
        self._store[key] = artifact
        self.version += 1

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


def build_report(
    sample_id: str,
    coalition: Coalition,
    representation: Representation,
    artifact_source: ArtifactSource,
    players: Iterable[FeedbackComponent],
) -> Report:
    """Assemble the report carrying exactly the coalition's artifacts."""
    artifacts = []
    for component in coalition.members(players):
        art = artifact_source.get(sample_id, component, representation)
        if art is None or not art.payload:
            raise MissingFeedbackError(component, sample_id)
        artifacts.append(art)
    return Report(sample_id=sample_id, coalition=coalition, artifacts=tuple(artifacts))


def randomize_feedback(checkpoint: GenerationCheckpoint, seed: int) -> dict[str, str]:
    """Uniform random reassignment of feedback within the generation, as a
    sample -> donor map.

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
        return {ids[0]: ids[0]}
    donors = list(ids)
    rng_for(seed, "feedback-permutation", checkpoint.trajectory_id, checkpoint.g).shuffle(
        donors
    )
    return dict(zip(ids, donors))


# -- packaged assets and the dummy plan control --------------------------------


@functools.cache
def read_asset(*path: str) -> str:
    """The text of a packaged asset under planlens/assets, read once per
    process; a missing asset raises FileNotFoundError and is not cached."""
    return resources.files("planlens").joinpath("assets", *path).read_text(encoding="utf-8")


_DUMMY_PLAN_ASSET = "dummy_plan.md"


class TemplateAssetError(FileNotFoundError):
    """The dummy-plan template asset is missing from the installation."""


def dummy_plan() -> str:
    """The fixed, content-free plan template, byte-identical on every call."""
    try:
        return read_asset(_DUMMY_PLAN_ASSET)
    except (FileNotFoundError, ModuleNotFoundError) as exc:
        raise TemplateAssetError(
            f"dummy plan template asset {_DUMMY_PLAN_ASSET!r} not found"
        ) from exc
