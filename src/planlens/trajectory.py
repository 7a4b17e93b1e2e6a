"""Trajectories, samples, execution outcomes and generation-level statistics.

The data model mirrors how evolutionary program search is evaluated: a
trajectory is a generation-indexed population of program samples, each
sample carries up to k execution records, and an execution is graded on
the ordered criteria Failed < Compiled < Pass < Fast. Generation-level
rates count a sample as successful if any of its first k executions
reaches the criterion (pass@k-style, with the generation kept as the
unit of aggregation).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import threading
from dataclasses import dataclass, field
from enum import IntEnum
from math import isfinite
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

FAST_SPEEDUP_THRESHOLD = 1.0  # strictly greater counts as fast; ties do not

NoneType = type(None)
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer", float: "number",
               bool: "boolean", NoneType: "null"}


class ListOf(NamedTuple):
    """Schema of a JSON array whose every item matches `item`."""

    item: Any


class Required(NamedTuple):
    """Schema of an object key that must be present."""

    schema: Any


def check_json(value: Any, schema: Any, where: str, path: str = "") -> Any:
    """Return `value` if it matches `schema`, else raise ValueError naming
    the document `where` and the dotted key `path` inside it.

    A schema is a JSON type or a tuple of them, matched exactly (a bool is
    not an int) except that an int is accepted where a float is expected
    and a float must be finite (`1e400` decodes to infinity); a list of
    allowed values; a `ListOf`; a dict of key -> schema that refuses any
    other key, where the key `str` stands for any key and a `Required`
    schema marks a key that must be present; or `Any`, any JSON value
    whose every number is finite.
    """
    if type(value) is schema and (schema is not float or isfinite(value)):
        return value
    kind = type(schema)
    if kind is dict and type(value) is dict:
        for key, item in value.items():
            sub = schema.get(key) or schema.get(str)
            if sub is None:
                dotted = f"{path}.{key}" if path else key
                raise ValueError(f"unknown {where} key {dotted!r} ({key!r} is not one of {sorted(schema)})")
            if type(sub) is Required:
                sub = sub.schema
            if type(item) is not sub and not (type(sub) is tuple and type(item) in sub) or type(item) is float and not isfinite(item):
                check_json(item, sub, where, f"{path}.{key}" if path else key)
        if len(value) < len(schema):  # else every key of the schema is present
            for key, sub in schema.items():
                if type(sub) is Required and key not in value:
                    raise ValueError(f"{where} key {path!r} lacks key {key!r}" if path else f"{where} lacks key {key!r}")
        return value
    if kind is ListOf and type(value) is list:
        for i, item in enumerate(value):
            if type(item) is not schema.item or type(item) is float and not isfinite(item):
                check_json(item, schema.item, where, f"{path}[{i}]")
        return value
    if kind is list:
        for allowed in schema:
            if value == allowed and type(value) is type(allowed):
                return value
        name = f"{where} key {path!r}" if path else where
        raise ValueError(f"{name} must be one of {schema}, not {value!r:.80}")
    if schema is Any:
        if type(value) is dict:
            return check_json(value, _ANY_OBJECT, where, path)
        if type(value) is list:
            return check_json(value, _ANY_ARRAY, where, path)
        schema = type(value)
    kinds = schema if kind is tuple else {dict: (dict,), ListOf: (list,)}.get(kind, (schema,))
    if type(value) in kinds and (type(value) is not float or isfinite(value)) or (type(value) is int and float in kinds):
        return value
    name = f"{where} key {path!r}" if path else where
    if type(value) is float and float in kinds:
        raise ValueError(f"{name} is not a finite number: {value!r}")
    expected = " or ".join(_JSON_NAMES[k] for k in kinds)
    raise ValueError(f"{name} is not a JSON {expected}: {value!r:.80}")


_ANY_OBJECT = {str: Any}
_ANY_ARRAY = ListOf(Any)


def _refuse_constant(name: str) -> None:
    raise ValueError(f"JSON has no {name}: a number must be finite")


# `json.dumps` writes NaN and infinities as these bare words, which JSON lacks.
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def parse_json(text: str) -> Any:
    """`json.loads` for outside text. `NaN`, `Infinity` and `-Infinity`
    raise ValueError, as malformed JSON does, and so does a document nested
    too deeply to parse, not RecursionError."""
    try:
        return _DECODER.decode(text)
    except RecursionError as exc:
        raise ValueError("JSON document is nested too deeply to read") from exc


class MalformedRecordError(ValueError):
    """An ExecutionRecord violates its invariants (upstream evaluator bug)."""


class GenerationNotFoundError(KeyError):
    """The requested generation index does not exist in the store."""


class StoreFormatError(ValueError):
    """A trajectory file could not be parsed; carries the record position."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OutcomeLevel(IntEnum):
    """Ordered execution criteria; each level implies all lower ones."""

    FAILED = 0
    COMPILED = 1
    PASS = 2
    FAST = 3

    @classmethod
    def parse(cls, name: str) -> "OutcomeLevel":
        return cls[name.upper()]


# Metric names accepted wherever a generation-level rate is selected.
METRICS = ("compiled", "pass", "fast", "overall")

# One execution record, and one sample record of a trajectory or checkpoint
# file (each sample's `executions` items are execution records).
EXECUTION_SCHEMA = {
    "compiled": Required(bool),
    "validations_passed": bool,
    "speedup_vs_baseline": (float, NoneType),
    "wall_time": (float, NoneType),
    "raw_logs": ListOf(str),
}
SAMPLE_SCHEMA = {
    "trajectory_id": str,
    "sample_id": Required(str),
    "generation_index": Required(int),
    "parent_id": (str, NoneType),
    "program_text": str,
    "executions": list,
    "metadata": _ANY_OBJECT,
}


@dataclass(frozen=True)
class ExecutionRecord:
    """One execution attempt of a candidate program.

    Invariants (checked by `classify_execution`): validations_passed
    implies compiled, and a speedup may only be present when validations
    passed.
    """

    compiled: bool
    validations_passed: bool = False
    speedup_vs_baseline: float | None = None
    wall_time: float | None = None
    raw_logs: tuple[str, ...] = ()

    # Fills the fields in one dict update; the generated frozen __init__
    # sets each through object.__setattr__, at twice the cost per record.
    def __init__(self, compiled, validations_passed=False, speedup_vs_baseline=None, wall_time=None, raw_logs=()):
        vars(self).update(
            compiled=compiled,
            validations_passed=validations_passed,
            speedup_vs_baseline=speedup_vs_baseline,
            wall_time=wall_time,
            raw_logs=raw_logs,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "compiled": self.compiled,
            "validations_passed": self.validations_passed,
            "speedup_vs_baseline": self.speedup_vs_baseline,
            "wall_time": self.wall_time,
            "raw_logs": list(self.raw_logs),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExecutionRecord":
        """Read a record; ValueError names a key outside EXECUTION_SCHEMA
        or a value of the wrong type."""
        check_json(data, EXECUTION_SCHEMA, "execution record")
        return cls(**{**data, "raw_logs": tuple(data.get("raw_logs", ()))})


def classify_execution(rec: ExecutionRecord) -> OutcomeLevel:
    """Grade one execution with the highest satisfied criterion."""
    if rec.validations_passed and not rec.compiled:
        raise MalformedRecordError("validations_passed requires compiled")
    if rec.speedup_vs_baseline is not None:
        if not rec.validations_passed:
            raise MalformedRecordError("speedup requires validations_passed")
        if rec.speedup_vs_baseline <= 0:
            raise MalformedRecordError("speedup must be positive")
    if not rec.compiled:
        return OutcomeLevel.FAILED
    if not rec.validations_passed:
        return OutcomeLevel.COMPILED
    if (
        rec.speedup_vs_baseline is not None
        and rec.speedup_vs_baseline > FAST_SPEEDUP_THRESHOLD
    ):
        return OutcomeLevel.FAST
    return OutcomeLevel.PASS


@dataclass(frozen=True)
class Sample:
    """A frozen program sample within a generation."""

    sample_id: str
    generation_index: int
    program_text: str = ""
    parent_id: str | None = None
    executions: tuple[ExecutionRecord, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)

    def to_json(self, trajectory_id: str | None = None) -> dict[str, Any]:
        data: dict[str, Any] = {
            "sample_id": self.sample_id,
            "generation_index": self.generation_index,
            "parent_id": self.parent_id,
            "program_text": self.program_text,
            "executions": [e.to_json() for e in self.executions],
            "metadata": dict(self.metadata),
        }
        if trajectory_id is not None:
            data["trajectory_id"] = trajectory_id
        return data

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Sample":
        """Read a sample record; ValueError names a key outside
        SAMPLE_SCHEMA or EXECUTION_SCHEMA or a value of the wrong type."""
        check_json(data, SAMPLE_SCHEMA, "record")
        return cls(
            sample_id=data["sample_id"],
            generation_index=data["generation_index"],
            parent_id=data.get("parent_id"),
            program_text=data.get("program_text", ""),
            executions=tuple(
                ExecutionRecord.from_json(e) for e in data.get("executions", ())
            ),
            metadata=dict(data.get("metadata", {})),
        )


def sample_best_outcome(sample: Sample, k: int | None = None) -> OutcomeLevel:
    """Best outcome over the sample's first k executions (all when k is None).

    An empty execution list scores Failed; missing executions are not
    imputed.
    """
    records = sample.executions if k is None else sample.executions[:k]
    best = OutcomeLevel.FAILED
    for rec in records:
        level = classify_execution(rec)
        if level > best:
            best = level
    return best


def _canonical_json(data: Any) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class GenerationCheckpoint:
    """Immutable snapshot of one generation; interventions never mutate it."""

    trajectory_id: str
    g: int
    samples: tuple[Sample, ...]
    cached_references: tuple[str, ...] = ()

    @property
    def checkpoint_hash(self) -> str:
        # Samples' `metadata` mappings are the only mutable part of a
        # checkpoint, so the full hash is kept until a dump of them changes;
        # while every one is empty, the guard is False and nothing is dumped.
        guard = any(s.metadata for s in self.samples) and _canonical_json([dict(s.metadata) for s in self.samples])
        memo = self.__dict__.get("_hash_memo")
        if memo is None or memo[0] != guard:
            payload = {
                "trajectory_id": self.trajectory_id,
                "g": self.g,
                "samples": [s.to_json() for s in self.samples],
                "references": list(self.cached_references),
            }
            digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
            memo = (guard, digest)
            object.__setattr__(self, "_hash_memo", memo)
        return memo[1]

    def sample_ids(self) -> tuple[str, ...]:
        return tuple(s.sample_id for s in self.samples)


@dataclass(frozen=True)
class GenerationStats:
    """Generation-level success rates under a fixed retry budget k.

    `empty` flags a generation with no samples, for which all rates are
    defined as zero. `rate_overall` is the fraction of samples reaching
    at least Pass (the payoff used for overall-success games); under the
    cumulative criteria it coincides with `rate_pass`.
    """

    g: int
    rate_compiled: float
    rate_pass: float
    rate_fast: float
    rate_overall: float
    k: int
    n_samples: int
    empty: bool = False

    def rate_for(self, metric: str) -> float:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
        if metric == "overall":
            return self.rate_overall
        return getattr(self, f"rate_{metric}")


def generation_stats(cp: GenerationCheckpoint, k: int) -> GenerationStats:
    """Compute pass@k-style rates over a checkpoint's samples."""
    if k < 1:
        raise ValueError("retry budget k must be >= 1")
    return stats_from_outcomes(cp.g, (sample_best_outcome(s, k) for s in cp.samples), k)


def stats_from_outcomes(
    g: int, outcomes: Iterable[OutcomeLevel], k: int
) -> GenerationStats:
    """Build GenerationStats from per-sample best outcomes.

    The fold over outcomes is a commutative monoid: any aggregation order
    yields the same stats. Used by the pipeline's online fan-in.
    """
    levels = list(outcomes)
    n = len(levels)
    if n == 0:
        return GenerationStats(g, 0.0, 0.0, 0.0, 0.0, k, 0, empty=True)
    n_compiled = sum(1 for b in levels if b >= OutcomeLevel.COMPILED)
    n_pass = sum(1 for b in levels if b >= OutcomeLevel.PASS)
    n_fast = sum(1 for b in levels if b >= OutcomeLevel.FAST)
    return GenerationStats(
        g, n_compiled / n, n_pass / n, n_fast / n, n_pass / n, k, n
    )


class TrajectoryStore:
    """Live, generation-indexed collection of samples.

    Single-writer/multi-reader: appends are serialized by a lock; all
    stored values are immutable, so concurrent readers are safe.
    """

    def __init__(self, trajectory_id: str):
        self.trajectory_id = trajectory_id
        self._samples: dict[str, Sample] = {}
        self._generations: dict[int, list[str]] = {}
        self._references: dict[int, tuple[str, ...]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._samples)

    def append(self, sample: Sample) -> None:
        with self._lock:
            if sample.sample_id in self._samples:
                raise ValueError(f"duplicate sample_id {sample.sample_id!r}")
            if sample.generation_index < 0:
                raise ValueError("generation_index must be non-negative")
            if sample.parent_id is not None:
                parent = self._samples.get(sample.parent_id)
                if parent is None:
                    raise ValueError(f"unknown parent {sample.parent_id!r}")
                if sample.generation_index != parent.generation_index + 1:
                    raise ValueError(
                        "child generation_index must be parent's + 1 "
                        f"(parent g={parent.generation_index}, "
                        f"child g={sample.generation_index})"
                    )
            self._samples[sample.sample_id] = sample
            self._generations.setdefault(sample.generation_index, []).append(
                sample.sample_id
            )

    def get(self, sample_id: str) -> Sample:
        return self._samples[sample_id]

    def generations(self) -> list[int]:
        return sorted(self._generations)

    def samples_at(self, g: int) -> tuple[Sample, ...]:
        if g not in self._generations:
            raise GenerationNotFoundError(g)
        return tuple(self._samples[sid] for sid in self._generations[g])

    def set_references(self, g: int, reference_ids: Iterable[str]) -> None:
        self._references[g] = tuple(reference_ids)

    def freeze(self, g: int) -> GenerationCheckpoint:
        """Snapshot generation g; later appends do not affect the result."""
        if g not in self._generations:
            raise GenerationNotFoundError(g)
        return GenerationCheckpoint(
            trajectory_id=self.trajectory_id,
            g=g,
            samples=self.samples_at(g),
            cached_references=self._references.get(g, ()),
        )

    def iter_samples(self) -> Iterator[Sample]:
        for g in self.generations():
            yield from self.samples_at(g)

    # -- persistence: newline-delimited JSON, one record per sample -------

    @classmethod
    def load(cls, path: str) -> "TrajectoryStore":
        store: TrajectoryStore | None = None
        for lineno, data, sample in _read_records(path)[1]:
            if "trajectory_id" not in data:
                raise StoreFormatError("record lacks trajectory_id", lineno)
            if store is None:
                store = cls(data["trajectory_id"])
            elif data["trajectory_id"] != store.trajectory_id:
                raise StoreFormatError(
                    f"trajectory_id mismatch {data['trajectory_id']!r}", lineno
                )
            try:
                store.append(sample)
            except ValueError as exc:
                raise StoreFormatError(str(exc), lineno) from exc
        if store is None:
            store = cls("empty")
        return store


def _read_records(path: str, header: bool = False) -> tuple[dict | None, list[tuple[int, dict, Sample]]]:
    """The checkpoint header (if `header`, else None) and the sample records
    of an NDJSON file, each as (physical line number, JSON object, Sample).
    Blank lines are skipped but counted. A line that is not UTF-8, not JSON
    or not a record of its kind raises StoreFormatError naming it."""
    head, records = None, []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                data = parse_json(line)
                if header and head is None:
                    head = check_json(data, CHECKPOINT_HEADER_SCHEMA, "checkpoint header")["checkpoint"]
                else:
                    records.append((lineno, data, Sample.from_json(data)))
            except ValueError as exc:  # not UTF-8, not JSON, or not a record of its kind
                raise StoreFormatError(str(exc), lineno) from exc
    if header and head is None:
        raise StoreFormatError("empty checkpoint file", 1)
    return head, records


# The first line of a `save_checkpoint` file; sample records follow it.
CHECKPOINT_HEADER_SCHEMA = {
    "checkpoint": Required({"trajectory_id": Required(str), "g": Required(int), "reference_ids": ListOf(str)}),
    "meta": dict,
}


def save_checkpoint(
    cp: GenerationCheckpoint, path: str, meta: Mapping[str, Any] | None = None
) -> None:
    """Write a checkpoint in trajectory format with a leading header record.

    `meta` (e.g. config hash, tool version) rides along in the header; it
    does not participate in the checkpoint's content hash.
    """
    with open(path, "w", encoding="utf-8") as fh:
        header: dict[str, Any] = {
            "checkpoint": {
                "trajectory_id": cp.trajectory_id,
                "g": cp.g,
                "reference_ids": list(cp.cached_references),
            }
        }
        if meta:
            header["meta"] = dict(meta)
        fh.write(_canonical_json(header) + "\n")
        for sample in cp.samples:
            fh.write(_canonical_json(sample.to_json(cp.trajectory_id)) + "\n")


def load_checkpoint(path: str) -> GenerationCheckpoint:
    """Read a `save_checkpoint` file as outside data: a malformed header,
    a sample of another trajectory or generation, or a repeated sample id
    raises StoreFormatError naming the line."""
    header, records = _read_records(path, header=True)
    trajectory_id, g = header["trajectory_id"], header["g"]
    samples: dict[str, Sample] = {}
    for lineno, data, sample in records:
        if data.get("trajectory_id", trajectory_id) != trajectory_id:
            raise StoreFormatError(
                f"sample trajectory_id {data['trajectory_id']!r} is not the header's {trajectory_id!r}",
                lineno,
            )
        if sample.generation_index != g:
            raise StoreFormatError(
                f"sample generation_index {sample.generation_index} is not the header's g={g}",
                lineno,
            )
        if sample.sample_id in samples:
            raise StoreFormatError(f"duplicate sample_id {sample.sample_id!r}", lineno)
        samples[sample.sample_id] = sample
    return GenerationCheckpoint(
        trajectory_id=trajectory_id,
        g=g,
        samples=tuple(samples.values()),
        cached_references=tuple(header.get("reference_ids", ())),
    )


def csv_text(rows: Iterable[Iterable], meta: str | None = None) -> str:
    """`rows` as CSV text, led by a `# meta` provenance line when `meta` is given."""
    buf = io.StringIO()
    if meta:
        buf.write(f"# {meta}\n")
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def stats_to_csv(stats: Iterable[GenerationStats], meta: str | None = None) -> str:
    """Render stats as CSV with columns (g, metric, rate, k, n_samples)."""
    rows: list[list] = [["g", "metric", "rate", "k", "n_samples"]]
    for st in stats:
        for metric in METRICS:
            rows.append([st.g, metric, repr(st.rate_for(metric)), st.k, st.n_samples])
    return csv_text(rows, meta)
