"""Similarity-gated feedback control over control-flow-graph structure.

A candidate's basic-block CFG is compared against a reference sample's
via a normalized Weisfeiler-Lehman subtree kernel. The gate enforces the
strict progression correctness -> structural exploration -> performance
exploitation: non-passing candidates see only the debugger, passing ones
below the similarity threshold additionally see structural analysis, and
candidates at or above the threshold get the full profile including
runtime profiling.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from math import sqrt
from typing import Callable, Iterable, Sequence

from .feedback import Coalition, FeedbackArtifact, Memo, default_components
from .trajectory import GenerationCheckpoint, OutcomeLevel, Sample, sample_best_outcome

logger = logging.getLogger(__name__)

DEFAULT_TAU = 0.42
DEFAULT_WL_ITERATIONS = 3


class DotSyntaxError(ValueError):
    """DOT input could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class NoGraphError(ValueError):
    """The sample has no control-flow graph (it did not compile)."""


class GateInputError(ValueError):
    """Similarity is required once a candidate is functional."""


@dataclass(frozen=True)
class CfgGraph:
    """Directed control-flow graph with labeled nodes.

    Parallel edges are collapsed; self-loops are kept. Nodes without an
    explicit label fall back to their out-degree rendered as a string.
    """

    nodes: tuple[tuple[str, str], ...]  # (node id, label), insertion order
    edges: tuple[tuple[str, str], ...]
    source: str = ""

    def __post_init__(self):
        ids = {nid for nid, _ in self.nodes}
        for src, dst in self.edges:
            if src not in ids or dst not in ids:
                raise ValueError(f"edge ({src!r}, {dst!r}) references unknown node")

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def labels(self) -> dict[str, str]:
        return dict(self.nodes)


_NODE_RE = re.compile(
    r'^\s*("(?P<qid>[^"]*)"|(?P<id>[A-Za-z0-9_.]+))\s*(\[(?P<attrs>[^\]]*)\])?\s*;?\s*$'
)
_EDGE_SPLIT_RE = re.compile(r"\s*->\s*")
_LABEL_RE = re.compile(r'label\s*=\s*("(?P<quoted>[^"]*)"|(?P<bare>[A-Za-z0-9_.]+))')
_IDENT_RE = re.compile(r'^("([^"]*)"|[A-Za-z0-9_.]+)$')


def _strip_quotes(token: str) -> str:
    token = token.strip()
    if token.startswith('"') and token.endswith('"') and len(token) >= 2:
        return token[1:-1]
    return token


def parse_dot(text: str) -> CfgGraph:
    """Parse the digraph subset of DOT: node and edge statements.

    Supported statements: ``id;``, ``id [label="..."];`` and edge chains
    ``a -> b -> c;``. Undirected graphs (``graph`` / ``--``) are
    rejected. Duplicate edges collapse to one.
    """
    # Insertion-ordered dicts used as ordered sets: O(1) per endpoint.
    node_order: dict[str, None] = {}
    explicit_labels: dict[str, str] = {}
    edges: dict[tuple[str, str], None] = {}
    graph_name = ""

    lines = text.splitlines()
    opened = False
    closed = False
    for lineno, raw in enumerate(lines, start=1):
        # Strip // comments, then split multiple statements on ';'.
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if not opened:
            header = line
            if header.lower().startswith("strict "):
                header = header[len("strict "):].lstrip()
            if header.lower().startswith("graph"):
                raise DotSyntaxError("undirected graphs are not supported", lineno)
            if not header.lower().startswith("digraph"):
                raise DotSyntaxError("expected a digraph header", lineno)
            opened = True
            brace = header.find("{")
            if brace == -1:
                continue
            graph_name = header[len("digraph"):brace].strip().strip('"')
            line = header[brace + 1 :].strip()
            if not line:
                continue
        if closed:
            raise DotSyntaxError("content after closing brace", lineno)
        statements = [s.strip() for s in line.split(";")]
        for stmt in statements:
            if not stmt:
                continue
            if stmt == "}":
                closed = True
                continue
            if stmt.endswith("}"):
                stmt = stmt[:-1].strip()
                closed = True
                if not stmt:
                    continue
            if "--" in stmt:
                raise DotSyntaxError(
                    "undirected edge '--' is not supported", lineno
                )
            if "->" in stmt:
                parts = _EDGE_SPLIT_RE.split(stmt)
                # Optional attribute block on the final endpoint.
                parts[-1] = parts[-1].split("[")[0].strip()
                ids = []
                for part in parts:
                    part = part.strip()
                    if not _IDENT_RE.match(part):
                        raise DotSyntaxError(
                            f"bad edge endpoint {part!r}", lineno
                        )
                    ids.append(_strip_quotes(part))
                for src, dst in zip(ids, ids[1:]):
                    node_order.setdefault(src)
                    node_order.setdefault(dst)
                    edges.setdefault((src, dst))
                continue
            match = _NODE_RE.match(stmt)
            if not match:
                raise DotSyntaxError(f"cannot parse statement {stmt!r}", lineno)
            nid = match.group("qid")
            if nid is None:
                nid = match.group("id")
            if nid.lower() in ("node", "edge", "subgraph"):
                raise DotSyntaxError(
                    f"{nid!r} statements are not supported", lineno
                )
            node_order.setdefault(nid)
            attrs = match.group("attrs")
            if attrs:
                label_match = _LABEL_RE.search(attrs)
                if label_match:
                    label = label_match.group("quoted")
                    if label is None:
                        label = label_match.group("bare")
                    explicit_labels[nid] = label
    if not opened:
        raise DotSyntaxError("no digraph found", max(1, len(lines)))
    if not closed:
        raise DotSyntaxError("missing closing brace", max(1, len(lines)))

    out_degree = Counter(src for src, _ in edges)
    nodes = tuple(
        (nid, explicit_labels.get(nid, str(out_degree.get(nid, 0))))
        for nid in node_order
    )
    return CfgGraph(nodes=nodes, edges=tuple(edges), source=graph_name)


def wl_features(graph: CfgGraph, h: int, table: dict) -> Counter:
    """Multiset of (iteration, label id) over h refinement rounds.

    Refinement is directed: a node's new label is its current label paired
    with the sorted multiset of its successors' labels. `table` interns
    each label as an integer id: iteration 0 maps ``(0, label)`` and
    iteration i maps ``(previous id, sorted successor ids)``. Interning a
    tuple is injective whatever characters the DOT labels hold, and ids
    are comparable only between graphs refined through the same table.
    """
    index = {nid: i for i, (nid, _) in enumerate(graph.nodes)}
    successors: list[list[int]] = [[] for _ in graph.nodes]
    for src, dst in graph.edges:
        successors[index[src]].append(index[dst])
    ids = [table.setdefault((0, label), len(table)) for _, label in graph.nodes]
    features = Counter(zip(repeat(0), ids))
    for iteration in range(1, h + 1):
        id_of = ids.__getitem__
        ids = [
            table.setdefault((own, tuple(sorted(map(id_of, out)))), len(table))
            for own, out in zip(ids, successors)
        ]
        features.update(zip(repeat(iteration), ids))
    return features


def wl_similarity(g1: CfgGraph, g2: CfgGraph, h: int = DEFAULT_WL_ITERATIONS) -> float:
    """Cosine-normalized WL subtree kernel in [0, 1]."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if g1.n_nodes == 0 or g2.n_nodes == 0:
        if g1.n_nodes == 0 and g2.n_nodes == 0:
            logger.warning("similarity of two empty graphs defined as 1.0")
            return 1.0
        logger.warning("similarity against an empty graph defined as 0.0")
        return 0.0
    table: dict = {}
    f1 = wl_features(g1, h, table)
    f2 = wl_features(g2, h, table)
    dot = sum(count * f2[key] for key, count in f1.items() if key in f2)
    norm1 = sum(count * count for count in f1.values())
    norm2 = sum(count * count for count in f2.values())
    return dot / sqrt(norm1 * norm2)


SimilarityKernel = Callable[[CfgGraph, CfgGraph, int], float]

_KERNELS: dict[str, SimilarityKernel] = {"wl": wl_similarity}


def register_kernel(name: str, kernel: SimilarityKernel) -> None:
    """Plug in an additional graph kernel (averaged into the gate score)."""
    _KERNELS[name] = kernel


def kernel_names() -> tuple[str, ...]:
    return tuple(sorted(_KERNELS))


@dataclass(frozen=True)
class GateConfig:
    tau_s: float = DEFAULT_TAU
    wl_iterations: int = DEFAULT_WL_ITERATIONS
    kernel_set: tuple[str, ...] = ("wl",)

    def __post_init__(self):
        if not 0.0 <= self.tau_s <= 1.0:
            raise ValueError("tau_s must be in [0, 1]")
        if self.wl_iterations < 1:
            raise ValueError("wl_iterations must be >= 1")
        if not self.kernel_set:
            raise ValueError("kernel_set must not be empty")


def similarity(
    current: CfgGraph | None,
    reference: CfgGraph | None,
    cfg: GateConfig | None = None,
) -> float:
    """Mean of the enabled kernels' normalized scores."""
    cfg = cfg or GateConfig()
    if current is None or reference is None:
        raise NoGraphError(
            "both samples need a control-flow graph; route non-compiling "
            "candidates to the correctness phase instead"
        )
    scores = []
    for name in cfg.kernel_set:
        if name not in _KERNELS:
            raise KeyError(f"unknown similarity kernel {name!r}")
        scores.append(_KERNELS[name](current, reference, cfg.wl_iterations))
    return sum(scores) / len(scores)


class Phase(Enum):
    CORRECTNESS = "correctness"
    STRUCTURAL_EXPLORATION = "structural_exploration"
    PERFORMANCE_EXPLOITATION = "performance_exploitation"


_PHASE_ORDER = {
    Phase.CORRECTNESS: 0,
    Phase.STRUCTURAL_EXPLORATION: 1,
    Phase.PERFORMANCE_EXPLOITATION: 2,
}


@dataclass(frozen=True)
class GateDecision:
    phase: Phase
    admitted_components: Coalition
    s: float | None = None  # absent while in the correctness phase
    reference_id: str = ""

    def to_json(self, sample_id: str = "", status: OutcomeLevel | None = None) -> dict:
        return {
            "sample": sample_id,
            "status": status.name if status is not None else None,
            "s": self.s,
            "phase": self.phase.value,
            "admitted_mask": self.admitted_components.mask,
            "reference_id": self.reference_id,
        }


def phase_rank(phase: Phase) -> int:
    return _PHASE_ORDER[phase]


def gate(
    status: OutcomeLevel,
    s: float | None,
    cfg: GateConfig | None = None,
    reference_id: str = "",
) -> GateDecision:
    """Map (execution status, structural similarity) to a gated phase.

    Non-passing candidates suppress all reference- and performance-derived
    feedback (only the debugger drives repair). Passing candidates below
    tau_s explore structure; at or above tau_s (boundary inclusive) they
    move to fine-grained performance exploitation.
    """
    cfg = cfg or GateConfig()
    debugger, analyzer, profiler = default_components()
    if status < OutcomeLevel.PASS:
        return GateDecision(
            phase=Phase.CORRECTNESS,
            admitted_components=Coalition.of(debugger),
            s=None,
            reference_id=reference_id,
        )
    if s is None:
        raise GateInputError(
            "structural similarity is required once the candidate passes"
        )
    if s < cfg.tau_s:
        return GateDecision(
            phase=Phase.STRUCTURAL_EXPLORATION,
            admitted_components=Coalition.of(debugger, analyzer),
            s=s,
            reference_id=reference_id,
        )
    return GateDecision(
        phase=Phase.PERFORMANCE_EXPLOITATION,
        admitted_components=Coalition.of(debugger, analyzer, profiler),
        s=s,
        reference_id=reference_id,
    )


def decisions_to_json(entries: Iterable[tuple[str, OutcomeLevel, GateDecision]]) -> str:
    lines = [
        json.dumps(decision.to_json(sample_id, status), sort_keys=True)
        for sample_id, status, decision in entries
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- reference selection and lazy summarization --------------------------------

ReferencePolicy = Callable[[GenerationCheckpoint], Sample | None]


def best_sample_reference(checkpoint: GenerationCheckpoint) -> Sample | None:
    """Default policy: the generation's best-outcome sample (ties by id)."""
    best: Sample | None = None
    best_key: tuple[int, str] | None = None
    for sample in checkpoint.samples:
        key = (-int(sample_best_outcome(sample)), sample.sample_id)
        if best_key is None or key < best_key:
            best_key = key
            best = sample
    return best


class LazySummaryCache:
    """At-most-once summarization, triggered only on reference selection.

    Entries are keyed by (sample, representation). Concurrent selections of
    one reference share a single summarizer call; a summarizer failure
    caches nothing, so a later selection retries from scratch.
    """

    def __init__(self, summarizer):
        self._summarizer = summarizer
        self._memo = Memo()

    def __len__(self) -> int:
        return len(self._memo)

    def summaries_for(
        self,
        sample: Sample,
        raw_artifacts: Sequence[FeedbackArtifact],
        representation_key: str = "summarized",
    ) -> tuple[FeedbackArtifact, ...]:
        return self._memo.get(
            (sample.sample_id, representation_key),
            lambda: tuple(self._summarizer.summarize(raw_artifacts)),
        )
