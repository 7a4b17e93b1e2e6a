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
from typing import Iterable, Sequence

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

    def labels(self) -> dict[str, str]:
        return dict(self.nodes)


_NODE_RE = re.compile(
    r'^\s*("(?P<qid>[^"]*)"|(?P<id>[A-Za-z0-9_.]+))\s*(\[(?P<attrs>[^\]]*)\])?\s*;?\s*$'
)
# `label` as a whole attribute name, not the tail of one such as `xlabel`.
_LABEL_RE = re.compile(r'(?<![\w.])label\s*=\s*("(?P<quoted>[^"]*)"|(?P<bare>[A-Za-z0-9_.]+))')
_IDENT_RE = re.compile(r'^("([^"]*)"|[A-Za-z0-9_.]+)$')
# A header word ends at whitespace, "{" or '"'; a stray quote is a word of its own.
_HEADER_WORD_RE = re.compile(r'"[^"]*"|[^\s"{]+|"')
# A quoted string holding a character that the statement syntax reads.
_QUOTED_SYNTAX_RE = re.compile(r'"[^"]*[;/{}\[\]=-][^"]*"')
# A plain body line, which the statement reader below would read the same:
# `a;`, `a [label="text"];` or `a -> b;`, spaces and tabs between tokens,
# no other attribute and nothing after the `;`.
_PLAIN_LINE_RE = re.compile(
    r'[ \t]*([A-Za-z0-9_.]+)[ \t]*'
    r'(?:->[ \t]*([A-Za-z0-9_.]+)[ \t]*|\[label="([^"\[\]{};/=-]*)"\][ \t]*)?;'
)
_KEYWORDS = ("node", "edge", "subgraph")


def _mask_quoted(line: str, lineno: int) -> tuple[str, list[str]]:
    """Cut a `//` comment and put each quoted string's index in place of
    its text ('"0"', '"1"', ...), so that `;`, `--`, `//` and the like
    inside quotes read as text; returns the masked line and the texts."""
    pieces = line.split('"')  # odd pieces are quoted
    if "//" in line:
        for i in range(0, len(pieces), 2):
            if "//" in pieces[i]:
                pieces[i] = pieces[i].split("//")[0]
                del pieces[i + 1:]
                break
    if len(pieces) % 2 == 0:
        raise DotSyntaxError("unterminated quoted string", lineno)
    literals = pieces[1::2]
    pieces[1::2] = map(str, range(len(literals)))
    return '"'.join(pieces), literals


def _literal(token: str, literals: list[str] | None) -> str:
    """An id or label as written: the text inside quotes, read back from
    `literals` when the line was masked."""
    if not token.startswith('"'):
        return token
    return token[1:-1] if literals is None else literals[int(token[1:-1])]


def _unmask(text: str, literals: list[str] | None) -> str:
    """A masked statement as written, for error messages."""
    if not literals:
        return text
    return re.sub(r'"(\d+)"', lambda m: f'"{literals[int(m[1])]}"', text)


def _bad_attributes(attrs: str) -> bool:
    """Whether the text inside an attribute list's brackets holds a
    bracket, a brace or an unpaired quote; quoted text that holds one of
    these is masked before the statement is split."""
    return "[" in attrs or "]" in attrs or "{" in attrs or "}" in attrs or attrs.count('"') % 2 == 1


def parse_dot(text: str) -> CfgGraph:
    """Parse the digraph subset of DOT: node and edge statements.

    Supported statements: ``id;``, ``id [label="..."];`` and edge chains
    ``a -> b -> c;``. Undirected graphs (``graph`` / ``--``) are
    rejected. Duplicate edges collapse to one. Quoted ids and labels are
    text, whatever characters they hold (``;``, ``--``, ``//``, ...).
    """
    # Insertion-ordered dicts used as ordered sets: O(1) per endpoint.
    node_order: dict[str, None] = {}
    explicit_labels: dict[str, str] = {}
    edges: dict[tuple[str, str], None] = {}
    graph_name = ""

    lines = text.splitlines()
    head: list[tuple[str, str]] = []  # header words read so far: (as written, as text)
    opened = False
    closed = False
    plain_line = _PLAIN_LINE_RE.fullmatch
    for lineno, raw in enumerate(lines, start=1):
        if opened and not closed:
            plain = plain_line(raw)
            if plain:
                src, dst, label = plain.groups()
                if dst is not None:
                    node_order.setdefault(src)
                    node_order.setdefault(dst)
                    edges.setdefault((src, dst))
                    continue
                if src.lower() not in _KEYWORDS:  # else refused below
                    node_order.setdefault(src)
                    if label is not None:
                        explicit_labels[src] = label
                    continue
        # Strip // comments, then split multiple statements on ';'. Quoted
        # text that these would misread is masked first.
        literals = None
        if '"' in raw and _QUOTED_SYNTAX_RE.search(raw):
            raw, literals = _mask_quoted(raw, lineno)
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if not opened:
            # The header's words, up to its "{", may span lines: checked as
            # they come, each quoted one read as text on its own line.
            brace = line.find("{")
            words = _HEADER_WORD_RE.findall(line if brace == -1 else line[:brace])
            head += [(word, _literal(word, literals)) for word in words]
            words = head[1:] if head and head[0][0].lower() == "strict" else head
            keyword = words[0][0].lower() if words else None
            if keyword == "graph":
                raise DotSyntaxError("undirected graphs are not supported", lineno)
            if keyword not in (None, "digraph") or len(words) > 2 or (
                len(words) == 2 and not _IDENT_RE.match(words[1][0])  # one graph name or none
            ):
                raise DotSyntaxError("expected a digraph header", lineno)
            if brace == -1:
                continue
            if keyword is None:
                raise DotSyntaxError("expected a digraph header", lineno)
            opened = True
            graph_name = words[1][1] if len(words) == 2 else ""
            line = line[brace + 1 :].strip()
            if not line:
                continue
        for stmt in line.split(";"):
            stmt = stmt.strip()
            if not stmt:
                continue
            if closed:  # after "}" only ";", blanks and comments may follow
                raise DotSyntaxError("content after closing brace", lineno)
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
                parts = stmt.split("->")
                if "[" in parts[-1]:  # an attribute list ends the statement
                    parts[-1], _, attrs = parts[-1].partition("[")
                    if not attrs.endswith("]") or _bad_attributes(attrs[:-1]):
                        raise DotSyntaxError(f"bad attribute list in {_unmask(stmt, literals)!r}", lineno)
                ids = []
                for part in parts:
                    part = part.strip()
                    if not _IDENT_RE.match(part):
                        raise DotSyntaxError(
                            f"bad edge endpoint {_unmask(part, literals)!r}", lineno
                        )
                    ids.append(_literal(part, literals) if part[0] == '"' else part)
                for src, dst in zip(ids, ids[1:]):
                    node_order.setdefault(src)
                    node_order.setdefault(dst)
                    edges.setdefault((src, dst))
                continue
            match = _NODE_RE.match(stmt)
            if not match:
                raise DotSyntaxError(f"cannot parse statement {_unmask(stmt, literals)!r}", lineno)
            nid = match.group("qid")
            if nid is None:
                nid = match.group("id")
            elif literals is not None:
                nid = literals[int(nid)]
            if nid.lower() in _KEYWORDS:
                raise DotSyntaxError(
                    f"{nid!r} statements are not supported", lineno
                )
            node_order.setdefault(nid)
            attrs = match.group("attrs")
            if attrs:
                if _bad_attributes(attrs):
                    raise DotSyntaxError(f"bad attribute list in {_unmask(stmt, literals)!r}", lineno)
                label_match = _LABEL_RE.search(attrs)
                if label_match:
                    label = label_match.group("quoted")
                    if label is None:
                        label = label_match.group("bare")
                    elif literals is not None:
                        label = literals[int(label)]
                    explicit_labels[nid] = label
    if not opened:
        raise DotSyntaxError("missing opening brace" if head else "no digraph found", max(1, len(lines)))
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


# (graph, h, table, features, squared norm) of the last reference refined;
# calls on other threads replace it whole.
_reference: tuple | None = None


def wl_similarity(g1: CfgGraph, g2: CfgGraph, h: int = DEFAULT_WL_ITERATIONS) -> float:
    """Cosine-normalized WL subtree kernel in [0, 1].

    The reference `g2` is refined once and kept until another reference
    or h comes; `g1` is refined through a copy of its table, so labels
    the reference lacks get ids only in the copy. The kernel reads only
    which labels are equal, and its sums are exact integers, so the score
    is bit for bit that of refining both through one fresh table.
    """
    global _reference
    if h < 1:
        raise ValueError("h must be >= 1")
    if g1.n_nodes == 0 or g2.n_nodes == 0:
        if g1.n_nodes == 0 and g2.n_nodes == 0:
            logger.warning("similarity of two empty graphs defined as 1.0")
            return 1.0
        logger.warning("similarity against an empty graph defined as 0.0")
        return 0.0
    ref = _reference
    if ref is None or ref[0] is not g2 or ref[1] != h:
        table: dict = {}
        f2 = wl_features(g2, h, table)
        ref = _reference = (g2, h, table, f2, sum(count * count for count in f2.values()))
    _, _, table, f2, norm2 = ref
    f1 = wl_features(g1, h, dict(table))
    dot = sum(count * f2[key] for key, count in f1.items() if key in f2)
    norm1 = sum(count * count for count in f1.values())
    return dot / sqrt(norm1 * norm2)


@dataclass(frozen=True)
class GateConfig:
    tau_s: float = DEFAULT_TAU
    wl_iterations: int = DEFAULT_WL_ITERATIONS

    def __post_init__(self):
        if not 0.0 <= self.tau_s <= 1.0:
            raise ValueError("tau_s must be in [0, 1]")
        if self.wl_iterations < 1:
            raise ValueError("wl_iterations must be >= 1")


def similarity(
    current: CfgGraph | None,
    reference: CfgGraph | None,
    cfg: GateConfig | None = None,
) -> float:
    """Normalized WL subtree similarity of two candidates' CFGs."""
    cfg = cfg or GateConfig()
    if current is None or reference is None:
        raise NoGraphError(
            "both samples need a control-flow graph; route non-compiling "
            "candidates to the correctness phase instead"
        )
    return wl_similarity(current, reference, cfg.wl_iterations)


class Phase(Enum):
    CORRECTNESS = "correctness"
    STRUCTURAL_EXPLORATION = "structural_exploration"
    PERFORMANCE_EXPLOITATION = "performance_exploitation"


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
        phase, admitted, s = Phase.CORRECTNESS, (debugger,), None
    elif s is None:
        raise GateInputError(
            "structural similarity is required once the candidate passes"
        )
    elif s < cfg.tau_s:
        phase, admitted = Phase.STRUCTURAL_EXPLORATION, (debugger, analyzer)
    else:
        phase, admitted = Phase.PERFORMANCE_EXPLOITATION, (debugger, analyzer, profiler)
    return GateDecision(phase, Coalition.of(*admitted), s, reference_id)


def decisions_to_json(entries: Iterable[tuple[str, OutcomeLevel, GateDecision]]) -> str:
    lines = [
        json.dumps(decision.to_json(sample_id, status), sort_keys=True)
        for sample_id, status, decision in entries
    ]
    return "\n".join(lines) + ("\n" if lines else "")


# -- reference selection and lazy summarization --------------------------------


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
