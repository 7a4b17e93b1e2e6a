"""Pinned WL similarity scores and DOT round trips for the similarity gate.

Seeded random digraphs of 1-200 nodes, some nodes labelled from an
alphabet without ',' or '|' and the rest unlabelled (out-degree
fallback). Each graph is compared with a mutated copy of itself and with
the previous graph at h=1 and h=3; the sha256 over the `repr` of every
score is pinned, so a change to parsing or WL refinement must reproduce
every score bit for bit.
"""

import hashlib
import random
from collections import Counter

from planlens.gating import CfgGraph, parse_dot, wl_similarity

ALPHABET = ("ld", "st", "mma", "bar", "br", "exit")
N_GRAPHS = 40
SCORES_SHA256 = "b07845698d3941318c0c1a08e0db3f9b1fc03bf1385865bbf63c9620ab5cb62f"


def build(ids, labels, edges, name=""):
    """CfgGraph with out-degree fallback labels, as `parse_dot` makes them."""
    out_degree = Counter(src for src, _ in edges)
    nodes = tuple((nid, labels.get(nid, str(out_degree[nid]))) for nid in ids)
    return CfgGraph(nodes=nodes, edges=tuple(edges), source=name)


def random_cfg(rng, name):
    n = rng.randint(1, 200)
    ids = [f"b{i}" if rng.random() < 0.9 else f"bb {i}" for i in range(n)]
    edges = list(
        dict.fromkeys(
            (src, rng.choice(ids)) for src in ids for _ in range(rng.randint(0, 3))
        )
    )
    labels = {nid: rng.choice(ALPHABET) for nid in ids if rng.random() < 0.7}
    return ids, labels, edges, name


def mutate(rng, ids, labels, edges, name):
    rate = rng.uniform(0.02, 0.5)
    new_labels = {
        nid: rng.choice(ALPHABET) if rng.random() < rate else label
        for nid, label in labels.items()
    }
    new_edges = list(
        dict.fromkeys(
            (src, rng.choice(ids)) if rng.random() < rate else (src, dst)
            for src, dst in edges
        )
    )
    return ids, new_labels, new_edges, name + "_m"


def quote(nid: str) -> str:
    return nid if nid.replace("_", "").isalnum() else f'"{nid}"'


def to_dot(graph: CfgGraph) -> str:
    """DOT text that `parse_dot` reads back as `graph`.

    A label equal to the node's out-degree is left implicit, so unlabelled
    nodes round-trip through the parser's fallback.
    """
    out_degree = Counter(src for src, _ in graph.edges)
    lines = [f"digraph {graph.source} {{"]
    for nid, label in graph.nodes:
        if label == str(out_degree[nid]):
            lines.append(f"  {quote(nid)};")
        else:
            lines.append(f'  {quote(nid)} [label="{label}"];')
    lines += [f"  {quote(src)} -> {quote(dst)};" for src, dst in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def graphs():
    rng = random.Random(2011)
    out = []
    for i in range(N_GRAPHS):
        spec = random_cfg(rng, f"g{i}")
        out.append((build(*spec), build(*mutate(rng, *spec))))
    return out


def test_dot_round_trip():
    for original, mutated in graphs():
        for g in (original, mutated):
            assert parse_dot(to_dot(g)) == g


def test_scores_pinned():
    pairs = graphs()
    scores = []
    for i, (g, m) in enumerate(pairs):
        prev = pairs[i - 1][0]
        for h in (1, 3):
            scores.append(repr(wl_similarity(g, m, h)))
            scores.append(repr(wl_similarity(g, prev, h)))
    assert len(set(scores)) > len(scores) // 2
    digest = hashlib.sha256("\n".join(scores).encode()).hexdigest()
    assert digest == SCORES_SHA256
