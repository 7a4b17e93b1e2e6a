import math
import random
from collections import Counter

import pytest

from conftest import HeldSummarizer, build_checkpoint, run_in_threads
from planlens.agents import MockSummarizer
from planlens.feedback import Coalition, FeedbackArtifact, Representation, default_components
from planlens.gating import (
    CfgGraph,
    DotSyntaxError,
    GateConfig,
    GateInputError,
    LazySummaryCache,
    NoGraphError,
    Phase,
    best_sample_reference,
    gate,
    kernel_names,
    parse_dot,
    phase_rank,
    register_kernel,
    similarity,
    wl_features,
    wl_similarity,
)
from planlens.trajectory import ExecutionRecord, OutcomeLevel, Sample

D, A, P = default_components()


def graph(edges, labels=None, nodes=None):
    node_ids = list(nodes or [])
    for src, dst in edges:
        for nid in (src, dst):
            if nid not in node_ids:
                node_ids.append(nid)
    labels = labels or {}
    out_degree = Counter(src for src, _ in edges)
    node_list = tuple(
        (nid, labels.get(nid, str(out_degree.get(nid, 0)))) for nid in node_ids
    )
    return CfgGraph(nodes=node_list, edges=tuple(edges))


class TestParseDot:
    def test_minimal_digraph(self):
        g = parse_dot("digraph{a->b;}")
        assert g.n_nodes == 2
        assert g.n_edges == 1

    def test_label_attribute_preserved(self):
        g = parse_dot('digraph { a [label="entry"]; a -> b; }')
        assert g.labels()["a"] == "entry"

    def test_out_degree_fallback_label(self):
        g = parse_dot("digraph { a -> b; a -> c; }")
        assert g.labels()["a"] == "2"
        assert g.labels()["b"] == "0"

    def test_duplicate_edges_collapse(self):
        g = parse_dot("digraph { a -> b; a -> b; }")
        assert g.n_edges == 1

    def test_edge_chain(self):
        g = parse_dot("digraph { a -> b -> c; }")
        assert g.edges == (("a", "b"), ("b", "c"))

    def test_self_loop_allowed(self):
        g = parse_dot("digraph { a -> a; }")
        assert g.edges == (("a", "a"),)

    def test_undirected_rejected_with_line(self):
        with pytest.raises(DotSyntaxError, match="line 1"):
            parse_dot("graph { a -- b; }")

    def test_undirected_edge_op_rejected(self):
        with pytest.raises(DotSyntaxError, match="'--'"):
            parse_dot("digraph { a -- b; }")

    def test_syntax_error_carries_line(self):
        text = "digraph {\n a -> b;\n ???;\n}"
        with pytest.raises(DotSyntaxError, match="line 3"):
            parse_dot(text)

    def test_missing_brace(self):
        with pytest.raises(DotSyntaxError, match="closing brace"):
            parse_dot("digraph { a -> b;")

    def test_quoted_identifiers(self):
        g = parse_dot('digraph { "bb 0" -> "bb 1"; }')
        assert g.edges == (("bb 0", "bb 1"),)

    def test_named_graph_and_comments(self):
        g = parse_dot("digraph cfg { // intro\n a -> b; // edge\n }")
        assert g.source == "cfg"
        assert g.n_edges == 1


# Hand WL iteration for the path-vs-triangle oracle, h=1, uniform labels:
#   path a->b->c successor label multisets: a:{n}, b:{n}, c:{}
#     iteration-1 labels: "n|n", "n|n", "n|"
#   triangle a->b->c->a: every node has one successor -> all "n|n"
#   features  path: {(0,n):3, (1,"n|n"):2, (1,"n|"):1}
#         triangle: {(0,n):3, (1,"n|n"):3}
#   dot = 3*3 + 2*3 = 15, |path| = sqrt(14), |tri| = sqrt(18)
PATH_VS_TRIANGLE_H1 = 15.0 / math.sqrt(14.0 * 18.0)


def path_graph():
    return graph([("a", "b"), ("b", "c")], labels={"a": "n", "b": "n", "c": "n"})


def triangle_graph():
    return graph(
        [("a", "b"), ("b", "c"), ("c", "a")], labels={"a": "n", "b": "n", "c": "n"}
    )


def random_digraph(rng, max_nodes=8, alphabet=("x", "y", "z")):
    n = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    edges = []
    for src in ids:
        for dst in ids:
            if rng.random() < 0.3:
                edges.append((src, dst))
    labels = {nid: rng.choice(alphabet) for nid in ids}
    return graph(edges, labels=labels, nodes=ids)


class TestWlKernel:
    def test_hand_oracle_path_vs_triangle(self):
        s = wl_similarity(path_graph(), triangle_graph(), h=1)
        assert s == pytest.approx(PATH_VS_TRIANGLE_H1, abs=1e-12)

    def test_feature_multisets_match_hand_iteration(self):
        table = {}
        feats = wl_features(path_graph(), h=1, table=table)
        feats_tri = wl_features(triangle_graph(), h=1, table=table)
        n = table[(0, "n")]
        n_n = table[(n, (n,))]  # "n|n": one successor labelled n
        n_ = table[(n, ())]  # "n|": no successors
        assert len(table) == 3
        assert feats == Counter({(0, n): 3, (1, n_n): 2, (1, n_): 1})
        assert feats_tri == Counter({(0, n): 3, (1, n_n): 3})
        dot = sum(count * feats_tri[key] for key, count in feats.items())
        assert dot == 15
        assert sum(c * c for c in feats.values()) == 14
        assert sum(c * c for c in feats_tri.values()) == 18

    def test_relabelling_injective_for_separator_labels(self):
        # Joining labels with ',' and '|' would render both graphs' "a" as
        # "x|y,y", although a has one successor in g1 and two in g2.
        g1 = parse_dot(
            'digraph { a [label="x"]; c [label="y,y"]; p [label="y"]; '
            'q [label="y"]; a -> c; }'
        )
        g2 = parse_dot(
            'digraph { a [label="x"]; c [label="y,y"]; p [label="y"]; '
            'q [label="y"]; a -> p; a -> q; }'
        )
        # Iteration 0 agrees on all 4 nodes (dot 6); iteration 1 differs
        # only at a (dot 5); each norm is 6 + 6.
        assert wl_similarity(g1, g2, h=1) == 11 / 12

    def test_isomorphic_graphs_score_one(self):
        g1 = graph([("a", "b"), ("b", "c")], labels={"a": "L", "b": "M", "c": "N"})
        g2 = graph([("x", "y"), ("y", "z")], labels={"x": "L", "y": "M", "z": "N"})
        assert wl_similarity(g1, g2, h=3) == 1.0

    def test_disjoint_label_alphabets_score_zero(self):
        g1 = graph([("a", "b")], labels={"a": "x1", "b": "x2"})
        g2 = graph([("c", "d")], labels={"c": "y1", "d": "y2"})
        assert wl_similarity(g1, g2, h=3) == 0.0

    def test_self_similarity_symmetry_range(self):
        rng = random.Random(77)
        for _ in range(200):
            g1 = random_digraph(rng)
            g2 = random_digraph(rng)
            assert wl_similarity(g1, g1, h=3) == 1.0
            s12 = wl_similarity(g1, g2, h=3)
            s21 = wl_similarity(g2, g1, h=3)
            assert s12 == s21
            assert 0.0 <= s12 <= 1.0

    def test_empty_graph_conventions(self, caplog):
        empty = CfgGraph(nodes=(), edges=())
        some = path_graph()
        with caplog.at_level("WARNING"):
            assert wl_similarity(empty, some) == 0.0
            assert wl_similarity(empty, empty) == 1.0
        assert len(caplog.records) == 2

    def test_h_validation(self):
        with pytest.raises(ValueError):
            wl_similarity(path_graph(), path_graph(), h=0)


class TestSimilarity:
    def test_identical_samples(self):
        assert similarity(path_graph(), path_graph()) == 1.0

    def test_single_kernel_passthrough(self):
        cfg = GateConfig(kernel_set=("wl",), wl_iterations=1)
        expected = wl_similarity(path_graph(), triangle_graph(), h=1)
        assert similarity(path_graph(), triangle_graph(), cfg) == expected

    def test_mean_of_kernels(self):
        register_kernel("stub_low", lambda a, b, h: 0.2)
        register_kernel("stub_high", lambda a, b, h: 0.6)
        try:
            cfg = GateConfig(kernel_set=("stub_low", "stub_high"))
            assert similarity(path_graph(), triangle_graph(), cfg) == pytest.approx(0.4)
            assert {"stub_low", "stub_high", "wl"} <= set(kernel_names())
        finally:
            from planlens import gating

            gating._KERNELS.pop("stub_low")
            gating._KERNELS.pop("stub_high")

    def test_missing_graph_is_nograph_error(self):
        with pytest.raises(NoGraphError):
            similarity(None, path_graph())

    def test_unknown_kernel_rejected(self):
        cfg = GateConfig(kernel_set=("missing",))
        with pytest.raises(KeyError):
            similarity(path_graph(), path_graph(), cfg)


class TestGate:
    def test_failed_suppresses_reference_and_performance(self):
        decision = gate(OutcomeLevel.FAILED, 0.9)
        assert decision.phase is Phase.CORRECTNESS
        assert decision.admitted_components == Coalition.of(D)
        assert decision.s is None

    def test_compiled_still_correctness(self):
        decision = gate(OutcomeLevel.COMPILED, None)
        assert decision.phase is Phase.CORRECTNESS

    def test_pass_below_threshold_explores_structure(self):
        decision = gate(OutcomeLevel.PASS, 0.30)
        assert decision.phase is Phase.STRUCTURAL_EXPLORATION
        assert A in decision.admitted_components
        assert P not in decision.admitted_components

    def test_boundary_is_exploitation(self):
        decision = gate(OutcomeLevel.PASS, 0.42)
        assert decision.phase is Phase.PERFORMANCE_EXPLOITATION
        assert decision.admitted_components == Coalition.of(D, A, P)

    def test_truth_table_exhaustive(self):
        cfg = GateConfig(tau_s=0.42)
        cases = [
            (OutcomeLevel.FAILED, 0.1, Phase.CORRECTNESS),
            (OutcomeLevel.FAILED, 0.9, Phase.CORRECTNESS),
            (OutcomeLevel.COMPILED, 0.1, Phase.CORRECTNESS),
            (OutcomeLevel.COMPILED, 0.9, Phase.CORRECTNESS),
            (OutcomeLevel.PASS, 0.41, Phase.STRUCTURAL_EXPLORATION),
            (OutcomeLevel.PASS, 0.42, Phase.PERFORMANCE_EXPLOITATION),
            (OutcomeLevel.FAST, 0.41, Phase.STRUCTURAL_EXPLORATION),
            (OutcomeLevel.FAST, 0.42, Phase.PERFORMANCE_EXPLOITATION),
        ]
        for status, s, expected in cases:
            assert gate(status, s, cfg).phase is expected

    def test_passing_without_similarity_is_error(self):
        with pytest.raises(GateInputError):
            gate(OutcomeLevel.PASS, None)

    def test_monotone_in_similarity(self):
        cfg = GateConfig(tau_s=0.5)
        previous = None
        for s in (0.0, 0.2, 0.49, 0.5, 0.7, 1.0):
            rank = phase_rank(gate(OutcomeLevel.PASS, s, cfg).phase)
            if previous is not None:
                assert rank >= previous
            previous = rank

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GateConfig(tau_s=1.5)
        with pytest.raises(ValueError):
            GateConfig(wl_iterations=0)
        with pytest.raises(ValueError):
            GateConfig(kernel_set=())


class TestReferenceSelection:
    def test_best_sample_policy(self):
        cp = build_checkpoint(3)
        passing = cp.samples[1].with_execution(
            ExecutionRecord(compiled=True, validations_passed=True)
        )
        samples = (cp.samples[0], passing, cp.samples[2])
        cp = type(cp)(trajectory_id="t", g=0, samples=samples)
        assert best_sample_reference(cp).sample_id == passing.sample_id

    def test_tie_broken_by_id(self):
        cp = build_checkpoint(3)
        assert best_sample_reference(cp).sample_id == "s000"

    def test_empty_checkpoint(self):
        cp = build_checkpoint(0)
        assert best_sample_reference(cp) is None


def raw_artifacts(sample_id):
    return [
        FeedbackArtifact(
            component=c,
            representation=Representation.RAW,
            payload=f"{c.name} for {sample_id}",
            source_sample=sample_id,
        )
        for c in default_components()
    ]


class TestLazySummarization:
    def test_never_referenced_never_summarized(self):
        summarizer = MockSummarizer()
        LazySummaryCache(summarizer)
        assert summarizer.calls == 0

    def test_referenced_twice_single_call_batch(self):
        summarizer = MockSummarizer()
        cache = LazySummaryCache(summarizer)
        sample = Sample(sample_id="ref0", generation_index=0)
        arts = raw_artifacts("ref0")
        first = cache.summaries_for(sample, arts)
        calls_after_first = summarizer.calls
        second = cache.summaries_for(sample, arts)
        assert summarizer.calls == calls_after_first == len(arts)
        assert first == second

    def test_call_count_scales_with_referenced_samples(self):
        summarizer = MockSummarizer()
        cache = LazySummaryCache(summarizer)
        samples = [Sample(sample_id=f"s{i}", generation_index=0) for i in range(10)]
        for sample in samples[:3]:
            cache.summaries_for(sample, raw_artifacts(sample.sample_id))
        assert summarizer.calls == 3 * len(default_components())
        assert len(cache) == 3

    def test_failure_leaves_cache_empty_and_retries(self):
        class FlakySummarizer:
            def __init__(self):
                self.calls = 0
                self.fail_next = True

            def summarize(self, artifacts):
                self.calls += 1
                if self.fail_next:
                    self.fail_next = False
                    raise RuntimeError("backend down")
                return tuple(artifacts)

        flaky = FlakySummarizer()
        cache = LazySummaryCache(flaky)
        sample = Sample(sample_id="ref0", generation_index=0)
        with pytest.raises(RuntimeError):
            cache.summaries_for(sample, raw_artifacts("ref0"))
        assert len(cache) == 0
        result = cache.summaries_for(sample, raw_artifacts("ref0"))
        assert len(result) == 3
        assert len(cache) == 1

    def test_concurrent_misses_summarize_once(self):
        summarizer = HeldSummarizer()
        cache = LazySummaryCache(summarizer)
        sample = Sample(sample_id="ref0", generation_index=0)
        arts = raw_artifacts("ref0")

        def select():
            return cache.summaries_for(sample, arts)

        first, second = run_in_threads(select, select, summarizer.first_started)
        assert summarizer.invocations == 1
        assert first is second
        assert len(cache) == 1
