"""Acceptance suite: one test per acceptance criterion.

Each criterion prints a single pass/fail line. Run with
``pytest tests/test_acceptance.py -v -s`` to see them inline.
"""

import math
import random
import time
from collections import Counter

import pytest

from conftest import build_checkpoint, build_pipe
from planlens.agents import Effect, MockBehavior, MockSummarizer, mock_bundle
from planlens.attribution import (
    CharacteristicTable,
    GameSpec,
    attribute,
    banzhaf,
    banzhaf_three_player,
    banzhaf_two_player,
    payoffs_from_three_player_values,
    payoffs_from_two_player_values,
    sweep_characteristic_tables,
    synergy_pair,
    synergy_pair_adjusted,
    synergy_three,
)
from planlens.cli import synthetic_artifact_source
from planlens.costmodel import CostParams, b_e2e, b_pipe, depth_slopes, scaling_table
from planlens.feedback import (
    Coalition,
    FeedbackArtifact,
    Representation,
    default_components,
    plan_feedback_players,
)
from planlens.gating import (
    CfgGraph,
    GateConfig,
    LazySummaryCache,
    Phase,
    gate,
    wl_similarity,
)
from planlens.pipeline import (
    ExecutionMode,
    Intervention,
    InterventionPipeline,
    PipelineConfig,
    archive_run,
    make_rollout_fn,
    replay_load,
)
from planlens.trajectory import (
    ExecutionRecord,
    GenerationCheckpoint,
    OutcomeLevel,
    Sample,
    generation_stats,
)

D, A, P = default_components()
THREE = default_components()
TWO = plan_feedback_players()


def announce(cid: int, label: str, started: float) -> None:
    elapsed = time.time() - started
    print(f"\n[acceptance] criterion {cid:2d} PASS ({elapsed:5.1f}s) {label}")


def fail_line(cid: int, label: str) -> None:
    print(f"\n[acceptance] criterion {cid:2d} FAIL {label}")


class _Criterion:
    def __init__(self, cid, label):
        self.cid = cid
        self.label = label
        self.started = time.time()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            announce(self.cid, self.label, self.started)
        else:
            fail_line(self.cid, self.label)
        return False


def table_from_list(payoffs, players, metric="overall", g=0):
    spec = GameSpec(players=players, metric=metric, g=g)
    table = CharacteristicTable(spec)
    for mask, v in enumerate(payoffs):
        table.set(Coalition(mask), v)
    return table


def dyadic(rng, bits=20):
    return rng.randrange((1 << bits) + 1) / (1 << bits)


def test_criterion_01_banzhaf_oracle_equivalence():
    with _Criterion(1, "closed forms match the general coalition average <= 1e-12"):
        started = time.time()
        rng = random.Random(101)
        for _ in range(1000):
            two = table_from_list([rng.random() for _ in range(4)], TWO)
            phi_f, phi_p = banzhaf_two_player(two)
            assert abs(phi_f - banzhaf(two, TWO[0])) <= 1e-12
            assert abs(phi_p - banzhaf(two, TWO[1])) <= 1e-12
            three = table_from_list([rng.random() for _ in range(8)], THREE)
            for player in THREE:
                closed = banzhaf_three_player(three, player)
                assert abs(closed - banzhaf(three, player)) <= 1e-12
        assert time.time() - started < 5.0


def test_criterion_02_algebraic_identities_exact():
    with _Criterion(2, "efficiency, dummy, symmetry, linearity, additive zeroing (exact)"):
        rng = random.Random(202)
        for _ in range(1000):
            # Dyadic payoffs keep every marginal sum exactly representable,
            # so these identities hold with == rather than a tolerance.
            two = table_from_list([dyadic(rng) for _ in range(4)], TWO)
            phi_f, phi_p = banzhaf_two_player(two)
            assert phi_f + phi_p == two.values[3] - two.values[0]

            three = table_from_list([dyadic(rng) for _ in range(8)], THREE)

            # Dummy player: clone payoffs so adding D never changes them.
            dummy_payoffs = list(three.values[m & ~D.bit] for m in range(8))
            dummy = table_from_list(dummy_payoffs, THREE)
            assert banzhaf(dummy, D) == 0.0

            # Symmetry: swapping D and A swaps their values, fixes the pair.
            swapped_payoffs = [0.0] * 8
            for mask in range(8):
                new_mask = mask & ~(D.bit | A.bit)
                if mask & D.bit:
                    new_mask |= A.bit
                if mask & A.bit:
                    new_mask |= D.bit
                swapped_payoffs[new_mask] = three.values[mask]
            swapped = table_from_list(swapped_payoffs, THREE)
            assert banzhaf(three, D) == banzhaf(swapped, A)
            assert banzhaf(three, A) == banzhaf(swapped, D)
            assert synergy_pair(three, D, A) == synergy_pair(swapped, D, A)

            # Linearity over dyadic scalars.
            other = table_from_list([dyadic(rng) for _ in range(8)], THREE)
            alpha = rng.randrange(-8, 9) / 4.0
            beta = rng.randrange(-8, 9) / 4.0
            combo = table_from_list(
                [alpha * three.values[m] + beta * other.values[m] for m in range(8)],
                THREE,
            )
            for player in THREE:
                assert banzhaf(combo, player) == alpha * banzhaf(
                    three, player
                ) + beta * banzhaf(other, player)

            # Additive game: every synergy order vanishes exactly.
            weights = [dyadic(rng) for _ in range(3)]
            additive = table_from_list(
                [
                    sum(w for j, w in enumerate(weights) if mask & (1 << j))
                    for mask in range(8)
                ],
                THREE,
            )
            assert synergy_three(additive) == 0.0
            for i, j in ((D, A), (D, P), (A, P)):
                assert synergy_pair(additive, i, j) == 0.0
                assert synergy_pair_adjusted(additive, i, j) == 0.0


# Published two-player rows (phi_F, phi_P, sigma_FP) per generation.
TWO_PLAYER_ROWS = [
    ("weak-a gen 0", 0, (0.0, 0.200, 0.0)),
    ("weak-a gen 5", 5, (0.040, 0.060, 0.400)),
    ("weak-b gen 0", 0, (-0.317, -0.150, 0.300)),
    ("strong-a gen 2", 2, (-0.178, 0.227, 0.347)),
    ("strong-b gen 7", 7, (0.333, 0.0, 0.0)),
]

# Published three-player columns: phi (d, a, p), adjusted pairwise
# (da, dp, ap), three-way.
THREE_PLAYER_ROWS = [
    (
        "weak-a compiled gen 0",
        "compiled",
        0,
        (0.056, 0.222, 0.056),
        (0.444, 0.111, 0.444),
        -0.333,
    ),
    (
        "weak-a pass gen 5",
        "pass",
        5,
        (0.072, 0.006, 0.322),
        (-0.289, -0.456, -0.322),
        0.367,
    ),
    (
        "strong-b pass gen 7",
        "pass",
        7,
        (0.028, 0.278, 0.028),
        (-0.278, -0.778, -1.278),
        0.833,
    ),
    (
        "strong-a fast gen 6",
        "fast",
        6,
        (-0.175, -0.050, 0.075),
        (-0.300, -0.550, -0.800),
        0.600,
    ),
]


def test_criterion_03_published_table_reproduction():
    with _Criterion(3, "published attribution rows reproduced from reconstructed payoffs <= 1e-9"):
        rows_checked = 0
        for label, g, (phi_f, phi_p, sigma) in TWO_PLAYER_ROWS:
            spec = GameSpec(players=TWO, metric="overall", g=g)
            table = payoffs_from_two_player_values(spec, phi_f, phi_p, sigma)
            assert table.values[0] == 0.0
            got_f, got_p = banzhaf_two_player(table)
            assert abs(got_f - phi_f) <= 1e-9, label
            assert abs(got_p - phi_p) <= 1e-9, label
            assert abs(synergy_pair(table, *TWO) - sigma) <= 1e-9, label
            # The general evaluation agrees with the closed form on the row.
            assert abs(banzhaf(table, TWO[0]) - phi_f) <= 1e-9, label
            rows_checked += 1
        for label, metric, g, phi, adjusted, three_way in THREE_PLAYER_ROWS:
            spec = GameSpec(players=THREE, metric=metric, g=g)
            table = payoffs_from_three_player_values(spec, phi, adjusted, three_way)
            assert table.values[0] == 0.0
            report = attribute(table)
            for j, player in enumerate(THREE):
                assert abs(report.phi[player.name] - phi[j]) <= 1e-9, label
            pairs = report.sigma_pair_adjusted
            assert abs(pairs[(D.name, A.name)] - adjusted[0]) <= 1e-9, label
            assert abs(pairs[(D.name, P.name)] - adjusted[1]) <= 1e-9, label
            assert abs(pairs[(A.name, P.name)] - adjusted[2]) <= 1e-9, label
            assert abs(report.sigma_full - three_way) <= 1e-9, label
            rows_checked += 1
        assert rows_checked >= 5


def planted_tables(behavior, metric, seed, n_samples=12, rollouts=500):
    checkpoint = build_checkpoint(n_samples)
    config = PipelineConfig(
        k=1,
        seed=seed,
        execution_mode=ExecutionMode.SERIAL,
        record_trace=False,
    )
    source = synthetic_artifact_source(checkpoint, default_components())
    pipe = InterventionPipeline(mock_bundle(behavior), source, config=config)
    rollout = make_rollout_fn(pipe)
    specs = [GameSpec(players=THREE, metric=metric, g=0)]
    return sweep_characteristic_tables(checkpoint, specs, rollout, rollouts, seed)[0]


def test_criterion_04_planted_effect_recovery():
    with _Criterion(4, "planted mock effects recovered by estimation + attribution"):
        started = time.time()
        # Independent effect: analyzer alone adds +0.3 compile probability.
        independent = MockBehavior(
            seed=11,
            base_compiled=0.3,
            base_pass=0.1,
            base_fast=0.0,
            effects=(Effect(requires=A.bit, level=OutcomeLevel.COMPILED, delta=0.3),),
        )
        table = planted_tables(independent, "compiled", seed=1)
        report = attribute(table)
        assert 0.25 <= report.phi[A.name] <= 0.35
        for value in report.sigma_pair.values():
            assert abs(value) <= 0.05
        for value in report.sigma_pair_adjusted.values():
            assert abs(value) <= 0.05
        assert abs(report.sigma_full) <= 0.05

        # Pairwise-only effect: +0.4 pass probability iff {d, a} enabled.
        pairwise = MockBehavior(
            seed=13,
            base_compiled=1.0,
            base_pass=0.2,
            base_fast=0.0,
            effects=(
                Effect(requires=D.bit | A.bit, level=OutcomeLevel.PASS, delta=0.4),
            ),
        )
        table = planted_tables(pairwise, "pass", seed=2)
        report = attribute(table)
        pairs = report.sigma_pair_adjusted
        assert 0.33 <= pairs[(D.name, A.name)] <= 0.47
        assert abs(pairs[(D.name, P.name)]) <= 0.05
        assert abs(pairs[(A.name, P.name)]) <= 0.05
        elapsed = time.time() - started
        assert elapsed < 120.0, f"planted-effect recovery took {elapsed:.1f}s"


def test_criterion_05_order_independence():
    with _Criterion(5, "100 randomized schedules and all modes agree bit-exactly"):
        checkpoint = build_checkpoint(25)
        reference = None
        for schedule_seed in range(100):
            config = PipelineConfig(k=5, seed=77, schedule_seed=schedule_seed)
            pipe = build_pipe(checkpoint, config=config)
            run_id = pipe.submit(checkpoint, Intervention(coalition=Coalition(7)))
            stats = pipe.run_to_completion(run_id).stats
            if reference is None:
                reference = stats
            assert stats == reference
        for mode in ExecutionMode:
            config = PipelineConfig(k=5, seed=77, execution_mode=mode)
            pipe = build_pipe(checkpoint, config=config)
            run_id = pipe.submit(checkpoint, Intervention(coalition=Coalition(7)))
            assert pipe.run_to_completion(run_id).stats == reference


def test_criterion_06_throughput_ordering():
    with _Criterion(6, "multi-async < stage-sync < serial makespan on 1500 programs"):
        started = time.time()
        checkpoint = build_checkpoint(100)
        makespans = {}
        for mode in ExecutionMode:
            config = PipelineConfig(
                generator_concurrency=16,
                eval_concurrency=32,
                k=5,
                rounds=3,
                seed=6,
                execution_mode=mode,
                record_trace=False,
                queue_capacity=10_000,
            )
            pipe = build_pipe(checkpoint, config=config)
            run_id = pipe.submit(checkpoint, Intervention(coalition=Coalition(7)))
            result = pipe.run_to_completion(run_id)
            assert result.programs == 1500
            makespans[mode] = result.makespan
        assert (
            makespans[ExecutionMode.MULTI_ASYNC]
            < makespans[ExecutionMode.STAGE_SYNC]
            < makespans[ExecutionMode.SERIAL]
        )
        speedup = makespans[ExecutionMode.SERIAL] / makespans[ExecutionMode.MULTI_ASYNC]
        assert speedup >= 1.5, f"multi-async only {speedup:.2f}x faster than serial"
        assert time.time() - started < 60.0


def test_criterion_07_cost_model():
    with _Criterion(7, "volume formulas and additive-vs-multiplicative slopes"):
        params = CostParams(
            depth=10,
            population=25,
            repetitions=5,
            feedback_components=3,
            checkpoints=3,
            k_local=3,
        )
        assert b_e2e(params) == 10000
        assert b_pipe(params) == 2050
        slope_e2e, slope_pipe = depth_slopes(params)
        assert slope_pipe == 25  # additive in depth: slope N
        assert slope_e2e == 8 * 5 * 25  # multiplicative: slope V*R*N
        rows = scaling_table(params, range(10, 40))
        for a, b in zip(rows, rows[1:]):
            assert b.volume_pipe - a.volume_pipe == slope_pipe
            assert b.volume_e2e - a.volume_e2e == slope_e2e


def test_criterion_08_gate_truth_table_and_lazy_summaries():
    with _Criterion(8, "phase truth table (boundary inclusive) + lazy summarization audit"):
        cfg = GateConfig(tau_s=0.42)
        assert gate(OutcomeLevel.FAILED, 0.9, cfg).phase is Phase.CORRECTNESS
        assert gate(OutcomeLevel.COMPILED, 0.9, cfg).phase is Phase.CORRECTNESS
        assert gate(OutcomeLevel.PASS, 0.30, cfg).phase is Phase.STRUCTURAL_EXPLORATION
        assert gate(OutcomeLevel.PASS, 0.42, cfg).phase is Phase.PERFORMANCE_EXPLOITATION
        assert gate(OutcomeLevel.FAST, 0.41, cfg).phase is Phase.STRUCTURAL_EXPLORATION
        assert gate(OutcomeLevel.FAST, 0.99, cfg).phase is Phase.PERFORMANCE_EXPLOITATION
        assert gate(OutcomeLevel.FAILED, None, cfg).admitted_components == Coalition.of(D)

        summarizer = MockSummarizer()
        cache = LazySummaryCache(summarizer)
        samples = [Sample(sample_id=f"s{i}", generation_index=0) for i in range(10)]
        referenced = [samples[1], samples[4], samples[7]]
        for sample in referenced:
            artifacts = [
                FeedbackArtifact(
                    component=c,
                    representation=Representation.RAW,
                    payload=f"{c.name} for {sample.sample_id}",
                    source_sample=sample.sample_id,
                )
                for c in THREE
            ]
            cache.summaries_for(sample, artifacts)
            cache.summaries_for(sample, artifacts)  # second selection: cache hit
        assert summarizer.invocations == len(referenced)


def random_digraph(rng, max_nodes=8):
    n = rng.randint(1, max_nodes)
    ids = [f"n{i}" for i in range(n)]
    edges = []
    for src in ids:
        for dst in ids:
            if rng.random() < 0.3:
                edges.append((src, dst))
    out_degree = Counter(src for src, _ in edges)
    labels = {nid: rng.choice("xyz") for nid in ids}
    nodes = tuple((nid, labels[nid]) for nid in ids)
    return CfgGraph(nodes=nodes, edges=tuple(edges))


def test_criterion_09_wl_kernel_properties_and_hand_value():
    with _Criterion(9, "WL kernel: self-sim, symmetry, range, hand-computed oracle"):
        rng = random.Random(909)
        for _ in range(200):
            g1 = random_digraph(rng)
            g2 = random_digraph(rng)
            assert wl_similarity(g1, g1, h=3) == 1.0
            s = wl_similarity(g1, g2, h=3)
            assert s == wl_similarity(g2, g1, h=3)
            assert 0.0 <= s <= 1.0
        # Hand WL iteration, h=1, uniform labels "n": path a->b->c vs the
        # 3-cycle. Feature counts (iteration, label): path {(0,n):3,
        # (1,n|n):2, (1,n|):1}, cycle {(0,n):3, (1,n|n):3}; cosine =
        # 15/sqrt(14*18).
        path = CfgGraph(
            nodes=(("a", "n"), ("b", "n"), ("c", "n")),
            edges=(("a", "b"), ("b", "c")),
        )
        cycle = CfgGraph(
            nodes=(("a", "n"), ("b", "n"), ("c", "n")),
            edges=(("a", "b"), ("b", "c"), ("c", "a")),
        )
        expected = 15.0 / math.sqrt(14.0 * 18.0)
        assert wl_similarity(path, cycle, h=1) == pytest.approx(expected, abs=1e-12)


def random_checkpoint(rng, g=0):
    levels = [
        OutcomeLevel.FAILED,
        OutcomeLevel.COMPILED,
        OutcomeLevel.PASS,
        OutcomeLevel.FAST,
    ]
    records = {
        OutcomeLevel.FAILED: ExecutionRecord(compiled=False),
        OutcomeLevel.COMPILED: ExecutionRecord(compiled=True),
        OutcomeLevel.PASS: ExecutionRecord(compiled=True, validations_passed=True),
        OutcomeLevel.FAST: ExecutionRecord(
            compiled=True, validations_passed=True, speedup_vs_baseline=1.5
        ),
    }
    samples = []
    for i in range(rng.randint(0, 6)):
        executions = tuple(
            records[rng.choice(levels)] for _ in range(rng.randint(0, 5))
        )
        samples.append(
            Sample(sample_id=f"s{i}", generation_index=g, executions=executions)
        )
    return GenerationCheckpoint(trajectory_id="t", g=g, samples=tuple(samples))


def test_criterion_10_metric_lattice_and_replay():
    with _Criterion(10, "rate nesting, pass@k monotonicity, replay without regeneration"):
        rng = random.Random(1010)
        for _ in range(1000):
            checkpoint = random_checkpoint(rng)
            previous = None
            for k in range(1, 7):
                stats = generation_stats(checkpoint, k)
                assert stats.rate_fast <= stats.rate_pass <= stats.rate_compiled
                if previous is not None:
                    assert previous.rate_compiled <= stats.rate_compiled
                    assert previous.rate_pass <= stats.rate_pass
                    assert previous.rate_fast <= stats.rate_fast
                previous = stats

        checkpoint = build_checkpoint(10)
        pipe = build_pipe(checkpoint, config=PipelineConfig(k=3, seed=10))
        run_id = pipe.submit(checkpoint, Intervention(coalition=Coalition(7)))
        original = pipe.run_to_completion(run_id)
        archive_dir = "/tmp/planlens-acceptance-replay"
        import shutil

        shutil.rmtree(archive_dir, ignore_errors=True)
        archive_run(pipe, run_id, archive_dir)
        cache = replay_load(archive_dir, checkpoint)
        fresh = build_pipe(checkpoint, config=PipelineConfig(k=3, seed=10))
        rerun_id = fresh.submit(
            checkpoint, Intervention(coalition=Coalition(7)), replay=cache
        )
        replayed = fresh.run_to_completion(rerun_id)
        assert fresh.agents.generator.calls == 0
        assert replayed.stats == original.stats
