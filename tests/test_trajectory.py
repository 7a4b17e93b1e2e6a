import json
import random
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planlens.trajectory import (
    ExecutionRecord,
    GenerationCheckpoint,
    GenerationNotFoundError,
    MalformedRecordError,
    OutcomeLevel,
    Sample,
    StoreFormatError,
    TrajectoryStore,
    classify_execution,
    generation_stats,
    load_checkpoint,
    sample_best_outcome,
    save_checkpoint,
    stats_to_csv,
)

FAILED = ExecutionRecord(compiled=False)
COMPILED = ExecutionRecord(compiled=True)
PASSED = ExecutionRecord(compiled=True, validations_passed=True)
FAST = ExecutionRecord(compiled=True, validations_passed=True, speedup_vs_baseline=1.7)

RECORD_BY_LEVEL = {
    OutcomeLevel.FAILED: FAILED,
    OutcomeLevel.COMPILED: COMPILED,
    OutcomeLevel.PASS: PASSED,
    OutcomeLevel.FAST: FAST,
}


def make_sample(sid, levels, g=0, parent=None):
    return Sample(
        sample_id=sid,
        generation_index=g,
        parent_id=parent,
        program_text=f"prog {sid}",
        executions=tuple(RECORD_BY_LEVEL[lv] for lv in levels),
    )


class TestClassifyExecution:
    def test_not_compiled_is_failed(self):
        assert classify_execution(FAILED) is OutcomeLevel.FAILED

    def test_compiled_only(self):
        assert classify_execution(COMPILED) is OutcomeLevel.COMPILED

    def test_speedup_above_one_is_fast(self):
        assert classify_execution(FAST) is OutcomeLevel.FAST

    def test_pass_without_speedup(self):
        assert classify_execution(PASSED) is OutcomeLevel.PASS

    def test_tie_speedup_is_not_fast(self):
        rec = ExecutionRecord(
            compiled=True, validations_passed=True, speedup_vs_baseline=1.0
        )
        assert classify_execution(rec) is OutcomeLevel.PASS

    def test_malformed_validation_without_compile(self):
        rec = ExecutionRecord(compiled=False, validations_passed=True)
        with pytest.raises(MalformedRecordError):
            classify_execution(rec)

    def test_malformed_speedup_without_validation(self):
        rec = ExecutionRecord(
            compiled=True, validations_passed=False, speedup_vs_baseline=2.0
        )
        with pytest.raises(MalformedRecordError):
            classify_execution(rec)

    def test_level_order_is_total(self):
        levels = list(OutcomeLevel)
        assert levels == sorted(levels)
        assert OutcomeLevel.FAILED < OutcomeLevel.COMPILED < OutcomeLevel.PASS < OutcomeLevel.FAST


class TestBestOutcome:
    def test_empty_is_failed(self):
        assert sample_best_outcome(make_sample("s", [])) is OutcomeLevel.FAILED

    def test_max_of_order(self):
        s = make_sample("s", [OutcomeLevel.FAILED, OutcomeLevel.COMPILED, OutcomeLevel.PASS])
        assert sample_best_outcome(s) is OutcomeLevel.PASS

    def test_fast_dominates(self):
        # Oracle: enumerate max over the order by brute force.
        levels = [OutcomeLevel.COMPILED, OutcomeLevel.FAST, OutcomeLevel.FAILED]
        expected = max(levels)
        assert sample_best_outcome(make_sample("s", levels)) is expected

    @given(
        st.lists(st.sampled_from(list(OutcomeLevel)), max_size=8),
        st.sampled_from(list(OutcomeLevel)),
    )
    def test_appending_never_lowers(self, levels, extra):
        base = make_sample("s", levels)
        extended = replace(base, executions=base.executions + (RECORD_BY_LEVEL[extra],))
        assert sample_best_outcome(extended) >= sample_best_outcome(base)


def checkpoint_of(samples, g=0):
    return GenerationCheckpoint(trajectory_id="t", g=g, samples=tuple(samples))


class TestGenerationStats:
    def test_direct_fraction(self):
        samples = [
            make_sample(f"s{i}", [OutcomeLevel.PASS if i < 6 else OutcomeLevel.FAILED])
            for i in range(10)
        ]
        stats = generation_stats(checkpoint_of(samples), k=5)
        assert stats.rate_pass == 0.6
        assert stats.rate_overall == 0.6

    def test_saturation(self):
        samples = [make_sample(f"s{i}", [OutcomeLevel.FAST]) for i in range(4)]
        stats = generation_stats(checkpoint_of(samples), k=1)
        assert (stats.rate_compiled, stats.rate_pass, stats.rate_fast) == (1.0, 1.0, 1.0)

    def test_mixed_outcomes_k2(self):
        # Brute force over the 4 samples: best of first 2 executions each is
        # (Pass, Failed, Compiled, Pass).
        C, P, X = OutcomeLevel.COMPILED, OutcomeLevel.PASS, OutcomeLevel.FAILED
        per_sample = [[C, P], [X, X], [C, C], [P, X]]
        samples = [make_sample(f"s{i}", lv) for i, lv in enumerate(per_sample)]
        stats = generation_stats(checkpoint_of(samples), k=2)
        assert stats.rate_compiled == 0.75
        assert stats.rate_pass == 0.5
        assert stats.rate_fast == 0.0

    def test_empty_checkpoint_flagged(self):
        stats = generation_stats(checkpoint_of([]), k=5)
        assert stats.empty
        assert stats.n_samples == 0
        assert stats.rate_compiled == stats.rate_pass == stats.rate_fast == 0.0

    def test_scores_only_first_k(self):
        s = make_sample("s", [OutcomeLevel.FAILED, OutcomeLevel.FAST])
        assert generation_stats(checkpoint_of([s]), k=1).rate_fast == 0.0
        assert generation_stats(checkpoint_of([s]), k=2).rate_fast == 1.0

    def test_rate_for_rejects_unknown_metric(self):
        stats = generation_stats(checkpoint_of([]), k=1)
        with pytest.raises(ValueError):
            stats.rate_for("speed")


def random_checkpoint(rng, n_samples=None, max_exec=6):
    n = rng.randint(0, 8) if n_samples is None else n_samples
    samples = []
    for i in range(n):
        levels = [
            rng.choice(list(OutcomeLevel)) for _ in range(rng.randint(0, max_exec))
        ]
        samples.append(make_sample(f"s{i}", levels))
    return checkpoint_of(samples)


class TestRateLattice:
    def test_nesting_and_passk_monotonicity(self):
        rng = random.Random(1234)
        for _ in range(300):
            cp = random_checkpoint(rng)
            previous = None
            for k in range(1, 8):
                stats = generation_stats(cp, k)
                assert stats.rate_fast <= stats.rate_pass <= stats.rate_compiled
                if previous is not None:
                    assert previous.rate_compiled <= stats.rate_compiled
                    assert previous.rate_pass <= stats.rate_pass
                    assert previous.rate_fast <= stats.rate_fast
                previous = stats


class TestStore:
    def build_store(self):
        store = TrajectoryStore("traj-1")
        store.append(make_sample("a0", [OutcomeLevel.PASS], g=0))
        store.append(make_sample("a1", [OutcomeLevel.COMPILED], g=0))
        store.append(make_sample("b0", [OutcomeLevel.FAST], g=1, parent="a0"))
        store.set_references(1, ["a0"])
        return store

    def test_lineage_generation_check(self):
        store = self.build_store()
        with pytest.raises(ValueError, match="parent's \\+ 1"):
            store.append(make_sample("bad", [], g=5, parent="a0"))

    def test_unknown_parent_rejected(self):
        store = self.build_store()
        with pytest.raises(ValueError, match="unknown parent"):
            store.append(make_sample("bad", [], g=1, parent="nope"))

    def test_duplicate_id_rejected(self):
        store = self.build_store()
        with pytest.raises(ValueError, match="duplicate"):
            store.append(make_sample("a0", [], g=0))

    def test_freeze_unknown_generation(self):
        store = self.build_store()
        with pytest.raises(GenerationNotFoundError):
            store.freeze(9)

    def test_freeze_idempotent(self):
        store = self.build_store()
        assert store.freeze(1) == store.freeze(1)

    def test_freeze_snapshot_isolation(self):
        store = self.build_store()
        cp = store.freeze(0)
        before = cp.checkpoint_hash
        store.append(make_sample("a2", [OutcomeLevel.FAST], g=0))
        assert cp.sample_ids() == ("a0", "a1")
        assert cp.checkpoint_hash == before
        assert store.freeze(0).sample_ids() == ("a0", "a1", "a2")

    def test_references_snapshotted(self):
        store = self.build_store()
        assert store.freeze(1).cached_references == ("a0",)

    def test_roundtrip(self, tmp_path):
        store = self.build_store()
        path = tmp_path / "traj.ndjson"
        store.save(str(path))
        loaded = TrajectoryStore.load(str(path))
        assert loaded.trajectory_id == "traj-1"
        assert len(loaded) == len(store)
        for sample in store.iter_samples():
            assert loaded.get(sample.sample_id) == sample
        # save(load(x)) is byte-identical: canonical key ordering.
        path2 = tmp_path / "traj2.ndjson"
        loaded.save(str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_store_roundtrip(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        TrajectoryStore("t").save(str(path))
        assert len(TrajectoryStore.load(str(path))) == 0

    def test_generated_fixture_roundtrip(self, tmp_path):
        rng = random.Random(7)
        store = TrajectoryStore("big")
        previous_gen: list[str] = []
        for g in range(3):
            current = []
            for i in range(25):
                sid = f"g{g}s{i}"
                parent = rng.choice(previous_gen) if previous_gen else None
                levels = [rng.choice(list(OutcomeLevel)) for _ in range(rng.randint(1, 4))]
                store.append(make_sample(sid, levels, g=g, parent=parent))
                current.append(sid)
            previous_gen = current
        path = tmp_path / "big.ndjson"
        store.save(str(path))
        loaded = TrajectoryStore.load(str(path))
        assert len(loaded) == 75
        for sample in store.iter_samples():
            assert loaded.get(sample.sample_id).parent_id == sample.parent_id

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"trajectory_id": "t", "sample_id": "a", "generation_index": 0}\nnot json\n')
        with pytest.raises(StoreFormatError, match="line 2"):
            TrajectoryStore.load(str(path))

    @pytest.mark.parametrize("line", ["5", "[]", '"t"', "null"])
    def test_non_object_line_is_format_error(self, tmp_path, line):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"trajectory_id": "t", "sample_id": "a", "generation_index": 0}\n' + line + "\n")
        with pytest.raises(StoreFormatError, match="line 2: record is not a JSON object"):
            TrajectoryStore.load(str(path))


class TestCheckpointFiles:
    def test_checkpoint_roundtrip(self, tmp_path):
        store = TestStore().build_store()
        cp = store.freeze(1)
        path = tmp_path / "cp.ndjson"
        save_checkpoint(cp, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded == cp
        header = json.loads(path.read_text().splitlines()[0])
        assert header["checkpoint"]["g"] == 1
        assert header["checkpoint"]["reference_ids"] == ["a0"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "cp.ndjson"
        path.write_text('{"sample_id": "a", "generation_index": 0}\n')
        with pytest.raises(StoreFormatError, match="header"):
            load_checkpoint(str(path))


def test_stats_csv_layout():
    samples = [make_sample("s0", [OutcomeLevel.PASS]), make_sample("s1", [OutcomeLevel.FAILED])]
    stats = generation_stats(checkpoint_of(samples, g=3), k=5)
    text = stats_to_csv([stats], meta="planlens test")
    lines = text.strip().splitlines()
    assert lines[0] == "# planlens test"
    assert lines[1] == "g,metric,rate,k,n_samples"
    assert "3,pass,0.5,5,2" in lines
