import copy
import gc
import hashlib
import itertools
import json
import math
import os
import re
import sys
import tempfile
import threading
import time
import types
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planlens.pipeline as pipeline_mod
import planlens.trajectory as trajectory_mod
from conftest import (
    HeldSummarizer,
    build_checkpoint,
    build_pipe,
    count_schedule_work,
    event_digest,
    only_stages,
    record_computations,
    run_in_threads,
)
from planlens.agents import (
    HttpPlanner,
    LatencyParams,
    MockBehavior,
    MockPlanner,
    MockSummarizer,
    PlanArtifact,
    mock_bundle,
)
from planlens.attribution import (
    GameSpec,
    attribution_report,
    bundle_to_json,
    sweep_characteristic_tables,
    tables_to_csv,
)
from planlens.cli import synthetic_artifact_source
from planlens.feedback import (
    Coalition,
    FeedbackArtifact,
    Memo,
    Report,
    Representation,
    build_report,
    default_components,
    dummy_plan,
    randomize_feedback,
)
from planlens.pipeline import (
    DEFAULT_LATENCIES,
    CheckpointMutatedError,
    Event,
    EventKind,
    ExecutionMode,
    Intervention,
    InterventionPipeline,
    LatencyModel,
    PipelineConfig,
    PipelineConfigError,
    PipelineStalledError,
    PlanMode,
    ReplayArchiveError,
    ReplayMismatchError,
    Stage,
    Task,
    archive_run,
    export_trace,
    game_intervention,
    make_rollout_fn,
    replay_load,
)
from planlens.seeding import hash_uniform
from planlens.trajectory import GenerationCheckpoint, OutcomeLevel, Sample, classify_execution

D, A, P = default_components()
FULL = Coalition.of(D, A, P)


def run_once(pipe, checkpoint, intervention=None, seed=None, replay=None):
    intervention = intervention or Intervention(coalition=FULL)
    run_id = pipe.submit(checkpoint, intervention, seed=seed, replay=replay)
    return pipe.run_to_completion(run_id), run_id


class TestSubmit:
    def test_empty_checkpoint_completes_immediately(self):
        cp = build_checkpoint(0)
        result, _ = run_once(build_pipe(cp), cp)
        assert result.stats.empty
        assert result.stats.n_samples == 0
        assert result.event_counts[EventKind.AGGREGATED] == 0

    def test_event_count_audit_25_samples_k5(self, checkpoint25):
        pipe = build_pipe(checkpoint25, config=PipelineConfig(k=5, seed=0))
        result, _ = run_once(pipe, checkpoint25)
        assert result.event_counts[EventKind.SAMPLE_LOADED] == 25
        assert result.event_counts[EventKind.CANDIDATES_GENERATED] == 25
        assert result.event_counts[EventKind.EVAL_COMPLETED] <= 125
        assert result.event_counts[EventKind.AGGREGATED] == 25

    def test_conservation_agg_equals_samples(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        result, _ = run_once(pipe, checkpoint25)
        assert result.event_counts[EventKind.AGGREGATED] == len(checkpoint25.samples)

    def test_oversized_coalition_mask_rejected(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        with pytest.raises(PipelineConfigError, match="coalition mask"):
            pipe.submit(checkpoint25, Intervention(coalition=Coalition(8)))

    def test_incomplete_bundle_rejected_before_work(self, checkpoint25):
        bundle = mock_bundle()
        bundle = type(bundle)(
            summarizer=bundle.summarizer,
            planner=None,
            generator=bundle.generator,
            evaluator=bundle.evaluator,
        )
        source = synthetic_artifact_source(checkpoint25, default_components())
        pipe = InterventionPipeline(bundle, source)
        with pytest.raises(ValueError, match="planner"):
            pipe.submit(checkpoint25, Intervention())

    def test_cancel_frees_a_submitted_run(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        run_id = pipe.submit(checkpoint25, Intervention())
        assert len(pipe._ledgers) == 1
        pipe.cancel(run_id)
        assert len(pipe._ledgers) == 0
        for call in (pipe.cancel, pipe.run_to_completion):
            with pytest.raises(PipelineConfigError, match=run_id):
                call(run_id)

    def test_config_validation(self):
        with pytest.raises(PipelineConfigError, match="queue_capacity"):
            PipelineConfig(k=8, queue_capacity=4)

    def test_checkpoint_hash_unchanged_by_run(self, checkpoint25):
        before = checkpoint25.checkpoint_hash
        pipe = build_pipe(checkpoint25)
        run_once(pipe, checkpoint25)
        assert checkpoint25.checkpoint_hash == before


class TestCheckpointGuard:
    """`Sample.metadata` is a mutable mapping inside the frozen checkpoint;
    a change to it must not go unnoticed by a run or a replay."""

    def test_metadata_mutated_mid_run_raises(self):
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, seed=1))
        evaluate = pipe.agents.evaluator.evaluate

        def mutating_evaluate(candidate):
            cp.samples[0].metadata["touched"] = True
            return evaluate(candidate)

        pipe.agents.evaluator.evaluate = mutating_evaluate
        run_id = pipe.submit(cp, Intervention(coalition=FULL))
        with pytest.raises(CheckpointMutatedError, match=run_id):
            pipe.run_to_completion(run_id)

    def test_metadata_mutated_before_replay_submit_raises(self, tmp_path):
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, seed=1))
        result, _ = run_once(pipe, cp)
        archive_run(result, tmp_path)
        cache = replay_load(tmp_path, cp)
        cp.samples[1].metadata["note"] = "edited after archiving"
        with pytest.raises(ReplayMismatchError, match="different checkpoint"):
            pipe.submit(cp, Intervention(coalition=FULL), replay=cache)
        with pytest.raises(ReplayMismatchError, match="mismatch"):
            replay_load(tmp_path, cp)

    def test_hash_follows_metadata_to_empty_and_nested_changes(self):
        cp, fresh = build_checkpoint(3), build_checkpoint(3)
        empty = cp.checkpoint_hash
        cp.samples[0].metadata["note"] = {"tags": ["a"]}
        noted = cp.checkpoint_hash
        cp.samples[0].metadata["note"]["tags"].append("b")  # nested, under a non-empty metadata
        assert len({empty, noted, cp.checkpoint_hash}) == 3
        del cp.samples[0].metadata["note"]
        assert cp.checkpoint_hash == fresh.checkpoint_hash == empty


class TestFanOut:
    def test_generator_failure_isolated(self):
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, fail_attempts=frozenset({("s001", 1)}))
        result, _ = run_once(pipe, cp)
        state = result.ledger.rounds["s001", 0]
        # The failed attempt is counted, not evaluated; the sample still aggregates.
        assert result.event_counts[EventKind.EVAL_COMPLETED] == 3 * 5 - 1
        assert [attempt for attempt, _ in state.failures] == [1]
        assert 1 not in state.candidates and 1 not in state.records
        assert result.programs == 3 * 5
        assert "s001" in result.ledger.best_outcomes

    def test_all_attempts_failing_still_aggregates(self):
        cp = build_checkpoint(2)
        fails = frozenset(("s000", j) for j in range(5))
        pipe = build_pipe(cp, fail_attempts=fails)
        result, _ = run_once(pipe, cp)
        assert result.event_counts[EventKind.EVAL_COMPLETED] == 5
        assert result.event_counts[EventKind.AGGREGATED] == 2
        assert result.ledger.best_outcomes["s000"] is OutcomeLevel.FAILED

    def test_evaluator_crash_becomes_failed_record(self):
        cp = build_checkpoint(2)
        behavior = MockBehavior(seed=1, base_compiled=1.0, base_pass=1.0, base_fast=0.0)
        pipe = build_pipe(cp, behavior=behavior, crash_on=frozenset({("s000", 0)}))
        result, _ = run_once(pipe, cp, Intervention(coalition=FULL))
        records = result.ledger.rounds["s000", 0].records
        assert classify_execution(records[0]) is OutcomeLevel.FAILED
        assert classify_execution(records[1]) is not OutcomeLevel.FAILED

    def test_concurrency_bound_respected(self):
        cp = build_checkpoint(10)
        config = PipelineConfig(generator_concurrency=2, eval_concurrency=4, k=5, seed=3)
        pipe = build_pipe(cp, config=config)
        result, _ = run_once(pipe, cp)
        assert result.max_gen_inflight <= 2

    def test_backpressure_bounds_eval_queue(self):
        cp = build_checkpoint(12)
        config = PipelineConfig(
            generator_concurrency=16,
            eval_concurrency=1,
            k=5,
            queue_capacity=10,
            seed=3,
        )
        pipe = build_pipe(cp, config=config)
        result, _ = run_once(pipe, cp)
        assert result.max_eval_queue <= 10


class TestOrderIndependence:
    def test_eval_permutations_identical_ledger(self):
        # s000's k=3 EVALs start together and finish in each of the 6 orders.
        cp = build_checkpoint(2)

        class OrderedEvals(LatencyModel):
            def __init__(self, order):
                super().__init__(seed=5, params=DEFAULT_LATENCIES)
                self.order = order

            def duration(self, run_seed, task):
                if task.stage is Stage.EVAL and task.sample_id == "s000":
                    return 1.0 + self.order.index(task.attempt)
                return super().duration(run_seed, task)

        behavior = MockBehavior(seed=2)  # s000's attempts reach three levels
        orders, results = set(), []
        for order in itertools.permutations(range(3)):
            pipe = build_pipe(cp, behavior=behavior, config=PipelineConfig(k=3, seed=5))
            pipe.latency_model = OrderedEvals(order)
            result, _ = run_once(pipe, cp)
            evals = [
                (e.payload["attempt"], e.payload["level"])
                for e in result.trace
                if e.kind is EventKind.EVAL_COMPLETED and e.sample_id == "s000"
            ]
            assert tuple(attempt for attempt, _ in evals) == order
            orders.add(order)
            aggregated = {
                e.sample_id: e.payload["best"]
                for e in result.trace
                if e.kind is EventKind.AGGREGATED
            }
            assert result.event_counts[EventKind.AGGREGATED] == len(aggregated) == 2
            state = result.ledger.rounds["s000", 0]
            results.append((result.stats, aggregated, state.records))
        assert len(orders) == 6
        assert len({level for _, level in evals}) == 3  # so the order could matter
        assert all(r == results[0] for r in results)

    def test_randomized_schedules_identical_stats(self, checkpoint25):
        reference = None
        orders = set()
        for schedule_seed in range(12):
            config = PipelineConfig(k=5, seed=7, schedule_seed=schedule_seed)
            pipe = build_pipe(checkpoint25, config=config)
            result, _ = run_once(pipe, checkpoint25)
            if reference is None:
                reference = result.stats
            assert result.stats == reference
            orders.add(tuple((e.kind, e.sample_id) for e in result.trace))
        assert len(orders) > 1  # the seeds really permute the schedule


class TestModes:
    def stats_for(self, mode, checkpoint, seed=11):
        config = PipelineConfig(k=5, seed=seed, execution_mode=mode)
        pipe = build_pipe(checkpoint, config=config)
        result, _ = run_once(pipe, checkpoint)
        return result

    def test_mode_equivalence(self, checkpoint25):
        serial = self.stats_for(ExecutionMode.SERIAL, checkpoint25)
        staged = self.stats_for(ExecutionMode.STAGE_SYNC, checkpoint25)
        asynch = self.stats_for(ExecutionMode.MULTI_ASYNC, checkpoint25)
        assert serial.stats == staged.stats == asynch.stats

    def test_throughput_ordering(self):
        cp = build_checkpoint(40)
        results = {
            mode: self.stats_for(mode, cp, seed=2)
            for mode in (
                ExecutionMode.SERIAL,
                ExecutionMode.STAGE_SYNC,
                ExecutionMode.MULTI_ASYNC,
            )
        }
        assert (
            results[ExecutionMode.MULTI_ASYNC].makespan
            < results[ExecutionMode.STAGE_SYNC].makespan
            < results[ExecutionMode.SERIAL].makespan
        )

    def test_serial_runs_one_task_at_a_time(self):
        cp = build_checkpoint(4)
        config = PipelineConfig(k=2, seed=1, execution_mode=ExecutionMode.SERIAL)
        pipe = build_pipe(cp, config=config)
        result, _ = run_once(pipe, cp)
        assert result.max_gen_inflight <= 1


    @settings(max_examples=100, deadline=None)
    @given(
        mode=st.sampled_from(ExecutionMode),
        llm_slots=st.integers(1, 5),
        eval_slots=st.integers(1, 4),
        k=st.integers(1, 4),
        rounds=st.integers(1, 3),
        spare=st.integers(0, 12),
        schedule_seed=st.none() | st.integers(0, 1000),
        fails=st.frozensets(st.tuples(st.sampled_from(["s000", "s001", "s002", "s003"]), st.integers(0, 3)), max_size=8),
    )
    def test_schedule_invariants(self, mode, llm_slots, eval_slots, k, rounds, spare, schedule_seed, fails):
        cp = build_checkpoint(4)
        config = PipelineConfig(
            generator_concurrency=llm_slots, eval_concurrency=eval_slots, k=k, rounds=rounds, seed=1,
            execution_mode=mode, schedule_seed=schedule_seed, queue_capacity=k + spare,
        )
        result, _ = run_once(build_pipe(cp, config=config, fail_attempts=fails), cp)
        trace = result.trace
        assert result.ledger.max_llm_inflight <= llm_slots and result.max_gen_inflight <= llm_slots
        if mode is not ExecutionMode.STAGE_SYNC:  # the barrier, not backpressure, bounds its queue
            assert result.max_eval_queue <= k + spare
        # One event per task: a sample's load and AGG, a round's ANLZ and GEN, an EVAL's attempt.
        tasks = {(e.kind, e.sample_id, e.payload.get("round"), e.payload.get("attempt")) for e in trace}
        assert len(tasks) == len(trace)
        assert Counter(e.kind for e in trace) == Counter(result.event_counts)
        times = [e.wall_time for e in trace]
        assert times == sorted(times) and times[-1] == result.makespan
        last = {e.sample_id: e.kind for e in trace}
        assert last == dict.fromkeys(cp.sample_ids(), EventKind.AGGREGATED)


def test_behavior_latency_sets_library_makespan():
    cp = build_checkpoint(4)
    slow = MockBehavior(seed=1, latency={"gen": LatencyParams(500.0, 0.0)})
    result, _ = run_once(build_pipe(cp, behavior=slow), cp)
    default, _ = run_once(build_pipe(cp), cp)
    assert result.makespan >= 500.0 > default.makespan
    assert result.stats == default.stats  # latency moves the clock, never an outcome


class TestLatencyModel:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        params=st.dictionaries(
            st.sampled_from(["anlz", "gen", "eval"]),
            st.builds(LatencyParams, st.floats(0, 1e3), st.floats(0, 1e3)),
        ),
        draws=st.lists(
            st.tuples(
                st.integers(0, 2),  # run seed: one model alternates between them
                st.sampled_from(Stage),
                st.text(max_size=4),
                st.integers(0, 3),
                st.integers(-1, 4),
            ),
            min_size=1,
            max_size=12,
        ),
    )
    def test_duration_is_the_tasks_hash_draw(self, seed, params, draws):
        tasks = [(run_seed, Task(0, r, stage, attempt, sid)) for run_seed, stage, sid, r, attempt in draws]
        expected = []
        for run_seed, task in tasks:
            if task.stage is Stage.AGG:
                expected.append(0.0)
                continue
            p = params.get(task.stage.name.lower(), LatencyParams())
            u = hash_uniform(seed, "latency", run_seed, task.stage.name, task.sample_id, task.round_index, task.attempt)
            expected.append(p.mean + p.tail * -math.log(1 - u))
        model = LatencyModel(seed, params)
        alternating = [model.duration(run_seed, task) for run_seed, task in tasks]
        fresh = [LatencyModel(seed, params).duration(run_seed, task) for run_seed, task in tasks]
        assert list(map(float.hex, alternating)) == list(map(float.hex, fresh)) == list(map(float.hex, expected))
        # One drawer per run seed draws every task but AGG as `duration` does, bit for bit.
        drawers = {run_seed: model.drawer(run_seed) for run_seed in range(3)}
        drawn = [(run_seed, task, x) for (run_seed, task), x in zip(tasks, expected) if task.stage is not Stage.AGG]
        assert [float.hex(drawers[s](task)) for s, task, _ in drawn] == [float.hex(x) for _, _, x in drawn]
        # The schedule passes plain tuples of the task's fields; they draw the same.
        assert [float.hex(drawers[s](tuple(task))) for s, task, _ in drawn] == [float.hex(x) for _, _, x in drawn]

    def test_duration_override_gets_tasks_and_keeps_the_schedule(self, checkpoint25):
        seen = set()

        class Delegating(LatencyModel):
            def duration(self, run_seed, task):
                seen.add(type(task))
                return super().duration(run_seed, task)

        config = PipelineConfig(k=5, seed=5, execution_mode=ExecutionMode.MULTI_ASYNC)
        timings = []
        for override in (False, True):
            pipe = build_pipe(checkpoint25, config=config)
            if override:
                pipe.latency_model = Delegating(pipe.latency_model.seed, pipe.latency_model.params)
            result, _ = run_once(pipe, checkpoint25, seed=11)
            timings.append((float.hex(result.makespan), result.max_gen_inflight, result.max_eval_queue,
                            result.ledger.max_llm_inflight, event_digest(result.trace)))
        assert seen == {Task}
        assert timings[0] == timings[1]


class TestIsolation:
    def test_concurrent_runs_disjoint_ledgers(self):
        cp_a = build_checkpoint(10, trajectory_id="ta")
        cp_b = build_checkpoint(10, trajectory_id="tb")
        bundle = mock_bundle(MockBehavior(seed=1))
        source = synthetic_artifact_source(cp_a, default_components())
        other = synthetic_artifact_source(cp_b, default_components())
        for sample in cp_b.samples:
            for component in default_components():
                source.put(other.get(sample.sample_id, component, Representation.RAW))
        pipe = InterventionPipeline(bundle, source, config=PipelineConfig(k=3, seed=1))
        run_a = pipe.submit(cp_a, Intervention(coalition=FULL))
        run_b = pipe.submit(cp_b, Intervention(coalition=FULL))
        results = {}

        def drive(run_id):
            results[run_id] = pipe.run_to_completion(run_id)

        threads = [threading.Thread(target=drive, args=(rid,)) for rid in (run_a, run_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        led_a, led_b = results[run_a].ledger, results[run_b].ledger
        assert led_a.identity["checkpoint_hash"] != led_b.identity["checkpoint_hash"]
        assert not (set(led_a.archive_entries()) & set(led_b.archive_entries()))
        assert results[run_a].stats == results[run_b].stats  # same seed, same mocks

    def test_concurrent_runs_draw_their_own_latencies(self):
        # One pipeline, so one LatencyModel, serves every run; interleaved
        # runs must each draw their own latencies.
        cp = build_checkpoint(8)
        config = PipelineConfig(k=3, seed=2)
        seeds = (3, 4, 5)  # one thread per seed, more threads than 2 cores
        expected = {}
        for seed in seeds:
            result, _ = run_once(build_pipe(cp, config=config), cp, seed=seed)
            expected[seed] = (result.makespan, event_digest(result.trace))
        pipe = build_pipe(cp, config=config)
        model = pipe.latency_model

        class YieldingParams(dict):
            def get(self, key, default=None):
                time.sleep(0.0002)  # another run draws while this one resolves
                return super().get(key, default)

        model.params = YieldingParams(model.params)
        drawer = model.drawer
        drawn = []

        def recording_drawer(run_seed):
            draw = drawer(run_seed)

            def recorded(task):
                drawn.append(run_seed)
                time.sleep(0.0001)  # another run draws meanwhile
                return draw(task)

            return recorded

        model.drawer = recording_drawer
        got = {}

        def drive(seed):
            result, _ = run_once(pipe, cp, seed=seed)
            got[seed] = (result.makespan, event_digest(result.trace))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=drive, args=(s,)) for s in seeds]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert sum(a != b for a, b in zip(drawn, drawn[1:])) > 2  # runs interleaved


class TestReplay:
    def archived_run(self, tmp_path, cp, config=None):
        pipe = build_pipe(cp, config=config or PipelineConfig(k=3, seed=9))
        result, _ = run_once(pipe, cp)
        archive_dir = tmp_path / "archive"
        archive_run(result, archive_dir)
        return pipe, result, archive_dir

    def test_full_replay_zero_generator_calls(self, tmp_path):
        cp = build_checkpoint(6)
        _, original, archive_dir = self.archived_run(tmp_path, cp)
        cache = replay_load(archive_dir, cp)
        fresh = build_pipe(cp, config=PipelineConfig(k=3, seed=9))
        result, _ = run_once(fresh, cp, replay=cache)
        assert fresh.agents.generator.calls == 0
        assert fresh.agents.planner.calls == 0
        assert fresh.agents.evaluator.calls == 0
        assert result.stats == original.stats
        assert len(result.ledger.replayed) > 0

    def test_anlz_only_replay(self, tmp_path):
        cp = build_checkpoint(6)
        _, original, archive_dir = self.archived_run(tmp_path, cp)
        cache = only_stages(replay_load(archive_dir, cp), {"anlz"})
        fresh = build_pipe(cp, config=PipelineConfig(k=3, seed=9))
        result, _ = run_once(fresh, cp, replay=cache)
        assert fresh.agents.planner.calls == 0  # feedback stage fully cached
        assert fresh.agents.generator.calls == 6  # prompting still runs
        assert fresh.agents.evaluator.calls == 18
        assert result.stats == original.stats

    def test_each_entry_file_written_and_read_once(self, tmp_path, monkeypatch):
        """An archive is three files, each written once and read once; its
        distinct entries are packed into `entries.json`."""
        cp = build_checkpoint(6)
        pipe = build_pipe(cp, config=PipelineConfig(k=3, seed=9))
        result, _ = run_once(pipe, cp)
        calls = Counter()
        for method in ("write_text", "read_text"):

            def counted(path, *args, _method=method, _original=getattr(Path, method), **kw):
                calls[_method, path.relative_to(tmp_path).as_posix()] += 1
                return _original(path, *args, **kw)

            monkeypatch.setattr(Path, method, counted)
        archive_run(result, tmp_path)
        replay_load(tmp_path, cp)
        monkeypatch.undo()
        assert calls == Counter(
            {(method, name): 1 for method in ("write_text", "read_text")
             for name in ("entries.json", "index.json", "manifest.json")}
        )
        names = list(json.loads((tmp_path / "index.json").read_text()).values())
        assert len(set(names)) < len(names)  # equal EVAL records share an entry
        assert sorted(json.loads((tmp_path / "entries.json").read_text())) == sorted(set(names))

    def test_undecodable_entry_names_pack_and_entry(self, tmp_path):
        cp = build_checkpoint(4)
        _, _, archive_dir = self.archived_run(tmp_path, cp)
        pack = json.loads((archive_dir / "entries.json").read_text())
        name = next(n for n in sorted(pack) if pack[n]["kind"] == "gen")
        pack[name]["candidates"][0]["attempt"] = 7
        (archive_dir / "entries.json").write_text(json.dumps(pack))
        named = re.escape(f"{archive_dir / 'entries.json'} entry {name} holds no GEN entry")
        with pytest.raises(ReplayArchiveError, match=named):
            run_once(build_pipe(cp, config=PipelineConfig(k=3, seed=9)), cp, replay=replay_load(archive_dir, cp))

    def test_shared_entries_decode_once_per_load(self, tmp_path, monkeypatch):
        # Stages with equal payloads share an archive entry. `replay_load`
        # checks and decodes each distinct entry once; a replaying run decodes
        # nothing, every run on one cache gets the same product objects, and
        # a cache whose stage keys each hold a product of their own replays
        # to the same stats and trace.
        cp = build_checkpoint(6)
        config = PipelineConfig(k=3, rounds=2, seed=9)
        _, _, archive_dir = self.archived_run(tmp_path, cp, config)
        index = json.loads((archive_dir / "index.json").read_text())
        pack = json.loads((archive_dir / "entries.json").read_text())
        assert len(set(index.values())) < len(index)
        decodes = Counter()
        for kind, (stage, decode) in pipeline_mod._DECODE.items():

            def counted(entry, k, _kind=kind, _decode=decode):
                decodes[_kind] += 1
                return _decode(entry, k)

            monkeypatch.setitem(pipeline_mod._DECODE, kind, (stage, counted))
        cache = replay_load(archive_dir, cp)
        assert decodes == Counter(pack[name]["kind"] for name in set(index.values()))
        unshared = cache._replace(products={key: copy.deepcopy(found) for key, found in cache.products.items()})
        decodes.clear()
        results = [run_once(build_pipe(cp, config=config), cp, replay=replay)[0] for replay in (cache, cache, unshared)]
        assert not decodes
        first, second, _ = (result.ledger.rounds for result in results)
        for key, state in first.items():
            other = second[key]
            assert state.report is other.report and state.failures is other.failures
            assert all(c is other.candidates[a] for a, c in state.candidates.items())
            assert all(r is other.records[a] for a, r in state.records.items())
        runs = []
        for result in results:
            export_trace(result, tmp_path / "trace.ndjson")
            runs.append((result.stats, (tmp_path / "trace.ndjson").read_bytes()))
        assert runs[0] == runs[2]

    def test_corrupt_shared_entry_refused_at_load(self, tmp_path):
        cp = build_checkpoint(6)
        _, _, archive_dir = self.archived_run(tmp_path, cp)
        index = json.loads((archive_dir / "index.json").read_text())
        pack = json.loads((archive_dir / "entries.json").read_text())
        shared = Counter(index.values())
        name = next(n for n, uses in shared.most_common() if pack[n]["kind"] == "eval" and uses > 1)
        pack[name]["record"]["compiled"] = "yes"
        (archive_dir / "entries.json").write_text(json.dumps(pack))
        named = re.escape(f"{archive_dir / 'entries.json'} entry {name} holds no EVAL entry")
        with pytest.raises(ReplayArchiveError, match=named):
            replay_load(archive_dir, cp)

    def test_entry_under_another_stage_key_refused(self, tmp_path):
        # A stage key remapped to an entry of another stage decodes (as that
        # stage) but is refused when a run looks it up.
        cp = build_checkpoint(4)
        _, _, archive_dir = self.archived_run(tmp_path, cp)
        index = json.loads((archive_dir / "index.json").read_text())
        pack = json.loads((archive_dir / "entries.json").read_text())
        eval_name = next(n for n in index.values() if pack[n]["kind"] == "eval")
        gen_key = next(key for key, n in index.items() if pack[n]["kind"] == "gen")
        index[gen_key] = eval_name
        (archive_dir / "index.json").write_text(json.dumps(index))
        cache = replay_load(archive_dir, cp)
        with pytest.raises(ReplayArchiveError, match=f"index.json maps GEN key {gen_key} to an entry of kind eval"):
            run_once(build_pipe(cp, config=PipelineConfig(k=3, seed=9)), cp, replay=cache)

    def test_checkpoint_mismatch_refused(self, tmp_path):
        cp = build_checkpoint(6)
        _, _, archive_dir = self.archived_run(tmp_path, cp)
        other = build_checkpoint(6, trajectory_id="other")
        with pytest.raises(ReplayMismatchError, match="mismatch"):
            replay_load(archive_dir, other)

    def test_submit_rejects_mismatched_cache(self, tmp_path):
        cp = build_checkpoint(4)
        _, _, archive_dir = self.archived_run(tmp_path, cp)
        cache = replay_load(archive_dir, cp)
        other = build_checkpoint(4, trajectory_id="other")
        pipe = build_pipe(other, config=PipelineConfig(k=3, seed=9))
        with pytest.raises(ReplayMismatchError):
            pipe.submit(other, Intervention(coalition=FULL), replay=cache)

    @pytest.mark.parametrize(
        "config, coalition, named",
        [
            (PipelineConfig(k=2, seed=9), FULL, "k"),
            (PipelineConfig(k=3, rounds=2, seed=9), FULL, "rounds"),
            (PipelineConfig(k=3, seed=9), Coalition.of(D), "intervention signature"),
        ],
        ids=["k", "rounds", "coalition"],
    )
    def test_submit_rejects_archive_of_other_run_settings(self, tmp_path, config, coalition, named):
        cp = build_checkpoint(4)
        _, _, archive_dir = self.archived_run(tmp_path, cp)  # k=3, rounds=1, full coalition
        cache = replay_load(archive_dir, cp)
        pipe = build_pipe(cp, config=config)
        for replay in (cache, only_stages(cache, {"anlz"})):
            with pytest.raises(ReplayMismatchError, match=f"different {named} "):
                pipe.submit(cp, Intervention(coalition=coalition), replay=replay)


    def test_submit_rejects_archive_of_another_seed(self, tmp_path):
        cp = build_checkpoint(4)
        _, _, archive_dir = self.archived_run(tmp_path, cp, PipelineConfig(k=3, seed=17))
        cache = replay_load(archive_dir, cp)
        assert cache.identity["seed"] == 17
        recorded = build_pipe(cp, config=PipelineConfig(k=3, seed=17))
        recorded.cancel(recorded.submit(cp, Intervention(coalition=FULL), replay=cache))
        other = build_pipe(cp, config=PipelineConfig(k=3, seed=18))
        for replay in (cache, only_stages(cache, {"anlz"})):
            for submit in (
                lambda: other.submit(cp, Intervention(coalition=FULL), replay=replay),
                lambda: recorded.submit(cp, Intervention(coalition=FULL), seed=18, replay=replay),
            ):
                with pytest.raises(ReplayMismatchError, match=r"different seed \(17 != 18\)"):
                    submit()


class TestInterventionModes:
    def test_dummy_plan_bypasses_planner(self):
        cp = build_checkpoint(4)
        pipe = build_pipe(cp)
        intervention = Intervention(coalition=FULL, plan_mode=PlanMode.DUMMY)
        result, _ = run_once(pipe, cp, intervention)
        assert pipe.agents.planner.calls == 0
        state = result.ledger.rounds["s000", 0]
        assert state.plan.producer_tag == "dummy-plan"
        assert "Executive Summary" in state.plan.text

    def test_no_plan_mode_leaves_slot_empty(self):
        cp = build_checkpoint(2)
        pipe = build_pipe(cp)
        result, _ = run_once(pipe, cp, Intervention(coalition=FULL, plan_mode=PlanMode.NONE))
        state = result.ledger.rounds["s000", 0]
        assert state.plan is None
        assert state.report.plan_slot is None

    def test_summarized_representation_uses_summarizer_once_per_artifact(self):
        cp = build_checkpoint(5)
        pipe = build_pipe(cp)
        intervention = Intervention(
            coalition=FULL, representation=Representation.SUMMARIZED
        )
        run_once(pipe, cp, intervention)
        # 5 samples x 3 components, each summarized exactly once.
        assert pipe.agents.summarizer.calls == 15
        run_once(pipe, cp, intervention)
        assert pipe.agents.summarizer.calls == 15  # cache persists across runs

    def test_concurrent_runs_summarize_each_artifact_once(self):
        cp = build_checkpoint(1)
        pipe = build_pipe(cp)
        summarizer = HeldSummarizer()
        pipe.agents = replace(pipe.agents, summarizer=summarizer)
        intervention = Intervention(
            coalition=Coalition.of(D), representation=Representation.SUMMARIZED
        )

        def run():
            return run_once(pipe, cp, intervention)[0].stats

        first, second = run_in_threads(run, run, summarizer.first_started)
        assert summarizer.invocations == 1  # the runs share `_summary_cache`
        assert first == second

    def test_permutation_reroutes_feedback(self):
        cp = build_checkpoint(2)
        pipe = build_pipe(cp)
        perm = {"s000": "s001", "s001": "s000"}
        intervention = Intervention(coalition=Coalition.of(D), permutation=perm)
        result, _ = run_once(pipe, cp, intervention)
        report = result.ledger.rounds["s000", 0].report
        assert report.artifacts[0].source_sample == "s001"

    def test_game_intervention_mapping(self):
        components = default_components()
        full = Coalition.of(*components)
        it = game_intervention("plan-feedback", Coalition(1), components)
        assert it.coalition == full and it.plan_mode is PlanMode.NONE
        it = game_intervention("plan-feedback", Coalition(2), components)
        assert it.coalition.mask == 0 and it.plan_mode is PlanMode.SELF
        it = game_intervention("plan-summary", Coalition(3), components)
        assert it.representation is Representation.SUMMARIZED
        assert it.plan_mode is PlanMode.SELF
        with pytest.raises(PipelineConfigError):
            game_intervention("nope", Coalition(0), components)


class TestRounds:
    def test_multi_round_event_counts(self):
        cp = build_checkpoint(3)
        config = PipelineConfig(k=2, rounds=3, seed=4)
        pipe = build_pipe(cp, config=config)
        result, _ = run_once(pipe, cp)
        assert result.event_counts[EventKind.FEEDBACK_BUILT] == 9
        assert result.event_counts[EventKind.CANDIDATES_GENERATED] == 9
        assert result.event_counts[EventKind.EVAL_COMPLETED] == 18
        assert result.event_counts[EventKind.AGGREGATED] == 3
        assert result.stats.k == 6  # cumulative budget k x rounds

    def test_rounds_mode_equivalence(self):
        cp = build_checkpoint(5)
        stats = []
        for mode in ExecutionMode:
            config = PipelineConfig(k=2, rounds=2, seed=4, execution_mode=mode)
            pipe = build_pipe(cp, config=config)
            result, _ = run_once(pipe, cp)
            stats.append(result.stats)
        assert stats[0] == stats[1] == stats[2]


STAGE_EVENT = {
    Stage.ANLZ: EventKind.FEEDBACK_BUILT,
    Stage.GEN: EventKind.CANDIDATES_GENERATED,
    Stage.EVAL: EventKind.EVAL_COMPLETED,
    Stage.AGG: EventKind.AGGREGATED,
}


def expected_trace(result):
    """A traced run's events, rebuilt from its ledger by the payload rules of
    each event kind: SampleLoaded carries the sample's index; every stage
    event its round; ANLZ the report hash, GEN the candidate and failure
    counts, EVAL the attempt and its level, each of these whether it was
    replayed; AGG the sample's best level."""
    led, samples = result.ledger, result.ledger.checkpoint.samples
    events = [Event(EventKind.SAMPLE_LOADED, s.sample_id, led.run_id, {"index": i}, i, 0.0) for i, s in enumerate(samples)]
    for t, (task, clock) in enumerate(led.completions, len(samples)):
        _, r, stage, attempt, sid = task
        payload = {"round": r}
        if stage is Stage.AGG:
            payload["best"] = led.best_outcomes[sid].name
        else:
            state = led.rounds[sid, r]
            if stage is Stage.ANLZ:
                payload["report_hash"] = state.report.content_hash
            elif stage is Stage.GEN:
                payload.update(n_candidates=len(state.candidates), n_failed=len(state.failures))
            else:
                payload.update(attempt=attempt, level=classify_execution(state.records[attempt]).name)
            payload["replayed"] = task in led.replayed
        events.append(Event(STAGE_EVENT[stage], sid, led.run_id, payload, t, clock))
    return tuple(events)


class WholeLatencyModel(LatencyModel):
    """Durations in whole time units, as ints."""

    def duration(self, run_seed, task):
        return math.ceil(super().duration(run_seed, task))


class TestDiagnostics:
    def test_real_time_sets_no_limit_on_a_run(self, monkeypatch):
        # Agent calls may take any real time: only HttpChatAgent's own
        # timeout and retries bound them, never the run loop.
        cp = build_checkpoint(6)
        expected, _ = run_once(build_pipe(cp), cp)  # the default PipelineConfig
        now = itertools.count(0.0, 100.0)
        monkeypatch.setattr(time, "monotonic", lambda: next(now))
        result, _ = run_once(build_pipe(cp), cp)
        assert result.stats == expected.stats

    def test_stall_dump_reads_progress_from_the_ledger(self):
        # A round whose GEN recorded a candidate that no EVAL graded waits
        # for that EVAL forever: an internal fault, reported once nothing is
        # left to run.
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, seed=1))
        run_id = pipe.submit(cp, Intervention(coalition=FULL))
        result = pipe.run_to_completion(run_id)  # the stage work itself completes
        for state in result.ledger.rounds.values():  # read by the schedule, run below
            state.candidates[2] = replace(state.candidates[0], attempt=2)
        with pytest.raises(PipelineStalledError, match="run incomplete but no tasks remain") as caught:
            result.makespan
        header, counts, *samples = caught.value.dump.splitlines()
        assert header.startswith(f"run {run_id} clock=")
        assert counts == "ready=0 aggregated=0/3"
        assert [line.split(":")[0] for line in samples] == [
            f"  sample {sid}" for sid in cp.sample_ids()
        ]
        # What the schedule completed: every EVAL, and so no AGG.
        assert all(line.endswith(": generated r0, evaluated 2/2") for line in samples)

    def test_trace_export_schema(self, tmp_path, checkpoint25):
        import json

        pipe = build_pipe(checkpoint25)
        result, _ = run_once(pipe, checkpoint25)
        path = tmp_path / "trace.ndjson"
        export_trace(result, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(result.trace)
        record = json.loads(lines[0])
        assert set(record) == {
            "kind",
            "sample_id",
            "run_id",
            "logical_time",
            "wall_time",
            "payload",
        }
        times = [json.loads(ln)["logical_time"] for ln in lines]
        assert times == sorted(times)

    @settings(max_examples=120, deadline=None)
    @given(
        sample_ids=st.lists(
            st.text(st.sampled_from('s"\\\né\u2028'), min_size=1, max_size=3), min_size=1, max_size=3, unique=True
        ),
        mode=st.sampled_from(ExecutionMode),
        rounds=st.integers(1, 2),
        k=st.integers(1, 3),
        schedule_seed=st.none() | st.integers(0, 1000),
        faults=st.lists(st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2)), max_size=4),
        replayed=st.booleans(),
        shuffle_seed=st.none() | st.integers(0, 100),
        whole_latencies=st.booleans(),
    )
    def test_trace_lines_are_the_events_encoded(
        self, sample_ids, mode, rounds, k, schedule_seed, faults, replayed, shuffle_seed, whole_latencies
    ):
        # `export_trace`'s lines are the trace's one format: each is canonical
        # JSON, `trace` is their decoding, and both carry what the ledger holds.
        samples = tuple(Sample(sample_id=sid, generation_index=0, program_text="k") for sid in sample_ids)
        cp = GenerationCheckpoint(trajectory_id="t", g=0, samples=samples)
        config = PipelineConfig(k=k, rounds=rounds, seed=4, execution_mode=mode, schedule_seed=schedule_seed)
        fails, crashes = (
            frozenset((sample_ids[i % len(sample_ids)], a) for crash, i, a in faults if crash is c) for c in (False, True)
        )
        permutation = None if shuffle_seed is None else randomize_feedback(cp, shuffle_seed)
        intervention = Intervention(coalition=FULL, permutation=permutation)

        def traced_run(replay=None):
            pipe = build_pipe(cp, config=config, fail_attempts=fails, crash_on=crashes)
            if whole_latencies:
                pipe.latency_model = WholeLatencyModel(pipe.latency_model.seed, pipe.latency_model.params)
            return run_once(pipe, cp, intervention, replay=replay)[0]

        result = traced_run()
        with tempfile.TemporaryDirectory() as tmp:
            if replayed:
                archive_run(result, tmp)
                result = traced_run(replay_load(tmp, cp))
            export_trace(result, Path(tmp) / "trace.ndjson")
            written = (Path(tmp) / "trace.ndjson").read_bytes()
        *lines, end = written.split(b"\n")
        assert end == b"" and all(line == json.dumps(json.loads(line), sort_keys=True).encode() for line in lines)
        decoded = (json.loads(line) for line in lines)
        keys = ("sample_id", "run_id", "payload", "logical_time", "wall_time")
        assert result.trace == tuple(Event(EventKind(d["kind"]), *map(d.get, keys)) for d in decoded)
        assert result.trace == expected_trace(result)

    def test_causal_order_per_sample(self, checkpoint25):
        config = PipelineConfig(k=3, seed=2, schedule_seed=8)
        pipe = build_pipe(checkpoint25, config=config)
        result, _ = run_once(pipe, checkpoint25)
        order = {
            EventKind.SAMPLE_LOADED: 0,
            EventKind.FEEDBACK_BUILT: 1,
            EventKind.CANDIDATES_GENERATED: 2,
            EventKind.EVAL_COMPLETED: 3,
            EventKind.AGGREGATED: 4,
        }
        per_sample = {}
        for event in result.trace:
            per_sample.setdefault(event.sample_id, []).append(order[event.kind])
        for stages in per_sample.values():
            assert stages == sorted(stages)

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_event_counts_match_the_trace(self, mode):
        # The counts are derived from the stage results, not tallied per event.
        cp = build_checkpoint(4)
        config = PipelineConfig(k=3, rounds=2, seed=3, execution_mode=mode)
        fails = frozenset({("s001", 1), ("s002", 0)})
        pipe = build_pipe(cp, config=config, fail_attempts=fails, crash_on=frozenset({("s000", 2)}))
        result, _ = run_once(pipe, cp)
        assert result.event_counts == dict(Counter(event.kind for event in result.trace))

    def test_record_trace_off_keeps_counts(self, checkpoint25):
        config = PipelineConfig(k=2, seed=2, record_trace=False)
        pipe = build_pipe(checkpoint25, config=config)
        result, _ = run_once(pipe, checkpoint25)
        assert result.trace == ()
        assert result.event_counts[EventKind.AGGREGATED] == 25

    def test_export_of_an_untraced_run_is_refused(self, tmp_path, checkpoint25):
        # An empty file would claim that the run had no events.
        result, _ = run_once(build_pipe(checkpoint25, config=PipelineConfig(k=2, record_trace=False)), checkpoint25)
        path = tmp_path / "trace.ndjson"
        with pytest.raises(ValueError, match=f"run {result.run_id} kept no trace"):
            export_trace(result, path)
        assert not path.exists()

    def test_programs_and_throughput_reported(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        result, _ = run_once(pipe, checkpoint25)
        assert result.programs == 125
        assert result.makespan > 0  # so programs / makespan is a finite throughput


class TestRelease:
    """A driven run's state lives on its RunResult, not in the pipeline."""

    def test_rollouts_leave_no_ledger_behind(self):
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, seed=0))
        rollout = make_rollout_fn(pipe)
        for r in range(20):
            rollout(cp, Coalition(r % 8), r)
        assert pipe._ledgers == {}
        result, _ = run_once(pipe, cp)
        ledger = weakref.ref(result.ledger)
        del result
        gc.collect()
        assert ledger() is None

    def test_a_run_completes_once(self):
        cp = build_checkpoint(2)
        pipe = build_pipe(cp)
        _, run_id = run_once(pipe, cp)
        with pytest.raises(PipelineConfigError, match=run_id):
            pipe.run_to_completion(run_id)
        with pytest.raises(PipelineConfigError, match="run-unknown"):
            pipe.run_to_completion("run-unknown")

    def test_racing_drivers_one_wins(self):
        cp = build_checkpoint(4)
        pipe = build_pipe(cp)
        run_id = pipe.submit(cp, Intervention(coalition=FULL))
        barrier = threading.Barrier(2)
        turned_away = threading.Event()
        plan = pipe.agents.planner.plan

        def held_plan(report):  # the claiming driver waits for the other one
            turned_away.wait(5)
            return plan(report)

        pipe.agents.planner.plan = held_plan
        outcomes = []

        def drive():
            barrier.wait()
            try:
                outcomes.append(pipe.run_to_completion(run_id))
            except PipelineConfigError as exc:
                outcomes.append(exc)
                turned_away.set()

        threads = [threading.Thread(target=drive) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        kinds = sorted(type(outcome).__name__ for outcome in outcomes)
        assert kinds == ["PipelineConfigError", "RunResult"]


class UndeclaredPlanner:
    """Plans as the mock planner does but, like HttpPlanner, does not declare
    its plans a function of its report."""

    def __init__(self):
        self._inner = MockPlanner()
        self.calls = 0

    def plan(self, report):
        self.calls += 1
        return self._inner.plan(report)


class TestAnlzMemo:
    """A pipeline does each sample's ANLZ work once per intervention, unless
    a planner that does not declare itself deterministic plans on it."""

    def sweep(self, planner=None, samples=5, rollouts=4):
        cp = build_checkpoint(samples)
        pipe = build_pipe(cp, config=PipelineConfig(k=3, seed=0, record_trace=False))
        if planner is not None:
            pipe.agents = replace(pipe.agents, planner=planner)
        specs = [GameSpec(players=default_components(), metric=m, g=cp.g) for m in ("compiled", "pass", "fast")]
        tables = sweep_characteristic_tables(cp, specs, make_rollout_fn(pipe), rollouts, 0)
        return pipe.agents.planner.calls, tables_to_csv(tables), bundle_to_json(attribution_report(tables))

    def test_sweep_plans_each_sample_and_coalition_once(self):
        calls, csv_text, json_text = self.sweep()
        assert calls == 5 * 8  # samples x coalitions, not x rollouts
        undeclared_calls, undeclared_csv, undeclared_json = self.sweep(UndeclaredPlanner())
        assert undeclared_calls == 5 * 8 * 4
        assert (csv_text, json_text) == (undeclared_csv, undeclared_json)

    def test_rounds_plan_each_sample_once(self):
        cp = build_checkpoint(4)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, rounds=2, seed=3))
        first, _ = run_once(pipe, cp)
        again, _ = run_once(pipe, cp, seed=4)
        assert pipe.agents.planner.calls == 4
        assert again.ledger.rounds["s000", 1].plan is first.ledger.rounds["s000", 0].plan

    def test_undeclared_planner_plans_every_round_of_every_run(self):
        assert not getattr(HttpPlanner, "deterministic", False)
        cp = build_checkpoint(4)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, rounds=2, seed=3))
        pipe.agents = replace(pipe.agents, planner=UndeclaredPlanner())
        for seed in range(3):
            run_once(pipe, cp, seed=seed)
        assert pipe.agents.planner.calls == 4 * 2 * 3  # samples x rounds x runs

    def test_memo_follows_a_source_change(self):
        # New raw artifacts for s000 go into the source after a run: the next
        # run on the same pipeline reports them, as a fresh pipeline does.
        cp = build_checkpoint(4)
        pipe = build_pipe(cp)
        before, _ = run_once(pipe, cp)
        for component in default_components():
            pipe.artifact_source.put(FeedbackArtifact(component, Representation.RAW, f"changed {component.name}", "s000"))
        after, _ = run_once(pipe, cp)
        fresh_pipe = InterventionPipeline(mock_bundle(MockBehavior(seed=1)), pipe.artifact_source, config=pipe.config)
        fresh, _ = run_once(fresh_pipe, cp)
        report = after.ledger.rounds["s000", 0].report
        assert before.ledger.rounds["s000", 0].report.content_hash[:12] == "226ca102d972"
        assert report.content_hash == fresh.ledger.rounds["s000", 0].report.content_hash
        assert report.content_hash[:12] == "ea230263ddb2"
        again, _ = run_once(pipe, cp, seed=1)
        assert again.ledger.rounds["s000", 0].report is report  # the source did not change again: memoized
        # A put drops the products of the versions before it: the memo keeps one run's four.
        sizes = []
        for n in range(3):
            pipe.artifact_source.put(FeedbackArtifact(default_components()[0], Representation.RAW, f"put {n}", "s001"))
            run_once(pipe, cp)
            sizes.append(len(pipe._anlz_cache[1]))
        assert sizes == [4, 4, 4]

    @settings(max_examples=30, deadline=None)
    @given(
        mask=st.integers(0, 7),
        representation=st.sampled_from(Representation),
        plan_mode=st.sampled_from(PlanMode),
        donors=st.none() | st.permutations(["s000", "s001", "s002"]),
    )
    def test_memoized_product_equals_a_fresh_one(self, mask, representation, plan_mode, donors):
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, config=PipelineConfig(k=1, seed=0, record_trace=False))
        permutation = dict(zip(cp.sample_ids(), donors)) if donors else None
        intervention = Intervention(Coalition(mask), representation, plan_mode, permutation)
        first, _ = run_once(pipe, cp, intervention)
        memoized, _ = run_once(pipe, cp, intervention, seed=1)
        source = pipeline_mod._RepresentationSource(pipe.artifact_source, permutation or {}, MockSummarizer(), Memo())
        for sid in cp.sample_ids():
            report = build_report(sid, Coalition(mask), representation, source, default_components())
            plan = None
            if plan_mode is PlanMode.SELF:
                plan = MockPlanner().plan(report)
            elif plan_mode is PlanMode.DUMMY:
                plan = PlanArtifact(dummy_plan(), "dummy-plan", report.content_hash)
            if plan is not None:
                report = replace(report, plan_slot=plan.text)
            state = memoized.ledger.rounds[sid, 0]
            assert state.report is first.ledger.rounds[sid, 0].report  # served by the memo
            assert (state.report, state.plan) == (report, plan)
            assert state.report.content_hash == report.content_hash


class TestCostGuards:
    """What a run computes per task, pinned by call counts."""

    def test_memo_hits_hash_each_artifact_and_report_once(self, monkeypatch):
        cp = build_checkpoint(5)
        pipe = build_pipe(cp)
        artifacts = record_computations(monkeypatch, FeedbackArtifact)
        reports = record_computations(monkeypatch, Report)
        intervention = Intervention(
            coalition=FULL, representation=Representation.SUMMARIZED
        )
        run_once(pipe, cp, intervention)  # fills the summary memo
        first_run = len(artifacts)
        run_once(pipe, cp, intervention)
        assert pipe.agents.summarizer.calls == 15  # all 15 lookups hit the memo
        assert len(artifacts) == first_run  # nothing is hashed again
        assert len(set(map(id, artifacts))) == len(artifacts)
        assert len(set(map(id, reports))) == len(reports)

    def test_every_representation_reads_raw_once_per_lookup(self):
        cp = build_checkpoint(5)
        pipe = build_pipe(cp)
        reads = Counter()
        get = pipe.artifact_source.get

        def counted(sample_id, component, representation):
            reads[representation] += 1
            return get(sample_id, component, representation)

        pipe.artifact_source.get = counted
        for representation in Representation:
            run_once(pipe, cp, Intervention(coalition=FULL, representation=representation))
        assert reads == Counter({Representation.RAW: 3 * 15})  # 5 samples x 3 components per run

    def untraced_pipe(self, checkpoint):
        config = PipelineConfig(k=5, seed=0, record_trace=False)
        return build_pipe(checkpoint, config=config)

    def test_two_runs_hash_the_checkpoint_once(self, monkeypatch):
        full_hashes = []

        def sha256(data=b""):
            full_hashes.append(len(data))
            return hashlib.sha256(data)

        cp = build_checkpoint(25)
        pipe = self.untraced_pipe(cp)
        monkeypatch.setattr(trajectory_mod, "hashlib", types.SimpleNamespace(sha256=sha256))
        run_once(pipe, cp)
        run_once(pipe, cp)
        assert len(full_hashes) <= 1

    def test_untraced_run_builds_no_payloads(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("report serialized for a run nobody archived")

        cp = build_checkpoint(25)
        pipe = self.untraced_pipe(cp)
        reports = record_computations(monkeypatch, Report)
        plan = pipe.agents.planner.plan
        hashed_by_planner = []

        def tracked_plan(report):
            before = len(reports)
            try:
                return plan(report)
            finally:
                hashed_by_planner.append(len(reports) - before)

        pipe.agents.planner.plan = tracked_plan
        monkeypatch.setattr(pipeline_mod, "_report_to_json", refuse)
        result, _ = run_once(pipe, cp)
        assert result.trace == ()
        assert hashed_by_planner == [1] * 25
        assert len(reports) == 25  # no report hashed outside the planner

    def test_generator_resolves_thresholds_once_per_coalition_and_producer(self, monkeypatch):
        calls = Counter()
        probabilities = MockBehavior.probabilities

        def counted(behavior, coalition, producer_tag=None):
            calls[coalition.mask, producer_tag] += 1
            return probabilities(behavior, coalition, producer_tag)

        monkeypatch.setattr(MockBehavior, "probabilities", counted)
        cp = build_checkpoint(25)
        pipe = self.untraced_pipe(cp)  # k=5
        run_once(pipe, cp)
        run_once(pipe, cp, seed=1)
        run_once(pipe, cp, Intervention(coalition=FULL, plan_mode=PlanMode.NONE))
        assert pipe.agents.generator.calls == 75
        assert calls == Counter({(FULL.mask, "mock-planner"): 1, (FULL.mask, None): 1})

    def test_rollout_simulates_no_schedule(self, monkeypatch):
        # A rollout reads only stats: even in a traced pipeline it draws no
        # latency and builds no event. Reading a result's timing draws the
        # latencies; only reading its trace builds the events.
        cp = build_checkpoint(5)
        pipe = build_pipe(cp)  # the default config records a trace
        work = count_schedule_work(monkeypatch)
        make_rollout_fn(pipe)(cp, FULL, 0)
        assert work == Counter()
        result, _ = run_once(pipe, cp)
        assert work == Counter()
        assert result.makespan > 0
        assert work["duration"] > 0 and work["Event"] == 0
        export_trace(result, os.devnull)
        assert work["Event"] == 0
        trace = result.trace
        assert work["Event"] == len(trace) > 0

    def test_schedule_draws_one_latency_per_live_task(self, monkeypatch, tmp_path):
        # One draw per ANLZ, GEN and EVAL the run did itself; AGG and a
        # replayed task draw none.
        cp = build_checkpoint(3)
        config = PipelineConfig(k=3, rounds=2, seed=2)
        fails = frozenset({("s001", 0), ("s002", 2)})
        result, _ = run_once(build_pipe(cp, config=config, fail_attempts=fails), cp)
        rounds = result.ledger.rounds.values()
        evals = sum(len(state.records) for state in rounds)
        assert evals == 3 * 2 * 3 - 2 * 2
        work = count_schedule_work(monkeypatch)
        assert result.makespan > 0 and work["duration"] == 2 * len(rounds) + evals
        archive_run(result, tmp_path)
        cache = replay_load(tmp_path, cp)
        for replay, draws in ((cache, 0), (only_stages(cache, {"anlz"}), len(rounds) + evals)):
            work.clear()
            replayed, _ = run_once(build_pipe(cp, config=config, fail_attempts=fails), cp, replay=replay)
            assert (replayed.makespan > 0) == (draws > 0) and work["duration"] == draws
        assert replayed.stats == result.stats

    def test_concurrent_timing_reads_schedule_once(self, monkeypatch):
        cp = build_checkpoint(6)
        pipe = build_pipe(cp)
        result, _ = run_once(pipe, cp)
        schedule = pipe._schedule
        scheduled = []

        def slow_schedule(led, latency_model):
            scheduled.append(led.run_id)
            time.sleep(0.05)  # the other reader arrives meanwhile
            schedule(led, latency_model)

        monkeypatch.setattr(pipe, "_schedule", slow_schedule)
        both_reading = threading.Barrier(2)
        reads = []

        def read():
            both_reading.wait()
            reads.append((result.makespan, result.max_gen_inflight, result.trace))

        threads = [threading.Thread(target=read) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert scheduled == [result.run_id]
        assert len(reads) == 2 and reads[0] == reads[1]
        assert reads[0][0] > 0 and len(reads[0][2]) == sum(result.event_counts.values())

    def test_event_counting_hashes_no_event_kind(self):
        cp = build_checkpoint(5)
        result, _ = run_once(self.untraced_pipe(cp), cp)
        assert type(result.event_counts) is dict
        assert list(result.event_counts.items()) == [
            (EventKind.SAMPLE_LOADED, 5),
            (EventKind.FEEDBACK_BUILT, 5),
            (EventKind.CANDIDATES_GENERATED, 5),
            (EventKind.EVAL_COMPLETED, 25),
            (EventKind.AGGREGATED, 5),
        ]
