import itertools
import json
import threading
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import HeldSummarizer, build_checkpoint, build_pipe, run_in_threads
from planlens.agents import MockBehavior, mock_bundle
from planlens.cli import synthetic_artifact_source
from planlens.feedback import Coalition, Representation, default_components
from planlens.pipeline import (
    Event,
    EventKind,
    ExecutionMode,
    Intervention,
    InterventionPipeline,
    PipelineConfig,
    PipelineConfigError,
    PipelineStalledError,
    PlanMode,
    ReplayMismatchError,
    archive_run,
    export_trace,
    game_intervention,
    replay_load,
)
from planlens.trajectory import OutcomeLevel

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

    def test_injected_plan_required(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        with pytest.raises(PipelineConfigError, match="injected_plan"):
            pipe.submit(checkpoint25, Intervention(plan_mode=PlanMode.INJECTED))

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

    def test_config_validation(self):
        with pytest.raises(PipelineConfigError, match="queue_capacity"):
            PipelineConfig(k=8, queue_capacity=4).validate()

    def test_checkpoint_hash_unchanged_by_run(self, checkpoint25):
        before = checkpoint25.checkpoint_hash
        pipe = build_pipe(checkpoint25)
        run_once(pipe, checkpoint25)
        assert checkpoint25.checkpoint_hash == before


class TestFanOut:
    def test_generator_failure_isolated(self):
        cp = build_checkpoint(3)
        pipe = build_pipe(cp, fail_attempts=frozenset({("s001", 1)}))
        result, run_id = run_once(pipe, cp)
        led = pipe.ledger(run_id)
        # The failed attempt is scored Failed; the sample still aggregates.
        assert result.event_counts[EventKind.EVAL_COMPLETED] == 3 * 5 - 1
        assert led.fan_in.outcomes["s001"][(0, 1)] is OutcomeLevel.FAILED
        assert "s001" in led.aggregated

    def test_all_attempts_failing_still_aggregates(self):
        cp = build_checkpoint(2)
        fails = frozenset(("s000", j) for j in range(5))
        pipe = build_pipe(cp, fail_attempts=fails)
        result, run_id = run_once(pipe, cp)
        assert result.event_counts[EventKind.EVAL_COMPLETED] == 5
        assert result.event_counts[EventKind.AGGREGATED] == 2
        assert pipe.ledger(run_id).best_outcomes["s000"] is OutcomeLevel.FAILED

    def test_evaluator_crash_becomes_failed_record(self):
        cp = build_checkpoint(2)
        behavior = MockBehavior(seed=1, base_compiled=1.0, base_pass=1.0, base_fast=0.0)
        pipe = build_pipe(cp, behavior=behavior, crash_on=frozenset({("s000", 0)}))
        _, run_id = run_once(pipe, cp, Intervention(coalition=FULL))
        led = pipe.ledger(run_id)
        assert led.fan_in.outcomes["s000"][(0, 0)] is OutcomeLevel.FAILED
        assert led.fan_in.outcomes["s000"][(0, 1)] is not OutcomeLevel.FAILED

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
        # Deliver the k=3 eval events of one sample in all 6 orders.
        cp = build_checkpoint(1)
        base_events = None
        outcomes = []
        for perm in itertools.permutations(range(3)):
            # Reference outcomes from a fully driven run.
            pipe = build_pipe(cp, config=PipelineConfig(k=3, seed=5))
            run_id = pipe.submit(cp, Intervention(coalition=FULL))
            led = pipe.ledger(run_id)
            pipe.run_to_completion(run_id)
            reference = dict(led.fan_in.outcomes["s000"])
            if base_events is None:
                base_events = reference
            # Deliver the same eval events out of order on a fresh run.
            pipe2 = build_pipe(cp, config=PipelineConfig(k=3, seed=5))
            rid2 = pipe2.submit(cp, Intervention(coalition=FULL))
            led2 = pipe2.ledger(rid2)
            led2.fan_in.expect_evals("s000", 0, 3)
            for attempt in perm:
                event = Event(
                    kind=EventKind.EVAL_COMPLETED,
                    sample_id="s000",
                    run_id=rid2,
                    payload={
                        "round": 0,
                        "attempt": attempt,
                        "level": reference[(0, attempt)].name,
                    },
                    logical_time=0,
                    wall_time=0.0,
                )
                pipe2.on_eval_complete(rid2, event)
            outcomes.append(dict(led2.fan_in.outcomes["s000"]))
        assert all(o == outcomes[0] == base_events for o in outcomes)

    def test_duplicate_eval_event_ignored(self):
        cp = build_checkpoint(1)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, seed=5))
        run_id = pipe.submit(cp, Intervention(coalition=FULL))
        led = pipe.ledger(run_id)
        led.fan_in.expect_evals("s000", 0, 2)
        event = Event(
            kind=EventKind.EVAL_COMPLETED,
            sample_id="s000",
            run_id=run_id,
            payload={"round": 0, "attempt": 0, "level": "PASS"},
            logical_time=0,
            wall_time=0.0,
        )
        first = pipe.on_eval_complete(run_id, event)
        snapshot = dict(led.fan_in.outcomes["s000"])
        second = pipe.on_eval_complete(run_id, event)
        assert second == []
        assert dict(led.fan_in.outcomes["s000"]) == snapshot

    def test_last_eval_triggers_single_aggregation(self):
        cp = build_checkpoint(1)
        pipe = build_pipe(cp, config=PipelineConfig(k=2, seed=5))
        run_id = pipe.submit(cp, Intervention(coalition=FULL))
        pipe.ledger(run_id).fan_in.expect_evals("s000", 0, 2)

        def deliver(attempt):
            return pipe.on_eval_complete(
                run_id,
                Event(
                    kind=EventKind.EVAL_COMPLETED,
                    sample_id="s000",
                    run_id=run_id,
                    payload={"round": 0, "attempt": attempt, "level": "PASS"},
                    logical_time=0,
                    wall_time=0.0,
                ),
            )

        assert deliver(0) == []
        followups = deliver(1)
        assert len(followups) == 1
        assert followups[0].stage.name == "AGG"

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
        led_a, led_b = pipe.ledger(run_a), pipe.ledger(run_b)
        assert led_a.checkpoint_hash != led_b.checkpoint_hash
        assert not (set(led_a.archive_entries()) & set(led_b.archive_entries()))
        assert results[run_a].stats == results[run_b].stats  # same seed, same mocks

    def test_agent_rebinding_frozen_while_active(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        pipe.submit(checkpoint25, Intervention(coalition=FULL))
        with pytest.raises(PipelineConfigError, match="frozen"):
            pipe.set_agents(mock_bundle())


class TestReplay:
    def archived_run(self, tmp_path, cp, config=None):
        pipe = build_pipe(cp, config=config or PipelineConfig(k=3, seed=9))
        result, run_id = run_once(pipe, cp)
        archive_dir = tmp_path / "archive"
        archive_run(pipe, run_id, archive_dir)
        return pipe, result, archive_dir

    def test_full_replay_zero_generator_calls(self, tmp_path):
        cp = build_checkpoint(6)
        _, original, archive_dir = self.archived_run(tmp_path, cp)
        cache = replay_load(archive_dir, cp)
        fresh = build_pipe(cp, config=PipelineConfig(k=3, seed=9))
        result, run_id = run_once(fresh, cp, replay=cache)
        assert fresh.agents.generator.calls == 0
        assert fresh.agents.planner.calls == 0
        assert fresh.agents.evaluator.calls == 0
        assert result.stats == original.stats
        assert fresh.ledger(run_id).replay_hits > 0

    def test_anlz_only_replay(self, tmp_path):
        cp = build_checkpoint(6)
        _, original, archive_dir = self.archived_run(tmp_path, cp)
        cache = replay_load(archive_dir, cp).filter({"anlz"})
        fresh = build_pipe(cp, config=PipelineConfig(k=3, seed=9))
        result, _ = run_once(fresh, cp, replay=cache)
        assert fresh.agents.planner.calls == 0  # feedback stage fully cached
        assert fresh.agents.generator.calls == 6  # prompting still runs
        assert fresh.agents.evaluator.calls == 18
        assert result.stats == original.stats

    def test_each_entry_file_written_and_read_once(self, tmp_path, monkeypatch):
        cp = build_checkpoint(6)
        pipe = build_pipe(cp, config=PipelineConfig(k=3, seed=9))
        _, run_id = run_once(pipe, cp)
        calls = Counter()
        for method in ("write_text", "read_text"):

            def counted(path, *args, _method=method, _original=getattr(Path, method), **kw):
                if path.parent.name == "entries":
                    calls[_method, path.name] += 1
                return _original(path, *args, **kw)

            monkeypatch.setattr(Path, method, counted)
        archive_run(pipe, run_id, tmp_path)
        replay_load(tmp_path, cp)
        monkeypatch.undo()
        names = list(json.loads((tmp_path / "index.json").read_text()).values())
        assert len(set(names)) < len(names)  # equal EVAL records share a file
        assert calls == Counter(
            {(method, name): 1 for method in ("write_text", "read_text") for name in names}
        )

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


class TestInterventionModes:
    def test_dummy_plan_bypasses_planner(self):
        cp = build_checkpoint(4)
        pipe = build_pipe(cp)
        intervention = Intervention(coalition=FULL, plan_mode=PlanMode.DUMMY)
        _, run_id = run_once(pipe, cp, intervention)
        assert pipe.agents.planner.calls == 0
        state = pipe.ledger(run_id).round_state("s000", 0)
        assert state.plan.producer_tag == "dummy-plan"
        assert "Executive Summary" in state.plan.text

    def test_no_plan_mode_leaves_slot_empty(self):
        cp = build_checkpoint(2)
        pipe = build_pipe(cp)
        _, run_id = run_once(pipe, cp, Intervention(coalition=FULL, plan_mode=PlanMode.NONE))
        state = pipe.ledger(run_id).round_state("s000", 0)
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
        pipe.set_agents(replace(pipe.agents, summarizer=summarizer))
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
        _, run_id = run_once(pipe, cp, intervention)
        report = pipe.ledger(run_id).round_state("s000", 0).report
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


class TestDiagnostics:
    def test_watchdog_fires_on_stalled_agent(self):
        cp = build_checkpoint(2)

        class SlowEvaluator:
            calls = 0

            def evaluate(self, candidate):
                time.sleep(0.15)
                from planlens.trajectory import ExecutionRecord

                return ExecutionRecord(compiled=False)

        bundle = mock_bundle()
        bundle = type(bundle)(
            summarizer=bundle.summarizer,
            planner=bundle.planner,
            generator=bundle.generator,
            evaluator=SlowEvaluator(),
        )
        config = PipelineConfig(k=1, seed=1, watchdog_seconds=0.05)
        source = synthetic_artifact_source(cp, default_components())
        pipe = InterventionPipeline(bundle, source, config=config)
        run_id = pipe.submit(cp, Intervention(coalition=FULL))
        with pytest.raises(PipelineStalledError, match="watchdog"):
            pipe.run_to_completion(run_id)

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

    def test_record_trace_off_keeps_counts(self, checkpoint25):
        config = PipelineConfig(k=2, seed=2, record_trace=False)
        pipe = build_pipe(checkpoint25, config=config)
        result, _ = run_once(pipe, checkpoint25)
        assert result.trace == ()
        assert result.event_counts[EventKind.AGGREGATED] == 25

    def test_idle_accounting_nonnegative(self, checkpoint25):
        pipe = build_pipe(checkpoint25)
        result, _ = run_once(pipe, checkpoint25)
        assert all(idle >= 0.0 for idle in result.sample_idle.values())
        assert result.programs == 125
        assert result.programs_per_hour > 0
