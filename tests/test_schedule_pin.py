"""Pinned schedules: the scheduler's exact output for fixed configurations.

Stats are schedule independent (criterion 05), so they cannot catch a
scheduler change that reorders work. These pins can: each case fixes the
makespan, the in-flight and queue high-water marks, and a sha256 over the
full (kind, sample_id, wall_time, payload) event sequence. A scheduler
rewrite must reproduce every one of them bit for bit.
"""

import hashlib
import json
import os
import tempfile

import pytest

from conftest import build_checkpoint, build_pipe, only_stages
from planlens.feedback import Coalition, Representation, default_components
from planlens.pipeline import ExecutionMode, Intervention, PipelineConfig, archive_run, replay_load

SERIAL = ExecutionMode.SERIAL
STAGE_SYNC = ExecutionMode.STAGE_SYNC
MULTI_ASYNC = ExecutionMode.MULTI_ASYNC

# Attempts the mock generator fails: one isolated failure, and every
# attempt of s003 (a round with no candidates goes straight to AGG or
# the next round).
FAILS = frozenset({("s001", 1)} | {("s003", j) for j in range(5)})

# name -> (samples, config fields, failed attempts, representation)
CASES = {
    "serial": (12, dict(execution_mode=SERIAL, k=3, generator_concurrency=4, eval_concurrency=2), frozenset(), "raw"),
    "serial-rounds2-fails": (9, dict(execution_mode=SERIAL, k=5, rounds=2), FAILS, "formatted"),
    "stage-sync": (25, dict(execution_mode=STAGE_SYNC, k=5), frozenset(), "raw"),
    "stage-sync-rounds2": (17, dict(execution_mode=STAGE_SYNC, k=3, rounds=2, generator_concurrency=4, eval_concurrency=2), frozenset(), "raw"),
    "stage-sync-wide": (40, dict(execution_mode=STAGE_SYNC, k=5, rounds=2), frozenset(), "summarized"),
    "stage-sync-fails": (12, dict(execution_mode=STAGE_SYNC, k=5, rounds=2, generator_concurrency=4), FAILS, "raw"),
    "multi-async": (25, dict(execution_mode=MULTI_ASYNC, k=5), frozenset(), "raw"),
    "multi-async-backpressure": (17, dict(execution_mode=MULTI_ASYNC, k=5, generator_concurrency=16, eval_concurrency=2, queue_capacity=12), frozenset(), "raw"),
    "multi-async-backpressure-k1": (40, dict(execution_mode=MULTI_ASYNC, k=1, generator_concurrency=4, eval_concurrency=2, queue_capacity=1), frozenset(), "raw"),
    "multi-async-rounds2": (17, dict(execution_mode=MULTI_ASYNC, k=3, rounds=2, generator_concurrency=4, eval_concurrency=2), frozenset(), "summarized"),
    "multi-async-fails": (12, dict(execution_mode=MULTI_ASYNC, k=5, rounds=2, generator_concurrency=1, eval_concurrency=1, queue_capacity=5), FAILS, "raw"),
    "multi-async-p1": (3, dict(execution_mode=MULTI_ASYNC, k=5, generator_concurrency=1, eval_concurrency=32), frozenset(), "raw"),
    "stage-sync-rounds3-fails": (12, dict(execution_mode=STAGE_SYNC, k=5, rounds=3, generator_concurrency=4, eval_concurrency=3), FAILS, "raw"),
    "multi-async-rounds3": (17, dict(execution_mode=MULTI_ASYNC, k=3, rounds=3, generator_concurrency=4, eval_concurrency=2, queue_capacity=9), frozenset(), "formatted"),
    "multi-async-schedule-seed": (17, dict(execution_mode=MULTI_ASYNC, k=3, rounds=3, generator_concurrency=4, eval_concurrency=2, schedule_seed=3), FAILS, "raw"),
    "multi-async-backpressure-schedule-seed": (17, dict(execution_mode=MULTI_ASYNC, k=5, generator_concurrency=16, eval_concurrency=2, queue_capacity=12, schedule_seed=3), frozenset(), "raw"),
    "multi-async-rounds2-fails-schedule-seed": (12, dict(execution_mode=MULTI_ASYNC, k=3, rounds=2, generator_concurrency=4, eval_concurrency=1, queue_capacity=4, schedule_seed=7), FAILS, "raw"),
    "multi-async-backpressure-replay-anlz": (17, dict(execution_mode=MULTI_ASYNC, k=5, generator_concurrency=16, eval_concurrency=2, queue_capacity=12), frozenset(), "raw"),
    "multi-async-backpressure-replay-gen-eval": (17, dict(execution_mode=MULTI_ASYNC, k=5, generator_concurrency=16, eval_concurrency=2, queue_capacity=12), frozenset(), "raw"),
    "multi-async-rounds2-fails-replay-all": (12, dict(execution_mode=MULTI_ASYNC, k=3, rounds=2, generator_concurrency=4, eval_concurrency=2, queue_capacity=6), FAILS, "raw"),
}

# name -> the stage kinds a case's run is replayed from. The case's run is
# recorded, archived, and its pin is that of a second run replaying only
# these kinds: replayed tasks take no time, so they tie on finish time.
REPLAYED = {
    "multi-async-backpressure-replay-anlz": {"anlz"},
    "multi-async-backpressure-replay-gen-eval": {"gen", "eval"},
    # Every stage replayed: every task finishes at its start, so the whole
    # run ties at time zero and only the start order separates tasks.
    "multi-async-rounds2-fails-replay-all": {"anlz", "gen", "eval"},
}

# name -> (makespan, max_gen_inflight, max_eval_queue, max_llm_inflight,
#          sha256 of the event sequence), as produced by the list-scan
#          scheduler this suite was written against.
PINS = {
    "serial": (200.43490888083895, 1, 3, 1, "9ab11489cf98b9d460ba5c14fe5bb9787325d00f4830d29054f1fc740142a5d6"),
    "serial-rounds2-fails": (345.2909641264649, 1, 5, 1, "b0f7ff5c4143f836bd37648b262ee134a49b4cb98591942d456f22499dbf98ac"),
    "stage-sync": (36.64257317212483, 16, 125, 16, "1abe1bcbcd3c168192fa512f93a44b6d7344b81b13b016353528dce7580c4354"),
    "stage-sync-rounds2": (192.8204589909079, 4, 51, 4, "9604010c28bb90a78a0c4174605bf9f55b2cf6169a93dd49f57ce3ae832e9cc4"),
    "stage-sync-wide": (132.4070617129568, 16, 200, 16, "8a25461255d612f0227dd2e4be6c75a4cc0bda830564d0f83ef8e5b15e6d38e8"),
    "stage-sync-fails": (82.14999246183324, 4, 54, 4, "71f60588132755b9081317954b729f8b482080cfbe1b5d655035843778ef00d5"),
    "multi-async": (31.319803257590646, 15, 5, 16, "4416a050a2e4d24f7b400ccb575a61acd87477335cdca31fe90e81cf9fcf2c40"),
    "multi-async-backpressure": (91.71379592120385, 2, 9, 16, "92d354f0c3bf9c1c7ac80ea54b136154cd0f603c329a407849c6bd9fb0be4fe2"),
    "multi-async-backpressure-k1": (275.88242086248255, 1, 1, 4, "87305fc80af5876188f98ba2a5a7241d46522d7b25d9df1dcba41a1737efc011"),
    "multi-async-rounds2": (110.77220966078048, 4, 20, 4, "29a4d299ff6b0bc62e0ecff6fde22dfddf74a60e2bc72ffaf008208facb212fd"),
    "multi-async-fails": (357.0370927311493, 1, 5, 1, "5e1072dc5bd5cbcac3ac494dce27129d7a7573a8eeced83b9aa5796de3d60ebe"),
    "multi-async-p1": (33.33882613677507, 1, 5, 1, "108418b5308f6ce85146eb86a3e6f4f497c2bef5889f878ac722b7b9b46a1e98"),
    "stage-sync-rounds3-fails": (217.56802433828304, 4, 54, 4, "c88b1d27bf89d71ed1d6b1099ebf85ee2eb6dddd233427fcc61fd038c4085e71"),
    "multi-async-rounds3": (179.9220878238174, 3, 6, 4, "adb46477342a093558564c4ea0e2fc182fe71cf61a9bda7e2743803e50f05377"),
    "multi-async-schedule-seed": (162.5672496057713, 4, 19, 4, "e7de423c87095bb764cfd7dcb15f78190c5e36c60033b9761329d2d5d0d113a6"),
    "multi-async-backpressure-schedule-seed": (92.46615197320239, 2, 8, 16, "ce6bec16ea3e87a95ee7f5f7fd3cdb6ac78254bebf092d1fe558d44c28c717de"),
    "multi-async-rounds2-fails-schedule-seed": (201.6172833465344, 1, 3, 4, "3903655e2bdf709eaa6feb936f913edfb9c438918a8d6dbfe7e34534c71a760c"),
    "multi-async-backpressure-replay-anlz": (87.35471580588758, 2, 9, 16, "cb4e4a4834cc43e223073a21ada78b03c86c5715b97e87b255969dbd9a143890"),
    "multi-async-backpressure-replay-gen-eval": (8.512679276977273, 1, 5, 16, "7870c23b4d39941e679ce7d4688b37264452472b172615d1e158484c23a57765"),
    "multi-async-rounds2-fails-replay-all": (0.0, 2, 4, 4, "eccfd0e98b6b1887b02ab31f6e0b6f4145111b04b1889e0be1b9547f0584c841"),
}


def event_digest(trace) -> str:
    h = hashlib.sha256()
    for event in trace:
        row = [event.kind.value, event.sample_id, event.wall_time, dict(event.payload)]
        h.update(json.dumps(row, sort_keys=True).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def run_case(name):
    n_samples, fields, fails, representation = CASES[name]
    checkpoint = build_checkpoint(n_samples)
    config = PipelineConfig(seed=5, **fields)
    pipe = build_pipe(checkpoint, config=config, fail_attempts=fails)
    intervention = Intervention(
        coalition=Coalition.of(*default_components()),
        representation=Representation(representation),
    )
    run_id = pipe.submit(checkpoint, intervention, seed=11)
    result = pipe.run_to_completion(run_id)
    if name in REPLAYED:
        with tempfile.TemporaryDirectory() as archive_dir:
            archive_run(result, archive_dir)
            replay = only_stages(replay_load(archive_dir, checkpoint), REPLAYED[name])
        result = pipe.run_to_completion(pipe.submit(checkpoint, intervention, seed=11, replay=replay))
        assert 0 < len(result.ledger.replayed) < len(result.trace)
    return (
        result.makespan,
        result.max_gen_inflight,
        result.max_eval_queue,
        result.ledger.max_llm_inflight,
        event_digest(result.trace),
    )


def test_cases_cover_required_shapes():
    modes = {fields["execution_mode"] for _, fields, _, _ in CASES.values()}
    assert modes == {SERIAL, STAGE_SYNC, MULTI_ASYNC}
    assert any(
        f["execution_mode"] is STAGE_SYNC and f.get("rounds", 1) == 2
        for _, f, _, _ in CASES.values()
    )
    # Past two rounds, a sample's later rounds can be ready next to other
    # samples' earlier ones; both parallel modes pin that.
    assert {
        f["execution_mode"] for _, f, _, _ in CASES.values() if f.get("rounds", 1) >= 3
    } == {STAGE_SYNC, MULTI_ASYNC}
    # GEN -> EVAL backpressure binds when the queue cannot hold k
    # evaluations for every GEN the LLM pool could run at once.
    assert any(
        f["execution_mode"] is MULTI_ASYNC
        and f.get("queue_capacity", 256) < (f.get("generator_concurrency", 16) + 1) * f["k"]
        for _, f, _, _ in CASES.values()
    )
    # Under a schedule seed, heap entries are (priority, task) pairs; the
    # scan sets entries aside only under backpressure.
    assert any(
        f.get("schedule_seed") is not None
        and f["execution_mode"] is MULTI_ASYNC
        and f.get("queue_capacity", 256) < (f.get("generator_concurrency", 16) + 1) * f["k"]
        for _, f, _, _ in CASES.values()
    )
    assert any(fails for _, _, fails, _ in CASES.values())
    assert set(REPLAYED) <= set(CASES)
    assert set(PINS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_pinned(name):
    assert run_case(name) == PINS[name]


def test_schedule_seed_does_not_depend_on_the_process(monkeypatch):
    """A schedule seed gives the same schedule in every process; the run id,
    which holds the process id, must not feed it."""
    name = "multi-async-schedule-seed"
    assert CASES[name][1]["schedule_seed"] is not None
    outputs = []
    for pid in (1000, 2000):
        monkeypatch.setattr(os, "getpid", lambda: pid)
        outputs.append(run_case(name))
    assert outputs[0] == outputs[1]
