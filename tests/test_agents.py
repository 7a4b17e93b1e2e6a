import json
import re
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from planlens.agents import (
    AgentRole,
    Candidate,
    DecodingConfig,
    Effect,
    GeneratorAttemptError,
    HttpChatAgent,
    HttpSummarizer,
    MockBehavior,
    MockEvaluator,
    MockGenerator,
    MockPlanner,
    MockSummarizer,
    RetryableAgentError,
    Role,
    load_prompt,
    mock_artifact_payload,
    prompt_inventory,
    PlanArtifact,
)
from planlens.feedback import (
    Coalition,
    FeedbackArtifact,
    Report,
    Representation,
    default_components,
)
from planlens.trajectory import OutcomeLevel, Sample, classify_execution

D, A, P = default_components()


def sample(sid="s0"):
    return Sample(sample_id=sid, generation_index=0, program_text=f"prog {sid}")


def report_for(coalition, plan_slot=None):
    artifacts = tuple(
        FeedbackArtifact(
            component=c,
            representation=Representation.RAW,
            payload=f"{c.name} raw",
            source_sample="s0",
        )
        for c in coalition.members(default_components())
    )
    return Report(sample_id="s0", coalition=coalition, artifacts=artifacts, plan_slot=plan_slot)


class TestMockSummarizer:
    def test_empty_input_empty_output(self):
        assert MockSummarizer().summarize([]) == ()

    def test_deterministic(self):
        arts = report_for(Coalition.of(D, A)).artifacts
        s1 = MockSummarizer().summarize(arts)
        s2 = MockSummarizer().summarize(arts)
        assert s1 == s2

    def test_summaries_reference_source_hash(self):
        arts = report_for(Coalition.of(D, A, P)).artifacts
        summaries = MockSummarizer().summarize(arts)
        assert len(summaries) == 3
        import hashlib

        for art, summary in zip(arts, summaries):
            digest = hashlib.sha256(art.payload.encode()).hexdigest()[:16]
            assert digest in summary.payload
            assert summary.representation is Representation.SUMMARIZED

    def test_pure_function_of_inputs(self):
        # Same payload, different call order: identical summary bytes.
        art = report_for(Coalition.of(D)).artifacts[0]
        first = MockSummarizer().summarize([art])[0]
        agent = MockSummarizer()
        agent.summarize(report_for(Coalition.of(A)).artifacts)
        second = agent.summarize([art])[0]
        assert first == second


class TestMockPlanner:
    def test_empty_coalition_marker(self):
        plan = MockPlanner().plan(report_for(Coalition(0)))
        assert plan.text == "no-feedback plan"

    def test_full_coalition_encodes_mask(self):
        plan = MockPlanner().plan(report_for(Coalition(7)))
        assert "mask=7" in plan.text

    def test_context_hash_tied_to_report(self):
        planner = MockPlanner()
        p1 = planner.plan(report_for(Coalition.of(D)))
        p2 = planner.plan(report_for(Coalition.of(A)))
        assert p1.generation_context_hash != p2.generation_context_hash


class TestMockGenerator:
    def behavior(self, **kwargs):
        defaults = dict(seed=7, base_compiled=0.6, base_pass=0.4, base_fast=0.2)
        defaults.update(kwargs)
        return MockBehavior(**defaults)

    def test_k_candidates(self):
        gen = MockGenerator(self.behavior())
        out = gen.generate(sample(), report_for(Coalition(0)), None, k=5)
        assert len(out) == 5
        assert all(isinstance(c, Candidate) for c in out)

    def test_quality_independent_of_coalition(self):
        gen = MockGenerator(self.behavior())
        a = gen.generate(sample(), report_for(Coalition(0)), None, k=3, run_seed=1)
        b = gen.generate(sample(), report_for(Coalition(7)), None, k=3, run_seed=1)
        assert [c.quality for c in a] == [c.quality for c in b]
        assert a[0].thresholds != b[0].thresholds or self.behavior().effects == ()

    def test_failure_injection_isolated(self):
        gen = MockGenerator(
            self.behavior(), fail_attempts=frozenset({("s0", 2)})
        )
        out = gen.generate(sample(), report_for(Coalition(0)), None, k=5)
        assert isinstance(out[2], GeneratorAttemptError)
        assert sum(isinstance(c, Candidate) for c in out) == 4

    def test_planted_effect_shifts_compile_rate(self):
        # Analyzer adds +0.3 to per-attempt compile probability; measured
        # over 500 draws the empirical shift is ~0.3.
        effect = Effect(requires=A.bit, level=OutcomeLevel.COMPILED, delta=0.3)
        behavior = MockBehavior(seed=3, base_compiled=0.3, base_pass=0.1, base_fast=0.0, effects=(effect,))
        gen = MockGenerator(behavior)
        evaluator = MockEvaluator()

        def rate(coalition):
            compiled = 0
            for i in range(500):
                cand = gen.generate(
                    sample(f"s{i}"), report_for(coalition), None, k=1, run_seed=i
                )[0]
                rec = evaluator.evaluate(cand)
                compiled += rec.compiled
            return compiled / 500

        baseline = rate(Coalition(0))
        boosted = rate(Coalition.of(A))
        assert boosted - baseline == pytest.approx(0.3, abs=0.05)

    def test_strong_producer_raises_pass_probability(self):
        behavior = MockBehavior(
            seed=5,
            base_compiled=0.9,
            base_pass=0.3,
            base_fast=0.0,
            producer_effects={
                "strong": (Effect(requires=0, level=OutcomeLevel.PASS, delta=0.4),)
            },
        )
        gen = MockGenerator(behavior)
        evaluator = MockEvaluator()

        def pass_rate(plan):
            count = 0
            for i in range(400):
                cand = gen.generate(
                    sample(f"s{i}"), report_for(Coalition(0)), plan, k=1, run_seed=i
                )[0]
                rec = evaluator.evaluate(cand)
                count += rec.validations_passed
            return count / 400

        weak = pass_rate(PlanArtifact(text="plan", producer_tag="weak"))
        strong = pass_rate(PlanArtifact(text="plan", producer_tag="strong"))
        assert strong - weak == pytest.approx(0.4, abs=0.07)

    def test_chain_violation_clamped_with_warning(self, caplog):
        behavior = MockBehavior(
            seed=1,
            base_compiled=0.3,
            base_pass=0.2,
            base_fast=0.0,
            effects=(Effect(requires=0, level=OutcomeLevel.PASS, delta=0.6),),
        )
        with caplog.at_level("WARNING"):
            p_c, p_p, p_f = behavior.probabilities(Coalition(0))
        assert p_p <= p_c
        assert any("clamping" in r.message for r in caplog.records)

    def test_behavior_json_roundtrip(self):
        data = {
            "seed": 9,
            "base_compiled": 0.5,
            "base_pass": 0.25,
            "base_fast": 0.1,
            "effects": [{"requires": 2, "level": "compiled", "delta": 0.3}],
            "producer_effects": {"strong": [{"level": "pass", "delta": 0.2}]},
            "latency": {"gen": {"mean": 2.0, "tail": 1.0}},
        }
        behavior = MockBehavior.from_json(data)
        assert behavior.effects[0].level is OutcomeLevel.COMPILED
        assert behavior.producer_effects["strong"][0].delta == 0.2
        assert behavior.latency["gen"].mean == 2.0

    @pytest.mark.parametrize(
        "latency, named",
        [
            ({"gne": {"mean": 1.0, "tail": 1.0}}, "'gne'"),
            ({"gen": {"mean": 1.0}}, "latency.gen"),
            ({"eval": {"tail": 1.0}}, "latency.eval"),
            ({"anlz": {"mean": "1", "tail": 1.0}}, "latency.anlz"),
            ({"gen": {"mean": True, "tail": 1.0}}, "latency.gen"),
            ({"gen": [1.0, 1.0]}, "latency.gen"),
            ({"gen": {"mean": -50.0, "tail": 0.0}}, "latency.gen"),
            ([], "latency"),
        ],
        ids=["unknown-stage", "no-tail", "no-mean", "mean-str", "mean-bool", "entry-list", "mean-negative",
             "latency-list"],
    )
    def test_behavior_json_rejects_bad_latency(self, latency, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            MockBehavior.from_json({"latency": latency})


class TestMockEvaluator:
    def make_candidate(self, quality, thresholds=(0.4, 0.6, 0.85)):
        return Candidate(
            sample_id="s0", attempt=0, text="", quality=quality, thresholds=thresholds
        )

    def test_quality_zero_is_failed(self):
        rec = MockEvaluator().evaluate(self.make_candidate(0.0))
        assert classify_execution(rec) is OutcomeLevel.FAILED

    def test_fast_threshold_gives_speedup_above_one(self):
        rec = MockEvaluator().evaluate(self.make_candidate(0.9))
        assert rec.speedup_vs_baseline > 1.0
        assert classify_execution(rec) is OutcomeLevel.FAST

    def test_levels_match_thresholds(self):
        evaluator = MockEvaluator()
        assert classify_execution(evaluator.evaluate(self.make_candidate(0.5))) is OutcomeLevel.COMPILED
        assert classify_execution(evaluator.evaluate(self.make_candidate(0.7))) is OutcomeLevel.PASS

    def test_binomial_bound_at_half(self):
        behavior = MockBehavior(seed=11, base_compiled=1.0, base_pass=0.5, base_fast=0.0)
        gen = MockGenerator(behavior)
        evaluator = MockEvaluator()
        passes = 0
        for i in range(1000):
            cand = gen.generate(sample(f"s{i}"), report_for(Coalition(0)), None, k=1, run_seed=i)[0]
            passes += evaluator.evaluate(cand).validations_passed
        assert 450 <= passes <= 550

    def test_records_satisfy_invariants(self):
        behavior = MockBehavior(seed=2)
        gen = MockGenerator(behavior)
        evaluator = MockEvaluator()
        for i in range(200):
            cand = gen.generate(sample(f"s{i}"), report_for(Coalition(0)), None, k=1, run_seed=i)[0]
            classify_execution(evaluator.evaluate(cand))  # raises if malformed


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    seen: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append((self.path, body, self.headers.get("Authorization")))
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(503)
            self.end_headers()
            return
        payload = json.dumps({"content": f"echo:{body['model']}"}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture()
def chat_server():
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _ChatHandler.fail_times = 0
    _ChatHandler.seen = []
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    server.server_close()


class TestHttpChatAgent:
    def role(self):
        return AgentRole(
            role=Role.PLANNER,
            model_tag="test-model",
            decoding=DecodingConfig(temperature=0.2, max_tokens=64, seed=4),
        )

    def test_requires_base_url(self, monkeypatch):
        monkeypatch.delenv("PLANLENS_BACKEND_URL", raising=False)
        with pytest.raises(ValueError, match="PLANLENS_BACKEND_URL"):
            HttpChatAgent(self.role())

    def test_round_trip_and_payload_shape(self, chat_server):
        agent = HttpChatAgent(self.role(), base_url=chat_server, api_key="tok")
        out = agent.complete([{"role": "user", "content": "hi"}])
        assert out == "echo:test-model"
        path, body, auth = _ChatHandler.seen[-1]
        assert path == "/chat"
        assert auth == "Bearer tok"
        assert body["temperature"] == 0.2
        assert body["max_tokens"] == 64
        assert body["seed"] == 4
        assert body["messages"] == [{"role": "user", "content": "hi"}]

    def test_retries_then_succeeds(self, chat_server):
        _ChatHandler.fail_times = 2
        agent = HttpChatAgent(
            self.role(), base_url=chat_server, max_retries=4, backoff=0.01
        )
        assert agent.complete([]) == "echo:test-model"
        assert len(_ChatHandler.seen) == 3

    def test_exhausted_retries_raise_with_attempts(self, chat_server):
        _ChatHandler.fail_times = 99
        agent = HttpChatAgent(
            self.role(), base_url=chat_server, max_retries=2, backoff=0.01
        )
        with pytest.raises(RetryableAgentError, match="after 2 attempts"):
            agent.complete([])

    def test_summarizer_counts_like_the_mock(self, chat_server):
        arts = report_for(Coalition.of(D, A)).artifacts
        http = HttpSummarizer(HttpChatAgent(AgentRole(Role.SUMMARIZER, model_tag="s"), base_url=chat_server))
        mock = MockSummarizer()
        for summarizer in (http, mock):
            summarizer.summarize(arts)
            summarizer.summarize(arts[:1])
        assert (http.invocations, http.calls) == (mock.invocations, mock.calls) == (2, 3)
        assert len(_ChatHandler.seen) == 3


class TestPromptAssets:
    def test_role_keyed_prompts_load(self):
        inventory = prompt_inventory()
        for role in (Role.SUMMARIZER, Role.PLANNER, Role.GENERATOR):
            text = load_prompt(role)
            assert text.strip() and text in inventory.values()
            assert load_prompt(role) is text  # read once per process

    def test_inventory_includes_tool_prompts(self):
        names = set(prompt_inventory())
        assert {
            "summarizer_lint_system.md",
            "summarizer_sanitizer_system.md",
            "summarizer_analyzer_system.md",
            "summarizer_profiler_system.md",
            "planner_user.md",
        } <= names

    def test_no_prompt_for_evaluator(self):
        with pytest.raises(KeyError):
            load_prompt(Role.EVALUATOR)


def test_mock_artifact_payload_deterministic():
    s = sample()
    a = mock_artifact_payload(s, "debugger", Representation.RAW)
    b = mock_artifact_payload(s, "debugger", Representation.RAW)
    assert a == b
    assert mock_artifact_payload(s, "analyzer", Representation.RAW) != a
