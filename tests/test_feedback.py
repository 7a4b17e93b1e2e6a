import threading
from collections import Counter

import pytest

from planlens.feedback import (
    Coalition,
    FeedbackArtifact,
    FeedbackComponent,
    InMemoryArtifactSource,
    Memo,
    MissingFeedbackError,
    PermutedArtifactSource,
    Report,
    Representation,
    build_report,
    default_components,
    dummy_plan,
    enumerate_coalitions,
    plan_feedback_players,
    randomize_feedback,
)
from planlens.trajectory import GenerationCheckpoint, Sample

D, A, P = default_components()


def artifact(component, sample_id="s0", payload=None, representation=Representation.RAW):
    return FeedbackArtifact(
        component=component,
        representation=representation,
        payload=payload if payload is not None else f"{component.name} output",
        source_sample=sample_id,
    )


class TestCoalitions:
    def test_n1(self):
        assert [c.mask for c in enumerate_coalitions(1)] == [0, 1]

    def test_n2(self):
        assert len(enumerate_coalitions(2)) == 4

    def test_n3_eight_subsets_ascending(self):
        masks = [c.mask for c in enumerate_coalitions(3)]
        assert masks == list(range(8))

    def test_bounds(self):
        with pytest.raises(ValueError):
            enumerate_coalitions(0)
        with pytest.raises(ValueError):
            enumerate_coalitions(17)

    def test_membership_and_label(self):
        coalition = Coalition.of(D, P)
        assert D in coalition and P in coalition and A not in coalition
        assert coalition.label(default_components()) == "dp"
        assert Coalition(0).label(default_components()) == "none"

    def test_parse(self):
        players = default_components()
        assert Coalition.parse("d,a,p", players).mask == 7
        assert Coalition.parse("debugger,profiler", players).mask == 5
        assert Coalition.parse("none", players).mask == 0
        with pytest.raises(ValueError, match="unknown feedback component"):
            Coalition.parse("d,q", players)

    def test_short_defaults_to_first_letter(self):
        assert FeedbackComponent(0, "debugger").short == "d"
        assert plan_feedback_players()[0].short == "F"


class TestBuildReport:
    def source_for(self, sample_ids=("s0",)):
        source = InMemoryArtifactSource()
        for sid in sample_ids:
            for component in default_components():
                source.put(artifact(component, sid, payload=f"{component.name}@{sid}"))
        return source

    def test_empty_coalition(self):
        report = build_report(
            "s0", Coalition(0), Representation.RAW, self.source_for(), default_components()
        )
        assert report.artifacts == ()

    def test_single_component(self):
        report = build_report(
            "s0", Coalition.of(A), Representation.RAW, self.source_for(), default_components()
        )
        assert len(report.artifacts) == 1
        assert report.artifacts[0].component == A

    def test_full_coalition_ordered_by_id(self):
        report = build_report(
            "s0", Coalition.of(P, D, A), Representation.RAW, self.source_for(), default_components()
        )
        assert [a.component.id for a in report.artifacts] == [0, 1, 2]

    def test_summarized_fixture_three_artifacts_in_id_order(self):
        source = InMemoryArtifactSource()
        for component in default_components():
            source.put(
                artifact(
                    component,
                    payload=f"summary of {component.name}",
                    representation=Representation.SUMMARIZED,
                )
            )
        report = build_report(
            "s0",
            Coalition.of(P, A, D),
            Representation.SUMMARIZED,
            source,
            default_components(),
        )
        assert len(report.artifacts) == 3
        assert [a.component.id for a in report.artifacts] == [0, 1, 2]
        assert all(
            a.representation is Representation.SUMMARIZED for a in report.artifacts
        )

    def test_missing_artifact_names_component(self):
        source = InMemoryArtifactSource()
        source.put(artifact(D))
        with pytest.raises(MissingFeedbackError, match="analyzer"):
            build_report(
                "s0", Coalition.of(D, A), Representation.RAW, source, default_components()
            )

    def test_empty_payload_treated_missing(self):
        source = InMemoryArtifactSource()
        source.put(artifact(D, payload=""))
        with pytest.raises(MissingFeedbackError):
            build_report("s0", Coalition.of(D), Representation.RAW, source, default_components())

    def test_coalition_report_bijection(self):
        source = self.source_for()
        for coalition in enumerate_coalitions(3):
            report = build_report(
                "s0", coalition, Representation.RAW, source, default_components()
            )
            mask = 0
            for art in report.artifacts:
                mask |= art.component.bit
            assert mask == coalition.mask

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError, match="do not match coalition"):
            Report(sample_id="s0", coalition=Coalition.of(D), artifacts=(artifact(A),))


def checkpoint_with(n, g=0):
    samples = tuple(
        Sample(sample_id=f"s{i}", generation_index=g, program_text=f"p{i}")
        for i in range(n)
    )
    return GenerationCheckpoint(trajectory_id="t", g=g, samples=samples)


class TestRandomizeFeedback:
    def test_two_samples_seed_enumerates_both_outcomes(self):
        outcomes = set()
        for seed in range(20):
            perm = randomize_feedback(checkpoint_with(2), seed=seed)
            outcomes.add(tuple(sorted(perm.mapping.items())))
        assert len(outcomes) == 2  # identity and the swap both occur

    def test_multiset_preserved(self):
        cp = checkpoint_with(8)
        perm = randomize_feedback(cp, seed=11)
        assert Counter(perm.mapping.values()) == Counter(cp.sample_ids())

    def test_single_sample_noop_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            perm = randomize_feedback(checkpoint_with(1), seed=0)
        assert perm.mapping == {"s0": "s0"}
        assert any("single sample" in r.message for r in caplog.records)

    def test_empty_generation_rejected(self):
        with pytest.raises(ValueError):
            randomize_feedback(checkpoint_with(0), seed=0)

    def test_reproducible(self):
        cp = checkpoint_with(10)
        assert randomize_feedback(cp, seed=5).mapping == randomize_feedback(cp, seed=5).mapping

    def test_permuted_source_reroutes(self):
        source = InMemoryArtifactSource()
        source.put(artifact(D, "s0", payload="from s0"))
        source.put(artifact(D, "s1", payload="from s1"))
        permuted = PermutedArtifactSource(source, {"s0": "s1", "s1": "s0"})
        assert permuted.get("s0", D, Representation.RAW).payload == "from s1"
        assert permuted.get("s1", D, Representation.RAW).payload == "from s0"


class TestDummyPlan:
    def test_constant_without_padding(self):
        assert dummy_plan() == dummy_plan()
        assert "Executive Summary" in dummy_plan()

    def test_asset_read_once_per_process(self, monkeypatch):
        from types import SimpleNamespace

        from planlens import feedback as fb

        reads, real_files = [], fb.resources.files

        def files(package):
            reads.append(package)
            return real_files(package)

        expected = dummy_plan()
        fb.read_asset.cache_clear()
        monkeypatch.setattr(fb, "resources", SimpleNamespace(files=files))
        assert [dummy_plan() for _ in range(3)] == [expected] * 3
        assert reads == ["planlens"]

    def test_missing_template_asset_is_config_error(self, monkeypatch):
        from planlens import feedback as fb

        monkeypatch.setattr(fb, "_DUMMY_PLAN_ASSET", "missing.md")
        with pytest.raises(fb.TemplateAssetError):
            dummy_plan()


class TestMemo:
    def test_waiter_computes_after_failed_computation(self):
        memo = Memo()
        entered, release = threading.Event(), threading.Event()
        outcome = {}

        def failing():
            entered.set()
            release.wait(5)
            raise RuntimeError("backend down")

        def first():
            try:
                memo.get("k", failing)
            except RuntimeError as exc:
                outcome["first"] = exc

        thread = threading.Thread(target=first)
        thread.start()
        assert entered.wait(5)
        waiter = threading.Thread(
            target=lambda: outcome.setdefault("second", memo.get("k", lambda: 5))
        )
        waiter.start()
        release.set()
        thread.join(5)
        waiter.join(5)
        assert isinstance(outcome["first"], RuntimeError)
        assert outcome["second"] == 5
        assert memo.get("k", lambda: 6) == 5

    def test_other_keys_go_ahead(self):
        memo = Memo()
        entered, release = threading.Event(), threading.Event()

        def slow():
            entered.set()
            release.wait(5)
            return "a"

        thread = threading.Thread(target=memo.get, args=("a", slow))
        thread.start()
        assert entered.wait(5)
        assert memo.get("b", lambda: "b") == "b"  # while "a" is in flight
        release.set()
        thread.join(5)
        assert memo.get("a", lambda: "other") == "a"


def test_artifact_content_hash_covers_payload_and_representation():
    a1 = artifact(D, payload="x")
    a2 = artifact(D, payload="y")
    a3 = artifact(D, payload="x", representation=Representation.SUMMARIZED)
    assert a1.content_hash != a2.content_hash
    assert a1.content_hash != a3.content_hash
    assert a1.content_hash == artifact(D, payload="x").content_hash
