from hypothesis import example, given
from hypothesis import strategies as st

from conftest import build_checkpoint
from planlens.feedback import Coalition
from planlens.pipeline import Intervention, PipelineConfig, RunLedger, Stage
from planlens.seeding import SeedPrefix, derive_seed

labels = st.lists(
    st.one_of(
        st.integers(),
        st.text(),
        st.floats(allow_nan=False),
        st.none(),
        st.booleans(),
    ),
    max_size=40,
)


@given(st.integers(min_value=0, max_value=2**64), labels, st.integers(min_value=0))
@example(0, [], 0)
@example(2**64, list(range(20)), 7)
@example(5, ["%", "%s", "\x1f", "%s\x1f%d", "naïve", "ключ", "🔑"], 3)
def test_prefix_derive_equals_derive_seed_for_any_split(root, path, split):
    split %= len(path) + 1
    prefix = SeedPrefix(root, *path[:split])
    assert prefix.derive(*path[split:]) == derive_seed(root, *path)


def test_prefix_reusable_across_derivations():
    prefix = SeedPrefix(3, "stage")
    assert prefix.derive("a") == derive_seed(3, "stage", "a")
    assert prefix.derive("b", 1) == derive_seed(3, "stage", "b", 1)
    assert prefix.derive() == derive_seed(3, "stage")


def test_stage_keys_unchanged():
    # Archives index stage results by these keys; a change in how they are
    # derived would make every existing archive miss on replay.
    ledger = RunLedger(
        "run",
        build_checkpoint(3),
        Intervention(coalition=Coalition(5)),
        PipelineConfig(k=4, rounds=2),
        123,
    )
    assert ledger.stage_key(Stage.GEN, "s001", 1) == "559a367b5926df92"
    assert ledger.stage_key(Stage.EVAL, "s002", 0, 3) == "0793c9294263cfd3"
