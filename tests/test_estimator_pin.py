"""Pin of the characteristic-table estimator's exact output.

Every value, stderr and rollout count of a set of sweeps is hashed by its
`repr`, so a rewrite of the estimator loop must keep every table bit for
bit: rollout seeds, the order of the mean and stderr arithmetic, the None
stderr of a single rollout and which failed rollouts are left out.
"""

import hashlib
import random

import pytest

from planlens.attribution import GameSpec, sweep_characteristic_tables
from planlens.feedback import default_components, plan_feedback_players, plan_summary_players
from planlens.trajectory import METRICS, GenerationCheckpoint, GenerationStats

CHECKPOINT = GenerationCheckpoint(trajectory_id="pin", g=4, samples=())

GAMES = {
    "components": default_components,
    "plan-feedback": plan_feedback_players,
    "plan-summary": plan_summary_players,
}


def seeded_rollout(fail_rate):
    """Nested rates drawn from the rollout seed; a share of rollouts raise."""

    def rollout(checkpoint, coalition, seed):
        rng = random.Random(seed)
        if rng.random() < fail_rate:
            raise RuntimeError(f"rollout {seed} failed")
        compiled, pass_, fast = sorted((rng.random() for _ in range(3)), reverse=True)
        n = rng.randint(1, 30)
        return GenerationStats(checkpoint.g, compiled, pass_, fast, pass_, k=3, n_samples=n)

    return rollout


def sweep_digest(game, r_rollouts, fail_rate, seed):
    players = GAMES[game]()
    specs = [GameSpec(players=players, metric=m, g=CHECKPOINT.g) for m in METRICS]
    tables = sweep_characteristic_tables(
        CHECKPOINT, specs, seeded_rollout(fail_rate), r_rollouts, seed
    )
    h = hashlib.sha256()
    for table in tables:
        for mask in range(1 << len(players)):
            row = (table.spec.metric, mask, table.values[mask], table.stderr[mask], table.n_rollouts[mask])
            h.update(repr(row).encode("utf-8"))
    return h.hexdigest(), tables


PINS = {
    ("components", 1, 0.0, 11):
        "de60a0550ac992949842780839cba2e922a0a3736a18658034ceed529b309460",
    ("components", 7, 0.3, 5):
        "26906d03c925cb409be497e47b9dca008c1c6142d778702eab36717f99983100",
    ("plan-feedback", 1, 0.0, 12):
        "531c4a46f6873f9007ab13593032f8c8886784e9ce7212e9b13ea3bcf698e462",
    ("plan-feedback", 7, 0.3, 6):
        "76a0f1cc4414263baaf07015455fcb119aaab5a7402797927d69b05e367b70a1",
    ("plan-summary", 1, 0.0, 13):
        "76b71c14986c381ebebe04b74f90e37b25392e6aed8738d9c105b9083b298533",
    ("plan-summary", 7, 0.3, 7):
        "16e9751564a1b502104764821ab9bc423f8ff048d7e9ab9f26c30010fea7f8e3",
}


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda c: f"{c[0]}-R{c[1]}")
def test_sweep_tables_pinned(case):
    game, r_rollouts, fail_rate, seed = case
    digest, tables = sweep_digest(game, r_rollouts, fail_rate, seed)
    counts = {n for table in tables for n in table.n_rollouts.values()}
    if r_rollouts == 1:
        assert counts == {1}
        assert all(se is None for table in tables for se in table.stderr.values())
    else:
        # Some rollouts failed and were left out, but no coalition lost all.
        assert min(counts) < r_rollouts and min(counts) >= 1
    assert digest == PINS[case]
