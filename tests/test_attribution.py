import itertools
import math
import random

import pytest

from planlens.attribution import (
    CharacteristicTable,
    EstimationFailedError,
    GameSpec,
    IncompleteTableError,
    attribute,
    attribution_report,
    banzhaf,
    banzhaf_three_player,
    banzhaf_two_player,
    bundle_to_csv,
    bundle_to_json,
    payoffs_from_three_player_values,
    payoffs_from_two_player_values,
    shapley,
    sweep_characteristic_tables,
    synergy_full,
    synergy_pair,
    synergy_pair_adjusted,
    synergy_three,
    tables_from_csv,
    tables_to_csv,
)
from planlens.feedback import (
    Coalition,
    default_components,
    enumerate_coalitions,
    plan_feedback_players,
)
from planlens.seeding import derive_seed
from planlens.trajectory import METRICS, GenerationCheckpoint, GenerationStats


# Test-local oracle: direct enumeration of the marginal-contribution mean,
# written independently of the library implementation.
def oracle_banzhaf(values, n, i):
    total = 0.0
    count = 0
    others = [j for j in range(n) if j != i]
    for size in range(len(others) + 1):
        for subset in itertools.combinations(others, size):
            mask = sum(1 << j for j in subset)
            total += values[mask | (1 << i)] - values[mask]
            count += 1
    return total / count


def table_from_list(payoffs, players, metric="overall", g=0):
    spec = GameSpec(players=players, metric=metric, g=g)
    table = CharacteristicTable(spec)
    for mask, v in enumerate(payoffs):
        table.set(Coalition(mask), v)
    return table


def dyadic(rng, bits=20):
    return rng.randrange((1 << bits) + 1) / (1 << bits)


def random_table(rng, players, dyadic_values=False):
    n = len(players)
    draw = (lambda: dyadic(rng)) if dyadic_values else rng.random
    return table_from_list([draw() for _ in range(1 << n)], players)


D, A, P = default_components()
THREE = default_components()
TWO = plan_feedback_players()


class TestBanzhaf:
    def test_additive_game_recovers_weights(self):
        weights = (0.1, 0.2, 0.3)
        payoffs = [
            sum(w for j, w in enumerate(weights) if mask & (1 << j))
            for mask in range(8)
        ]
        table = table_from_list(payoffs, THREE)
        for j, player in enumerate(THREE):
            assert banzhaf(table, player) == pytest.approx(weights[j], abs=1e-15)

    def test_pure_three_way_game(self):
        # Oracle: each player has 4 coalitions, exactly one marginal of 1.
        payoffs = [0.0] * 8
        payoffs[7] = 1.0
        table = table_from_list(payoffs, THREE)
        for player in THREE:
            assert banzhaf(table, player) == 0.25

    def test_published_row_consistent_payoffs(self):
        # v reconstructed to match the two-player report (0.0, 0.200, 0.0).
        table = table_from_list([0.0, 0.0, 0.2, 0.2], TWO)
        f, p = TWO
        assert banzhaf(table, f) == pytest.approx(0.0, abs=1e-12)
        assert banzhaf(table, p) == pytest.approx(0.2, abs=1e-12)

    def test_incomplete_table_names_masks(self):
        spec = GameSpec(players=THREE)
        table = CharacteristicTable(spec)
        table.set(Coalition(0), 0.0)
        with pytest.raises(IncompleteTableError, match="1, 2, 3"):
            banzhaf(table, D)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(99)
        for _ in range(50):
            table = random_table(rng, THREE)
            for j, player in enumerate(THREE):
                expected = oracle_banzhaf(table.values, 3, j)
                assert banzhaf(table, player) == pytest.approx(expected, abs=1e-12)


class TestClosedForms:
    def test_two_player_closed_form(self):
        table = table_from_list([0.0, 0.0, 0.2, 0.2], TWO)
        assert banzhaf_two_player(table) == (0.0, 0.2)

    def test_two_player_symmetric_game(self):
        table = table_from_list([0.1, 0.4, 0.4, 0.6], TWO)
        phi_f, phi_p = banzhaf_two_player(table)
        assert phi_f == phi_p

    def test_two_player_efficiency_identity(self):
        rng = random.Random(5)
        for _ in range(1000):
            table = random_table(rng, TWO, dyadic_values=True)
            phi_f, phi_p = banzhaf_two_player(table)
            v = table.values
            assert phi_f + phi_p == v[3] - v[0]

    def test_three_player_equals_general(self):
        rng = random.Random(6)
        for _ in range(200):
            table = random_table(rng, THREE)
            for player in THREE:
                assert banzhaf_three_player(table, player) == pytest.approx(
                    banzhaf(table, player), abs=1e-12
                )

    def test_wrong_player_count_rejected(self):
        table = table_from_list([0.0, 0.1, 0.2, 0.3], TWO)
        with pytest.raises(ValueError):
            banzhaf_three_player(table, TWO[0])
        table3 = table_from_list([0.0] * 8, THREE)
        with pytest.raises(ValueError):
            banzhaf_two_player(table3)


class TestSynergies:
    def test_additive_game_all_zero(self):
        weights = (0.25, 0.125, 0.5)
        payoffs = [
            sum(w for j, w in enumerate(weights) if mask & (1 << j))
            for mask in range(8)
        ]
        table = table_from_list(payoffs, THREE)
        assert synergy_pair(table, D, A) == 0.0
        assert synergy_pair_adjusted(table, D, A) == 0.0
        assert synergy_three(table) == 0.0
        assert synergy_full(table) == 0.0

    def test_complementarity(self):
        table = table_from_list([0.0, 0.0, 0.0, 0.4], TWO)
        assert synergy_pair(table, *TWO) == pytest.approx(0.4)

    def test_redundancy(self):
        table = table_from_list([0.0, 0.3, 0.3, 0.3], TWO)
        assert synergy_pair(table, *TWO) == pytest.approx(-0.3)

    def test_pure_three_way(self):
        payoffs = [0.0] * 8
        payoffs[7] = 1.0
        table = table_from_list(payoffs, THREE)
        assert synergy_three(table) == pytest.approx(1.0)
        assert synergy_pair_adjusted(table, D, A) == pytest.approx(-1.0 / 3.0)
        assert synergy_full(table) == pytest.approx(1.0)

    def test_pure_pairwise_game_has_no_three_way(self):
        # v = 0.5 iff {d, a} is included: v(da) = v(dap) = 0.5, else 0.
        payoffs = [0.0] * 8
        payoffs[D.bit | A.bit] = 0.5
        payoffs[7] = 0.5
        table = table_from_list(payoffs, THREE)
        assert synergy_three(table) == pytest.approx(0.0)
        assert synergy_pair(table, D, A) == pytest.approx(0.5)

    def test_adjusted_sum_identity(self):
        # Sum of adjusted pairs + three-way == sum of raw pairs, any table.
        rng = random.Random(17)
        for _ in range(1000):
            table = random_table(rng, THREE, dyadic_values=True)
            raw = [
                synergy_pair(table, D, A),
                synergy_pair(table, D, P),
                synergy_pair(table, A, P),
            ]
            adjusted = [
                synergy_pair_adjusted(table, D, A),
                synergy_pair_adjusted(table, D, P),
                synergy_pair_adjusted(table, A, P),
            ]
            lhs = sum(adjusted) + synergy_three(table)
            assert lhs == pytest.approx(sum(raw), abs=1e-12)


class TestGameAxioms:
    def test_dummy_player_zero_exact(self):
        rng = random.Random(23)
        for _ in range(200):
            # Player D is a dummy: v(S + d) always equals v(S).
            base = [dyadic(rng) for _ in range(4)]
            payoffs = [0.0] * 8
            for sub_mask in range(4):
                mask = ((sub_mask & 1) * A.bit) | (((sub_mask >> 1) & 1) * P.bit)
                payoffs[mask] = base[sub_mask]
                payoffs[mask | D.bit] = base[sub_mask]
            table = table_from_list(payoffs, THREE)
            assert banzhaf(table, D) == 0.0

    def test_symmetry_under_player_swap(self):
        rng = random.Random(29)
        for _ in range(200):
            table = random_table(rng, THREE)
            swapped_values = {}
            for mask, v in table.values.items():
                new_mask = mask & ~(D.bit | A.bit)
                if mask & D.bit:
                    new_mask |= A.bit
                if mask & A.bit:
                    new_mask |= D.bit
                swapped_values[new_mask] = v
            swapped = table_from_list(
                [swapped_values[m] for m in range(8)], THREE
            )
            assert banzhaf(table, D) == pytest.approx(banzhaf(swapped, A), abs=1e-15)
            assert banzhaf(table, A) == pytest.approx(banzhaf(swapped, D), abs=1e-15)
            assert synergy_pair(table, D, A) == pytest.approx(
                synergy_pair(swapped, D, A), abs=1e-15
            )

    def test_linearity_exact(self):
        rng = random.Random(31)
        for _ in range(200):
            u = random_table(rng, THREE, dyadic_values=True)
            w = random_table(rng, THREE, dyadic_values=True)
            alpha = rng.randrange(-8, 9) / 4.0
            beta = rng.randrange(-8, 9) / 4.0
            combo = table_from_list(
                [alpha * u.values[m] + beta * w.values[m] for m in range(8)], THREE
            )
            for player in THREE:
                assert banzhaf(combo, player) == alpha * banzhaf(
                    u, player
                ) + beta * banzhaf(w, player)

    def test_shapley_on_additive_game_matches(self):
        weights = (0.125, 0.25, 0.0625)
        payoffs = [
            sum(w for j, w in enumerate(weights) if mask & (1 << j))
            for mask in range(8)
        ]
        table = table_from_list(payoffs, THREE)
        for j, player in enumerate(THREE):
            assert shapley(table, player) == pytest.approx(weights[j], abs=1e-15)
            assert shapley(table, player) == pytest.approx(
                banzhaf(table, player), abs=1e-15
            )


class TestReconstruction:
    def test_two_player_gen5_row(self):
        # Published row: phi_F=0.040, phi_P=0.060, sigma_FP=0.400. With
        # v(empty)=0 the consistent payoffs are (-0.16, -0.14, 0.10);
        # verified here by substitution through the test-local oracle.
        spec = GameSpec(players=TWO, metric="overall", g=5)
        table = payoffs_from_two_player_values(spec, 0.040, 0.060, 0.400)
        v = table.values
        assert v[1] == pytest.approx(-0.16, abs=1e-12)
        assert v[2] == pytest.approx(-0.14, abs=1e-12)
        assert v[3] == pytest.approx(0.10, abs=1e-12)
        assert oracle_banzhaf(v, 2, 0) == pytest.approx(0.040, abs=1e-12)
        assert oracle_banzhaf(v, 2, 1) == pytest.approx(0.060, abs=1e-12)
        assert v[3] - v[1] - v[2] + v[0] == pytest.approx(0.400, abs=1e-12)
        phi_f, phi_p = banzhaf_two_player(table)
        assert phi_f == pytest.approx(0.040, abs=1e-9)
        assert phi_p == pytest.approx(0.060, abs=1e-9)

    def test_three_player_roundtrip(self):
        rng = random.Random(41)
        spec = GameSpec(players=THREE, metric="pass", g=2)
        for _ in range(200):
            phi = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            sig = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            s3 = rng.uniform(-1.0, 1.0)
            table = payoffs_from_three_player_values(spec, phi, sig, s3)
            assert table.values[0] == 0.0
            report = attribute(table)
            for j, player in enumerate(THREE):
                assert report.phi[player.name] == pytest.approx(phi[j], abs=1e-9)
            adjusted = report.sigma_pair_adjusted
            assert adjusted[(D.name, A.name)] == pytest.approx(sig[0], abs=1e-9)
            assert adjusted[(D.name, P.name)] == pytest.approx(sig[1], abs=1e-9)
            assert adjusted[(A.name, P.name)] == pytest.approx(sig[2], abs=1e-9)
            assert synergy_three(table) == pytest.approx(s3, abs=1e-9)


def constant_rollout(rate):
    def rollout(checkpoint, coalition, seed):
        return GenerationStats(0, rate, rate, rate, rate, k=5, n_samples=10)

    return rollout


EMPTY_CP = GenerationCheckpoint(trajectory_id="t", g=0, samples=())


ONE = TWO[:1]


def estimate(rollout, r_rollouts, seed, mask=0):
    """v(S) and its stderr for one coalition, from a one-player sweep."""
    (table,) = sweep_characteristic_tables(
        EMPTY_CP, [GameSpec(players=ONE, metric="overall")], rollout, r_rollouts, seed
    )
    return table.values[mask], table.stderr[mask]


class TestEstimatePayoff:
    def test_constant_rollout(self):
        v, se = estimate(constant_rollout(0.6), 8, seed=1)
        assert v == pytest.approx(0.6)
        assert se == pytest.approx(0.0)

    def test_single_rollout_stderr_undefined(self):
        v, se = estimate(constant_rollout(0.5), 1, seed=1)
        assert v == 0.5
        assert se is None

    def test_bernoulli_mock_within_ci(self):
        def rollout(checkpoint, coalition, seed):
            rate = float(random.Random(seed).random() < 0.5)
            return GenerationStats(0, rate, rate, rate, rate, k=1, n_samples=1)

        v, se = estimate(rollout, 200, seed=42)
        assert 0.4 <= v <= 0.6
        assert se is not None and se > 0

    def test_deterministic_given_seed(self):
        def rollout(checkpoint, coalition, seed):
            rate = random.Random(seed).random()
            return GenerationStats(0, rate, rate, rate, rate, k=1, n_samples=1)

        first = estimate(rollout, 16, seed=9, mask=1)
        second = estimate(rollout, 16, seed=9, mask=1)
        assert first == second

    def test_all_failures_raise(self):
        def rollout(checkpoint, coalition, seed):
            raise RuntimeError("backend down")

        with pytest.raises(EstimationFailedError, match="backend down"):
            estimate(rollout, 3, seed=1)

    def test_failed_rollouts_left_out(self):
        def rollout(checkpoint, coalition, seed):
            rng = random.Random(seed)
            if rng.random() < 0.3:
                raise RuntimeError("flaky backend")
            rates = sorted((rng.random() for _ in range(3)), reverse=True)
            return GenerationStats(0, *rates, rates[1], k=3, n_samples=rng.randint(1, 9))

        specs = [GameSpec(players=THREE, metric=m) for m in METRICS]
        tables = sweep_characteristic_tables(EMPTY_CP, specs, rollout, 7, seed=5)
        assert min(tables[0].n_rollouts.values()) < 7
        for table in tables:
            for coalition in enumerate_coalitions(3):
                rates = []
                for r in range(7):
                    try:
                        st = rollout(EMPTY_CP, coalition, derive_seed(5, "rollout", coalition.mask, r))
                    except RuntimeError:
                        continue
                    rates.append(st.rate_for(table.spec.metric))
                assert table.n_rollouts[coalition.mask] == len(rates)
                # Bit for bit, not approximately.
                assert repr(table.values[coalition.mask]) == repr(math.fsum(rates) / len(rates))

    def test_specs_repeating_a_metric_refused(self):
        # Two tables for one (generation, metric) are a table that `tables_from_csv` refuses.
        calls = []
        specs = [GameSpec(players=THREE, metric=m) for m in ("pass", "fast", "pass")]
        with pytest.raises(ValueError, match="metric 'pass' is named by two specs"):
            sweep_characteristic_tables(EMPTY_CP, specs, lambda *args: calls.append(args), 2, seed=1)
        assert calls == []

    @pytest.mark.parametrize("error", [TypeError, KeyError, ValueError])
    def test_programming_error_propagates(self, error):
        calls = []

        def rollout(checkpoint, coalition, seed):
            calls.append(seed)
            if len(calls) == 2:
                raise error("bug in the rollout")
            return GenerationStats(0, 0.5, 0.5, 0.5, 0.5, k=1, n_samples=1)

        # Only agent and pipeline failures (RuntimeError) count as failed
        # rollouts; any other error is a bug and must not become n < R.
        with pytest.raises(error, match="bug in the rollout"):
            estimate(rollout, 3, seed=1)


class TestReportAssembly:
    def additive_table(self, g, metric):
        payoffs = [
            sum(w for j, w in enumerate((0.1, 0.2, 0.3)) if mask & (1 << j))
            for mask in range(8)
        ]
        return table_from_list(payoffs, THREE, metric=metric, g=g)

    def test_additive_fixture_zero_synergies(self):
        bundle = attribution_report([self.additive_table(0, "pass")])
        report = bundle.reports[(0, "pass")]
        assert all(abs(v) < 1e-12 for v in report.sigma_pair.values())
        assert all(abs(v) < 1e-12 for v in report.sigma_pair_adjusted.values())
        assert abs(report.sigma_full) < 1e-12

    def test_cardinality_8_generations_3_metrics(self):
        tables = [
            self.additive_table(g, metric)
            for g in range(8)
            for metric in ("compiled", "pass", "fast")
        ]
        bundle = attribution_report(tables)
        assert len(bundle.reports) == 24

    def test_errors_do_not_abort_other_rows(self):
        good = self.additive_table(0, "pass")
        bad = CharacteristicTable(GameSpec(players=THREE, metric="fast", g=1))
        bad.set(Coalition(0), 0.0)
        bundle = attribution_report([good, bad])
        assert (0, "pass") in bundle.reports
        assert (1, "fast") in bundle.errors

    def test_unknown_method_is_row_error(self):
        bundle = attribution_report([self.additive_table(0, "pass")], method="owen")
        assert bundle.errors == {(0, "pass"): "unknown attribution method 'owen'"}

    def test_term_rows_layout(self):
        report = attribution_report([self.additive_table(0, "pass")]).reports[(0, "pass")]
        names = [name for name, _ in report.term_rows()]
        assert names == [
            "phi_d",
            "phi_a",
            "phi_p",
            "sigma_da",
            "sigma_dp",
            "sigma_ap",
            "sigma_dap",
        ]

    def test_two_player_term_rows(self):
        table = table_from_list([0.0, 0.1, 0.2, 0.5], TWO)
        report = attribution_report([table]).reports[(0, "overall")]
        names = [name for name, _ in report.term_rows()]
        assert names == ["phi_F", "phi_P", "sigma_FP"]
        assert dict(report.term_rows())["sigma_FP"] == pytest.approx(0.2)

    def test_determinism_bit_identical(self):
        table = self.additive_table(3, "fast")
        first = attribution_report([table])
        second = attribution_report([table])
        assert bundle_to_json(first) == bundle_to_json(second)
        assert bundle_to_csv(first) == bundle_to_csv(second)

    def test_csv_roundtrip_of_tables(self):
        rng = random.Random(55)
        tables = [random_table(rng, THREE) for _ in range(2)]
        tables[0].spec = GameSpec(players=THREE, metric="pass", g=0)
        tables[1].spec = GameSpec(players=THREE, metric="fast", g=1)
        text = tables_to_csv(tables, meta="planlens test")
        loaded = tables_from_csv(text, THREE)
        assert len(loaded) == 2
        for original, restored in zip(sorted(tables, key=lambda t: t.spec.g), loaded):
            assert restored.values == original.values

    @pytest.mark.parametrize("row", ["0,pass,1,0.5,-0.5,7", "0,pass,1,0.5,0.5,-7"], ids=["stderr", "n"])
    def test_negative_stderr_or_n_refused(self, row):
        # A negative stderr would square into phi_stderr as if it were positive.
        text = f"g,metric,coalition_mask,v,stderr,n\n0,pass,0,0.5,0.1,7\n{row}\n"
        with pytest.raises(ValueError, match="coalition_mask 1 has a negative stderr or n"):
            tables_from_csv(text, THREE)

    def test_v_outside_unit_interval_accepted(self):
        (table,) = tables_from_csv("g,metric,coalition_mask,v,stderr,n\n0,pass,1,-1.5,0.0,0\n", THREE)
        assert table.values[1] == -1.5
