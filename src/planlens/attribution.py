"""Coalitional attribution: Banzhaf values and synergy decomposition.

The characteristic function v maps each coalition of feedback players to
an estimated generation-level success rate. The Banzhaf value of player i
averages its marginal contribution uniformly over all coalitions
excluding i; pairwise synergy is the second-order difference anchored at
the empty coalition, and for three-player games the published pairwise
terms subtract one third of the three-way synergy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .feedback import Coalition, FeedbackComponent, enumerate_coalitions
from .seeding import derive_seed
from .trajectory import METRICS, GenerationCheckpoint, GenerationStats

NORMAL_95 = 1.959963984540054  # two-sided 95% quantile of the standard normal


class IncompleteTableError(ValueError):
    """A characteristic table is missing coalition entries."""

    def __init__(self, missing: Sequence[int]):
        masks = ", ".join(str(m) for m in missing)
        super().__init__(f"characteristic table missing coalition masks: {masks}")
        self.missing = tuple(missing)


class EstimationFailedError(RuntimeError):
    """No rollout produced usable generation statistics."""


@dataclass(frozen=True)
class GameSpec:
    """A cooperative game over feedback players for one (generation, metric)."""

    players: tuple[FeedbackComponent, ...]
    metric: str = "overall"
    g: int = 0

    def __post_init__(self):
        if not 1 <= len(self.players) <= 16:
            raise ValueError("player count must be in 1..16")
        ids = [p.id for p in self.players]
        if sorted(ids) != list(range(len(ids))):
            raise ValueError("player ids must be dense 0..N-1 and distinct")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")

    @property
    def n(self) -> int:
        return len(self.players)

    def player_named(self, name: str) -> FeedbackComponent:
        for p in self.players:
            if name in (p.name, p.short):
                return p
        raise KeyError(name)


@dataclass
class CharacteristicTable:
    """Estimated payoff v(S) per coalition, with uncertainty bookkeeping.

    Payoffs estimated from rollouts live in [0, 1]; synthetic tables used
    to reconstruct published attribution rows may fall outside that range
    (the anchor v(empty)=0 shifts them), so the range is not enforced.
    """

    spec: GameSpec
    values: dict[int, float] = field(default_factory=dict)
    stderr: dict[int, float | None] = field(default_factory=dict)
    n_rollouts: dict[int, int] = field(default_factory=dict)
    aggregation: str = "rollouts"  # or "samples": what stderr was taken over

    def set(
        self,
        coalition: Coalition,
        value: float,
        stderr: float | None = None,
        n: int = 0,
    ) -> None:
        self.values[coalition.mask] = value
        self.stderr[coalition.mask] = stderr
        self.n_rollouts[coalition.mask] = n

    def value(self, coalition: Coalition) -> float:
        return self.values[coalition.mask]

    def missing_masks(self) -> list[int]:
        return [
            mask
            for mask in range(1 << self.spec.n)
            if mask not in self.values
        ]

    def require_complete(self) -> None:
        missing = self.missing_masks()
        if missing:
            raise IncompleteTableError(missing)

    def variance(self, mask: int) -> float | None:
        se = self.stderr.get(mask)
        return None if se is None else se * se


def _marginals(
    table: CharacteristicTable, player: FeedbackComponent
) -> list[tuple[int, int]]:
    """(S, S+i) mask pairs over all coalitions S not containing the player."""
    others = [p for p in table.spec.players if p.id != player.id]
    pairs = []
    for sub in enumerate_coalitions(len(others)) if others else [Coalition(0)]:
        mask = 0
        for j, other in enumerate(others):
            if sub.mask & (1 << j):
                mask |= other.bit
        pairs.append((mask, mask | player.bit))
    return pairs


def banzhaf(table: CharacteristicTable, player: FeedbackComponent) -> float:
    """Banzhaf value: mean marginal contribution over all coalitions."""
    table.require_complete()
    pairs = _marginals(table, player)
    total = 0.0
    for without, with_ in pairs:
        total += table.values[with_] - table.values[without]
    return total / len(pairs)


def banzhaf_stderr(
    table: CharacteristicTable, player: FeedbackComponent
) -> float | None:
    """Propagated standard error, assuming independent coalition estimates."""
    pairs = _marginals(table, player)
    var = 0.0
    for without, with_ in pairs:
        v1 = table.variance(with_)
        v0 = table.variance(without)
        if v1 is None or v0 is None:
            return None
        var += v1 + v0
    return math.sqrt(var) / len(pairs)


def shapley(table: CharacteristicTable, player: FeedbackComponent) -> float:
    """Shapley value; kept behind a flag for comparison with Banzhaf."""
    table.require_complete()
    n = table.spec.n
    total = 0.0
    for without, with_ in _marginals(table, player):
        s = bin(without).count("1")
        weight = (
            math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
        )
        total += weight * (table.values[with_] - table.values[without])
    return total


def banzhaf_two_player(table: CharacteristicTable) -> tuple[float, float]:
    """Closed form for |N|=2: phi = mean of the two inclusion-order marginals."""
    if table.spec.n != 2:
        raise ValueError("two-player closed form requires exactly 2 players")
    table.require_complete()
    a, b = table.spec.players
    v = table.values
    phi_a = 0.5 * ((v[a.bit] - v[0]) + (v[a.bit | b.bit] - v[b.bit]))
    phi_b = 0.5 * ((v[b.bit] - v[0]) + (v[a.bit | b.bit] - v[a.bit]))
    return phi_a, phi_b


def banzhaf_three_player(
    table: CharacteristicTable, player: FeedbackComponent
) -> float:
    """Closed form for |N|=3: mean marginal over the 4 coalitions excluding t."""
    if table.spec.n != 3:
        raise ValueError("three-player closed form requires exactly 3 players")
    table.require_complete()
    others = [p for p in table.spec.players if p.id != player.id]
    if len(others) != 2:
        raise KeyError(f"player {player.name!r} not in game")
    o1, o2 = others
    v = table.values
    t = player.bit
    subsets = (0, o1.bit, o2.bit, o1.bit | o2.bit)
    return sum(v[s | t] - v[s] for s in subsets) / 4.0


def synergy_pair(
    table: CharacteristicTable, i: FeedbackComponent, j: FeedbackComponent
) -> float:
    """Raw pairwise interaction anchored at the empty coalition."""
    v = table.values
    needed = (0, i.bit, j.bit, i.bit | j.bit)
    missing = [m for m in needed if m not in v]
    if missing:
        raise IncompleteTableError(missing)
    return v[i.bit | j.bit] - v[i.bit] - v[j.bit] + v[0]


def synergy_three(table: CharacteristicTable) -> float:
    """Three-way synergy among all players of a 3-player game."""
    if table.spec.n != 3:
        raise ValueError("three-way synergy requires exactly 3 players")
    table.require_complete()
    d, a, p = table.spec.players
    v = table.values
    return (
        v[d.bit | a.bit | p.bit]
        - (v[d.bit | a.bit] + v[d.bit | p.bit] + v[a.bit | p.bit])
        + (v[d.bit] + v[a.bit] + v[p.bit])
        - v[0]
    )


def synergy_pair_adjusted(
    table: CharacteristicTable, i: FeedbackComponent, j: FeedbackComponent
) -> float:
    """Pairwise synergy with the published one-third three-way correction."""
    return synergy_pair(table, i, j) - synergy_three(table) / 3.0


def synergy_full(table: CharacteristicTable) -> float:
    """Highest-order synergy: the |N|-th difference at the empty coalition."""
    table.require_complete()
    n = table.spec.n
    total = 0.0
    for coalition in enumerate_coalitions(n):
        sign = -1.0 if (n - coalition.size()) % 2 else 1.0
        total += sign * table.values[coalition.mask]
    return total


@dataclass(frozen=True)
class AttributionReport:
    """Per-(generation, metric) attribution terms, reproducible bit-exactly."""

    spec: GameSpec
    phi: Mapping[str, float]
    sigma_pair: Mapping[tuple[str, str], float]
    sigma_pair_adjusted: Mapping[tuple[str, str], float] | None
    sigma_full: float
    baseline: float
    phi_stderr: Mapping[str, float | None] = field(default_factory=dict)

    def term_rows(self) -> list[tuple[str, float]]:
        """Flatten to (term, value) rows in the published table order."""
        rows = [(f"phi_{p.short}", self.phi[p.name]) for p in self.spec.players]
        pairs = (
            self.sigma_pair_adjusted
            if self.sigma_pair_adjusted is not None
            else self.sigma_pair
        )
        for (n1, n2), value in pairs.items():
            s1 = self.spec.player_named(n1).short
            s2 = self.spec.player_named(n2).short
            rows.append((f"sigma_{s1}{s2}", value))
        if self.spec.n >= 3:
            # For two players the single pair already is the full order.
            shorts = "".join(p.short for p in self.spec.players)
            rows.append((f"sigma_{shorts}", self.sigma_full))
        return rows


def attribute(table: CharacteristicTable, method: str = "banzhaf") -> AttributionReport:
    """Compute the full attribution report for one characteristic table."""
    table.require_complete()
    spec = table.spec
    if method == "banzhaf":
        value_fn: Callable[[CharacteristicTable, FeedbackComponent], float] = banzhaf
    elif method == "shapley":
        value_fn = shapley
    else:
        raise ValueError(f"unknown attribution method {method!r}")
    phi = {p.name: value_fn(table, p) for p in spec.players}
    # The propagated stderr assumes the uniform coalition average; the
    # comparison Shapley path reports no uncertainty.
    if method == "banzhaf":
        phi_se = {p.name: banzhaf_stderr(table, p) for p in spec.players}
    else:
        phi_se = {p.name: None for p in spec.players}
    pairs: dict[tuple[str, str], float] = {}
    adjusted: dict[tuple[str, str], float] | None = None
    for idx, p1 in enumerate(spec.players):
        for p2 in spec.players[idx + 1 :]:
            pairs[(p1.name, p2.name)] = synergy_pair(table, p1, p2)
    if spec.n == 3:
        third = synergy_three(table) / 3.0
        adjusted = {key: pairs[key] - third for key in pairs}
    return AttributionReport(
        spec=spec,
        phi=phi,
        sigma_pair=pairs,
        sigma_pair_adjusted=adjusted,
        sigma_full=synergy_full(table) if spec.n >= 2 else 0.0,
        baseline=table.values[0],
        phi_stderr=phi_se,
    )


def _check_estimator(r_rollouts: int, aggregation: str) -> None:
    if r_rollouts < 1:
        raise ValueError("r_rollouts must be >= 1")
    if aggregation not in ("rollouts", "samples"):
        raise ValueError("aggregation must be 'rollouts' or 'samples'")


def _rollouts(
    checkpoint: GenerationCheckpoint,
    coalition: Coalition,
    rollout_fn: Callable[[GenerationCheckpoint, Coalition, int], GenerationStats],
    r_rollouts: int,
    seed: int,
) -> list[GenerationStats]:
    """Stats of a coalition's seeded rollouts; a failing rollout is left
    out, and all of them failing is an error."""
    stats_list: list[GenerationStats] = []
    failure: Exception | None = None
    for r in range(r_rollouts):
        rollout_seed = derive_seed(seed, "rollout", coalition.mask, r)
        try:
            stats_list.append(rollout_fn(checkpoint, coalition, rollout_seed))
        except Exception as exc:  # noqa: BLE001 - isolate per-rollout failures
            failure = exc
    if not stats_list:
        raise EstimationFailedError(
            f"all {r_rollouts} rollouts failed for coalition mask "
            f"{coalition.mask}: {failure}"
        )
    return stats_list


def _mean_stderr(
    stats_list: Sequence[GenerationStats], metric: str, aggregation: str
) -> tuple[float, float | None]:
    rates = [st.rate_for(metric) for st in stats_list]
    mean = math.fsum(rates) / len(rates)
    if aggregation == "samples":
        n_samples_total = sum(st.n_samples for st in stats_list)
        if n_samples_total == 0:
            return mean, None
        return mean, math.sqrt(max(mean * (1.0 - mean), 0.0) / n_samples_total)
    if len(rates) < 2:
        return mean, None
    return mean, statistics.stdev(rates) / math.sqrt(len(rates))


def estimate_payoff(
    checkpoint: GenerationCheckpoint,
    coalition: Coalition,
    rollout_fn: Callable[[GenerationCheckpoint, Coalition, int], GenerationStats],
    r_rollouts: int,
    seed: int,
    metric: str = "overall",
    aggregation: str = "rollouts",
) -> tuple[float, float | None]:
    """Estimate v(S) as the mean metric rate over repeated seeded rollouts.

    `aggregation` selects what the standard error is taken over:
    independent rollouts (default) or samples within the pooled rollouts
    (binomial plug-in). With a single rollout the rollout-level stderr is
    undefined and reported as None.
    """
    _check_estimator(r_rollouts, aggregation)
    stats_list = _rollouts(checkpoint, coalition, rollout_fn, r_rollouts, seed)
    return _mean_stderr(stats_list, metric, aggregation)


def sweep_characteristic_tables(
    checkpoint: GenerationCheckpoint,
    specs: Sequence[GameSpec],
    rollout_fn: Callable[[GenerationCheckpoint, Coalition, int], GenerationStats],
    r_rollouts: int,
    seed: int,
    aggregation: str = "rollouts",
) -> list[CharacteristicTable]:
    """Estimate one table per spec from a single shared set of rollouts.

    All specs must share the same player set; every rollout yields stats
    for every metric at once, so the sweep costs 2^N x r_rollouts runs
    total regardless of how many metrics are requested. Each entry equals
    `estimate_payoff` for its coalition and metric bit for bit.
    """
    if not specs:
        raise ValueError("at least one game spec is required")
    _check_estimator(r_rollouts, aggregation)
    for spec in specs[1:]:
        if spec.players != specs[0].players:
            raise ValueError("all specs must share one player set")
    tables = [CharacteristicTable(spec, aggregation=aggregation) for spec in specs]
    for coalition in enumerate_coalitions(specs[0].n):
        stats_list = _rollouts(checkpoint, coalition, rollout_fn, r_rollouts, seed)
        for table in tables:
            mean, se = _mean_stderr(stats_list, table.spec.metric, aggregation)
            table.set(coalition, mean, se, len(stats_list))
    return tables


@dataclass
class AttributionBundle:
    """Reports keyed by (g, metric), plus rows that failed estimation."""

    reports: dict[tuple[int, str], AttributionReport] = field(default_factory=dict)
    errors: dict[tuple[int, str], str] = field(default_factory=dict)

    def sorted_keys(self) -> list[tuple[int, str]]:
        return sorted(self.reports, key=lambda key: (key[0], key[1]))


def attribution_report(
    tables: Iterable[CharacteristicTable], method: str = "banzhaf"
) -> AttributionBundle:
    """Attribute every table; a failing row never aborts the others."""
    bundle = AttributionBundle()
    for table in tables:
        key = (table.spec.g, table.spec.metric)
        try:
            bundle.reports[key] = attribute(table, method=method)
        except (IncompleteTableError, ValueError) as exc:
            bundle.errors[key] = str(exc)
    return bundle


# -- fixture reconstruction from published attribution rows -----------------


def payoffs_from_two_player_values(
    spec: GameSpec, phi_1: float, phi_2: float, sigma: float
) -> CharacteristicTable:
    """Invert the two-player closed forms with the anchor v(empty)=0.

    Solving phi_1 = v1 + sigma/2, phi_2 = v2 + sigma/2 and
    sigma = v12 - v1 - v2 gives v1 = phi_1 - sigma/2, v2 = phi_2 - sigma/2
    and v12 = phi_1 + phi_2 (the two-player efficiency identity).
    """
    if spec.n != 2:
        raise ValueError("requires a 2-player game spec")
    p1, p2 = spec.players
    table = CharacteristicTable(spec)
    table.set(Coalition(0), 0.0)
    table.set(Coalition(p1.bit), phi_1 - sigma / 2.0)
    table.set(Coalition(p2.bit), phi_2 - sigma / 2.0)
    table.set(Coalition(p1.bit | p2.bit), phi_1 + phi_2)
    return table


def payoffs_from_three_player_values(
    spec: GameSpec,
    phi: Sequence[float],
    sigma_adjusted: Sequence[float],
    sigma_three: float,
) -> CharacteristicTable:
    """Invert the three-player report (adjusted pairwise terms) at v(empty)=0.

    With raw pairs r_ij = sigma'_ij + sigma_dap/3, the singles solve to
    x_t = phi_t - (sum of raw pairs containing t)/2 - sigma_dap/4, then
    pairs and the grand coalition follow by substitution.
    """
    if spec.n != 3:
        raise ValueError("requires a 3-player game spec")
    if len(phi) != 3 or len(sigma_adjusted) != 3:
        raise ValueError("phi and sigma_adjusted must each have 3 entries")
    d, a, p = spec.players
    r_da = sigma_adjusted[0] + sigma_three / 3.0
    r_dp = sigma_adjusted[1] + sigma_three / 3.0
    r_ap = sigma_adjusted[2] + sigma_three / 3.0
    x_d = phi[0] - (r_da + r_dp) / 2.0 - sigma_three / 4.0
    x_a = phi[1] - (r_da + r_ap) / 2.0 - sigma_three / 4.0
    x_p = phi[2] - (r_dp + r_ap) / 2.0 - sigma_three / 4.0
    y_da = r_da + x_d + x_a
    y_dp = r_dp + x_d + x_p
    y_ap = r_ap + x_a + x_p
    z = sigma_three + (y_da + y_dp + y_ap) - (x_d + x_a + x_p)
    table = CharacteristicTable(spec)
    table.set(Coalition(0), 0.0)
    table.set(Coalition(d.bit), x_d)
    table.set(Coalition(a.bit), x_a)
    table.set(Coalition(p.bit), x_p)
    table.set(Coalition(d.bit | a.bit), y_da)
    table.set(Coalition(d.bit | p.bit), y_dp)
    table.set(Coalition(a.bit | p.bit), y_ap)
    table.set(Coalition(d.bit | a.bit | p.bit), z)
    return table


# -- persistence -------------------------------------------------------------


def tables_to_csv(
    tables: Iterable[CharacteristicTable], meta: str | None = None
) -> str:
    """CSV with columns (g, metric, coalition_mask, v, stderr, n)."""
    buf = io.StringIO()
    if meta:
        buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["g", "metric", "coalition_mask", "v", "stderr", "n"])
    for table in tables:
        for mask in sorted(table.values):
            se = table.stderr.get(mask)
            writer.writerow(
                [
                    table.spec.g,
                    table.spec.metric,
                    mask,
                    repr(table.values[mask]),
                    "" if se is None else repr(se),
                    table.n_rollouts.get(mask, 0),
                ]
            )
    return buf.getvalue()


def tables_from_csv(
    text: str, players: tuple[FeedbackComponent, ...]
) -> list[CharacteristicTable]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    tables: dict[tuple[int, str], CharacteristicTable] = {}
    for row in reader:
        key = (int(row["g"]), row["metric"])
        if key not in tables:
            tables[key] = CharacteristicTable(
                GameSpec(players=players, metric=row["metric"], g=int(row["g"]))
            )
        table = tables[key]
        mask = int(row["coalition_mask"])
        stderr = float(row["stderr"]) if row.get("stderr") else None
        table.set(Coalition(mask), float(row["v"]), stderr, int(row.get("n") or 0))
    return [tables[key] for key in sorted(tables)]


def bundle_to_csv(bundle: AttributionBundle, meta: str | None = None) -> str:
    """Report CSV in the published layout: term rows, generation columns."""
    buf = io.StringIO()
    if meta:
        buf.write(f"# {meta}\n")
    writer = csv.writer(buf, lineterminator="\n")
    by_metric: dict[str, dict[int, AttributionReport]] = {}
    for (g, metric), report in bundle.reports.items():
        by_metric.setdefault(metric, {})[g] = report
    for metric in sorted(by_metric):
        reports = by_metric[metric]
        gens = sorted(reports)
        writer.writerow(["metric", "term"] + [str(g) for g in gens])
        term_names = [name for name, _ in reports[gens[0]].term_rows()]
        columns = {g: dict(reports[g].term_rows()) for g in gens}
        for term in term_names:
            writer.writerow(
                [metric, term] + [repr(columns[g][term]) for g in gens]
            )
    return buf.getvalue()


def bundle_to_json(bundle: AttributionBundle, meta: dict | None = None) -> str:
    payload: dict = {"rows": [], "errors": []}
    if meta:
        payload["_meta"] = meta
    for (g, metric) in bundle.sorted_keys():
        report = bundle.reports[(g, metric)]
        entry = {
            "g": g,
            "metric": metric,
            "baseline": report.baseline,
            "terms": {name: value for name, value in report.term_rows()},
            "phi_stderr": {
                f"phi_{report.spec.player_named(name).short}": (
                    None if se is None else se
                )
                for name, se in report.phi_stderr.items()
            },
            "phi_ci95": {
                f"phi_{report.spec.player_named(name).short}": (
                    None
                    if se is None
                    else [
                        report.phi[name] - NORMAL_95 * se,
                        report.phi[name] + NORMAL_95 * se,
                    ]
                )
                for name, se in report.phi_stderr.items()
            },
        }
        payload["rows"].append(entry)
    for (g, metric), message in sorted(bundle.errors.items()):
        payload["errors"].append({"g": g, "metric": metric, "error": message})
    return json.dumps(payload, indent=2, sort_keys=True)
