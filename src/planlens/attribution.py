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
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .feedback import MAX_PLAYERS, Coalition, FeedbackComponent, enumerate_coalitions
from .seeding import derive_seed
from .trajectory import METRICS, GenerationCheckpoint, GenerationStats, csv_text

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
        if not 1 <= len(self.players) <= MAX_PLAYERS:
            raise ValueError(f"player count must be in 1..{MAX_PLAYERS}")
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
    """(S, S+i) mask pairs over all coalitions S not containing the player,
    in ascending order of S."""
    return [(mask, mask | player.bit) for mask in range(1 << table.spec.n) if not mask & player.bit]


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


# Attribution methods by name: the value function and its propagated
# stderr. The stderr assumes the uniform coalition average, so the
# comparison Shapley path reports no uncertainty.
METHODS = {"banzhaf": (banzhaf, banzhaf_stderr), "shapley": (shapley, None)}


def attribute(table: CharacteristicTable, method: str = "banzhaf") -> AttributionReport:
    """Compute the full attribution report for one characteristic table."""
    table.require_complete()
    spec = table.spec
    if method not in METHODS:
        raise ValueError(f"unknown attribution method {method!r}")
    value_fn, stderr_fn = METHODS[method]
    phi = {p.name: value_fn(table, p) for p in spec.players}
    phi_se = {p.name: None if stderr_fn is None else stderr_fn(table, p) for p in spec.players}
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


def rollout_seed(seed: int, coalition: Coalition, r: int) -> int:
    """The run seed of rollout r of a coalition, in a sweep and in
    `intervene --coalition` alike."""
    return derive_seed(seed, "rollout", coalition.mask, r)


def sweep_characteristic_tables(
    checkpoint: GenerationCheckpoint,
    specs: Sequence[GameSpec],
    rollout_fn: Callable[[GenerationCheckpoint, Coalition, int], GenerationStats],
    r_rollouts: int,
    seed: int,
) -> list[CharacteristicTable]:
    """Estimate v(S) for every coalition as the mean metric rate over
    r_rollouts seeded rollouts, one table per spec.

    All specs must share the same player set; every rollout yields stats
    for every metric at once, so the sweep costs 2^N x r_rollouts runs
    total regardless of how many metrics are requested. The standard
    error is taken over rollouts, and is None for a single one. A rollout
    that fails with an agent or pipeline error (a RuntimeError) is left
    out, so n < r_rollouts; all of a coalition's rollouts failing is an
    error, and any other exception propagates.
    """
    if not specs:
        raise ValueError("at least one game spec is required")
    if r_rollouts < 1:
        raise ValueError("r_rollouts must be >= 1")
    for spec in specs[1:]:
        if spec.players != specs[0].players:
            raise ValueError("all specs must share one player set")
    tables = [CharacteristicTable(spec) for spec in specs]
    for coalition in enumerate_coalitions(specs[0].n):
        stats_list: list[GenerationStats] = []
        failure: RuntimeError | None = None
        for r in range(r_rollouts):
            try:
                stats_list.append(rollout_fn(checkpoint, coalition, rollout_seed(seed, coalition, r)))
            except RuntimeError as exc:
                failure = exc
        if not stats_list:
            raise EstimationFailedError(
                f"all {r_rollouts} rollouts failed for coalition mask "
                f"{coalition.mask}: {failure}"
            )
        n = len(stats_list)
        for table in tables:
            rates = [st.rate_for(table.spec.metric) for st in stats_list]
            se = statistics.stdev(rates) / math.sqrt(n) if n > 1 else None
            table.set(coalition, math.fsum(rates) / n, se, n)
    return tables


@dataclass
class AttributionBundle:
    """Reports keyed by (g, metric), plus rows that failed estimation."""

    reports: dict[tuple[int, str], AttributionReport] = field(default_factory=dict)
    errors: dict[tuple[int, str], str] = field(default_factory=dict)


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
    rows: list[list] = [["g", "metric", "coalition_mask", "v", "stderr", "n"]]
    for table in tables:
        for mask in sorted(table.values):
            se = table.stderr.get(mask)
            rows.append(
                [
                    table.spec.g,
                    table.spec.metric,
                    mask,
                    repr(table.values[mask]),
                    "" if se is None else repr(se),
                    table.n_rollouts.get(mask, 0),
                ]
            )
    return csv_text(rows, meta)


def tables_from_csv(
    text: str, players: tuple[FeedbackComponent, ...]
) -> list[CharacteristicTable]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(lines)
    tables: dict[tuple[int, str], CharacteristicTable] = {}
    for row in reader:
        key = (int(row["g"]), row["metric"])
        if key not in tables:
            tables[key] = CharacteristicTable(
                GameSpec(players=players, metric=row["metric"], g=int(row["g"]))
            )
        table = tables[key]
        mask = int(row["coalition_mask"])
        if not 0 <= mask < 1 << len(players):
            raise ValueError(f"coalition_mask {mask} is outside the {len(players)}-player game")
        if mask in table.values:
            raise ValueError(f"coalition_mask {mask} repeated for g={key[0]} metric={key[1]}")
        v = float(row["v"])
        stderr = float(row["stderr"]) if row.get("stderr") else None
        if not math.isfinite(v) or not math.isfinite(stderr or 0.0):
            raise ValueError(f"coalition_mask {mask} has a non-finite v or stderr: {row['v']!r}, {row.get('stderr')!r}")
        table.set(Coalition(mask), v, stderr, int(row.get("n") or 0))
    return [tables[key] for key in sorted(tables)]


def bundle_to_csv(bundle: AttributionBundle, meta: str | None = None) -> str:
    """Report CSV in the published layout: term rows, generation columns."""
    rows: list[list] = []
    by_metric: dict[str, dict[int, AttributionReport]] = {}
    for (g, metric), report in bundle.reports.items():
        by_metric.setdefault(metric, {})[g] = report
    for metric in sorted(by_metric):
        reports = by_metric[metric]
        gens = sorted(reports)
        rows.append(["metric", "term"] + [str(g) for g in gens])
        term_names = [name for name, _ in reports[gens[0]].term_rows()]
        columns = {g: dict(reports[g].term_rows()) for g in gens}
        for term in term_names:
            rows.append(
                [metric, term] + [repr(columns[g][term]) for g in gens]
            )
    return csv_text(rows, meta)


def bundle_to_json(bundle: AttributionBundle, meta: dict | None = None) -> str:
    payload: dict = {"rows": [], "errors": []}
    if meta:
        payload["_meta"] = meta
    for (g, metric) in sorted(bundle.reports):
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
