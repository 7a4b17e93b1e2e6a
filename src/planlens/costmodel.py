"""Inference-volume accounting: end-to-end ablation vs frozen-trajectory replay.

End-to-end ablation re-runs the whole evolution per feedback
configuration, so its volume is multiplicative in search depth; the
frozen-trajectory protocol pays for one reference backbone plus targeted
interventions at a fixed set of checkpoints, which is additive in depth.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .trajectory import csv_text

MAX_FEEDBACK_COMPONENTS = 30  # 2^30 coalitions is already absurd; guard overflow


@dataclass(frozen=True)
class CostParams:
    """Knobs of the two volume formulas.

    population may be a single int (uniform N) or a per-generation list;
    the intervention formula requires uniform N.
    """

    depth: int  # D: total evolutionary depth
    population: int | Sequence[int]  # N or per-generation N_g
    repetitions: int = 5  # R: independent end-to-end repetitions
    feedback_components: int = 3  # |F|
    checkpoints: int = 3  # |C|
    k_local: int = 3  # local sampling multiplier (may be < R)

    def __post_init__(self):
        for name in ("depth", "repetitions", "feedback_components", "checkpoints", "k_local"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        coalition_count(self.feedback_components)  # OverflowError past the limit
        if isinstance(self.population, int):
            if self.population < 1:
                raise ValueError("population must be positive")
        else:
            pops = tuple(self.population)
            if len(pops) != self.depth:
                raise ValueError(
                    f"per-generation population needs {self.depth} entries, "
                    f"got {len(pops)}"
                )
            if any(n < 1 for n in pops):
                raise ValueError("population entries must be positive")
            object.__setattr__(self, "population", pops)

    @property
    def uniform_population(self) -> int:
        if not isinstance(self.population, int):
            raise ValueError("this formula requires a uniform population size")
        return self.population

    def population_at(self, g: int) -> int:
        if isinstance(self.population, int):
            return self.population
        return self.population[g - 1]


def coalition_count(feedback_components: int) -> int:
    """Number of feedback subsets evaluated for attribution: V = 2^|F|."""
    if feedback_components < 1:
        raise ValueError("feedback_components must be >= 1")
    if feedback_components > MAX_FEEDBACK_COMPONENTS:
        raise OverflowError(
            f"feedback_components {feedback_components}: refusing "
            f"2^{feedback_components} coalitions (limit {MAX_FEEDBACK_COMPONENTS})"
        )
    return 1 << feedback_components


def b_e2e(params: CostParams) -> int:
    """End-to-end ablation volume: V * R * sum_g N_g."""
    v = coalition_count(params.feedback_components)
    total_population = sum(
        params.population_at(g) for g in range(1, params.depth + 1)
    )
    return v * params.repetitions * total_population


def b_pipe(params: CostParams) -> int:
    """Frozen-trajectory volume: D*N backbone + V*|C|*k_local*N interventions."""
    v = coalition_count(params.feedback_components)
    n = params.uniform_population
    backbone = params.depth * n
    interventions = v * params.checkpoints * params.k_local * n
    return backbone + interventions


@dataclass(frozen=True)
class ScalingRow:
    depth: int
    volume_e2e: int
    volume_pipe: int

    @property
    def ratio(self) -> float:
        return self.volume_e2e / self.volume_pipe


def scaling_table(params: CostParams, depths: Sequence[int]) -> list[ScalingRow]:
    """Both volumes over a sweep of search depths (uniform population)."""
    if not depths:
        raise ValueError("depth sweep must not be empty")
    params.uniform_population  # ValueError for a per-generation population
    rows = []
    for depth in depths:
        row_params = replace(params, depth=depth)
        rows.append(ScalingRow(depth, b_e2e(row_params), b_pipe(row_params)))
    return rows


def depth_slopes(params: CostParams) -> tuple[int, int]:
    """Per-generation marginal volume: (e2e slope V*R*N, pipe slope N)."""
    v = coalition_count(params.feedback_components)
    n = params.uniform_population
    return v * params.repetitions * n, n


def scaling_to_csv(rows: Sequence[ScalingRow], meta: str | None = None) -> str:
    return csv_text(
        [["depth", "volume_e2e", "volume_pipe", "ratio"]]
        + [[row.depth, row.volume_e2e, row.volume_pipe, repr(row.ratio)] for row in rows],
        meta,
    )
