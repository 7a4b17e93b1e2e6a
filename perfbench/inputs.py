"""Seeded input generators for the benchmark workloads.

Everything the program under test reads is produced here from the
workload seed: frozen checkpoints and multi-generation trajectories in
the planlens NDJSON formats, an experiment config for the CLI session,
and basic-block control-flow graphs in DOT. This module imports nothing
from planlens, so the program only ever sees the generated files. The
same seed always yields byte-identical files, and the amount of work
(sample counts, graph sizes) never depends on the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Mock behaviour planted in every pipeline workload: one player raises the
# per-attempt compile and pass probabilities, so its Banzhaf value is
# clearly positive while the base rates keep the level chain
# p_fast <= p_pass <= p_compiled intact.
PLANTED_DELTA = 0.2
PLAYERS = ("debugger", "analyzer", "profiler")

_BLOCK_LABELS = ("entry", "load", "store", "arith", "branch", "call", "loop", "ret")
# Block kinds that only mutated candidates use, so heavy mutation lowers
# similarity instead of reshuffling the reference's label histogram.
_NOVEL_LABELS = ("shfl", "atomic", "sync", "tex")
_KERNEL_WORDS = ("tile", "warp", "smem", "vec4", "unroll", "fma", "coalesce", "reduce")
GRAPH_SIZES = (10, 100, 1000)


def _canonical(data) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _rng(seed: int, *labels: object) -> random.Random:
    return random.Random(_canonical([seed, *labels]))


def _program_text(rng: random.Random, name: str) -> str:
    body = " ".join(rng.choice(_KERNEL_WORDS) for _ in range(rng.randint(6, 14)))
    return f"__global__ void {name}(float* x) {{ /* {body} */ }}"


def _executions(rng: random.Random) -> list[dict]:
    """0-2 historical execution records that satisfy the record invariants."""
    out = []
    for _ in range(rng.randint(0, 2)):
        level = rng.randint(0, 3)
        out.append(
            {
                "compiled": level >= 1,
                "validations_passed": level >= 2,
                "speedup_vs_baseline": (
                    None if level < 2 else round(0.5 + rng.random() * (1.5 if level == 3 else 0.5), 4)
                ),
                "wall_time": round(rng.uniform(0.1, 5.0), 4),
                "raw_logs": [f"bench: level {level}"],
            }
        )
    return out


def _sample(rng, trajectory_id, g, index, parent_id):
    sid = f"g{g}-s{index:03d}"
    return {
        "sample_id": sid,
        "generation_index": g,
        "parent_id": parent_id,
        "program_text": _program_text(rng, f"k_{g}_{index}"),
        "executions": _executions(rng),
        "metadata": {"island": index % 4},
        "trajectory_id": trajectory_id,
    }


def write_checkpoint(path: Path, seed: int, n_samples: int, g: int = 3) -> None:
    """One frozen generation in `save_checkpoint` layout: header, then samples."""
    rng = _rng(seed, "checkpoint", n_samples, g)
    trajectory_id = f"bench-{seed}"
    samples = [_sample(rng, trajectory_id, g, i, None) for i in range(n_samples)]
    header = {
        "checkpoint": {
            "trajectory_id": trajectory_id,
            "g": g,
            "reference_ids": [samples[0]["sample_id"]],
        }
    }
    lines = [_canonical(header)] + [_canonical(s) for s in samples]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trajectory(path: Path, seed: int, generations: int, per_generation: int) -> None:
    """A multi-generation trajectory; every child's parent is one generation up."""
    rng = _rng(seed, "trajectory", generations, per_generation)
    trajectory_id = f"bench-traj-{seed}"
    lines = []
    previous: list[str] = []
    for g in range(generations):
        current = []
        for i in range(per_generation):
            parent = rng.choice(previous) if previous else None
            sample = _sample(rng, trajectory_id, g, i, parent)
            current.append(sample["sample_id"])
            lines.append(_canonical(sample))
        previous = current
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def planted_player(seed: int) -> int:
    """Index of the player whose feedback carries the planted effect."""
    return _rng(seed, "planted").randrange(len(PLAYERS))


def behavior_json(seed: int) -> dict:
    """`MockBehavior.from_json` document with the planted effect."""
    bit = 1 << planted_player(seed)
    return {
        "seed": _rng(seed, "behavior").randrange(1 << 30),
        "effects": [
            {"requires": bit, "level": "compiled", "delta": PLANTED_DELTA},
            {"requires": bit, "level": "pass", "delta": PLANTED_DELTA},
        ],
    }


def write_experiment_config(path: Path, seed: int) -> None:
    """`intervene --config` document carrying the planted mock behaviour."""
    path.write_text(
        json.dumps({"agents": {"backend": "mock", "behavior": behavior_json(seed)}}, indent=2),
        encoding="utf-8",
    )


# -- control-flow graphs -------------------------------------------------------


def _reference_cfg(rng: random.Random, n: int) -> tuple[list[str | None], list[tuple[int, int]]]:
    """A structured basic-block CFG: fall-through chain, forward branches, loops.

    The seed places the unlabeled blocks, branches and loops; how many of
    each there are depends on n only, so parse and WL work do too.
    """
    unlabeled = set(rng.sample(range(1, n - 1), (n - 2) // 4))
    labels: list[str | None] = []
    for i in range(n):
        if i == 0:
            labels.append("entry")
        elif i == n - 1:
            labels.append("ret")
        elif i in unlabeled:
            labels.append(None)  # unlabeled: the parser falls back to out-degree
        else:
            labels.append(rng.choice(_BLOCK_LABELS[1:-1]))
    branches = set(rng.sample(range(n - 2), round(0.3 * (n - 2))))
    loops = set(rng.sample(range(1, n - 1), round(0.1 * (n - 2))))
    edges = []
    for i in range(n - 1):
        edges.append((i, i + 1))
        if i in branches:
            edges.append((i, rng.randrange(i + 2, min(n, i + 12))))
        if i in loops:
            edges.append((i, rng.randrange(max(0, i - 12), i)))
    return labels, edges


def _mutate(rng, labels, edges, rate):
    """Relabel blocks and rewire edge targets with probability `rate` each."""
    n = len(labels)
    new_labels = [
        rng.choice(_BLOCK_LABELS[1:-1] + _NOVEL_LABELS) if 0 < i < n - 1 and rng.random() < rate else label
        for i, label in enumerate(labels)
    ]
    new_edges = [
        (src, rng.randrange(n)) if rng.random() < rate else (src, dst) for src, dst in edges
    ]
    return new_labels, new_edges


def _to_dot(name: str, labels, edges) -> str:
    lines = [f"digraph {name} {{"]
    for i, label in enumerate(labels):
        lines.append(f'  b{i} [label="{label}"];' if label else f"  b{i};")
    for src, dst in edges:
        lines.append(f"  b{src} -> b{dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"


STATUSES = ("failed", "compiled", "pass", "fast")


def write_cfgs(directory: Path, seed: int, per_size: dict[int, int]) -> None:
    """Reference and candidate CFGs per size class, plus a manifest.

    Candidates are mutations of their class's reference at rates spread
    evenly over [0.02, 0.9], one per stratum in seeded order, so small
    graphs straddle the gate threshold and every seed mutates as much;
    their execution statuses likewise take each value equally often.
    """
    manifest: dict = {"classes": []}
    for n in GRAPH_SIZES:
        rng = _rng(seed, "cfg", n)
        labels, edges = _reference_cfg(rng, n)
        ref = f"ref_n{n}.dot"
        (directory / ref).write_text(_to_dot(f"ref_n{n}", labels, edges), encoding="utf-8")
        count = per_size[n]
        strata = rng.sample(range(count), count)
        statuses = rng.sample(range(count), count)
        candidates = []
        for i in range(count):
            rate = 0.02 + 0.88 * (strata[i] + rng.random()) / count
            c_labels, c_edges = _mutate(rng, labels, edges, rate)
            name = f"cand_n{n}_{i:03d}.dot"
            (directory / name).write_text(
                _to_dot(f"cand_n{n}_{i}", c_labels, c_edges), encoding="utf-8"
            )
            candidates.append({"file": name, "status": STATUSES[statuses[i] % len(STATUSES)]})
        manifest["classes"].append({"n": n, "reference": ref, "candidates": candidates})
    (directory / "cfgs.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")


# -- workloads -----------------------------------------------------------------

# Work per batch. A run repeats its batch until `--seconds` have passed;
# "tiny" is the self-check size.
SIZES = {
    "full": {
        "sweep": {"samples": 25, "rollouts": 25},
        "wide": {"samples": 40, "rollouts": 3},
        "cli-replay": {"generations": 3, "samples": 12, "rollouts": 2},
        "gate": {"per_size": {10: 48, 100: 24, 1000: 8}},
    },
    "tiny": {
        "sweep": {"samples": 4, "rollouts": 2},
        "wide": {"samples": 4, "rollouts": 1},
        "cli-replay": {"generations": 2, "samples": 3, "rollouts": 1},
        "gate": {"per_size": {10: 3, 100: 2, 1000: 1}},
    },
}

# Fixed pipeline settings: `sweep` is the direction-1 characteristic-table
# sweep; `wide` keeps hundreds of tasks in the ready list (stage-sync,
# two rounds) and runs every lookup through the summary cache.
# `recover_planted`: at sweep's size the planted player's phi on pass is
# more than ten standard errors above zero; at wide's ten attempts per
# sample the pass rate saturates and the effect is within noise.
_PIPELINES = {
    "sweep": {"k": 5, "rounds": 1, "mode": "multi-async", "representation": "raw", "recover_planted": True},
    "wide": {"k": 5, "rounds": 2, "mode": "stage-sync", "representation": "summarized", "recover_planted": False},
}


def generate(workload: str, seed: int, size: str, directory: Path) -> dict:
    """Write the workload's inputs into `directory` and return its settings."""
    sizes = SIZES[size][workload]
    params = {"workload": workload, "seed": seed, "size": size, **sizes}
    if workload in _PIPELINES:
        write_checkpoint(directory / "checkpoint.ndjson", seed, sizes["samples"])
        params.update(
            _PIPELINES[workload],
            checkpoint="checkpoint.ndjson",
            concurrency=16,
            eval_concurrency=32,
            behavior=behavior_json(seed),
            planted=PLAYERS[planted_player(seed)],
        )
    elif workload == "cli-replay":
        write_trajectory(directory / "traj.ndjson", seed, sizes["generations"], sizes["samples"])
        write_experiment_config(directory / "exp.json", seed)
        params.update(k=3, trajectory="traj.ndjson", config="exp.json")
    elif workload == "gate":
        write_cfgs(directory, seed, sizes["per_size"])
        params.update(manifest="cfgs.json")
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return params
