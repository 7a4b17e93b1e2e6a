"""Command-line surface: freeze, intervene, attribute, gate, cost, report.

Every output file embeds the resolved-config hash and tool version, and
re-running a command with identical inputs and seeds reproduces
byte-identical CSV/JSON. Exit codes: 0 success, 2 configuration error,
3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import shutil
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from . import __version__
from .agents import (
    AgentBundle,
    AgentRole,
    HttpChatAgent,
    HttpPlanner,
    HttpSummarizer,
    MockBehavior,
    Role,
    mock_artifact_payload,
    mock_bundle,
)
from .attribution import (
    METHODS,
    EstimationFailedError,
    GameSpec,
    IncompleteTableError,
    attribution_report,
    bundle_to_csv,
    bundle_to_json,
    rollout_seed,
    sweep_characteristic_tables,
    tables_from_csv,
    tables_to_csv,
)
from .charts import LineChart
from .costmodel import CostParams, b_e2e, b_pipe, depth_slopes, scaling_table, scaling_to_csv
from .feedback import (
    Coalition,
    FeedbackArtifact,
    InMemoryArtifactSource,
    MissingFeedbackError,
    Representation,
    default_components,
    randomize_feedback,
)
from .gating import DotSyntaxError, GateConfig, decisions_to_json, gate, parse_dot, similarity
# `derive_seed` stays importable here: perfbench/tracing.py wraps it by name.
from .seeding import derive_seed  # noqa: F401
from .pipeline import (
    GAMES,
    ExecutionMode,
    InterventionPipeline,
    PipelineConfig,
    PipelineConfigError,
    PipelineStalledError,
    PlanMode,
    ReplayMismatchError,
    archive_run,
    export_trace,
    game_intervention,
    make_rollout_fn,
    replay_load,
)
from .trajectory import (
    METRICS,
    GenerationNotFoundError,
    StoreFormatError,
    TrajectoryStore,
    load_checkpoint,
    save_checkpoint,
    stats_to_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def config_hash(settings: Mapping[str, Any]) -> str:
    blob = json.dumps(settings, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def meta_line(settings: Mapping[str, Any]) -> str:
    return f"planlens {__version__} config={config_hash(settings)}"


# -- experiment config ---------------------------------------------------------

_DEFAULTS = PipelineConfig()  # the pipeline's own defaults
BACKENDS = ["mock", "http"]

# The run settings of `intervene`, each declared once: (flag dest, config
# section, config key, default, choices, help). A setting takes its flag,
# else its config key, else the default; the provenance hash names it by key.
RUN_SETTINGS = (
    ("game", "", "game", "components", sorted(GAMES), "player set"),
    ("representation", "", "representation", "raw", [r.value for r in Representation], "feedback form"),
    ("retries", "", "k", _DEFAULTS.k, None, "attempts per round"),
    ("rounds", "", "rounds", _DEFAULTS.rounds, None, "refinement rounds"),
    ("rollouts", "", "rollouts", 5, None, "runs per coalition"),
    ("seed", "", "seed", _DEFAULTS.seed, None, "run seed"),
    ("mode", "pipeline", "mode", _DEFAULTS.execution_mode.value, [m.value for m in ExecutionMode], "execution mode"),
    ("concurrency", "pipeline", "concurrency", _DEFAULTS.generator_concurrency, None, "LLM pool P, shared by ANLZ and GEN"),
    ("eval_concurrency", "pipeline", "eval_concurrency", _DEFAULTS.eval_concurrency, None, "EVAL pool"),
)


def _section_schema(section: str) -> dict:
    return {key: choices or type(default) for _, sec, key, default, choices, _ in RUN_SETTINGS if sec == section}


# The config schema: a key maps to its type, to the strings it allows, or,
# for a section, to the section's own schema.
_CONFIG_SCHEMA = {
    **_section_schema(""),
    "metrics": list,
    "pipeline": _section_schema("pipeline"),
    "agents": {"backend": BACKENDS, "behavior": dict},
}


def check_metrics(metrics: Iterable[str], where: str) -> None:
    for metric in metrics:
        if metric not in METRICS:
            raise ConfigError(f"unknown metric {metric!r} in {where}")


def _check_keys(data: Mapping[str, Any], schema: Mapping[str, Any], prefix: str = "") -> None:
    """Reject keys outside the schema and values of the wrong type; a
    boolean is not an int here, although Python counts it as one."""
    for key, value in data.items():
        name = prefix + key
        if key not in schema:
            raise ConfigError(f"unknown config key {name!r}")
        kind = schema[key]
        expected = dict if isinstance(kind, dict) else str if isinstance(kind, list) else kind
        if not isinstance(value, expected) or (expected is int and isinstance(value, bool)):
            raise ConfigError(f"config key {name!r} must be {expected.__name__}")
        if isinstance(kind, list) and value not in kind:
            raise ConfigError(f"config key {name!r} must be one of {kind}")
        if isinstance(kind, dict):
            _check_keys(value, kind, name + ".")


def load_experiment_config(path: str) -> dict:
    """Load and schema-check the JSON experiment document."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("experiment config must be a JSON object")
    _check_keys(data, _CONFIG_SCHEMA)
    if data.get("rollouts", 1) < 1:
        raise ConfigError("config key 'rollouts' must be >= 1")
    if data.get("metrics") == []:
        raise ConfigError("config key 'metrics' must name at least one metric")
    check_metrics(data.get("metrics", ()), "config")
    return data


def build_agents(agent_config: Mapping[str, Any]) -> AgentBundle:
    try:
        agents = mock_bundle(MockBehavior.from_json(agent_config.get("behavior", {})))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"agents.behavior is malformed: {exc!r}") from exc
    if agent_config.get("backend", "mock") != "http":
        return agents
    # Real backends plug in at the summarizer/planner seam; program
    # generation+execution adapters stay external to this tool.
    try:
        return replace(
            agents,
            summarizer=HttpSummarizer(HttpChatAgent(AgentRole(Role.SUMMARIZER, model_tag="summarizer"))),
            planner=HttpPlanner(HttpChatAgent(AgentRole(Role.PLANNER, model_tag="planner"))),
        )
    except ValueError as exc:  # no backend URL configured
        raise ConfigError(f"http backend: {exc}") from exc


def synthetic_artifact_source(checkpoint, players) -> InMemoryArtifactSource:
    """Deterministic raw artifacts for every (sample, component)."""
    source = InMemoryArtifactSource()
    for sample in checkpoint.samples:
        for component in players:
            source.put(
                FeedbackArtifact(
                    component=component,
                    representation=Representation.RAW,
                    payload=mock_artifact_payload(
                        sample, component.name, Representation.RAW
                    ),
                    source_sample=sample.sample_id,
                )
            )
    return source


# -- subcommands ----------------------------------------------------------------


def cmd_freeze(args: argparse.Namespace) -> int:
    try:
        store = TrajectoryStore.load(args.trajectory)
    except FileNotFoundError as exc:
        raise DataError(f"trajectory file not found: {args.trajectory}") from exc
    except StoreFormatError as exc:
        raise DataError(f"cannot parse trajectory: {exc}") from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = {"command": "freeze", "trajectory": args.trajectory, "g": args.generation}
    meta = {"config_hash": config_hash(settings), "version": __version__}
    for g in args.generation:
        try:
            checkpoint = store.freeze(g)
        except GenerationNotFoundError as exc:
            raise DataError(f"generation {g} not found in trajectory") from exc
        path = out_dir / f"checkpoint_g{g}.ndjson"
        save_checkpoint(checkpoint, str(path), meta=meta)
        print(f"froze g={g} ({len(checkpoint.samples)} samples) -> {path}")
    (out_dir / "freeze_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
    )
    return EXIT_OK


def cmd_intervene(args: argparse.Namespace) -> int:
    if args.rollouts is not None and args.rollouts < 1:
        raise ConfigError("--rollouts must be >= 1")
    config = load_experiment_config(args.config) if args.config else {}
    for dest, section, key, default, _, _ in RUN_SETTINGS:
        scope = config.get(section, {}) if section else config
        if getattr(args, dest) is None:
            setattr(args, dest, scope.get(key, default))
    agent_config = dict(config.get("agents", {}))
    if args.backend is not None:
        configured = agent_config.setdefault("backend", args.backend)
        if configured != args.backend:
            raise ConfigError(
                f"--backend {args.backend} conflicts with agents.backend "
                f"{configured!r} in {args.config}"
            )
    agents = build_agents(agent_config)

    try:
        checkpoint = load_checkpoint(args.checkpoint)
    except FileNotFoundError as exc:
        raise DataError(f"checkpoint file not found: {args.checkpoint}") from exc
    except StoreFormatError as exc:
        raise DataError(f"cannot parse checkpoint: {exc}") from exc

    players = GAMES[args.game]()
    components = default_components()
    representation = Representation(args.representation)
    if args.coalition is None and not args.sweep:
        raise ConfigError("provide --coalition or --sweep")
    if args.sweep:
        # The sweep builds its own interventions per coalition and writes
        # only the table; these flags would be ignored.
        unsupported = [
            flag
            for flag, value in (
                ("--coalition", args.coalition),
                ("--plan-mode", args.plan_mode),
                ("--randomize-feedback", args.randomize_feedback),
                ("--trace", args.trace),
                ("--archive", args.archive),
                ("--replay", args.replay),
            )
            if value is not None
        ]
        if unsupported:
            raise ConfigError(
                f"--sweep cannot be combined with {', '.join(unsupported)}"
            )
    else:
        if args.metrics is not None:
            # A single coalition's stats CSV always holds every metric.
            raise ConfigError("--metrics applies only to --sweep")
        try:
            coalition = Coalition.parse(args.coalition, players)
        except ValueError as exc:
            raise ConfigError(f"--coalition {args.coalition!r}: {exc}") from exc

    metrics = ["compiled", "pass", "fast"]
    if args.metrics:
        metrics = args.metrics.split(",")
        check_metrics(metrics, "--metrics")
    elif args.sweep:
        metrics = config.get("metrics", metrics)
    settings = {
        "command": "intervene",
        "checkpoint_hash": checkpoint.checkpoint_hash,
        "metrics": metrics,
        **{key: getattr(args, dest) for dest, _, key, _, _, _ in RUN_SETTINGS},
        "sweep": bool(args.sweep),
        "coalition": args.coalition,
        "randomize_feedback": args.randomize_feedback,
        "plan_mode": args.plan_mode,
        "replay": args.replay,
        "agents": {
            "backend": agent_config.get("backend", "mock"),
            "behavior": asdict(agents.generator.behavior),
        },
    }
    source = synthetic_artifact_source(checkpoint, components)
    pipe = InterventionPipeline(
        agents,
        source,
        players=components,
        config=PipelineConfig(
            generator_concurrency=args.concurrency,
            eval_concurrency=args.eval_concurrency,
            k=args.retries,
            rounds=args.rounds,
            seed=args.seed,
            execution_mode=ExecutionMode(args.mode),
            record_trace=args.trace is not None,
        ),
    )

    permutation = None
    if args.randomize_feedback is not None:
        permutation = dict(
            randomize_feedback(checkpoint, args.randomize_feedback).mapping
        )

    out_path = Path(args.out)
    if args.sweep:
        rollout = make_rollout_fn(pipe, game=args.game, representation=representation)
        specs = [
            GameSpec(players=players, metric=metric, g=checkpoint.g)
            for metric in metrics
        ]
        tables = sweep_characteristic_tables(
            checkpoint, specs, rollout, args.rollouts, args.seed
        )
        out_path.write_text(
            tables_to_csv(tables, meta=meta_line(settings)), encoding="utf-8"
        )
        coalitions = 2 ** len(players)
        failed = coalitions * args.rollouts - sum(tables[0].n_rollouts.values())
        note = f" ({failed} of {coalitions * args.rollouts} rollouts failed)" if failed else ""
        print(f"swept {coalitions} coalitions x {args.rollouts} rollouts -> {out_path}{note}")
    else:
        intervention = game_intervention(
            args.game, coalition, components, representation
        )
        plan_mode = intervention.plan_mode
        if args.plan_mode is not None:
            plan_mode = PlanMode(args.plan_mode)
        intervention = replace(
            intervention, plan_mode=plan_mode, permutation=permutation
        )
        replay_cache = None
        if args.replay:
            replay_cache = replay_load(args.replay, checkpoint)
        stats_rows = []
        last_result = None
        for r in range(args.rollouts):
            run_id = pipe.submit(
                checkpoint, intervention, seed=rollout_seed(args.seed, coalition, r), replay=replay_cache
            )
            last_result = pipe.run_to_completion(run_id)
            stats_rows.append(last_result.stats)
        out_path.write_text(
            stats_to_csv(stats_rows, meta=meta_line(settings)), encoding="utf-8"
        )
        print(
            f"coalition {coalition.label(players)}: {args.rollouts} rollouts "
            f"-> {out_path}"
        )
        if args.trace and last_result is not None:
            export_trace(last_result, args.trace)
            print(f"event trace -> {args.trace}")
        if args.archive and last_result is not None:
            archive_run(last_result, args.archive)
            print(f"replay archive -> {args.archive}")
    return EXIT_OK


def cmd_attribute(args: argparse.Namespace) -> int:
    players = GAMES[args.game]()
    tables = []
    source: dict[tuple[int, str], str] = {}  # (g, metric) -> the file it came from
    for path in args.tables:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except FileNotFoundError as exc:
            raise DataError(f"table file not found: {path}") from exc
        try:
            file_tables = tables_from_csv(text, players)
        except (KeyError, TypeError, ValueError) as exc:  # missing column, short row, bad value
            raise DataError(f"cannot read table file {path}: {exc!r}") from exc
        for table in file_tables:
            key = (table.spec.g, table.spec.metric)
            if key in source:
                raise DataError(
                    f"two tables for g={key[0]} metric={key[1]}: {source[key]} and {path}"
                )
            source[key] = path
        tables.extend(file_tables)
    if not tables:
        raise DataError("no characteristic tables found in inputs")
    settings = {
        "command": "attribute",
        "game": args.game,
        "method": args.method,
        "tables": list(args.tables),
        "clip": args.clip,
    }
    bundle = attribution_report(tables, method=args.method)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "attribution.csv").write_text(
        bundle_to_csv(bundle, meta=meta_line(settings)), encoding="utf-8"
    )
    meta = {"config_hash": config_hash(settings), "version": __version__}
    (out_dir / "attribution.json").write_text(
        bundle_to_json(bundle, meta=meta), encoding="utf-8"
    )
    # One chart per metric: phi lines per player, full-order synergy dashed.
    by_metric: dict[str, list] = {}
    for (g, metric), report in sorted(bundle.reports.items()):
        by_metric.setdefault(metric, []).append((g, report))
    for metric, rows in by_metric.items():
        chart = LineChart(
            title=f"attribution per generation ({metric})",
            x_label="generation",
            y_label="value",
            clip=args.clip,
            meta=meta_line(settings),
        )
        gens = [g for g, _ in rows]
        for player in rows[0][1].spec.players:
            chart.add(
                f"phi_{player.short}",
                gens,
                [report.phi[player.name] for _, report in rows],
            )
        chart.add(
            "synergy (full order)",
            gens,
            [report.sigma_full for _, report in rows],
            dashed=True,
        )
        (out_dir / f"attribution_{metric}.svg").write_text(
            chart.render(), encoding="utf-8"
        )
    n_rows = len(bundle.reports)
    print(f"attributed {n_rows} (generation, metric) rows -> {out_dir}")
    if bundle.errors:
        for (g, metric), message in sorted(bundle.errors.items()):
            print(f"  skipped g={g} metric={metric}: {message}", file=sys.stderr)
    return EXIT_OK


def cmd_gate(args: argparse.Namespace) -> int:
    from .trajectory import OutcomeLevel

    try:
        status = OutcomeLevel.parse(args.status)
    except KeyError as exc:
        raise ConfigError(f"unknown status {args.status!r}") from exc
    if not 0.0 <= args.tau_s <= 1.0:
        raise ConfigError("--tau-s must be in [0, 1]")
    if args.wl_iters < 1:
        raise ConfigError("--wl-iters must be >= 1")
    for given, needed in (("current", "reference"), ("reference", "current")):
        if getattr(args, given) and not getattr(args, needed):
            raise ConfigError(f"--{given} needs --{needed}")
    if status >= OutcomeLevel.PASS and not args.current:
        # The gate needs a similarity score once the candidate passes.
        raise ConfigError(f"--status {args.status} needs --current and --reference")
    cfg = GateConfig(tau_s=args.tau_s, wl_iterations=args.wl_iters)
    s = None
    if args.current:
        try:
            current = parse_dot(Path(args.current).read_text(encoding="utf-8"))
            reference = parse_dot(Path(args.reference).read_text(encoding="utf-8"))
        except FileNotFoundError as exc:
            raise DataError(str(exc)) from exc
        except DotSyntaxError as exc:
            raise DataError(f"DOT parse error: {exc}") from exc
        s = similarity(current, reference, cfg)
    decision = gate(status, s, cfg, reference_id=args.reference or "")
    shown = "n/a" if decision.s is None else f"{decision.s:.4f}"
    print(f"s={shown} phase={decision.phase.value} admitted_mask={decision.admitted_components.mask}")
    if args.out:
        Path(args.out).write_text(
            decisions_to_json([(args.current or "", status, decision)]),
            encoding="utf-8",
        )
    return EXIT_OK


def cmd_cost(args: argparse.Namespace) -> int:
    values = {f.name: getattr(args, f.name) for f in fields(CostParams)}
    try:
        params = CostParams(**values)
    except (OverflowError, ValueError) as exc:
        raise ConfigError(f"cost: {exc}") from exc
    settings = {"command": "cost", **values, "sweep": args.sweep}
    volume_e2e = b_e2e(params)
    volume_pipe = b_pipe(params)
    slope_e2e, slope_pipe = depth_slopes(params)
    print(f"end-to-end ablation volume:  {volume_e2e}")
    print(f"frozen-trajectory volume:    {volume_pipe}")
    print(f"ratio: {volume_e2e / volume_pipe:.2f}x")
    print(f"per-generation slope: e2e {slope_e2e}, frozen {slope_pipe}")
    if args.sweep:
        lo, hi = args.sweep
        rows = scaling_table(params, range(lo, hi + 1))
        out_dir = Path(args.out or ".")
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "cost_scaling.csv"
        csv_path.write_text(
            scaling_to_csv(rows, meta=meta_line(settings)), encoding="utf-8"
        )
        chart = LineChart(
            title="inference volume vs search depth",
            x_label="depth D",
            y_label="inference volume",
            meta=meta_line(settings),
        )
        chart.add("end-to-end ablation", [r.depth for r in rows], [r.volume_e2e for r in rows])
        chart.add(
            "frozen-trajectory replay",
            [r.depth for r in rows],
            [r.volume_pipe for r in rows],
        )
        (out_dir / "cost_scaling.svg").write_text(chart.render(), encoding="utf-8")
        print(f"scaling sweep D={lo}..{hi} -> {csv_path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for label, path in (
        ("stats", args.stats),
        ("tables", args.tables),
        ("attribution", args.attribution),
    ):
        if path is None:
            continue
        src = Path(path)
        if not src.exists():
            raise DataError(f"{label} input not found: {path}")
        if src.is_dir():
            dest = out_dir / src.name
            shutil.copytree(src, dest, dirs_exist_ok=True)
            copied.extend(sorted(p.name for p in dest.iterdir()))
        else:
            shutil.copy(src, out_dir / src.name)
            copied.append(src.name)
    settings = {
        "command": "report",
        "inputs": {
            "stats": args.stats,
            "tables": args.tables,
            "attribution": args.attribution,
        },
    }
    manifest = {
        "version": __version__,
        "config_hash": config_hash(settings),
        "files": sorted(copied),
    }
    (out_dir / "bundle.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8"
    )
    print(f"bundled {len(copied)} files -> {out_dir}")
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process: parsing never changes it,
    and each `parse_args` call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="planlens",
        description=(
            "Freeze evolutionary trajectories, replay planning under "
            "controlled feedback coalitions, and attribute outcomes to "
            "feedback components."
        ),
    )
    parser.add_argument("--version", action="version", version=f"planlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_freeze = sub.add_parser("freeze", help="snapshot generations of a trajectory")
    p_freeze.add_argument("--trajectory", required=True)
    p_freeze.add_argument(
        "--generation", "-g", type=int, nargs="+", required=True
    )
    p_freeze.add_argument("--out", required=True, help="output directory")
    p_freeze.set_defaults(func=cmd_freeze)

    p_int = sub.add_parser(
        "intervene", help="replay a checkpoint under a feedback coalition"
    )
    p_int.add_argument("--checkpoint", required=True)
    p_int.add_argument("--config", help="experiment config JSON")
    p_int.add_argument("--coalition", help="comma list, e.g. d,a,p or none")
    p_int.add_argument(
        "--sweep", action="store_true", help="evaluate all 2^N coalitions"
    )
    for dest, section, key, default, choices, what in RUN_SETTINGS:
        p_int.add_argument(
            "--" + dest.replace("_", "-"),
            type=type(default),
            choices=choices,
            help=f"{what} (config key {section + '.' if section else ''}{key}, default {default})",
        )
    p_int.add_argument(
        "--plan-mode",
        choices=[m.value for m in PlanMode],
        help="override plan handling (e.g. dummy)",
    )
    p_int.add_argument(
        "--randomize-feedback",
        type=int,
        default=None,
        metavar="SEED",
        help="permute feedback within the generation (control condition)",
    )
    p_int.add_argument("--metrics", help="comma list of metrics for --sweep")
    p_int.add_argument(
        "--backend",
        choices=BACKENDS,
        help="agent backend (default: agents.backend from --config, else mock)",
    )
    p_int.add_argument("--out", required=True, help="output CSV path")
    p_int.add_argument("--trace", help="write the event trace NDJSON here")
    p_int.add_argument("--archive", help="write a replay archive directory here")
    p_int.add_argument(
        "--replay",
        help="reuse stage results from this archive (checkpoint hash must match)",
    )
    p_int.set_defaults(func=cmd_intervene)

    p_attr = sub.add_parser(
        "attribute", help="attribution report from characteristic tables"
    )
    p_attr.add_argument("--tables", nargs="+", required=True)
    p_attr.add_argument("--game", choices=sorted(GAMES), default="components")
    # The live table, not a copy, so a method added later is a valid choice.
    p_attr.add_argument("--method", choices=METHODS, default="banzhaf")
    p_attr.add_argument(
        "--clip",
        type=float,
        default=None,
        help="clip chart values to +/- this bound (CSV/JSON unaffected)",
    )
    p_attr.add_argument("--out", required=True, help="output directory")
    p_attr.set_defaults(func=cmd_attribute)

    p_gate = sub.add_parser(
        "gate", help="phase decision from execution status and CFG similarity"
    )
    p_gate.add_argument("--current", help="candidate CFG in DOT format")
    p_gate.add_argument("--reference", help="reference CFG in DOT format")
    p_gate.add_argument("--status", required=True, help="failed|compiled|pass|fast")
    p_gate.add_argument("--tau-s", type=float, default=0.42)
    p_gate.add_argument("--wl-iters", type=int, default=3)
    p_gate.add_argument("--out", help="write the gate decision JSON here")
    p_gate.set_defaults(func=cmd_gate)

    p_cost = sub.add_parser("cost", help="inference-volume accounting")
    for f in fields(CostParams):  # depth and population have no model default
        default = {"depth": 10, "population": 25}.get(f.name, f.default)
        p_cost.add_argument("--" + f.name.replace("_", "-"), type=int, default=default)
    p_cost.add_argument(
        "--sweep",
        type=_depth_range,
        default=None,
        metavar="LO:HI",
        help="emit the scaling table over this depth range",
    )
    p_cost.add_argument("--out", help="output directory for sweep files")
    p_cost.set_defaults(func=cmd_cost)

    p_rep = sub.add_parser("report", help="merge outputs into a bundle directory")
    p_rep.add_argument("--stats", help="stats CSV")
    p_rep.add_argument("--tables", help="characteristic table CSV")
    p_rep.add_argument("--attribution", help="attribution output file or directory")
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=cmd_report)

    return parser


def _depth_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected LO:HI") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise argparse.ArgumentTypeError("need 1 <= LO <= HI")
    return lo_i, hi_i


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, PipelineConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        DataError,
        MissingFeedbackError,
        ReplayMismatchError,
        GenerationNotFoundError,
        IncompleteTableError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PipelineStalledError, EstimationFailedError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
