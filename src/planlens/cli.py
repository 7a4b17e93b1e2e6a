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
import os
import shutil
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Any, Callable, Mapping

from . import __version__
from .agents import (
    BEHAVIOR_SCHEMA,
    ENV_BACKEND_URL,
    AgentBundle,
    AgentRole,
    HttpChatAgent,
    HttpPlanner,
    HttpSummarizer,
    MockBehavior,
    RetryableAgentError,
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
    GenerationCheckpoint,
    GenerationNotFoundError,
    ListOf,
    StoreFormatError,
    TrajectoryStore,
    check_json,
    load_checkpoint,
    parse_json,
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


def meta_json(settings: Mapping[str, Any]) -> dict:
    """The provenance of a JSON output: config hash and tool version."""
    return {"config_hash": config_hash(settings), "version": __version__}


def read_input(
    what: str,
    path: str,
    read: Callable[[str], Any] = lambda path: Path(path).read_text(encoding="utf-8"),
    error: type[Exception] = DataError,
):
    """`read(path)` for an input file, raising `error` that names the file
    (and, for an NDJSON file, the line) when it is missing, a directory,
    unreadable, not UTF-8 or not a sample record file."""
    try:
        return read(path)
    except StoreFormatError as exc:
        raise error(f"cannot parse {what}: {exc} (file {path})") from exc
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable, or not UTF-8
        raise error(f"cannot read {what} file {path}: {exc}") from exc


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


# The `intervene` flags, by dest, that only one mode reads; given in the
# other mode a flag would be ignored, so it is refused. A single coalition's
# stats CSV always holds every metric; a sweep builds its own interventions
# per coalition and writes only the table. The config key `metrics` is a
# sweep setting too, but it is not refused in a run: one config document
# serves both modes, and a run writes every metric with or without it.
MODE_ONLY_FLAGS = {
    "run": ("coalition", "plan_mode", "randomize_feedback", "trace", "archive", "replay"),
    "sweep": ("metrics",),
}

# The `intervene` flags, by dest, that only say where outputs go: the only
# flags the settings record, and so the provenance hash, leaves out.
OUTPUT_FLAGS = ("out", "trace", "archive")


def _section_schema(section: str) -> dict:
    return {key: choices or type(default) for _, sec, key, default, choices, _ in RUN_SETTINGS if sec == section}


# The experiment config document (see `check_json` for the schema shapes).
_CONFIG_SCHEMA = {
    **_section_schema(""),
    "metrics": ListOf(list(METRICS)),
    "pipeline": _section_schema("pipeline"),
    "agents": {"backend": BACKENDS, "behavior": BEHAVIOR_SCHEMA},
}


def load_experiment_config(path: str) -> dict:
    """Load and schema-check the JSON experiment document."""
    text = read_input("config", path, error=ConfigError)
    try:
        data = check_json(parse_json(text), _CONFIG_SCHEMA, "config")
    except ValueError as exc:  # not JSON, nested too deeply, or not the schema
        raise ConfigError(f"config file {path}: {exc}") from exc
    if data.get("metrics") == []:
        raise ConfigError("config key 'metrics' must name at least one metric")
    return data


def build_agents(agent_config: Mapping[str, Any]) -> AgentBundle:
    try:
        agents = mock_bundle(MockBehavior.from_json(agent_config.get("behavior", {})))
    except (KeyError, ValueError) as exc:  # KeyError: an effect level that is no OutcomeLevel
        raise ConfigError(f"agents.behavior is malformed: {exc!r}") from exc
    if agent_config.get("backend", "mock") != "http":
        return agents
    # Real backends plug in at the summarizer/planner seam; program
    # generation+execution adapters stay external to this tool.
    url = agent_config.get("url")
    try:
        return replace(
            agents,
            summarizer=HttpSummarizer(HttpChatAgent(AgentRole(Role.SUMMARIZER, model_tag="summarizer"), url)),
            planner=HttpPlanner(HttpChatAgent(AgentRole(Role.PLANNER, model_tag="planner"), url)),
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
                    payload=mock_artifact_payload(sample, component.name),
                    source_sample=sample.sample_id,
                )
            )
    return source


# -- subcommands ----------------------------------------------------------------


def cmd_freeze(args: argparse.Namespace) -> int:
    store = read_input("trajectory", args.trajectory, TrajectoryStore.load)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = {"command": "freeze", "trajectory": args.trajectory, "g": args.generation}
    meta = meta_json(settings)
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


def resolve_intervene(args: argparse.Namespace) -> tuple[dict, AgentBundle, GenerationCheckpoint]:
    """The settings record of an `intervene` run, its agents and its
    checkpoint, after every check on the flags and the config.

    The record holds every value the run reads and is the whole input of
    its provenance hash: each flag but `OUTPUT_FLAGS` reaches it, `--config`
    and `--checkpoint` through their content, and `--backend http` with its
    server URL (never the API key)."""
    config = load_experiment_config(args.config) if args.config else {}
    settings = {}
    for dest, section, key, default, _, _ in RUN_SETTINGS:
        scope = config.get(section, {}) if section else config
        settings[key] = scope.get(key, default) if getattr(args, dest) is None else getattr(args, dest)
    rollouts = settings["rollouts"]
    if rollouts < 1:
        raise ConfigError(f"--rollouts (config key 'rollouts') must be >= 1, not {rollouts}")
    if settings["k"] > _DEFAULTS.queue_capacity:  # the GEN -> EVAL queue must hold a GEN's k EVALs
        raise ConfigError(f"--retries (config key 'k') must be <= {_DEFAULTS.queue_capacity}, not {settings['k']}")
    agent_config = {"backend": args.backend or "mock", **config.get("agents", {})}
    if args.backend not in (None, agent_config["backend"]):
        raise ConfigError(
            f"--backend {args.backend} conflicts with agents.backend {agent_config['backend']!r} in {args.config}"
        )
    if agent_config["backend"] == "http":
        agent_config["url"] = os.environ.get(ENV_BACKEND_URL)
    agents = build_agents(agent_config)

    checkpoint = read_input("checkpoint", args.checkpoint, load_checkpoint)

    if args.coalition is None and not args.sweep:
        raise ConfigError("provide --coalition or --sweep")
    mode, other = ("--sweep", "run") if args.sweep else ("--coalition", "sweep")
    ignored = ["--" + dest.replace("_", "-") for dest in MODE_ONLY_FLAGS[other] if getattr(args, dest) is not None]
    if ignored:
        raise ConfigError(f"{mode} cannot be combined with {', '.join(ignored)}")
    for dest in ("archive", "replay"):
        if getattr(args, dest) and rollouts > 1:
            # An archive holds one run, and a replay must match its seed.
            raise ConfigError(f"an archive holds one run, so --{dest} cannot be combined with --rollouts {rollouts}")
    if not args.sweep:
        try:
            Coalition.parse(args.coalition, GAMES[settings["game"]]())
        except ValueError as exc:
            raise ConfigError(f"--coalition {args.coalition!r}: {exc}") from exc

    metrics, origin = ["compiled", "pass", "fast"], "--metrics"
    if args.metrics is not None:
        metrics = args.metrics.split(",")
        try:
            check_json(metrics, _CONFIG_SCHEMA["metrics"], "--metrics")
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    elif args.sweep:
        metrics, origin = config.get("metrics", metrics), "config key 'metrics'"
    for i, metric in enumerate(metrics):
        if metric in metrics[:i]:  # its table rows would repeat, which `attribute` refuses
            raise ConfigError(f"{origin} names metric {metric!r} twice")
    record = {
        "command": "intervene",
        **settings,
        "sweep": args.sweep,
        "metrics": metrics,
        "checkpoint_hash": checkpoint.checkpoint_hash,
        "agents": {**agent_config, "behavior": asdict(agents.generator.behavior)},
        **{dest: getattr(args, dest) for dest in MODE_ONLY_FLAGS["run"] if dest not in OUTPUT_FLAGS},
    }
    return record, agents, checkpoint


def cmd_intervene(args: argparse.Namespace) -> int:
    record, agents, checkpoint = resolve_intervene(args)
    players = GAMES[record["game"]]()
    components = default_components()
    representation = Representation(record["representation"])
    rollouts, seed = record["rollouts"], record["seed"]
    pipe = InterventionPipeline(
        agents,
        synthetic_artifact_source(checkpoint, components),
        players=components,
        config=PipelineConfig(
            generator_concurrency=record["concurrency"],
            eval_concurrency=record["eval_concurrency"],
            k=record["k"],
            rounds=record["rounds"],
            seed=seed,
            execution_mode=ExecutionMode(record["mode"]),
            record_trace=args.trace is not None,
        ),
    )
    meta = meta_line(record)
    out_path = Path(args.out)
    if record["sweep"]:
        rollout = make_rollout_fn(pipe, game=record["game"], representation=representation)
        specs = [GameSpec(players=players, metric=metric, g=checkpoint.g) for metric in record["metrics"]]
        tables = sweep_characteristic_tables(checkpoint, specs, rollout, rollouts, seed)
        out_path.write_text(tables_to_csv(tables, meta=meta), encoding="utf-8")
        coalitions = 2 ** len(players)
        failed = coalitions * rollouts - sum(tables[0].n_rollouts.values())
        note = f" ({failed} of {coalitions * rollouts} rollouts failed)" if failed else ""
        print(f"swept {coalitions} coalitions x {rollouts} rollouts -> {out_path}{note}")
        return EXIT_OK

    coalition = Coalition.parse(record["coalition"], players)
    intervention = game_intervention(record["game"], coalition, components, representation)
    shuffle_seed = record["randomize_feedback"]
    intervention = replace(
        intervention,
        plan_mode=PlanMode(record["plan_mode"] or intervention.plan_mode),
        permutation=None if shuffle_seed is None else randomize_feedback(checkpoint, shuffle_seed),
    )
    replay = replay_load(record["replay"], checkpoint) if record["replay"] else None
    stats_rows = []
    for r in range(rollouts):
        run_id = pipe.submit(checkpoint, intervention, seed=rollout_seed(seed, coalition, r), replay=replay)
        last_result = pipe.run_to_completion(run_id)
        stats_rows.append(last_result.stats)
    out_path.write_text(stats_to_csv(stats_rows, meta=meta), encoding="utf-8")
    print(f"coalition {coalition.label(players)}: {rollouts} rollouts -> {out_path}")
    if args.trace:
        export_trace(last_result, args.trace)
        print(f"event trace -> {args.trace}")
    if args.archive:
        archive_run(last_result, args.archive)
        print(f"replay archive -> {args.archive}")
    return EXIT_OK


def cmd_attribute(args: argparse.Namespace) -> int:
    players = GAMES[args.game]()
    tables = []
    source: dict[tuple[int, str], str] = {}  # (g, metric) -> the file it came from
    for path in args.tables:
        text = read_input("table", path)
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
    (out_dir / "attribution.json").write_text(
        bundle_to_json(bundle, meta=meta_json(settings)), encoding="utf-8"
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
            current = parse_dot(read_input("CFG", args.current))
            reference = parse_dot(read_input("CFG", args.reference))
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
    inputs: dict[str, Path] = {}  # by the name each is bundled under
    for label, path in (("stats", args.stats), ("tables", args.tables), ("attribution", args.attribution)):
        if path is None:
            continue
        src = Path(path)
        # Checked before anything is written: a clash would overwrite a file the manifest lists.
        if src.name in ("", ".."):  # it would be bundled as --out itself or its parent
            raise ConfigError(f"report input {path} has no file name to be bundled under in {out_dir}")
        if src.name == "bundle.json":
            raise ConfigError(f"report input {path} would be overwritten by the manifest {out_dir / src.name}")
        if src.name in inputs:
            raise ConfigError(f"report inputs {inputs[src.name]} and {path} would both be bundled as {src.name}")
        if not src.exists():
            raise DataError(f"{label} input not found: {path}")
        if src.is_dir() and out_dir.resolve().is_relative_to(src.resolve()):
            raise ConfigError(f"report input {path} holds the output directory {out_dir}, so it would copy itself")
        inputs[src.name] = src
    out_dir.mkdir(parents=True, exist_ok=True)
    copied = []
    for name, src in inputs.items():
        if src.is_dir():  # its entries, not what an earlier bundle left in the destination
            shutil.copytree(src, out_dir / name, dirs_exist_ok=True)
            copied.extend(p.name for p in src.iterdir())
        else:
            shutil.copy(src, out_dir / name)
            copied.append(name)
    settings = {
        "command": "report",
        "inputs": {
            "stats": args.stats,
            "tables": args.tables,
            "attribution": args.attribution,
        },
    }
    manifest = {**meta_json(settings), "files": sorted(copied)}
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
    # OSError: an output the command cannot write (`read_input` turns input errors into DataError).
    except (PipelineStalledError, EstimationFailedError, RetryableAgentError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
