"""Batch command-line driver: generate, sweep, and eval.

All commands are non-interactive, write only inside the requested output
directory, and are reproducible byte-for-byte under a fixed seed (the
manifest's timestamps and wall times are the only varying fields).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .judge_client import JudgeConfig, JudgeError, judge_corpus
from .metrics import diversity_report, mean_pairwise_cosine, report_csv_rows
from .penalty import DEFAULT_EPSILON, PenaltyConfig
from .process import (
    DEFAULT_TEMPERATURE,
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    detokenize,
    lanes_per_call,
    load_bigram_model,
    multi_branch,
    tokenize,
)
from .schedule import ScheduleParams, default_schedule
from .sweep import (
    PARAM_ORDER,
    NoAdmissiblePointError,
    ParamSpec,
    SweepSpace,
    pareto_front,
    run_sweep,
    select_best,
)

MODEL_KINDS = ("toy_ar", "toy_diffusion", "bigram")
REQUIRED = object()  # the schema default of a key that must be present

# One schema per config section: each key's kind and its default.  A
# None default leaves the value to build_run, which works it out.
RUN_SCHEMA = {
    "model": (dict, REQUIRED),
    "schedule": (dict, None),  # the default schedule for max_steps
    "penalty": (dict, {}),
    "temperature": (float, DEFAULT_TEMPERATURE),
    "max_steps": (int, None),  # the model's step count for diffusion, else 40
    "branches": (int, 1),
    "seed": (int, 0),
    "uag_enabled": (bool, True),
    "bank_capacity": (int, 16),
}
MODEL_SCHEMAS = {
    "toy_ar": {"kind": (str, REQUIRED), "vocab_size": (int, 64),
               "hidden_size": (int, 32), "seed": (int, 0)},
    "toy_diffusion": {"kind": (str, REQUIRED), "latent_size": (int, 16),
                      "steps": (int, 50), "seed": (int, 0)},
    "bigram": {"kind": (str, REQUIRED), "path": (str, REQUIRED)},
}
# The horizon is not a key: a schedule spans the run's max_steps.
SCHEDULE_SCHEMA = {"alpha": (float, REQUIRED), "beta": (float, REQUIRED),
                   "l0": (float, REQUIRED), "delta": (float, REQUIRED),
                   "kind": (str, "logistic")}
PENALTY_SCHEMA = {"epsilon": (float, DEFAULT_EPSILON),
                  "local_aggregation": (str, "max"),
                  "global_aggregation": (str, "max")}
SPACE_SCHEMA = {**dict.fromkeys(PARAM_ORDER, (dict, None)),
                "sampling": (str, "grid"), "budget": (int, 1)}
GRID_SCHEMA = {"grid": (list, REQUIRED)}
RANGE_SCHEMA = {"min": (float, REQUIRED), "max": (float, REQUIRED)}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a JSON array", dict: "a JSON object"}


class ConfigError(Exception):
    """Invalid or unreadable run configuration (exit code 1)."""


@dataclass
class RunManifest:
    """Provenance record written next to every command's outputs."""

    config_hash: str
    seed: int
    tool_version: str
    created_at: str
    outputs: dict[str, str] = field(default_factory=dict)
    branch_stats: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "tool_version": self.tool_version,
            "created_at": self.created_at,
            "outputs": self.outputs,
            "branch_stats": self.branch_stats,
            "totals": self.totals,
        }


def canonical_hash(config: dict) -> str:
    """Stable digest of the canonicalized (sorted, compact) JSON config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_json(path: str | Path, what: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed {what} {path}: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must contain a JSON object")
    return raw


def _value(v, kind, path: str):
    """v if it is already of the kind, else a ConfigError naming path.

    A bool is no number.  An int kind takes integral numbers (3 or 3.0),
    a float kind finite ones that a float holds exactly; either comes
    back as that kind.
    """
    if kind is int or kind is float:
        if isinstance(v, (int, float)) and not isinstance(v, bool):
            try:
                x = kind(v)
            except (OverflowError, ValueError):  # int(inf), int(nan), float(10**400)
                x = None
            if x == v and (kind is int or math.isfinite(x)):  # NaN != NaN
                return x
    elif isinstance(v, kind):
        return v
    raise ConfigError(f"{path} must be {_KIND_NAMES[kind]}, got {json.dumps(v)}")


def _fields(section: dict, schema: dict, prefix: str) -> dict:
    """section's values checked against schema, with its defaults filled
    in; an unknown or missing key is a ConfigError naming its path."""
    unknown = sorted(set(section) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config key {prefix}{unknown[0]}")
    fields = {}
    for key, (kind, default) in schema.items():
        if key in section:
            fields[key] = _value(section[key], kind, prefix + key)
        elif default is REQUIRED:
            raise ConfigError(f"missing config key {prefix}{key}")
        else:
            fields[key] = default
    return fields


def build_model(model_cfg: dict, base_dir: Path):
    kind = model_cfg.get("kind")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    fields = _fields(model_cfg, MODEL_SCHEMAS[kind], "model.")
    del fields["kind"]
    try:
        if kind == "bigram":
            return load_bigram_model(base_dir / fields["path"])
        return (ToyArModel if kind == "toy_ar" else ToyDiffusion)(**fields)
    except (ValueError, OSError, KeyError, TypeError) as exc:  # bad sizes or bigram file
        raise ConfigError(f"cannot build model: {exc}") from exc


def build_run(raw: dict, seed_override: int | None, base_dir: Path):
    """Resolve the effective config dict, model, and GenerationConfig."""
    config = json.loads(json.dumps(raw))  # deep copy
    if seed_override is not None:
        config["seed"] = seed_override
    fields = _fields(config, RUN_SCHEMA, "")
    model = build_model(fields.pop("model"), base_dir)
    steps = model.steps if isinstance(model, ToyDiffusion) else None
    max_steps = fields["max_steps"]
    if max_steps is None:
        max_steps = fields["max_steps"] = 40 if steps is None else steps
    elif steps not in (None, max_steps):
        raise ConfigError(f"max_steps must equal model.steps ({steps}) for a "
                          f"diffusion model, got {max_steps}")
    schedule = fields["schedule"]
    if schedule is not None:
        schedule = _fields(schedule, SCHEDULE_SCHEMA, "schedule.")
    penalty = _fields(fields["penalty"], PENALTY_SCHEMA, "penalty.")
    try:
        fields["schedule"] = (default_schedule(max_steps) if schedule is None
                              else ScheduleParams(**schedule, horizon=max_steps))
        fields["penalty"] = PenaltyConfig(**penalty)
        gen_cfg = GenerationConfig(**fields)
    except (ValueError, OverflowError) as exc:  # l0 of a huge max_steps overflows
        raise ConfigError(f"invalid config: {exc}") from exc
    return config, model, gen_cfg


def _param_spec(name: str, spec: dict) -> ParamSpec:
    """A swept parameter's {"grid": [...]} or {"min": ..., "max": ...}."""
    if "grid" in spec:
        grid = _fields(spec, GRID_SCHEMA, f"{name}.")["grid"]
        return ParamSpec(grid=tuple(_value(v, float, f"{name}.grid[{i}]")
                                    for i, v in enumerate(grid)))
    bounds = _fields(spec, RANGE_SCHEMA, f"{name}.")
    return ParamSpec(low=bounds["min"], high=bounds["max"])


def build_space(raw: dict) -> SweepSpace:
    """The sweep space a space config describes."""
    fields = _fields(raw, SPACE_SCHEMA, "")
    specs = {name: fields.pop(name) for name in PARAM_ORDER}
    try:
        return SweepSpace(params={name: _param_spec(name, spec)
                                  for name, spec in specs.items() if spec is not None},
                          **fields)
    except ValueError as exc:
        raise ConfigError(f"invalid sweep space: {exc}") from exc


def read_prompts(path: str | Path) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read prompts {path}: {exc}") from exc
    prompts = [line.strip() for line in lines if line.strip()]
    if not prompts:
        raise ConfigError(f"prompt file {path} has no prompts")
    return prompts


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _mean_of_dicts(rows: list[dict]) -> dict:
    if not rows:
        return {}
    keys = rows[0].keys()
    return {k: float(np.mean([row[k] for row in rows])) for k in keys}


# pairwise diversity metrics are undefined for single-branch runs
_SINGLE_BRANCH_NOTE = "diversity metrics need at least two branches"


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _generate_prompts(model, prompts, gen_cfg: GenerationConfig, first: int,
                      scoreable: bool) -> list[tuple]:
    """Each prompt's outputs, the prompts decoding as the lanes of one
    call; their branches are freed on return."""
    lanes = multi_branch(
        model, [None if p is None else tokenize(p, model.vocab) for p in prompts],
        [gen_cfg] * len(prompts))
    return [_prompt_outputs(model, prompt, branches, pi, scoreable)
            for pi, (prompt, branches) in enumerate(zip(prompts, lanes), first)]


def _prompt_outputs(model, prompt, branches, pi: int, scoreable: bool):
    """One prompt's (run, branch stats, trace rows, report or None)."""
    if isinstance(model, ToyDiffusion):
        run = {"latents": [b.final_latent.tolist() for b in branches]}
        report = {"pairwise_cosine_latent": mean_pairwise_cosine(
            [b.final_latent for b in branches])} if scoreable else None
    else:
        run = {"prompt": prompt,
               "texts": [detokenize(b.tokens, model.vocab) for b in branches]}
        report = diversity_report(
            [b.tokens for b in branches]).to_dict() if scoreable else None
    stats = []
    rows = []
    for bi, branch in enumerate(branches):
        stats.append({
            "prompt": pi,
            "branch": bi,
            "total_flops": branch.total_flops,
            "wall_time": branch.wall_time,
        })
        for record in branch.trace:
            row = {"prompt": pi, "branch": bi}
            row.update(record.to_dict())
            rows.append(row)
    return run, stats, rows, report


def cmd_generate(args) -> int:
    raw = _load_json(args.config, "config")
    config, model, gen_cfg = build_run(raw, args.seed, Path(args.config).parent)
    is_diffusion = isinstance(model, ToyDiffusion)
    if is_diffusion:
        prompts: list[str | None] = [None]
        if args.prompts and not args.quiet:
            print("note: diffusion runs are unconditional; prompts ignored",
                  file=sys.stderr)
    else:
        if not args.prompts:
            raise ConfigError("token models require --prompts")
        prompts = read_prompts(args.prompts)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    runs = []
    trace_rows = []
    branch_stats = []
    reports = []
    scoreable = gen_cfg.branches >= 2
    per_call = lanes_per_call(model, gen_cfg)
    for first in range(0, len(prompts), per_call):
        for run, stats, rows, report in _generate_prompts(
                model, prompts[first:first + per_call], gen_cfg, first, scoreable):
            runs.append(run)
            branch_stats.extend(stats)
            trace_rows.extend(rows)
            if report is not None:
                reports.append(report)

    branches_path = out_dir / "branches.json"
    _write_json(branches_path, {
        "kind": "diffusion" if is_diffusion else "ar",
        "runs": runs,
    })
    trace_path = out_dir / "trace.jsonl"
    with trace_path.open("w", encoding="utf-8") as fh:
        for row in trace_rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    report_path = out_dir / "report.json"
    report_obj = {
        "kind": "diffusion" if is_diffusion else "ar",
        "per_run": reports,
        "mean": _mean_of_dicts(reports),
    }
    if not scoreable:
        report_obj["note"] = _SINGLE_BRANCH_NOTE
    _write_json(report_path, report_obj)
    config_hash = canonical_hash(config)
    report_csv_path = out_dir / "report.csv"
    with report_csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "metric", "value"])
        for row in report_csv_rows(report_obj["mean"], config_hash):
            writer.writerow([row[0], row[1], repr(row[2])])
    manifest = RunManifest(
        config_hash=config_hash,
        seed=gen_cfg.seed,
        tool_version=__version__,
        created_at=_now(),
        outputs={
            "branches": branches_path.name,
            "trace": trace_path.name,
            "report": report_path.name,
            "report_csv": report_csv_path.name,
        },
        branch_stats=branch_stats,
        totals={
            "total_flops": sum(s["total_flops"] for s in branch_stats),
            "total_wall_time": sum(s["wall_time"] for s in branch_stats),
            "uag_enabled": gen_cfg.uag_enabled,
        },
    )
    _write_json(out_dir / "manifest.json", manifest.to_dict())
    if not args.quiet:
        print(f"wrote {len(runs)} run(s) to {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    raw = _load_json(args.config, "config")
    config, model, gen_cfg = build_run(raw, args.seed, Path(args.config).parent)
    if isinstance(model, ToyDiffusion):
        raise ConfigError("sweeping scores text metrics; use a token model")
    space_raw = _load_json(args.space, "sweep space")
    space = build_space(space_raw)
    prompts = read_prompts(args.prompts)
    token_prompts = [tokenize(p, model.vocab) for p in prompts]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(gen_cfg.seed)
    points = run_sweep(space, gen_cfg, model, token_prompts, rng)
    front = pareto_front(points)
    front_ids = {p.run_id for p in front}

    csv_path = out_dir / "sweep.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", "alpha", "beta", "l0", "delta",
                         "temperature", "diversity", "degeneration", "pareto"])
        for p in points:
            writer.writerow([
                p.run_id, repr(p.params["alpha"]), repr(p.params["beta"]),
                repr(p.params["l0"]), repr(p.params["delta"]),
                repr(p.params["temperature"]), repr(p.diversity),
                repr(p.degeneration), p.run_id in front_ids,
            ])
    _write_json(out_dir / "pareto.json", {
        "x": [p.diversity for p in points],
        "y": [p.degeneration for p in points],
        "front": sorted(front_ids),
    })
    outputs = {"sweep": csv_path.name, "pareto": "pareto.json"}
    try:
        best = select_best(front)
        _write_json(out_dir / "best.json", {
            "run_id": best.run_id,
            "params": best.params,
            "diversity": best.diversity,
            "degeneration": best.degeneration,
        })
        outputs["best"] = "best.json"
    except NoAdmissiblePointError as exc:
        print(f"warning: {exc}; best-point file not written", file=sys.stderr)
    manifest = RunManifest(
        config_hash=canonical_hash({"config": config, "space": space_raw}),
        seed=gen_cfg.seed,
        tool_version=__version__,
        created_at=_now(),
        outputs=outputs,
        totals={"points": len(points), "front_size": len(front)},
    )
    _write_json(out_dir / "manifest.json", manifest.to_dict())
    if not args.quiet:
        print(f"swept {len(points)} point(s); front size {len(front)}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    branches_path = run_dir / "branches.json"
    if not branches_path.exists():
        print(f"error: no branches.json in {run_dir}", file=sys.stderr)
        return 2
    data = _load_json(branches_path, "branch outputs")
    kind = data.get("kind")
    runs = data.get("runs", [])
    if not runs:
        print(f"error: {branches_path} contains no runs", file=sys.stderr)
        return 2
    reports = []
    corpora = []
    scoreable = True
    if kind == "ar":
        for run in runs:
            corpora.append(run["texts"])
            if len(run["texts"]) < 2:
                scoreable = False
            else:
                reports.append(
                    diversity_report([t.split() for t in run["texts"]]).to_dict())
    else:
        for run in runs:
            if len(run["latents"]) < 2:
                scoreable = False
            else:
                reports.append({"pairwise_cosine_latent": mean_pairwise_cosine(
                    [np.asarray(v) for v in run["latents"]])})
    if not scoreable:
        reports = []
    result = {"kind": kind, "per_run": reports, "mean": _mean_of_dicts(reports)}
    if not scoreable:
        result["note"] = _SINGLE_BRANCH_NOTE
    if args.judge:
        if kind != "ar":
            print("warning: --judge applies to text runs only; skipped",
                  file=sys.stderr)
        else:
            judge_cfg = JudgeConfig(base_url=args.judge_url,
                                    model_name=args.judge_model)
            try:
                div_scores = [judge_corpus(judge_cfg, "diversity", texts).score
                              for texts in corpora]
                deg_scores = [judge_corpus(judge_cfg, "degeneration", texts).score
                              for texts in corpora]
                result["llm_diversity"] = float(np.mean(div_scores))
                result["llm_degeneration"] = float(np.mean(deg_scores))
            except JudgeError as exc:
                print(f"warning: judge failed, offline metrics kept: {exc}",
                      file=sys.stderr)
    _write_json(run_dir / "report.eval.json", result)
    if not args.quiet:
        print(f"wrote report.eval.json for {len(runs)} run(s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uag",
        description="Multi-branch generation with gradient avoidance penalties",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate branches and metrics")
    gen.add_argument("--config", required=True, help="run config JSON")
    gen.add_argument("--prompts", help="prompt file, one per line")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--seed", type=int, help="override the config seed")
    gen.add_argument("--quiet", action="store_true")
    gen.set_defaults(func=cmd_generate)

    swp = sub.add_parser("sweep", help="hyperparameter sweep with Pareto front")
    swp.add_argument("--config", required=True, help="base run config JSON")
    swp.add_argument("--space", required=True, help="sweep space JSON")
    swp.add_argument("--prompts", required=True, help="prompt file")
    swp.add_argument("--out", required=True, help="output directory")
    swp.add_argument("--seed", type=int, help="override the config seed")
    swp.add_argument("--quiet", action="store_true")
    swp.set_defaults(func=cmd_sweep)

    ev = sub.add_parser("eval", help="recompute metrics for a finished run")
    ev.add_argument("run_dir", help="directory written by generate")
    ev.add_argument("--judge", action="store_true",
                    help="also score with the LLM judge endpoint")
    ev.add_argument("--judge-url", default="http://127.0.0.1:8080/v1",
                    help="OpenAI-compatible base URL")
    ev.add_argument("--judge-model", default="judge",
                    help="model name sent to the judge endpoint")
    ev.add_argument("--quiet", action="store_true")
    ev.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
