"""Batch command-line driver: generate, sweep, and eval.

All commands are non-interactive, write only inside the requested output
directory, and are reproducible byte-for-byte under a fixed seed (the
manifest's timestamp and wall time are the only varying fields).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

import numpy as np

from . import __version__
from .judge_client import JUDGE_KINDS, JudgeConfig, JudgeError, judge_corpus
from .metrics import diversity_report, mean_pairwise_cosine
from .penalty import DEFAULT_EPSILON, UagStepRecord, max_weight
from .process import (
    DEFAULT_TEMPERATURE,
    BigramModel,
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    detokenize,
    multi_branch,
    tokenize,
)
from .schedule import SCHEDULE_KINDS, ScheduleParams, default_schedule
from .sweep import (
    DEFAULT_MAX_DEGEN,
    PARAM_ORDER,
    SAMPLING_MODES,
    ParamSpec,
    SweepSpace,
    pareto_front,
    run_sweep,
    select_best,
)

REQUIRED = object()  # the schema default of a key that must be present

# One schema per config section: each key's kind (a type, a tuple of the
# strings it takes, or [kind] for an array of that kind) and its default.
# A None default leaves the value to build_run, which works it out.
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
# Each model kind's class and the schema of its section's other keys.
MODELS = {
    "toy_ar": (ToyArModel, {"vocab_size": (int, 64), "hidden_size": (int, 32),
                            "seed": (int, 0)}),
    "toy_diffusion": (ToyDiffusion, {"latent_size": (int, 16), "steps": (int, 50),
                                     "seed": (int, 0)}),
    "bigram": (BigramModel, {"path": (str, REQUIRED)}),  # a BIGRAM_SCHEMA file
}
MODEL_KINDS = tuple(MODELS)
MODEL_SCHEMAS = {kind: {"kind": (MODEL_KINDS, REQUIRED), **schema}
                 for kind, (_, schema) in MODELS.items()}
BIGRAM_SCHEMA = {"vocab": (list, REQUIRED), "bigram": ([[float]], REQUIRED)}
SCHEDULE_SCHEMA = {"alpha": (float, REQUIRED), "beta": (float, REQUIRED),
                   "l0": (float, REQUIRED), "delta": (float, REQUIRED),
                   "kind": (SCHEDULE_KINDS, "logistic")}
# Each penalty is the max similarity over its bank; the *_aggregation
# keys that configs set say so, and take no other value.
AGGREGATION_KEYS = ("local_aggregation", "global_aggregation")
PENALTY_SCHEMA = {"epsilon": (float, DEFAULT_EPSILON),
                  **dict.fromkeys(AGGREGATION_KEYS, (("max",), "max"))}
SPACE_SCHEMA = {**dict.fromkeys(PARAM_ORDER, (dict, None)),
                "sampling": (SAMPLING_MODES, "grid"), "budget": (int, 1)}
GRID_SCHEMA = {"grid": ([float], REQUIRED)}
RANGE_SCHEMA = {"min": (float, REQUIRED), "max": (float, REQUIRED)}
# branches.json as generate writes it, and each kind's runs
BRANCHES_SCHEMA = {"kind": (("ar", "diffusion"), REQUIRED), "runs": ([dict], REQUIRED)}
RUN_SCHEMAS = {"ar": {"prompt": (str, None), "texts": ([str], REQUIRED)},
               "diffusion": {"latents": ([[float]], REQUIRED)}}
_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number",
               str: "a string", list: "a JSON array", dict: "a JSON object"}


class ConfigError(Exception):
    """Invalid or unreadable run configuration (exit code 1)."""


def canonical_hash(config: dict) -> str:
    """Stable digest of the canonicalized (sorted, compact) JSON config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_json(path: str | Path, what: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc

    def unique_keys(pairs):  # json.loads would keep a repeated key's last value
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ConfigError(f"duplicate key {json.dumps(key)} in {what} {path}")
            obj[key] = value
        return obj

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed {what} {path}: line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} must contain a JSON object")
    return raw


def _checked(path: Path, what: str, check):
    """check(raw) of the JSON object in path; check's ConfigError names the file."""
    raw = _load_json(path, what)
    try:
        return check(raw)
    except ConfigError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from exc


def _value(v, kind, path: str):
    """v if it is already of the kind, else a ConfigError naming path.

    A bool is no number.  An int kind takes integral numbers (3 or 3.0),
    a float kind finite ones that a float holds exactly; either comes
    back as that kind.  A tuple kind takes one of its strings; a [kind]
    takes an array, and names a bad element by its index.
    """
    if isinstance(kind, tuple):
        if v in kind:
            return v
        raise ConfigError(f"{path} must be one of {json.dumps(list(kind))}, got {json.dumps(v)}")
    if isinstance(kind, list):
        if isinstance(v, list):
            return [_value(x, kind[0], f"{path}[{i}]") for i, x in enumerate(v)]
        kind = list
    elif kind is int or kind is float:
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
    kind = _value(model_cfg.get("kind"), MODEL_KINDS, "model.kind")
    fields = _fields(model_cfg, MODEL_SCHEMAS[kind], "model.")
    del fields["kind"]
    if kind == "bigram":
        fields = _checked(base_dir / fields.pop("path"), "bigram table",
                          lambda raw: _fields(raw, BIGRAM_SCHEMA, ""))
    try:
        return MODELS[kind][0](**fields)
    except ValueError as exc:  # bad sizes or bigram table
        raise ConfigError(f"cannot build model: {exc}") from exc


def _check_weight(value: float, path: str, model) -> None:
    """A ConfigError naming path unless value is at most the largest
    schedule weight for the model's outputs (penalty.max_weight)."""
    dim = model.latent_size if isinstance(model, ToyDiffusion) else model.vocab_size
    if value > max_weight(dim):
        raise ConfigError(f"{path} must be at most {max_weight(dim)!r} for a model "
                          f"with {dim} outputs, got {value!r}")


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
    if steps is not None and "temperature" in config:
        raise ConfigError("temperature is a token-model key; a toy_diffusion model "
                          "samples no tokens")
    schedule = fields["schedule"]
    if schedule is not None:
        schedule = _fields(schedule, SCHEDULE_SCHEMA, "schedule.")
        for key in ("alpha", "beta"):
            _check_weight(schedule[key], f"schedule.{key}", model)
    penalty = _fields(fields.pop("penalty"), PENALTY_SCHEMA, "penalty.")
    try:
        fields["schedule"] = (default_schedule(max_steps) if schedule is None
                              else ScheduleParams(**schedule))
        gen_cfg = GenerationConfig(**fields, epsilon=penalty["epsilon"])
    except (ValueError, OverflowError) as exc:  # l0 of a huge max_steps overflows
        raise ConfigError(f"invalid config: {exc}") from exc
    return config, model, gen_cfg


def _param_spec(name: str, spec: dict) -> ParamSpec:
    """A swept parameter's {"grid": [...]} or {"min": ..., "max": ...}."""
    try:
        if "grid" in spec:
            return ParamSpec(grid=tuple(_fields(spec, GRID_SCHEMA, f"{name}.")["grid"]))
        bounds = _fields(spec, RANGE_SCHEMA, f"{name}.")
        return ParamSpec(low=bounds["min"], high=bounds["max"])
    except ValueError as exc:  # ParamSpec's message starts with the key: "min must be <= max"
        raise ConfigError(f"{name}.{exc}") from exc


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read prompts {path}: {exc}") from exc
    prompts = [line.strip() for line in lines if line.strip()]
    if not prompts:
        raise ConfigError(f"prompt file {path} has no prompts")
    return prompts


# every file generate, sweep or eval writes into a run directory
_RUN_FILES = ("manifest.json", "branches.json", "trace.jsonl", "report.json", "report.csv",
              "report.eval.json", "sweep.csv", "pareto.json", "best.json")


def _out_dir(path: str) -> Path:
    """The created output directory, without any file an earlier run of
    any command wrote there.

    The manifest is written last, so until this run writes its own the
    directory does not read as a finished run; an output this run does
    not write is not left beside the ones it does.
    """
    out_dir = Path(path)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in _RUN_FILES:
        (out_dir / name).unlink(missing_ok=True)
    return out_dir


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n",
                    encoding="utf-8")


def _write_manifest(out_dir: Path, config_hash: str, seed: int, outputs: dict,
                    **fields) -> None:
    """Write manifest.json, the provenance record of a command's outputs.

    It is written last, so a directory that has one holds every output
    it lists.
    """
    _write_json(out_dir / "manifest.json", {
        "config_hash": config_hash, "seed": seed, "tool_version": __version__,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "outputs": outputs, **fields})


def _report(kind: str, runs) -> dict:
    """The {kind, per_run, mean[, note]} report of the runs that
    branches.json holds: the words of each "ar" run's texts, the final
    latents of any other."""
    samples = ([[text.split() for text in run["texts"]] for run in runs] if kind == "ar"
               else [run["latents"] for run in runs])
    if any(len(run) < 2 for run in samples):  # pairwise metrics need two
        return {"kind": kind, "per_run": [], "mean": {},
                "note": "diversity metrics need at least two branches"}
    per_run = ([diversity_report(run) for run in samples] if kind == "ar" else
               [{"pairwise_cosine_latent": mean_pairwise_cosine(run)} for run in samples])
    return {"kind": kind, "per_run": per_run,
            "mean": {k: float(np.mean([r[k] for r in per_run])) for k in per_run[0]}}


# One trace.jsonl row, formatted from (prompt, branch, *record): the bytes
# json.dumps({"prompt": ..., "branch": ..., **record._asdict()},
# sort_keys=True) writes, as "{}" of a float is its repr, which json writes.
_TRACE_ROW = "{{%s}}\n" % ", ".join(
    f'"{key}": {{{i}}}' for key, i in
    sorted((key, i) for i, key in enumerate(("prompt", "branch", *UagStepRecord._fields))))


def _trace_rows(lanes) -> str:
    """trace.jsonl's text for multi_branch's lanes; a non-finite value,
    which strict JSON has no form for, is a ValueError."""
    text = "".join([_TRACE_ROW.format(pi, bi, *record)
                    for pi, branches in enumerate(lanes)
                    for bi, branch in enumerate(branches) for record in branch.trace])
    # a finite number's repr holds no letter but e; the keys hold no
    # "inf" or "nan", so these are exactly the non-finite values
    if "inf" in text or "nan" in text:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


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

    start = time.perf_counter()
    lanes = multi_branch(
        model, [None if p is None else tokenize(p, model.vocab) for p in prompts],
        [gen_cfg] * len(prompts))
    wall_time = time.perf_counter() - start
    kind = "diffusion" if is_diffusion else "ar"
    if is_diffusion:
        runs = [{"latents": [b.final_latent.tolist() for b in branches]}
                for branches in lanes]
    else:
        runs = [{"prompt": prompt,
                 "texts": [detokenize(b.tokens, model.vocab) for b in branches]}
                for prompt, branches in zip(prompts, lanes)]
    report = _report(kind, runs)
    config_hash = canonical_hash(config)

    outputs = {"branches": "branches.json", "trace": "trace.jsonl", "report": "report.json",
               "report_csv": "report.csv"}
    out_dir = _out_dir(args.out)
    _write_json(out_dir / "branches.json", {"kind": kind, "runs": runs})
    (out_dir / "trace.jsonl").write_text(_trace_rows(lanes), encoding="utf-8")
    _write_json(out_dir / "report.json", report)
    with (out_dir / "report.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "metric", "value"])
        for name, value in sorted(report["mean"].items()):
            writer.writerow([config_hash, name, repr(value)])
    branch_stats = [{"prompt": pi, "branch": bi, "total_flops": branch.total_flops}
                    for pi, branches in enumerate(lanes)
                    for bi, branch in enumerate(branches)]
    _write_manifest(
        out_dir, config_hash, gen_cfg.seed, outputs, branch_stats=branch_stats,
        totals={"total_flops": sum(s["total_flops"] for s in branch_stats),
                "total_wall_time": wall_time, "uag_enabled": gen_cfg.uag_enabled})
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
    for name in ("alpha", "beta"):
        spec = space.params.get(name)
        if spec is not None:
            _check_weight(spec.highest(), f"{name}.{'max' if spec.grid is None else 'grid'}",
                          model)
    prompts = read_prompts(args.prompts)
    token_prompts = [tokenize(p, model.vocab) for p in prompts]

    rng = np.random.default_rng(gen_cfg.seed)
    points = run_sweep(space, gen_cfg, model, token_prompts, rng)
    front = pareto_front(points)
    front_ids = {p.run_id for p in front}

    out_dir = _out_dir(args.out)
    with (out_dir / "sweep.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["run_id", *PARAM_ORDER, "diversity", "degeneration", "pareto"])
        for p in points:
            writer.writerow([p.run_id, *(repr(p.params[name]) for name in PARAM_ORDER),
                             repr(p.diversity), repr(p.degeneration),
                             p.run_id in front_ids])
    _write_json(out_dir / "pareto.json", {
        "x": [p.diversity for p in points],
        "y": [p.degeneration for p in points],
        "front": sorted(front_ids),
    })
    outputs = {"sweep": "sweep.csv", "pareto": "pareto.json"}
    best = select_best(front)
    if best is None:
        print(f"warning: every front point has degeneration > {DEFAULT_MAX_DEGEN}; "
              "best-point file not written", file=sys.stderr)
    else:
        _write_json(out_dir / "best.json", vars(best))
        outputs["best"] = "best.json"
    _write_manifest(out_dir, canonical_hash({"config": config, "space": space_raw}),
                    gen_cfg.seed, outputs, branch_stats=[],
                    totals={"points": len(points), "front_size": len(front)})
    if not args.quiet:
        print(f"swept {len(points)} point(s); front size {len(front)}")
    return 0


def _branch_runs(raw: dict) -> tuple[str, list[dict]]:
    """The kind and the runs of a branches.json object, checked against
    BRANCHES_SCHEMA and RUN_SCHEMAS; each text must hold a word, and a
    run's latents must be nonempty and of one length."""
    kind, runs = _fields(raw, BRANCHES_SCHEMA, "").values()
    if not runs:
        raise ConfigError("runs must be nonempty")
    runs = [_fields(run, RUN_SCHEMAS[kind], f"runs[{i}].") for i, run in enumerate(runs)]
    for i, run in enumerate(runs):
        for j, text in enumerate(run.get("texts", [])):
            if not text.split():
                raise ConfigError(f"runs[{i}].texts[{j}] must hold a word, got {json.dumps(text)}")
        for j, z in enumerate(run.get("latents", [])):
            if not 0 < len(z) == len(run["latents"][0]):
                raise ConfigError(f"runs[{i}].latents[{j}] must hold one or more numbers, "
                                  f"as many as runs[{i}].latents[0], got {len(z)}")
    return kind, runs


def cmd_eval(args) -> int:
    if args.judge:  # a bad --judge-url is a bad flag, whatever the run holds
        try:  # urlsplit raises ValueError too, as on a malformed IPv6 host,
            url = urlsplit(args.judge_url)
            url.port  # and .port on a port that is not a number in 0-65535
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError("not an http or https URL with a host")
        except ValueError as exc:
            raise ConfigError(f"invalid --judge-url {args.judge_url}: {exc}") from exc
    run_dir = Path(args.run_dir)
    try:  # missing, cut short (as a crash leaves them; generate writes the manifest
        # last) or not of generate's form, these files are a runtime fault, not a bad config
        kind, runs = _checked(run_dir / "branches.json", "branch outputs", _branch_runs)
        outputs = _checked(run_dir / "manifest.json", "manifest", lambda raw: _value(
            raw.get("outputs", {}), dict, "outputs")).values()
    except ConfigError as exc:
        raise RuntimeError(exc) from exc
    missing = [name for name in outputs if not (run_dir / name).exists()]
    if missing:  # the run did not finish writing what its manifest lists
        raise RuntimeError(f"{run_dir} lacks {', '.join(missing)}, listed in its manifest")
    result = _report(kind, runs)
    if args.judge:
        if kind != "ar":
            print("warning: --judge applies to text runs only; skipped",
                  file=sys.stderr)
        else:
            judge_cfg = JudgeConfig(base_url=args.judge_url, model_name=args.judge_model)
            try:  # every verdict before any llm_* field
                result.update({f"llm_{name}": float(np.mean(
                    [judge_corpus(judge_cfg, name, run["texts"]) for run in runs]))
                    for name in JUDGE_KINDS})
            except JudgeError as exc:
                print(f"warning: judge failed, offline metrics kept: {exc}",
                      file=sys.stderr)
    _write_json(run_dir / "report.eval.json", result)
    if not args.quiet:
        print(f"wrote report.eval.json for {len(runs)} run(s)")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and kept."""
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

    swp = sub.add_parser("sweep", help="hyperparameter sweep with Pareto front")
    swp.add_argument("--config", required=True, help="base run config JSON")
    swp.add_argument("--space", required=True, help="sweep space JSON")
    swp.add_argument("--prompts", required=True, help="prompt file")
    swp.add_argument("--out", required=True, help="output directory")
    swp.add_argument("--seed", type=int, help="override the config seed")
    swp.add_argument("--quiet", action="store_true")

    ev = sub.add_parser("eval", help="recompute metrics for a finished run")
    ev.add_argument("run_dir", help="directory written by generate")
    ev.add_argument("--judge", action="store_true",
                    help="also score with the LLM judge endpoint")
    ev.add_argument("--judge-url", default="http://127.0.0.1:8080/v1",
                    help="OpenAI-compatible base URL")
    ev.add_argument("--judge-model", default="judge",
                    help="model name sent to the judge endpoint")
    ev.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # looked up per call, so a cmd_* replaced after the first call is the one run
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
