"""Per-op correctness oracle.

An op fails unless every CLI command exited 0 and its output directory
holds what the Expect record says: every output the manifest lists
exists and parses, every number is finite, every token is in the vocab,
trace.jsonl has prompts x branches x steps rows, and `eval` reproduces
`generate`'s mean metrics exactly.  check_op returns the op's quality
figures and a digest of its data files, so the caller can require every
run of an op to reproduce the same bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from contextlib import suppress
from pathlib import Path

from inputs import Expect
from mockjudge import VERDICT_SCORE

GENERATE_OUTPUTS = {"branches", "trace", "report", "report_csv"}
SWEEP_OUTPUTS = {"sweep", "pareto"}
# Files whose bytes must repeat on every run of the same op.  The
# manifest is left out: it records timestamps and wall times.
DATA_FILES = ("branches.json", "trace.jsonl", "report.json",
              "report.eval.json", "sweep.csv", "pareto.json", "best.json")


class OpFailure(Exception):
    """An op's exit codes or outputs are wrong."""


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise OpFailure(f"non-finite number {text}")
    return value


def _reject_constant(name: str):
    raise OpFailure(f"non-finite number {name}")


def _parse_json(text: str, where: str):
    try:
        return json.loads(text, parse_float=_finite,
                          parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise OpFailure(f"{where} does not parse: {exc}") from exc


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise OpFailure(f"missing output {path.name}: {exc}") from exc


def load_output(path: Path):
    """Parse one output file by its extension; numbers must be finite."""
    text = _read(path)
    if path.suffix == ".jsonl":
        return [_parse_json(line, f"{path.name}:{i + 1}")
                for i, line in enumerate(text.splitlines())]
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines()))
        if not rows:
            raise OpFailure(f"{path.name} is empty")
        header, body = rows[0], rows[1:]
        if any(len(row) != len(header) for row in body):
            raise OpFailure(f"{path.name} has ragged rows")
        for cell in (cell for row in body for cell in row):
            with suppress(ValueError):
                _finite(cell)
        return [dict(zip(header, row)) for row in body]
    return _parse_json(text, path.name)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OpFailure(message)


def _check_manifest(out_dir: Path, required: set[str]) -> dict:
    manifest = load_output(out_dir / "manifest.json")
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    _require(isinstance(outputs, dict) and required <= outputs.keys(),
             f"manifest lists {sorted(outputs or {})}, needs {sorted(required)}")
    return {key: load_output(out_dir / name) for key, name in outputs.items()}


def _vocab(size: int) -> set[str]:
    # ToyArModel's default vocab
    return {f"w{i:03d}" for i in range(size)}


def _check_generate(out_dir: Path, expect: Expect) -> dict:
    files = _check_manifest(out_dir, GENERATE_OUTPUTS)
    branches, trace, report = files["branches"], files["trace"], files["report"]
    _require(branches.get("kind") == expect.kind == report.get("kind"),
             f"kind {branches.get('kind')!r}, expected {expect.kind!r}")
    runs = branches.get("runs", [])
    _require(len(runs) == expect.prompts,
             f"{len(runs)} runs, expected {expect.prompts}")
    if expect.kind == "ar":
        vocab = _vocab(expect.vocab_size)
        for run in runs:
            texts = run["texts"]
            _require(len(texts) == expect.branches,
                     f"{len(texts)} branches, expected {expect.branches}")
            for text in texts:
                words = text.split()
                _require(len(words) == expect.steps,
                         f"{len(words)} tokens, expected {expect.steps}")
                _require(vocab.issuperset(words), "token outside the vocab")
    else:
        for run in runs:
            latents = run["latents"]
            _require(len(latents) == expect.branches,
                     f"{len(latents)} latents, expected {expect.branches}")
            _require(all(len(z) == len(latents[0]) > 0 for z in latents),
                     "latents differ in size")
    rows = expect.prompts * expect.branches * expect.steps
    _require(len(trace) == rows, f"trace has {len(trace)} rows, expected {rows}")
    mean = report.get("mean")
    _require(isinstance(mean, dict) and len(report.get("per_run", [])) == expect.prompts,
             "report lacks per-run metrics")
    if expect.judged:
        evaluated = load_output(out_dir / "report.eval.json")
        _require(evaluated.get("mean") == mean,
                 "eval mean differs from generate mean")
        for key in ("llm_diversity", "llm_degeneration"):
            _require(evaluated.get(key) == VERDICT_SCORE,
                     f"report.eval.json {key} is not the judge's verdict")
    if expect.kind == "ar":
        return {"self_bleu": mean["self_bleu"], "degeneration": mean["degeneration"]}
    return {"latent_cos": mean["pairwise_cosine_latent"]}


def _check_sweep(out_dir: Path, expect: Expect) -> dict:
    files = _check_manifest(out_dir, SWEEP_OUTPUTS)
    points, pareto = files["sweep"], files["pareto"]
    _require(len(points) == expect.points,
             f"{len(points)} sweep points, expected {expect.points}")
    diversity = [_finite(p["diversity"]) for p in points]
    degeneration = [_finite(p["degeneration"]) for p in points]
    _require(all(0.0 <= v <= 1.0 for v in diversity + degeneration),
             "sweep objective outside [0, 1]")
    _require(pareto["x"] == diversity and pareto["y"] == degeneration,
             "pareto.json disagrees with sweep.csv")
    _require(set(pareto["front"]) <= set(range(expect.points)),
             "pareto front names an unknown point")
    return {"self_bleu": 1.0 - sum(diversity) / len(diversity),
            "degeneration": sum(degeneration) / len(degeneration)}


def digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for name in DATA_FILES:
        path = out_dir / name
        if path.exists():
            h.update(name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_op(out_dir: Path, expect: Expect, exit_codes: list[int]) -> tuple[dict, str]:
    """Raise OpFailure unless the op succeeded; else (quality, digest)."""
    _require(all(code == 0 for code in exit_codes), f"exit codes {exit_codes}")
    try:
        if expect.command == "sweep":
            quality = _check_sweep(out_dir, expect)
        else:
            quality = _check_generate(out_dir, expect)
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise OpFailure(f"malformed output: {exc!r}") from exc
    return quality, digest(out_dir)
