"""CLI outputs on the shipped configs, against fixtures from earlier code.

ar_branches.json, diffusion_branches.json and sweep.csv in
fixtures/golden were written by uag 0.1.0 before the penalties moved to
stacked-array banks; the ar_report.* files were written before the
metrics moved to count-once and bit-parallel kernels; the *_4x4 files,
the sweep of the full shipped space, before decoding became step-major:

    uag generate --config configs/toy_ar.json --prompts configs/prompts.txt
    uag eval <that output directory>
    uag generate --config configs/toy_diffusion.json
    uag sweep --config configs/toy_ar.json --space fixtures/golden/space_2x2.json \
        --prompts configs/prompts.txt
    uag sweep --config configs/toy_ar.json --space configs/space.json \
        --prompts configs/prompts.txt

Token outputs and reports must match byte for byte; diffusion latents
to 1e-12.
"""

import json
from pathlib import Path

import numpy as np

from uag.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN = Path(__file__).parent / "fixtures" / "golden"


def _run(*argv):
    assert main([*map(str, argv), "--quiet"]) == 0


def test_ar_branches_are_byte_identical(tmp_path):
    _run("generate", "--config", CONFIGS / "toy_ar.json",
         "--prompts", CONFIGS / "prompts.txt", "--out", tmp_path)
    assert (tmp_path / "branches.json").read_bytes() == \
        (GOLDEN / "ar_branches.json").read_bytes()


def test_ar_reports_are_byte_identical(tmp_path):
    _run("generate", "--config", CONFIGS / "toy_ar.json",
         "--prompts", CONFIGS / "prompts.txt", "--out", tmp_path)
    _run("eval", tmp_path)
    for name in ("report.json", "report.csv", "report.eval.json"):
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / f"ar_{name}").read_bytes(), name


def test_sweep_csv_is_byte_identical(tmp_path):
    _run("sweep", "--config", CONFIGS / "toy_ar.json",
         "--space", GOLDEN / "space_2x2.json",
         "--prompts", CONFIGS / "prompts.txt", "--out", tmp_path)
    assert (tmp_path / "sweep.csv").read_bytes() == (GOLDEN / "sweep.csv").read_bytes()


def test_full_space_sweep_is_byte_identical(tmp_path):
    # 16 points whose lanes differ in alpha and beta, decoded side by side
    _run("sweep", "--config", CONFIGS / "toy_ar.json", "--space", CONFIGS / "space.json",
         "--prompts", CONFIGS / "prompts.txt", "--out", tmp_path)
    for name in ("sweep.csv", "pareto.json", "best.json"):
        stem, ext = name.split(".")
        assert (tmp_path / name).read_bytes() == \
            (GOLDEN / f"{stem}_4x4.{ext}").read_bytes(), name


def test_diffusion_latents_match(tmp_path):
    _run("generate", "--config", CONFIGS / "toy_diffusion.json", "--out", tmp_path)
    got = json.loads((tmp_path / "branches.json").read_text())
    want = json.loads((GOLDEN / "diffusion_branches.json").read_text())
    assert got["kind"] == want["kind"] == "diffusion"
    assert len(got["runs"]) == len(want["runs"])
    for run, ref in zip(got["runs"], want["runs"]):
        np.testing.assert_allclose(run["latents"], ref["latents"], rtol=0, atol=1e-12)
