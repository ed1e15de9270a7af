"""CLI outputs on the shipped configs, against fixtures from earlier code.

The token fixtures, ar_branches.json, ar_report.*, ar_trace.jsonl,
sweep.csv and the *_4x4 files of the full shipped space, were written
after every penalty became the max similarity over its bank, when the
token local gradient stopped being the bank mean.  The diffusion
fixtures, diffusion_branches.json and diffusion_trace.jsonl, were
written after the latent cosine kernel took its query norms with the
bank norms' reduction.  They were made by:

    uag generate --config configs/toy_ar.json --prompts configs/prompts.txt
    uag eval <that output directory>
    uag generate --config configs/toy_diffusion.json
    uag sweep --config configs/toy_ar.json --space fixtures/golden/space_2x2.json \
        --prompts configs/prompts.txt
    uag sweep --config configs/toy_ar.json --space configs/space.json \
        --prompts configs/prompts.txt

Token outputs and reports must match byte for byte; diffusion latents
to 1e-13.  Trace records must match in prompt, branch, step and flops
exactly and in every float to 1e-13.  Across OpenBLAS kernels (default,
Prescott, Haswell, Nehalem, SkylakeX) the outputs spread by at most
7.11e-15 in the latents and 2.66e-15 in the trace floats.
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
        np.testing.assert_allclose(run["latents"], ref["latents"], rtol=0, atol=1e-13)


def _assert_trace_matches(got_path, want_path):
    got = [json.loads(line) for line in got_path.read_text().splitlines()]
    want = [json.loads(line) for line in want_path.read_text().splitlines()]
    assert len(got) == len(want)
    exact = ("prompt", "branch", "step", "flops")
    for g, w in zip(got, want):
        assert g.keys() == w.keys()
        assert [g[k] for k in exact] == [w[k] for k in exact]
        floats = sorted(w.keys() - set(exact))
        np.testing.assert_allclose([g[k] for k in floats], [w[k] for k in floats],
                                   rtol=0, atol=1e-13, err_msg=str(w))


def test_ar_trace_matches(tmp_path):
    _run("generate", "--config", CONFIGS / "toy_ar.json",
         "--prompts", CONFIGS / "prompts.txt", "--out", tmp_path)
    _assert_trace_matches(tmp_path / "trace.jsonl", GOLDEN / "ar_trace.jsonl")


def test_diffusion_trace_matches(tmp_path):
    _run("generate", "--config", CONFIGS / "toy_diffusion.json", "--out", tmp_path)
    _assert_trace_matches(tmp_path / "trace.jsonl", GOLDEN / "diffusion_trace.jsonl")
