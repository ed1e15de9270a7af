"""Tests of the benchmark itself: inputs, oracle, mock judge and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

import run
from inputs import WORKLOADS, make_ops
from mockjudge import MockJudge
from oracle import OpFailure, check_op
from tracing import OP_SPAN, PARTS, PROBE_SPAN, Tracer
from uag import process
from uag.process import tokenize

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path):
    def files(seed, sub):
        make_ops("ar_toy", seed, tmp_path / sub, tmp_path / "out", "http://x")
        return {p.name: p.read_bytes() for p in (tmp_path / sub).iterdir()}

    assert files(7, "a") == files(7, "b")
    assert files(7, "a") != files(8, "c")


def test_prompts_mix_vocab_and_byte_fallback_words(tmp_path):
    make_ops("ar_toy", 3, tmp_path / "in", tmp_path / "out", "http://x")
    vocab = [f"w{i:03d}" for i in range(64)]
    lengths = set()
    oov = 0
    for path in sorted((tmp_path / "in").glob("prompts-*.txt")):
        for line in path.read_text(encoding="utf-8").splitlines():
            lengths.add(len(tokenize(line, vocab)))
            oov += sum(word not in vocab for word in line.split())
    assert oov > 0 and len(lengths) > 4


@pytest.fixture(scope="module")
def judge():
    with MockJudge() as server:
        yield server


def _run_op(workload, tmp_path, judge, tracer=None):
    out = tmp_path / "out"
    ops = make_ops(workload, 5, tmp_path / "in", out, judge.base_url)
    runner = run.Runner(out, judge)
    result = runner.run(ops[0], tracer)
    return ops[0], out, result


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_workload_op_passes_the_oracle(workload, tmp_path, judge):
    op, _, result = _run_op(workload, tmp_path, judge)
    assert result.ok and result.digest
    assert result.judge_attempts == (4 if workload == "ar_toy" else 0)


def _replace_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


CORRUPTIONS = {
    "missing trace": lambda d: (d / "trace.jsonl").unlink(),
    "missing manifest": lambda d: (d / "manifest.json").unlink(),
    "trace row dropped": lambda d: (d / "trace.jsonl").write_text(
        "".join((d / "trace.jsonl").read_text().splitlines(True)[:-1])),
    "unparseable report": lambda d: (d / "report.json").write_text("{"),
    "nan in report csv": lambda d: (d / "report.csv").write_text(
        (d / "report.csv").read_text() + "x,self_bleu,nan\n"),
    "nan in report": lambda d: (d / "report.json").write_text(
        (d / "report.json").read_text().replace('"self_bleu": ', '"self_bleu": NaN, "x": ', 1)),
    "token outside vocab": lambda d: _replace_json(
        d / "branches.json",
        lambda o: o["runs"][0]["texts"].__setitem__(
            0, o["runs"][0]["texts"][0].replace("w", "v", 1))),
    "eval mean differs": lambda d: _replace_json(
        d / "report.eval.json",
        lambda o: o["mean"].__setitem__("self_bleu", o["mean"]["self_bleu"] + 1e-12)),
    "judge verdict missing": lambda d: _replace_json(
        d / "report.eval.json", lambda o: o.pop("llm_diversity")),
}


def test_oracle_accepts_the_untouched_outputs(tmp_path, judge):
    op, out, _ = _run_op("ar_toy", tmp_path, judge)
    quality, digest = check_op(out, op.expect, [0, 0])
    assert set(quality) == {"self_bleu", "degeneration"} and digest


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_oracle_fails_a_corrupted_or_missing_output(name, tmp_path, judge):
    op, out, _ = _run_op("ar_toy", tmp_path, judge)
    CORRUPTIONS[name](out)
    with pytest.raises(OpFailure):
        check_op(out, op.expect, [0, 0])


def test_oracle_fails_a_nonzero_exit_code(tmp_path, judge):
    op, out, _ = _run_op("ar_toy", tmp_path, judge)
    with pytest.raises(OpFailure):
        check_op(out, op.expect, [0, 2])


def test_runner_counts_a_failed_op(tmp_path, judge):
    out = tmp_path / "out"
    op = make_ops("diffusion", 5, tmp_path / "in", out)[0]
    (tmp_path / "in" / "config.json").write_text("{}")  # exit code 1
    runner = run.Runner(out)
    assert not runner.run(op).ok and runner.failures == 1


def _post(url: str, body: bytes) -> int:
    request = urllib.request.Request(url, data=body, method="POST",
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=5) as resp:
            return resp.status
    except urllib.error.HTTPError as exc:
        return exc.code


def test_mock_judge_counts_posts_and_refusals():
    with MockJudge() as server:
        url = server.base_url + "/chat/completions"
        assert _post(url, json.dumps({"messages": [{"role": "user",
                                                    "content": "x"}]}).encode()) == 200
        assert _post(url, b"not json") == 400
        assert server.counts() == (2, 1)
    assert not server._thread.is_alive()


def test_tracing_keeps_outputs_and_accounts_for_wall_time(tmp_path, judge):
    _, _, plain = _run_op("ar_toy", tmp_path, judge)
    original = process.repulsion_gradient
    tracer = Tracer()
    tracer.install()
    try:
        _, _, traced = _run_op("ar_toy", tmp_path, judge, tracer)
    finally:
        tracer.uninstall()
    assert process.repulsion_gradient is original
    assert not tracer.missing
    assert traced.ok and traced.digest == plain.digest
    (op_times,) = tracer.self_times()
    (wall,) = tracer.op_walls()
    assert sum(s for _, s in op_times.values()) == pytest.approx(wall, rel=1e-9)
    assert op_times[OP_SPAN][1] < 0.01 * wall
    assert set(op_times) - {OP_SPAN, PROBE_SPAN} <= set(PARTS)
    counts = tracer.op_counts[0]
    assert 0 < counts["flips"] <= counts["penalized_steps"]
    assert counts["est_flops"] > 0


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail([float(i) for i in range(1, 31)]) == (pytest.approx(200 / 3), 20.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "9",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_result_line_names_every_declared_metric(workload, trace):
    done = _bench(run.ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = _bench(tmp_path, "ar_toy", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
