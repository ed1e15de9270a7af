import json
import shutil
import tracemalloc
from pathlib import Path

import pytest

from uag.cli import main

FIXTURES = Path(__file__).parent / "fixtures"


def ar_config(**overrides):
    config = {
        "model": {"kind": "toy_ar", "vocab_size": 8, "hidden_size": 4, "seed": 1},
        "schedule": {"alpha": 2.0, "beta": 1.0, "l0": 3, "delta": 0.5,
                     "kind": "logistic"},
        "temperature": 1.0,
        "max_steps": 6,
        "branches": 3,
        "seed": 0,
        "uag_enabled": True,
    }
    config.update(overrides)
    return config


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2), encoding="utf-8")
    return path


def write_prompts(path, prompts=("tell a story",)):
    path.write_text("\n".join(prompts) + "\n", encoding="utf-8")
    return path


def run_generate(tmp_path, config=None, out_name="out", extra=()):
    cfg_path = write_json(tmp_path / "config.json", config or ar_config())
    prompts = write_prompts(tmp_path / "prompts.txt")
    out = tmp_path / out_name
    code = main(["generate", "--config", str(cfg_path), "--prompts",
                 str(prompts), "--out", str(out), "--quiet", *extra])
    return code, out


def data_files(out_dir):
    """Deterministic outputs; the manifest holds the timing metadata."""
    return {name: (out_dir / name).read_bytes()
            for name in ("branches.json", "trace.jsonl", "report.json")}


class TestGenerate:
    def test_smoke_naive_run(self, tmp_path):
        code, out = run_generate(tmp_path, ar_config(uag_enabled=False))
        assert code == 0
        data = json.loads((out / "branches.json").read_text())
        assert data["kind"] == "ar"
        assert len(data["runs"][0]["texts"]) == 3
        report = json.loads((out / "report.json").read_text())
        assert "self_bleu" in report["mean"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert len(manifest["config_hash"]) == 64
        assert manifest["totals"]["total_flops"] > 0

    def test_repeat_runs_byte_identical(self, tmp_path):
        code1, out1 = run_generate(tmp_path, out_name="out1")
        code2, out2 = run_generate(tmp_path, out_name="out2")
        assert code1 == code2 == 0
        assert data_files(out1) == data_files(out2)

    def test_malformed_config_exit_1_with_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"model": {\n  "kind": }\n}', encoding="utf-8")
        prompts = write_prompts(tmp_path / "prompts.txt")
        code = main(["generate", "--config", str(bad), "--prompts",
                     str(prompts), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_zero_bank_capacity_exit_1(self, tmp_path, capsys):
        code, _ = run_generate(tmp_path, ar_config(bank_capacity=0))
        assert code == 1
        assert "bank_capacity" in capsys.readouterr().err

    def test_nan_temperature_exit_1(self, tmp_path, capsys):
        # json.dumps writes NaN, which json.loads reads back as a float
        code, _ = run_generate(tmp_path, ar_config(temperature=float("nan")))
        assert code == 1
        assert "temperature" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("uag_enabled", "false"),  # bool("false") would turn the penalty on
        ("uag_enabled", 0),
        ("branches", 2.7),  # int() would truncate it to 2
        ("branches", "3"),
        ("branches", True),
        ("max_steps", 6.5),
        ("seed", 0.5),
        ("bank_capacity", 2.5),
    ])
    def test_reinterpretable_value_exit_1(self, tmp_path, capsys, key, value):
        code, out = run_generate(tmp_path, ar_config(**{key: value}))
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_accepted(self, tmp_path):
        _, out_int = run_generate(tmp_path, out_name="int")
        code, out_float = run_generate(
            tmp_path, ar_config(branches=3.0, max_steps=6.0), out_name="float")
        assert code == 0
        assert (out_int / "branches.json").read_bytes() == \
            (out_float / "branches.json").read_bytes()

    def test_two_prompts_do_not_hold_two_prompts_of_branches(self, tmp_path):
        # At V=4096 the per-step softmax rows dominate: 5 branches x 20 steps
        # hold about 3 MB.  Keeping the first prompt's branches alive while
        # the second runs raised the 2-prompt peak from 21.0 to 23.8 MB.
        config = ar_config(model={"kind": "toy_ar", "vocab_size": 4096,
                                  "hidden_size": 256, "seed": 3},
                           branches=5, max_steps=20, bank_capacity=16)
        cfg_path = write_json(tmp_path / "config.json", config)
        peaks = []
        for n in (1, 2):
            prompts = write_prompts(tmp_path / f"prompts{n}.txt",
                                    ["the harbor town", "a last library"][:n])
            tracemalloc.start()
            try:
                assert main(["generate", "--config", str(cfg_path), "--prompts",
                             str(prompts), "--out", str(tmp_path / f"out{n}"),
                             "--quiet"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20

    def test_missing_prompts_for_token_model(self, tmp_path):
        cfg_path = write_json(tmp_path / "config.json", ar_config())
        code = main(["generate", "--config", str(cfg_path), "--out",
                     str(tmp_path / "out"), "--quiet"])
        assert code == 1

    def test_seed_override_changes_hash_and_branches(self, tmp_path):
        _, out1 = run_generate(tmp_path, out_name="a")
        _, out2 = run_generate(tmp_path, out_name="b", extra=("--seed", "99"))
        h1 = json.loads((out1 / "manifest.json").read_text())["config_hash"]
        h2 = json.loads((out2 / "manifest.json").read_text())["config_hash"]
        assert h1 != h2
        assert (out1 / "branches.json").read_bytes() != \
            (out2 / "branches.json").read_bytes()

    def test_report_csv_one_row_per_metric(self, tmp_path):
        _, out = run_generate(tmp_path)
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[0] == "config,metric,value"
        report = json.loads((out / "report.json").read_text())
        assert len(lines) - 1 == len(report["mean"])
        config_hash = json.loads((out / "manifest.json").read_text())["config_hash"]
        assert all(line.startswith(config_hash + ",") for line in lines[1:])

    def test_writes_stay_inside_out_dir(self, tmp_path):
        cfg_path = write_json(tmp_path / "config.json", ar_config())
        prompts = write_prompts(tmp_path / "prompts.txt")
        out = tmp_path / "out"
        before = {p for p in tmp_path.rglob("*")}
        code = main(["generate", "--config", str(cfg_path), "--prompts",
                     str(prompts), "--out", str(out), "--quiet"])
        assert code == 0
        created = {p for p in tmp_path.rglob("*")} - before
        assert created, "expected new files"
        assert all(p == out or out in p.parents for p in created)

    def test_trace_rows_per_branch_step(self, tmp_path):
        _, out = run_generate(tmp_path)
        rows = [json.loads(line) for line in
                (out / "trace.jsonl").read_text().splitlines()]
        assert len(rows) == 3 * 6
        assert {"prompt", "branch", "step", "loss_total", "flops"} <= rows[0].keys()

    def test_diffusion_run_writes_latents(self, tmp_path):
        config = {
            "model": {"kind": "toy_diffusion", "latent_size": 6, "steps": 8,
                      "seed": 2},
            "branches": 3,
            "seed": 0,
        }
        cfg_path = write_json(tmp_path / "config.json", config)
        out = tmp_path / "out"
        code = main(["generate", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"])
        assert code == 0
        data = json.loads((out / "branches.json").read_text())
        assert data["kind"] == "diffusion"
        assert len(data["runs"][0]["latents"]) == 3
        report = json.loads((out / "report.json").read_text())
        assert "pairwise_cosine_latent" in report["mean"]

    def test_bigram_model_from_fixture(self, tmp_path):
        shutil.copy(FIXTURES / "bigram_chain.json", tmp_path / "bigram.json")
        config = {
            "model": {"kind": "bigram", "path": "bigram.json"},
            "temperature": 0.01,
            "max_steps": 4,
            "branches": 1,
            "uag_enabled": False,
        }
        code, out = run_generate(tmp_path, config)
        assert code == 0
        data = json.loads((out / "branches.json").read_text())
        assert data["runs"][0]["texts"][0].split()[0] in {"the", "cat", "sat", "mat"}


class TestSweep:
    def sweep_args(self, tmp_path, space, config=None):
        cfg_path = write_json(tmp_path / "config.json", config or ar_config())
        space_path = write_json(tmp_path / "space.json", space)
        prompts = write_prompts(tmp_path / "prompts.txt")
        out = tmp_path / "sweep_out"
        return ["sweep", "--config", str(cfg_path), "--space", str(space_path),
                "--prompts", str(prompts), "--out", str(out), "--quiet"], out

    def test_grid_budget_four(self, tmp_path):
        space = {"sampling": "grid", "budget": 16,
                 "alpha": {"grid": [0.5, 2.0]}, "beta": {"grid": [0.5, 2.0]}}
        args, out = self.sweep_args(tmp_path, space)
        assert main(args) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("run_id,alpha,beta,l0,delta,temperature,"
                            "diversity,degeneration,pareto")
        assert len(lines) == 5
        pareto = json.loads((out / "pareto.json").read_text())
        assert len(pareto["x"]) == 4
        assert (out / "best.json").exists()

    def test_identical_csv_across_runs(self, tmp_path):
        space = {"sampling": "random", "budget": 3,
                 "alpha": {"min": 0.1, "max": 3.0}}
        args, out = self.sweep_args(tmp_path, space)
        assert main(args) == 0
        first = (out / "sweep.csv").read_bytes()
        assert main(args) == 0
        assert (out / "sweep.csv").read_bytes() == first

    def test_all_degenerate_points_warn_without_best(self, tmp_path, capsys):
        # a deterministic bigram loop at 48 steps repeats 4 bigrams,
        # putting repetition above the 0.9 admissibility cap
        shutil.copy(FIXTURES / "bigram_chain.json", tmp_path / "bigram.json")
        config = {
            "model": {"kind": "bigram", "path": "bigram.json"},
            "temperature": 0.01,
            "max_steps": 48,
            "branches": 2,
            "uag_enabled": False,
        }
        space = {"sampling": "grid", "budget": 1}
        args, out = self.sweep_args(tmp_path, space, config)
        code = main(args)
        err = capsys.readouterr().err
        assert code == 0
        assert not (out / "best.json").exists()
        assert "degeneration" in err

    def test_diffusion_config_rejected(self, tmp_path):
        config = {"model": {"kind": "toy_diffusion", "latent_size": 4,
                            "steps": 5}}
        space = {"sampling": "grid", "budget": 1}
        args, _ = self.sweep_args(tmp_path, space, config)
        assert main(args) == 1


class TestEval:
    def test_recomputation_matches_generate_report(self, tmp_path):
        _, out = run_generate(tmp_path)
        assert main(["eval", str(out), "--quiet"]) == 0
        original = json.loads((out / "report.json").read_text())
        recomputed = json.loads((out / "report.eval.json").read_text())
        assert recomputed["per_run"] == original["per_run"]
        assert recomputed["mean"] == original["mean"]

    def test_empty_directory_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["eval", str(empty)]) == 2
        assert "branches.json" in capsys.readouterr().err

    def test_judge_appends_llm_fields(self, tmp_path, judge_server):
        judge_server.set_script([
            (200, '{"diversity_score": 0.8, "justification": "varied"}'),
            (200, '{"score": 0.1, "reason": "clean"}'),
        ])
        _, out = run_generate(tmp_path)
        code = main(["eval", str(out), "--judge", "--judge-url",
                     judge_server.base_url, "--quiet"])
        assert code == 0
        report = json.loads((out / "report.eval.json").read_text())
        assert report["llm_diversity"] == 0.8
        assert report["llm_degeneration"] == 0.1

    def test_judge_failure_keeps_offline_metrics(self, tmp_path, judge_server,
                                                 capsys):
        judge_server.set_script([(500, "down")])
        _, out = run_generate(tmp_path)
        code = main(["eval", str(out), "--judge", "--judge-url",
                     judge_server.base_url, "--quiet"])
        assert code == 0
        assert "judge failed" in capsys.readouterr().err
        report = json.loads((out / "report.eval.json").read_text())
        assert "llm_diversity" not in report
        assert "self_bleu" in report["mean"]

    def test_diffusion_eval(self, tmp_path):
        config = {
            "model": {"kind": "toy_diffusion", "latent_size": 6, "steps": 8},
            "branches": 3,
        }
        cfg_path = write_json(tmp_path / "config.json", config)
        out = tmp_path / "out"
        assert main(["generate", "--config", str(cfg_path), "--out", str(out),
                     "--quiet"]) == 0
        assert main(["eval", str(out), "--quiet"]) == 0
        original = json.loads((out / "report.json").read_text())
        recomputed = json.loads((out / "report.eval.json").read_text())
        assert recomputed["mean"] == pytest.approx(original["mean"])
