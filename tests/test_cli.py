import json
import math
import shutil
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uag import process
from uag.cli import (
    MODEL_SCHEMAS,
    PENALTY_SCHEMA,
    RUN_SCHEMA,
    SCHEDULE_SCHEMA,
    SPACE_SCHEMA,
    ConfigError,
    build_run,
    build_space,
    main,
)
from uag.process import ToyArModel, ToyDiffusion

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


def written(config, path, value):
    """A copy of config with value at the key path (a list index may be
    one step of it), sections made as needed."""
    config = json.loads(json.dumps(config))
    *outer, key = path
    section = config
    for name in outer:
        section = section.setdefault(name, {})
    section[key] = value
    return config


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
        ("schedule.alpha", True),  # float(True) would run with alpha = 1.0
        ("temperature", "0.1"),
        ("penalty.epsilon", "1e-5"),
        ("model.vocab_size", 16.7),
        ("penalty.epsilon", math.inf),  # would switch the penalty off
        ("schedule.l0", math.nan),  # used to fail mid-run with exit 2
        ("seed", -1),  # default_rng refuses it mid-run
    ])
    def test_reinterpretable_value_exit_1(self, tmp_path, capsys, key, value):
        code, out = run_generate(tmp_path, written(ar_config(), key.split("."), value))
        assert code == 1
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,path", [
        (lambda c: c.update(temprature=5.0), "temprature"),
        (lambda c: c["model"].update(vocab=8), "model.vocab"),
        (lambda c: c["model"].update(latent_size=4), "model.latent_size"),
        (lambda c: c["schedule"].update(alhpa=1.0), "schedule.alhpa"),
        (lambda c: c.update(penalty={"epsilon": 1e-5, "aggregation": "max"}),
         "penalty.aggregation"),
        (lambda c: c["schedule"].update(delta=-0.5), "schedule.delta"),
        (lambda c: c["schedule"].update(horizon=3), "schedule.horizon"),
        (lambda c: c.update(penalty={"sim_local": "cosine"}), "penalty.sim_local"),
        (lambda c: c.update(model={"kind": "toy_diffusion", "latent_size": 4,
                                   "steps": 5}), "max_steps"),
    ], ids=["top", "model", "model_of_other_kind", "schedule", "penalty",
            "negative_delta", "horizon", "sim_local", "diffusion_max_steps"])
    def test_unknown_key_or_negative_delta_exit_1(self, tmp_path, capsys, edit, path):
        config = ar_config()
        edit(config)
        code, out = run_generate(tmp_path, config)
        assert code == 1
        assert path in capsys.readouterr().err
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

    def test_peak_memory_does_not_grow_with_the_prompt_count(self, tmp_path):
        # 7 lanes per call here: 7 prompts decode in one call, 28 in four;
        # decoding all 28 in one call would raise the peak by about 3 MB
        config = ar_config(model={"kind": "toy_ar", "vocab_size": 1024,
                                  "hidden_size": 64, "seed": 3},
                           branches=4, max_steps=6)
        cfg_path = write_json(tmp_path / "config.json", config)
        peaks = []
        for n in (7, 7, 28):  # the first run warms up
            prompts = write_prompts(tmp_path / f"prompts{n}.txt",
                                    [f"prompt number {i}" for i in range(n)])
            tracemalloc.start()
            try:
                assert main(["generate", "--config", str(cfg_path), "--prompts",
                             str(prompts), "--out", str(tmp_path / f"out{n}"),
                             "--quiet"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[2] <= peaks[1] + 2**20

    def test_prompts_split_across_calls_write_the_same_outputs(self, tmp_path,
                                                               monkeypatch):
        cfg_path = write_json(tmp_path / "config.json",
                              ar_config(branches=3, max_steps=5))
        prompts = write_prompts(tmp_path / "prompts.txt",
                                ["tell a story", "the harbor town", "a last library"])
        outs = []
        for name, floats in (("one_call", 2**20), ("one_prompt_per_call", 1)):
            monkeypatch.setattr(process, "LANE_FLOATS", floats)
            outs.append(tmp_path / name)
            assert main(["generate", "--config", str(cfg_path), "--prompts",
                         str(prompts), "--out", str(outs[-1]), "--quiet"]) == 0
        for f in ("branches.json", "trace.jsonl", "report.json", "report.csv"):
            assert (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()

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

    @pytest.mark.parametrize("space,path", [
        ({"sampling": "grid", "budget": 1, "alhpa": {"grid": [1.0]}}, "alhpa"),
        ({"sampling": "grid", "budget": 1, "beta": {"grid": [1.0], "max": 2.0}},
         "beta.max"),
        ({"sampling": "grid", "budget": 2, "delta": {"grid": [0.25, -0.5]}}, "delta"),
        ({"sampling": "random", "budget": 2, "delta": {"min": -1.0, "max": 1.0}},
         "delta"),
        ({"sampling": "grid", "budget": 2.5}, "budget"),
        ({"sampling": "grid", "budget": 2, "alpha": {"grid": [1.0, "2"]}},
         "alpha.grid[1]"),
        ({"sampling": "random", "budget": 2, "beta": {"min": 0.0, "max": math.inf}},
         "beta.max"),
    ], ids=["unknown", "unknown_in_spec", "negative_delta_grid",
            "negative_delta_range", "fractional_budget", "string_in_grid",
            "infinite_max"])
    def test_bad_space_exit_1(self, tmp_path, capsys, space, path):
        args, out = self.sweep_args(tmp_path, space)
        assert main(args) == 1
        assert path in capsys.readouterr().err
        assert not out.exists()

    def test_shipped_configs_use_known_keys_only(self, tmp_path):
        configs = Path(__file__).resolve().parent.parent / "configs"
        for name in ("toy_ar.json", "toy_diffusion.json"):
            assert main(["generate", "--config", str(configs / name), "--prompts",
                         str(configs / "prompts.txt"), "--out",
                         str(tmp_path / name), "--quiet"]) == 0
        args, _ = self.sweep_args(tmp_path, json.loads(
            (configs / "space.json").read_text()))
        assert main(args) == 0

    def test_diffusion_config_rejected(self, tmp_path):
        config = {"model": {"kind": "toy_diffusion", "latent_size": 4,
                            "steps": 5}}
        space = {"sampling": "grid", "budget": 1}
        args, _ = self.sweep_args(tmp_path, space, config)
        assert main(args) == 1


# Any value json.loads can return, NaN and the infinities included, with
# small numbers and the schema's words drawn often enough that many of
# the configs are valid.
JSON = (st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8)
    | st.integers(-2, 64) | st.floats(-2, 64)
    | st.sampled_from(["max", "mean", "logistic", "linear", "toy_ar", "toy_diffusion",
                       "grid", "random"]))
# The same without numbers past 64, so that a written model size builds
# a model small enough for a test.
SMALL_JSON = JSON.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float))
                         or not 64 < abs(v) < math.inf)

AR_BASE = ar_config(penalty={"epsilon": 1e-5})
DIFFUSION_BASE = {"model": {"kind": "toy_diffusion", "latent_size": 4, "steps": 5}}
SPACE_BASE = {"sampling": "random", "budget": 3, "alpha": {"min": 0.5, "max": 2.0},
              "beta": {"grid": [0.5, 1.0]}}
RUN_CASES = ([(AR_BASE, (key,)) for key in RUN_SCHEMA]
             + [(AR_BASE, ("schedule", key)) for key in SCHEDULE_SCHEMA]
             + [(AR_BASE, ("penalty", key)) for key in PENALTY_SCHEMA]
             + [(AR_BASE, ("model", key)) for key in MODEL_SCHEMAS["toy_ar"]]
             + [(DIFFUSION_BASE, ("model", key)) for key in MODEL_SCHEMAS["toy_diffusion"]])
SPACE_PATHS = ([(key,) for key in SPACE_SCHEMA]
               + [("alpha", "min"), ("alpha", "max"), ("beta", "grid"), ("beta", "grid", 0)])


def same(got, value) -> bool:
    """got is the JSON value as written: equal, and a bool only for a bool."""
    if isinstance(value, list):
        return len(got) == len(value) and all(map(same, got, value))
    return got == value and isinstance(got, bool) == isinstance(value, bool)


def run_value(model, gen_cfg, path):
    """What a built run holds at a config key path."""
    if path == ("model", "kind"):
        return {ToyArModel: "toy_ar", ToyDiffusion: "toy_diffusion"}[type(model)]
    *section, key = path
    owner = {(): gen_cfg, ("model",): model, ("schedule",): gen_cfg.schedule,
             ("penalty",): gen_cfg.penalty}[tuple(section)]
    return getattr(owner, key)


def space_value(space, path):
    """What a built sweep space holds at a space key path."""
    if len(path) == 1:
        return getattr(space, path[0])
    spec = space.params[path[0]]
    if path[1] == "grid":
        return list(spec.grid) if len(path) == 2 else spec.grid[path[2]]
    return spec.low if path[1] == "min" else spec.high


class TestConfigSchema:
    """Any JSON value at any schema key is taken exactly as written or
    rejected with ConfigError; no other exception escapes."""

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_run_config(self, data):
        base, path = data.draw(st.sampled_from(RUN_CASES))
        value = data.draw(SMALL_JSON if path[0] == "model" else JSON)
        try:
            _, model, gen_cfg = build_run(written(base, path, value), None, FIXTURES)
        except ConfigError:
            return
        if not isinstance(value, dict):  # a section: its keys are drawn apart
            assert same(run_value(model, gen_cfg, path), value)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(SPACE_PATHS), JSON)
    def test_sweep_space(self, path, value):
        try:
            space = build_space(written(SPACE_BASE, path, value))
        except ConfigError:
            return
        if not isinstance(value, dict):
            assert same(space_value(space, path), value)


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
