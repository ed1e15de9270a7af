import json
import math
import shutil
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uag import cli, judge_client, process
from uag.cli import (
    AGGREGATION_KEYS,
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
from uag.penalty import UagStepRecord, max_weight
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


# trace values: any finite float, the edges of the float range, and
# numpy floats, which json writes as floats
TRACE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-0.0, 5e-324, 1e-300, 1e300, 0.1, 1e16, 1e-5])
                | st.floats(allow_nan=False, allow_infinity=False).map(np.float64))


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
        ("penalty.local_aggregation", "mean"),  # each penalty is the max
        ("penalty.global_aggregation", "mean"),
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

    @pytest.mark.parametrize("vocab", [["a", "a", "b", "c"], ["a", "", "b", "c"],
                                       ["a", "b c", "d", "e"], ["a", "b", 3, "c"]],
                             ids=["duplicate", "empty", "whitespace", "not_a_string"])
    def test_bad_bigram_vocab_exit_1(self, tmp_path, capsys, vocab):
        # eval splits texts into words, generate scores token ids: a vocab
        # whose texts do not split back into its ids gave two reports
        bigram = json.loads((FIXTURES / "bigram_chain.json").read_text())
        write_json(tmp_path / "bigram.json", {**bigram, "vocab": vocab})
        code, out = run_generate(tmp_path, {
            "model": {"kind": "bigram", "path": "bigram.json"},
            "max_steps": 4, "branches": 3})
        assert code == 1
        assert "cannot build model: vocab words" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        # json.load kept the last "vocab" and decoded with it
        (lambda text: text.replace("{", '{"vocab": ["a", "b", "c", "d"],', 1),
         'duplicate key "vocab" in bigram table {path}'),
        # json.load's message named neither the file nor the fault
        (lambda text: text[:-3],
         "malformed bigram table {path}: line 8, column 4: Expecting ',' delimiter"),
    ], ids=["duplicate_key", "malformed"])
    def test_bad_bigram_table_exit_1(self, tmp_path, capsys, edit, message):
        table = tmp_path / "bigram.json"
        table.write_text(edit((FIXTURES / "bigram_chain.json").read_text()))
        code, out = run_generate(tmp_path, {
            "model": {"kind": "bigram", "path": "bigram.json"},
            "max_steps": 4, "branches": 3})
        assert code == 1
        assert message.format(path=table) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        # ScheduleParams' own check named neither the key path nor the kinds
        (lambda c: c["schedule"].update(kind="cosine"),
         'schedule.kind must be one of ["logistic", "constant", "linear"], got "cosine"'),
        (lambda c: c["model"].update(kind=3),
         'model.kind must be one of ["toy_ar", "toy_diffusion", "bigram"], got 3'),
        (lambda c: c["model"].pop("kind"),
         'model.kind must be one of ["toy_ar", "toy_diffusion", "bigram"], got null'),
    ], ids=["schedule_kind", "model_kind_number", "model_kind_missing"])
    def test_enumerated_key_exit_1(self, tmp_path, capsys, edit, message):
        config = ar_config()
        edit(config)
        code, out = run_generate(tmp_path, config)
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        # BigramModel(**table) named neither the file nor the key
        (lambda t: t.update(note=1), "bigram table {path}: unknown config key note"),
        (lambda t: t.pop("bigram"), "bigram table {path}: missing config key bigram"),
        (lambda t: t.update(bigram="x"),
         'bigram table {path}: bigram must be a JSON array, got "x"'),
        # a string is a sequence of one-letter words to BigramModel
        (lambda t: t.update(vocab="abcd"),
         'bigram table {path}: vocab must be a JSON array, got "abcd"'),
        (lambda t: t["bigram"].__setitem__(1, 1.0),
         "bigram table {path}: bigram[1] must be a JSON array, got 1.0"),
        # numpy read "1" as 1.0 and null as NaN
        (lambda t: t["bigram"][2].__setitem__(3, "1"),
         'bigram table {path}: bigram[2][3] must be a finite number, got "1"'),
        (lambda t: t["bigram"][0].__setitem__(0, None),
         "bigram table {path}: bigram[0][0] must be a finite number, got null"),
        # the vocab's type check runs before set(), which raised TypeError
        (lambda t: t["vocab"].__setitem__(0, ["a"]), "cannot build model: vocab words"),
    ], ids=["extra_key", "missing_key", "string_table", "string_vocab", "number_row",
            "string_entry", "null_entry", "unhashable_word"])
    def test_bigram_table_key_exit_1(self, tmp_path, capsys, edit, message):
        table = json.loads((FIXTURES / "bigram_chain.json").read_text())
        edit(table)
        path = write_json(tmp_path / "bigram.json", table)
        code, out = run_generate(tmp_path, {
            "model": {"kind": "bigram", "path": "bigram.json"},
            "max_steps": 4, "branches": 3})
        assert code == 1
        assert message.format(path=path) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "sweep"])
    @pytest.mark.parametrize("edits", [
        {("temperature",): 1e-310},  # logits / temperature overflows to inf
        # alpha at its bound keeps the penalized logits finite; over this
        # temperature they overflow
        {("schedule", "alpha"): max_weight(8), ("temperature",): 1e-250},
    ], ids=["tiny_temperature", "huge_alpha"])
    def test_decoding_failure_exit_2_without_out(self, tmp_path, capsys, command, edits):
        config = ar_config(temperature=0.1)
        for path, value in edits.items():
            config = written(config, path, value)
        if command == "generate":
            code, out = run_generate(tmp_path, config)
        else:
            args, out = TestSweep().sweep_args(tmp_path, {"sampling": "grid", "budget": 1},
                                               config)
            code = main(args)
        assert code == 2
        assert "non-finite logits / temperature" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shipped,key,value", [
        ("toy_ar", "alpha", 1e308),  # overflowed the penalized logits at step 1
        ("toy_ar", "beta", 1e100),
        ("toy_diffusion", "alpha", 1e308),  # overflowed the penalized noise at step 1
        ("toy_diffusion", "beta", 1e200),  # overflowed the latents' norms at step 2
    ])
    def test_weight_past_its_bound_exit_1_without_out(self, tmp_path, capsys, shipped,
                                                      key, value):
        path = Path(__file__).resolve().parent.parent / "configs" / f"{shipped}.json"
        config = json.loads(path.read_text())
        config["schedule"][key] = value
        code, out = run_generate(tmp_path, config)
        assert code == 1
        dim = config["model"].get("vocab_size") or config["model"]["latent_size"]
        assert (f"schedule.{key} must be at most {max_weight(dim)!r} for a model with "
                f"{dim} outputs, got {value!r}") in capsys.readouterr().err
        assert not out.exists()
        config["schedule"][key] = max_weight(dim)  # the bound itself decodes
        assert run_generate(tmp_path, config, out_name="at_bound")[0] == 0

    def test_token_decoding_failure_names_the_weights(self, tmp_path, capsys):
        # the penalized logits stay finite; over the temperature they do not,
        # and the weights, not the temperature, are at fault
        shipped = Path(__file__).resolve().parent.parent / "configs" / "toy_ar.json"
        config = json.loads(shipped.read_text())
        config["schedule"]["alpha"] = max_weight(config["model"]["vocab_size"])
        config["temperature"] = 1e-250
        code, out = run_generate(tmp_path, config)
        assert code == 2
        err = capsys.readouterr().err
        assert "non-finite logits / temperature at step" in err
        assert "StepWeights(w_local=" in err
        assert not out.exists()

    @pytest.mark.parametrize("temperature", [0.001, 0.1, 5.0])
    def test_diffusion_temperature_exit_1(self, tmp_path, capsys, temperature):
        # the DDIM steps sample no tokens, so any value wrote the same branches
        config = {"model": {"kind": "toy_diffusion", "latent_size": 4, "steps": 5},
                  "temperature": temperature}
        code, out = run_generate(tmp_path, config)
        assert code == 1
        assert "temperature" in capsys.readouterr().err
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
        # 7 lanes per decode here: 7 prompts decode at once, 28 in four
        # decodes inside one multi_branch call; decoding all 28 at once
        # would raise the peak by about 3 MB
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

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 2**20), st.integers(0, 2**20), st.integers(1, 2**20),
           st.lists(TRACE_FLOATS, min_size=5, max_size=5), st.integers(0, 2**62))
    def test_trace_row_is_json_bytes(self, prompt, branch, step, values, flops):
        # the row format writes what json.dumps(sort_keys=True) writes
        record = UagStepRecord(step, *values, flops=flops)
        want = json.dumps({"prompt": prompt, "branch": branch, **record._asdict()},
                          sort_keys=True) + "\n"
        assert cli._TRACE_ROW.format(prompt, branch, *record) == want
        lanes = [[SimpleNamespace(trace=[record, record])]]
        assert cli._trace_rows(lanes) == 2 * cli._TRACE_ROW.format(0, 0, *record)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_trace_value_rejected(self, value):
        record = UagStepRecord(1, 0.0, 0.0, 0.0, 0.5, value)
        with pytest.raises(ValueError, match="^Out of range float values are not JSON"):
            cli._trace_rows([[SimpleNamespace(trace=[record])]])

    def test_dispatch_reads_the_command_at_call_time(self, tmp_path, monkeypatch):
        # a cmd_* replaced after the first call (as a tracer wraps them) is
        # the one the next call runs
        code, _ = run_generate(tmp_path)
        calls = []
        monkeypatch.setattr(cli, "cmd_generate", lambda args: calls.append(args) or 7)
        code2, out = run_generate(tmp_path, out_name="stubbed")
        assert (code, code2) == (0, 7)
        assert [args.out for args in calls] == [str(out)]

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

    @pytest.mark.parametrize("space,path", [
        ({"alpha": {"grid": [0.5, 1e308]}}, "alpha.grid"),
        ({"sampling": "random", "beta": {"min": 0.0, "max": 1e300}}, "beta.max"),
    ])
    def test_weight_past_its_bound_exit_1_without_out(self, tmp_path, capsys, space, path):
        args, out = self.sweep_args(tmp_path, {"budget": 4, **space})
        assert main(args) == 1
        assert f"{path} must be at most {max_weight(8)!r}" in capsys.readouterr().err
        assert not out.exists()

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

    def test_all_degenerate_rerun_removes_the_old_best(self, tmp_path, capsys):
        # the same all-degenerate sweep, into an --out whose earlier sweep
        # wrote a best.json: that best point is not this run's
        args, out = self.sweep_args(tmp_path, {"sampling": "grid", "budget": 4,
                                               "alpha": {"grid": [0.5, 2.0]}})
        assert main(args) == 0
        assert (out / "best.json").exists()
        shutil.copy(FIXTURES / "bigram_chain.json", tmp_path / "bigram.json")
        config = {"model": {"kind": "bigram", "path": "bigram.json"}, "temperature": 0.01,
                  "max_steps": 48, "branches": 2, "uag_enabled": False}
        args, out = self.sweep_args(tmp_path, {"sampling": "grid", "budget": 1}, config)
        assert main(args) == 0
        assert "degeneration" in capsys.readouterr().err
        assert not (out / "best.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["manifest.json", *manifest["outputs"].values()])

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
        ({"sampling": "grid", "budget": 2, "alpha": {"min": 0.0, "max": 1.0}}, "alpha"),
        ({"sampling": "grid", "budget": 2, "temperature": {"grid": [0.1, 0.0]}},
         "temperature"),
        ({"sampling": "random", "budget": 2, "temperature": {"min": -1.0, "max": 0.5}},
         "temperature"),
        # ParamSpec's and SweepSpace's own messages did not name the key path
        ({"sampling": "grid", "budget": 1, "alpha": {"grid": []}}, "alpha.grid"),
        ({"sampling": "random", "budget": 1, "alpha": {"min": 2, "max": 1}}, "alpha.min"),
        ({"sampling": "sobol", "budget": 1},
         'sampling must be one of ["grid", "random"], got "sobol"'),
    ], ids=["unknown", "unknown_in_spec", "negative_delta_grid",
            "negative_delta_range", "fractional_budget", "string_in_grid",
            "infinite_max", "range_in_grid_mode", "zero_temperature_grid",
            "negative_temperature_range", "empty_grid", "min_above_max",
            "unknown_sampling"])
    def test_bad_space_exit_1(self, tmp_path, capsys, space, path):
        args, out = self.sweep_args(tmp_path, space)
        assert main(args) == 1
        assert path in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name,key,edit", [
        ("config.json", "temperature", lambda text: text[:-1] + ', "temperature": 5.0}'),
        ("config.json", "alpha",
         lambda text: text.replace('"schedule": {', '"schedule": {"alpha": 0.5, ')),
        ("space.json", "alpha", lambda text: text[:-1] + ', "alpha": {"grid": [4.0]}}'),
    ], ids=["config", "config_schedule", "space"])
    def test_duplicate_key_exit_1(self, tmp_path, capsys, name, key, edit):
        # json.loads alone would run with the last of the repeated values
        args, out = self.sweep_args(tmp_path, {"sampling": "grid", "budget": 1,
                                               "alpha": {"grid": [1.0]}})
        path = tmp_path / name
        path.write_text(edit(json.dumps(json.loads(path.read_text()))), encoding="utf-8")
        assert main(args) == 1
        err = capsys.readouterr().err
        assert f'duplicate key "{key}"' in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("name", ["config.json", "space.json", "prompts.txt"])
    def test_non_utf8_input_exit_1(self, tmp_path, capsys, name):
        args, out = self.sweep_args(tmp_path, {"sampling": "grid", "budget": 1})
        (tmp_path / name).write_bytes(b'{"a": "\xff"}\n')
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "cannot read" in err and str(tmp_path / name) in err
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
    if section == ["penalty"] and key in AGGREGATION_KEYS:
        return "max"  # every penalty is the max similarity; no field holds it
    owner = {(): gen_cfg, ("model",): model, ("schedule",): gen_cfg.schedule,
             ("penalty",): gen_cfg}[tuple(section)]  # penalty.epsilon is cfg.epsilon
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
    @pytest.mark.parametrize("kind,branches", [("ar", 1), ("ar", 3), ("diffusion", 1),
                                               ("diffusion", 3)])
    def test_recomputation_matches_generate_report(self, tmp_path, kind, branches):
        config = (ar_config(branches=branches) if kind == "ar" else
                  {"model": {"kind": "toy_diffusion", "latent_size": 6, "steps": 8},
                   "branches": branches})
        code, out = run_generate(tmp_path, config)  # diffusion ignores the prompts
        assert code == 0
        assert main(["eval", str(out), "--quiet"]) == 0
        original = json.loads((out / "report.json").read_text())
        recomputed = json.loads((out / "report.eval.json").read_text())
        assert ("note" in original) == (branches == 1)
        for key in ("kind", "per_run", "mean", "note"):
            assert recomputed.get(key) == original.get(key), key

    def test_empty_directory_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["eval", str(empty)]) == 2
        assert "branches.json" in capsys.readouterr().err

    def test_directory_without_manifest_exit_2(self, tmp_path, capsys):
        # generate writes the manifest last: without it the run is unfinished
        _, out = run_generate(tmp_path)
        (out / "manifest.json").unlink()
        assert main(["eval", str(out)]) == 2
        assert "manifest.json" in capsys.readouterr().err
        assert not (out / "report.eval.json").exists()

    def test_directory_missing_a_listed_output_exit_2(self, tmp_path, capsys):
        # the manifest lists every output; one that is gone leaves the run incomplete
        _, out = run_generate(tmp_path)
        (out / "trace.jsonl").unlink()
        (out / "report.json").unlink()
        assert main(["eval", str(out)]) == 2
        err = capsys.readouterr().err
        assert "trace.jsonl" in err and "report.json" in err
        assert not (out / "report.eval.json").exists()

    @pytest.mark.parametrize("name,size,what", [("manifest.json", 100, "manifest"),
                                                ("branches.json", 50, "branch outputs")])
    def test_truncated_output_exit_2(self, tmp_path, capsys, name, size, what):
        # a file cut short, as a crash mid-write leaves it, is a runtime
        # fault (exit 2), not a bad config (exit 1)
        _, out = run_generate(tmp_path)
        path = out / name
        path.write_bytes(path.read_bytes()[:size])
        assert main(["eval", str(out)]) == 2
        assert f"malformed {what}" in capsys.readouterr().err
        assert not (out / "report.eval.json").exists()

    @pytest.mark.parametrize("kind", ["text", None])
    def test_unknown_kind_exit_2(self, tmp_path, capsys, kind):
        # only "ar" texts and "diffusion" latents can be scored; the file
        # and the kind it holds are named
        _, out = run_generate(tmp_path)
        path = out / "branches.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "kind": kind}))
        assert main(["eval", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "kind must be one of" in err and json.dumps(kind) in err
        assert not (out / "report.eval.json").exists()

    @pytest.mark.parametrize("name,edit,message", [
        ("manifest.json", lambda raw: {**raw, "outputs": list(raw["outputs"].values())},
         "outputs must be a JSON object"),
        ("branches.json", lambda raw: {**raw, "runs": {"0": raw["runs"][0]}},
         "runs must be a JSON array"),
        ("branches.json", lambda raw: {**raw, "runs": [{**raw["runs"][0], "texts": ["a", ""]}]},
         'runs[0].texts[1] must hold a word, got ""'),
    ])
    def test_malformed_run_names_the_file_and_key_exit_2(self, tmp_path, capsys, name, edit,
                                                          message):
        # a value of the wrong form used to fail deep in the scoring,
        # naming neither the file nor the key
        _, out = run_generate(tmp_path)
        path = out / name
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        assert main(["eval", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and message in err
        assert not (out / "report.eval.json").exists()

    @pytest.mark.parametrize("latents", [[[1e200, 1e200], [1e200, 2e200], [1, 0]],
                                         [[1e160, 1.0], [1.0, 1.0]]])
    def test_non_finite_latent_norm_exit_2(self, tmp_path, capsys, latents):
        # a norm past the float range was written as a cosine of NaN or 0
        _, out = run_generate(tmp_path, {"model": {"kind": "toy_diffusion", "latent_size": 2,
                                                   "steps": 8}, "branches": 3})
        write_json(out / "branches.json", {"kind": "diffusion", "runs": [{"latents": latents}]})
        assert main(["eval", str(out)]) == 2
        assert "cosine undefined for a non-finite norm" in capsys.readouterr().err
        assert not (out / "report.eval.json").exists()

    @pytest.mark.parametrize("leak", ["trace", "report"])
    def test_non_finite_output_exit_2_without_manifest(self, tmp_path, monkeypatch, capsys,
                                                       leak):
        # strict JSON has no NaN: a non-finite value, should one reach an
        # output file, fails the command instead of being written
        decode, report = cli.multi_branch, cli._report

        def nan_trace(*args, **kwargs):
            lanes = decode(*args, **kwargs)
            trace = lanes[0][1].trace
            trace[0] = trace[0]._replace(loss_local=math.nan)
            return lanes

        def nan_report(*args):
            return {**report(*args), "mean": {"self_bleu": math.inf}}

        if leak == "trace":
            monkeypatch.setattr(cli, "multi_branch", nan_trace)
        else:
            monkeypatch.setattr(cli, "_report", nan_report)
        code, out = run_generate(tmp_path)
        assert code == 2
        assert "Out of range float values" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command,failing", [("generate", "report.json"),
                                                 ("sweep", "pareto.json")])
    def test_failed_rerun_leaves_no_manifest(self, tmp_path, monkeypatch, capsys,
                                             command, failing):
        # a rerun into the same --out that crashes midway must not leave the
        # earlier run's manifest beside its own partial outputs
        cfg_path = write_json(tmp_path / "config.json", ar_config())
        prompts = write_prompts(tmp_path / "prompts.txt")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg_path), "--prompts", str(prompts),
                "--out", str(out), "--quiet"]
        if command == "sweep":
            argv += ["--space", str(write_json(tmp_path / "space.json",
                                               {"alpha": {"grid": [0.5, 2.0]}}))]
        assert main(argv) == 0
        assert (out / "manifest.json").exists()
        write_json_ok = cli._write_json

        def write_json_failing(path, obj):
            if path.name == failing:
                raise OSError(f"disk full writing {failing}")
            write_json_ok(path, obj)

        monkeypatch.setattr(cli, "_write_json", write_json_failing)
        assert main([*argv, "--seed", "5"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        if command == "generate":
            assert main(["eval", str(out)]) == 2
            assert not (out / "report.eval.json").exists()

    def test_generate_after_eval_removes_the_old_eval_report(self, tmp_path):
        # report.eval.json scored the earlier run's branches, not the new ones
        _, out = run_generate(tmp_path)
        assert main(["eval", str(out), "--quiet"]) == 0
        assert (out / "report.eval.json").exists()
        code, out = run_generate(tmp_path, extra=("--seed", "5"))
        assert code == 0
        assert not (out / "report.eval.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["manifest.json", *manifest["outputs"].values()])

    def test_commands_into_one_out_leave_only_their_own_outputs(self, tmp_path, capsys):
        # a sweep into a generated directory leaves no branches for eval to
        # score, and a generate after it leaves no sweep results
        _, out = run_generate(tmp_path)
        assert main(["eval", str(out), "--quiet"]) == 0
        space = write_json(tmp_path / "space.json", {"alpha": {"grid": [0.5, 2.0]}})
        assert main(["sweep", "--config", str(tmp_path / "config.json"), "--space", str(space),
                     "--prompts", str(tmp_path / "prompts.txt"), "--out", str(out),
                     "--quiet"]) == 0
        for command in ("sweep", "generate"):
            manifest = json.loads((out / "manifest.json").read_text())
            assert sorted(p.name for p in out.iterdir()) == sorted(
                ["manifest.json", *manifest["outputs"].values()]), command
            if command == "sweep":
                assert main(["eval", str(out), "--quiet"]) == 2
                assert "branches.json" in capsys.readouterr().err
                assert not (out / "report.eval.json").exists()
                assert run_generate(tmp_path)[0] == 0

    @pytest.mark.parametrize("url", ["localhost:8080/v1", "ftp://127.0.0.1:9/v1",
                                     "file://{dir}", "http://[::1", "http:///v1",
                                     "http://127.0.0.1:abc/v1"],
                             ids=["no_scheme", "ftp", "file", "bad_ipv6", "no_host",
                                  "bad_port"])
    def test_bad_judge_url_exit_1(self, tmp_path, capsys, monkeypatch, url):
        # each was retried as a transport failure or raised mid-eval
        def no_connection(*args, **kwargs):
            raise AssertionError("eval opened the judge URL")

        monkeypatch.setattr("urllib.request.urlopen", no_connection)
        _, out = run_generate(tmp_path)
        url = url.format(dir=tmp_path)
        assert main(["eval", str(out), "--judge", "--judge-url", url, "--quiet"]) == 1
        assert f"invalid --judge-url {url}: " in capsys.readouterr().err
        assert not (out / "report.eval.json").exists()

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
                                                 capsys, monkeypatch):
        monkeypatch.setattr(judge_client, "BACKOFF_SECONDS", 0.0)
        judge_server.set_script([(500, "down")])
        _, out = run_generate(tmp_path)
        code = main(["eval", str(out), "--judge", "--judge-url",
                     judge_server.base_url, "--quiet"])
        assert code == 0
        assert "judge failed" in capsys.readouterr().err
        report = json.loads((out / "report.eval.json").read_text())
        assert "llm_diversity" not in report
        assert "self_bleu" in report["mean"]

    def test_huge_integer_verdict_keeps_offline_metrics(self, tmp_path, judge_server,
                                                        capsys):
        judge_server.set_script([(200, '{"score": ' + "9" * 400 + "}")])
        _, out = run_generate(tmp_path)
        code = main(["eval", str(out), "--judge", "--judge-url",
                     judge_server.base_url, "--quiet"])
        assert code == 0
        err = capsys.readouterr().err
        assert "judge failed" in err and "outside [0, 1]" in err
        report = json.loads((out / "report.eval.json").read_text())
        assert not any(key.startswith("llm_") for key in report)
        assert report["mean"] == json.loads((out / "report.json").read_text())["mean"]
