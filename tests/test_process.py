import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from uag.penalty import PenaltyConfig, local_loss_softmax, softmax
from uag.process import (
    BigramModel,
    GenerationConfig,
    ReferenceBankSet,
    ToyArModel,
    ToyDiffusion,
    ar_step,
    ddim_step,
    detokenize,
    generate_branch,
    load_bigram_model,
    multi_branch,
    naive_config,
    prompt_state,
    sample_token,
    tokenize,
)
from uag.schedule import default_schedule

FIXTURES = Path(__file__).parent / "fixtures"


def ar_config(steps=5, branches=1, seed=0, uag=True, **kwargs):
    return GenerationConfig(
        schedule=default_schedule(steps),
        penalty=PenaltyConfig(),
        temperature=1.0,
        max_steps=steps,
        branches=branches,
        seed=seed,
        uag_enabled=uag,
        **kwargs,
    )


def diffusion_config(steps, branches=1, seed=0, uag=True):
    return GenerationConfig(
        schedule=default_schedule(steps),
        penalty=PenaltyConfig(sim_local="cosine", sim_global="embedding"),
        temperature=1.0,
        max_steps=steps,
        branches=branches,
        seed=seed,
        uag_enabled=uag,
    )


class TestArStep:
    def test_annihilating_weights(self):
        v, d = 4, 3
        model = ToyArModel(v, d, seed=0,
                           token_embed=np.zeros((v, d)),
                           recur=np.zeros((d, d)))
        model.proj = type(model.proj)(w=np.zeros((v, d)), b=np.zeros(v))
        logits, hidden = ar_step(model, np.ones(d), 1)
        np.testing.assert_allclose(logits, np.zeros(v))
        np.testing.assert_allclose(hidden, np.zeros(d))

    def test_determinism(self):
        model = ToyArModel(8, 4, seed=42)
        first = ar_step(model, np.zeros(4), 0)
        second = ar_step(model, np.zeros(4), 0)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_recomposition(self):
        model = ToyArModel(8, 4, seed=7)
        h = np.random.default_rng(1).standard_normal(4)
        logits, hidden = ar_step(model, h, 3)
        expected_hidden = np.tanh(model.recur @ h + model.token_embed[3])
        np.testing.assert_allclose(hidden, expected_hidden)
        np.testing.assert_allclose(logits, model.proj.w @ hidden + model.proj.b)

    def test_out_of_range_token(self):
        model = ToyArModel(4, 2, seed=0)
        with pytest.raises(ValueError):
            ar_step(model, np.zeros(2), 4)

    def test_reconstructible_from_seed(self):
        a = ToyArModel(16, 8, seed=99)
        b = ToyArModel(16, 8, seed=99)
        np.testing.assert_array_equal(a.token_embed, b.token_embed)
        np.testing.assert_array_equal(a.recur, b.recur)
        np.testing.assert_array_equal(a.proj.w, b.proj.w)


class TestSampleToken:
    def test_degenerate_distribution(self):
        rng = np.random.default_rng(0)
        logits = np.array([0.0, 1e6, 0.0])
        assert all(sample_token(logits, 1.0, rng) == 1 for _ in range(1000))

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(1)
        counts = np.zeros(4)
        for _ in range(10000):
            counts[sample_token(np.zeros(4), 1.0, rng)] += 1
        np.testing.assert_allclose(counts / 10000, 0.25, atol=0.03)

    def test_high_temperature_approaches_uniform(self):
        rng = np.random.default_rng(2)
        logits = np.array([4.0, 0.0, -4.0, 1.0])
        counts = np.zeros(4)
        for _ in range(10000):
            counts[sample_token(logits, 1e9, rng)] += 1
        np.testing.assert_allclose(counts / 10000, 0.25, atol=0.03)

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sample_token(np.array([np.nan, 0.0]), 1.0, rng)
        with pytest.raises(ValueError):
            sample_token(np.array([np.inf, 0.0]), 1.0, rng)

    def test_single_draw_per_call(self):
        rng_a = np.random.default_rng(4)
        rng_b = np.random.default_rng(4)
        sample_token(np.array([1.0, 2.0, 3.0]), 1.0, rng_a)
        rng_b.random()
        assert rng_a.random() == rng_b.random()


class TestDdimStep:
    def test_noise_free_rescaling(self):
        model = ToyDiffusion(4, 10, seed=0)
        z = np.array([1.0, -2.0, 0.5, 3.0])
        out = ddim_step(z, np.zeros(4), 5, model)
        ratio = math.sqrt(model.alphas_bar[4] / model.alphas_bar[5])
        np.testing.assert_allclose(out, ratio * z)

    def test_identity_scheduler(self):
        stub = SimpleNamespace(steps=3, alphas_bar=np.ones(4))
        z = np.array([0.3, 0.7])
        out = ddim_step(z, np.array([5.0, -5.0]), 2, stub)
        np.testing.assert_allclose(out, z)

    def test_hand_evaluated_update(self):
        stub = SimpleNamespace(steps=2, alphas_bar=np.array([1.0, 0.5, 0.25]))
        z = np.array([1.0, 0.0])
        noise = np.array([0.0, 1.0])
        out = ddim_step(z, noise, 2, stub)
        z0_hat = (z - math.sqrt(0.75) * noise) / math.sqrt(0.25)
        expected = math.sqrt(0.5) * z0_hat + math.sqrt(0.5) * noise
        np.testing.assert_allclose(out, expected)

    def test_final_step_returns_x0_estimate(self):
        model = ToyDiffusion(3, 6, seed=1)
        z = np.ones(3)
        noise = np.full(3, 0.2)
        out = ddim_step(z, noise, 1, model)
        a1 = model.alphas_bar[1]
        np.testing.assert_allclose(out, (z - math.sqrt(1 - a1) * noise) / math.sqrt(a1))

    def test_time_out_of_range(self):
        model = ToyDiffusion(3, 6, seed=1)
        for t in (0, 7):
            with pytest.raises(ValueError):
                ddim_step(np.ones(3), np.zeros(3), t, model)

    def test_alphas_bar_shape(self):
        model = ToyDiffusion(4, 12, seed=5)
        assert model.alphas_bar.shape == (13,)
        assert model.alphas_bar[0] == 1.0
        assert np.all(np.diff(model.alphas_bar) < 0)


class TestGenerateBranch:
    def test_uag_off_matches_uag_on_with_empty_banks(self):
        model = ToyArModel(8, 4, seed=11)
        banks = ReferenceBankSet(4)
        on = generate_branch(model, [1], ar_config(uag=True), banks,
                             np.random.default_rng(5))
        off = generate_branch(model, [1], ar_config(uag=False), banks,
                              np.random.default_rng(5))
        assert on.tokens == off.tokens

    def test_uag_off_trace_is_zero(self):
        model = ToyArModel(8, 4, seed=11)
        cfg = ar_config(branches=3, uag=False)
        for branch in multi_branch(model, [1], cfg):
            assert all(r.loss_total == 0.0 and r.flops == 0 for r in branch.trace)

    def test_trace_length_matches_steps(self):
        model = ToyArModel(8, 4, seed=11)
        branch = generate_branch(model, [1], ar_config(steps=7),
                                 ReferenceBankSet(4), np.random.default_rng(0))
        assert len(branch.trace) == 7
        assert len(branch.tokens) == 7

    def test_offline_trace_recomputation(self):
        # replay branch 2's token path through the model and recompute
        # the recorded local losses from branch 1's cached distributions
        model = ToyArModel(8, 4, seed=21)
        cfg = ar_config(steps=5, branches=2, seed=3)
        first, second = multi_branch(model, [2, 4], cfg)
        cfg_pen = cfg.penalty
        h = model.init_hidden
        for tok in [2, 4]:
            _, h = model.step(h, tok)
        last = 4
        for step in range(1, 6):
            y, h = model.step(h, last)
            q = first.contrib.outputs[step]
            expected = local_loss_softmax(y, [q], cfg_pen)
            record = second.trace[step - 1]
            assert record.loss_local == pytest.approx(expected, abs=1e-9)
            assert record.loss_total == pytest.approx(
                record.w_local * record.loss_local
                + record.w_global * record.loss_global, abs=1e-9)
            last = second.tokens[step - 1]

    def test_ar_requires_dot_similarities(self):
        model = ToyArModel(8, 4, seed=0)
        cfg = ar_config()
        bad = GenerationConfig(schedule=cfg.schedule,
                               penalty=PenaltyConfig(sim_local="cosine"),
                               temperature=1.0, max_steps=5)
        with pytest.raises(ValueError):
            generate_branch(model, [0], bad, ReferenceBankSet(2),
                            np.random.default_rng(0))

    def test_diffusion_requires_matching_similarities(self):
        model = ToyDiffusion(4, 5, seed=0)
        bad = GenerationConfig(schedule=default_schedule(5),
                               penalty=PenaltyConfig(), temperature=1.0,
                               max_steps=5)
        with pytest.raises(ValueError):
            generate_branch(model, None, bad, ReferenceBankSet(2),
                            np.random.default_rng(0))


class TestMultiBranch:
    def test_single_branch_equals_naive(self):
        model = ToyArModel(8, 4, seed=13)
        cfg = ar_config(branches=1, seed=9)
        uag_branch = multi_branch(model, [1], cfg)[0]
        naive_branch = multi_branch(model, [1], naive_config(cfg))[0]
        assert uag_branch.tokens == naive_branch.tokens

    def test_second_branch_local_loss_closed_form(self):
        model = ToyArModel(8, 4, seed=17)
        cfg = ar_config(steps=4, branches=2, seed=1)
        first, second = multi_branch(model, [3], cfg)
        # replay branch 2 to recover its raw logits per step
        h = model.init_hidden
        _, h = model.step(h, 3)
        last = 3
        for step in range(1, 5):
            y, h = model.step(h, last)
            q = first.contrib.outputs[step]
            expected = float(softmax(y) @ q)
            assert second.trace[step - 1].loss_local == pytest.approx(expected)
            last = second.tokens[step - 1]

    def test_fifo_eviction_keeps_latest(self):
        model = ToyArModel(8, 4, seed=19)
        cfg = ar_config(steps=3, branches=1, seed=2, bank_capacity=2)
        banks = ReferenceBankSet(2)
        contribs = []
        for i in range(4):
            rng = np.random.default_rng(cfg.seed + i)
            branch = generate_branch(model, [1], cfg, banks, rng)
            contribs.append(branch.contrib)
            banks.commit(branch.contrib)
        for step in (1, 2, 3):
            entries = banks.outputs_at(step)
            assert len(entries) == 2
            np.testing.assert_array_equal(entries[0], contribs[2].outputs[step])
            np.testing.assert_array_equal(entries[1], contribs[3].outputs[step])

    def test_bank_growth_is_min_of_branches_and_capacity(self):
        model = ToyArModel(8, 4, seed=19)
        cfg = ar_config(steps=3, seed=2)
        banks = ReferenceBankSet(capacity_per_step=3)
        for i in range(5):
            rng = np.random.default_rng(cfg.seed + i)
            branch = generate_branch(model, [1], cfg, banks, rng)
            banks.commit(branch.contrib)
            expected = min(i + 1, 3)
            assert all(len(banks.outputs_at(t)) == expected for t in (1, 2, 3))
            assert all(len(banks.hiddens_at(t)) == expected for t in (1, 2, 3))

    @pytest.mark.parametrize("capacity", [2, 16])
    def test_matches_branch_by_branch_generation(self, capacity):
        # multi_branch reads the prompt once; generating each branch on
        # its own against explicitly committed banks must agree exactly
        model = ToyArModel(16, 8, seed=37)
        cfg = ar_config(steps=6, branches=4, seed=11, bank_capacity=capacity)
        prompt = [3, 1, 4, 1, 5]
        banks = ReferenceBankSet(capacity)
        expected = []
        for i in range(cfg.branches):
            branch = generate_branch(model, prompt, cfg, banks,
                                     np.random.default_rng(cfg.seed + i))
            banks.commit(branch.contrib)
            expected.append(branch)
        for got, want in zip(multi_branch(model, prompt, cfg), expected):
            assert got.tokens == want.tokens
            assert [r.to_dict() for r in got.trace] == [r.to_dict() for r in want.trace]

    def test_prompt_state_matches_model_steps(self):
        model = ToyArModel(16, 8, seed=41)
        h = model.init_hidden
        for tok in [2, 7, 7]:
            _, h = model.step(h, tok)
        state, last = prompt_state(model, [2, 7, 7])
        np.testing.assert_array_equal(state, h)
        assert last == 7

    def test_determinism_across_runs(self):
        model = ToyArModel(16, 8, seed=23)
        cfg = ar_config(steps=6, branches=3, seed=5)
        a = multi_branch(model, [1, 2], cfg)
        b = multi_branch(model, [1, 2], cfg)
        for ba, bb in zip(a, b):
            assert ba.tokens == bb.tokens
            assert [r.to_dict() for r in ba.trace] == [r.to_dict() for r in bb.trace]

    def test_diffusion_determinism_and_finiteness(self):
        model = ToyDiffusion(6, 12, seed=29)
        cfg = diffusion_config(12, branches=4, seed=8)
        a = multi_branch(model, None, cfg)
        b = multi_branch(model, None, cfg)
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.final_latent, bb.final_latent)
            assert np.all(np.isfinite(ba.final_latent))
            for step, z in ba.contrib.latents.items():
                assert np.all(np.isfinite(z))

    def test_diffusion_steps_must_match(self):
        model = ToyDiffusion(4, 10, seed=0)
        cfg = diffusion_config(steps=8)
        with pytest.raises(ValueError):
            multi_branch(model, None, cfg)

    def test_flops_accumulate_only_with_references(self):
        model = ToyArModel(8, 4, seed=31)
        cfg = ar_config(steps=4, branches=2, seed=3)
        first, second = multi_branch(model, [1], cfg)
        model_only = 4 * model.step_flops()
        assert first.total_flops == model_only
        assert second.total_flops > model_only


class TestBigramModel:
    def test_fixture_round_trip(self):
        model = load_bigram_model(FIXTURES / "bigram_chain.json")
        assert model.vocab == ["the", "cat", "sat", "mat"]
        assert model.vocab_size == 4

    def test_low_temperature_follows_chain(self):
        model = load_bigram_model(FIXTURES / "bigram_chain.json")
        cfg = GenerationConfig(schedule=default_schedule(4),
                               penalty=PenaltyConfig(), temperature=0.01,
                               max_steps=4, branches=1, seed=0,
                               uag_enabled=False)
        branch = multi_branch(model, [0], cfg)[0]  # prompt: "the"
        assert detokenize(branch.tokens, model.vocab) == "cat sat mat the"

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            BigramModel(["a", "b"], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            BigramModel(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])


class TestTokenizer:
    def test_known_words_map_to_ids(self):
        vocab = ["the", "cat", "sat", "mat"]
        assert tokenize("the cat sat", vocab) == [0, 1, 2]

    def test_unknown_words_fall_back_to_bytes(self):
        vocab = ["a", "b", "c", "d"]
        ids = tokenize("zz", vocab)
        assert ids == [ord("z") % 4, ord("z") % 4]

    def test_detokenize_round_trip(self):
        vocab = [f"w{i:03d}" for i in range(8)]
        ids = [3, 1, 4, 1]
        assert tokenize(detokenize(ids, vocab), vocab) == ids


class TestGenerationConfig:
    def test_validation(self):
        sched = default_schedule(5)
        with pytest.raises(ValueError):
            GenerationConfig(schedule=sched, penalty=PenaltyConfig(),
                             temperature=0.0, max_steps=5)
        with pytest.raises(ValueError):
            GenerationConfig(schedule=sched, penalty=PenaltyConfig(),
                             temperature=1.0, max_steps=5, branches=0)
