import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from branch_oracle import assert_same, oracle_multi_branch, ref_local_loss
from uag.penalty import PenaltyConfig, flops_estimate, softmax
from uag.process import (
    BigramModel,
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    ddim_step,
    detokenize,
    load_bigram_model,
    multi_branch,
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
        penalty=PenaltyConfig(),
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
        logits, hidden = model.step(np.ones(d), 1)
        np.testing.assert_allclose(logits, np.zeros(v))
        np.testing.assert_allclose(hidden, np.zeros(d))

    def test_determinism(self):
        model = ToyArModel(8, 4, seed=42)
        first = model.step(np.zeros(4), 0)
        second = model.step(np.zeros(4), 0)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])

    def test_recomposition(self):
        model = ToyArModel(8, 4, seed=7)
        h = np.random.default_rng(1).standard_normal(4)
        logits, hidden = model.step(h, 3)
        expected_hidden = np.tanh(model.recur @ h + model.token_embed[3])
        np.testing.assert_allclose(hidden, expected_hidden)
        np.testing.assert_allclose(logits, model.proj.w @ hidden + model.proj.b)

    def test_out_of_range_token(self):
        model = ToyArModel(4, 2, seed=0)
        with pytest.raises(ValueError):
            model.step(np.zeros(2), 4)

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


def replay_logits(model, prompt, tokens):
    """The raw logits a branch saw at each step, from its token path."""
    h, last = model.init_hidden, 0
    for tok in prompt:
        _, h = model.step(h, tok)
        last = tok
    out = []
    for tok in tokens:
        y, h = model.step(h, last)
        out.append(y)
        last = tok
    return out


class TestGenerateBranch:
    def test_uag_off_matches_uag_on_with_empty_banks(self):
        # the first branch reads empty banks, so the penalty cannot move it
        model = ToyArModel(8, 4, seed=11)
        on = multi_branch(model, [[1]], [ar_config(branches=3, uag=True)])[0]
        off = multi_branch(model, [[1]], [ar_config(branches=3, uag=False)])[0]
        assert on[0].tokens == off[0].tokens

    def test_uag_off_trace_is_zero(self):
        model = ToyArModel(8, 4, seed=11)
        cfg = ar_config(branches=3, uag=False)
        for branch in multi_branch(model, [[1]], [cfg])[0]:
            assert all(r.loss_total == 0.0 and r.flops == 0 for r in branch.trace)

    def test_trace_length_matches_steps(self):
        model = ToyArModel(8, 4, seed=11)
        (branch,) = multi_branch(model, [[1]], [ar_config(steps=7)])[0]
        assert len(branch.trace) == 7
        assert len(branch.tokens) == 7

    def test_offline_trace_recomputation(self):
        # replay both branches' token paths through the model and
        # recompute branch 2's recorded local losses from branch 1's
        # distributions, which no penalty moved
        model = ToyArModel(8, 4, seed=21)
        cfg = ar_config(steps=5, branches=2, seed=3)
        first, second = multi_branch(model, [[2, 4]], [cfg])[0]
        firsts = replay_logits(model, [2, 4], first.tokens)
        for step, y in enumerate(replay_logits(model, [2, 4], second.tokens)):
            expected = ref_local_loss(y, [softmax(firsts[step])],
                                      cfg.penalty.local_aggregation)
            record = second.trace[step]
            assert record.loss_local == pytest.approx(expected, abs=1e-9)
            assert record.loss_total == pytest.approx(
                record.w_local * record.loss_local
                + record.w_global * record.loss_global, abs=1e-9)


class TestMultiBranch:
    def test_single_branch_equals_naive(self):
        model = ToyArModel(8, 4, seed=13)
        cfg = ar_config(branches=1, seed=9)
        uag_branch = multi_branch(model, [[1]], [cfg])[0][0]
        naive_branch = multi_branch(model, [[1]], [replace(cfg, uag_enabled=False)])[0][0]
        assert uag_branch.tokens == naive_branch.tokens

    def test_second_branch_local_loss_closed_form(self):
        model = ToyArModel(8, 4, seed=17)
        cfg = ar_config(steps=4, branches=2, seed=1)
        first, second = multi_branch(model, [[3]], [cfg])[0]
        # replay both branches to recover their raw logits per step
        firsts = replay_logits(model, [3], first.tokens)
        for step, y in enumerate(replay_logits(model, [3], second.tokens)):
            expected = float(softmax(y) @ softmax(firsts[step]))
            assert second.trace[step].loss_local == pytest.approx(expected)

    def test_fifo_eviction_keeps_latest(self):
        # with two slots, branch 3 reads exactly branches 1 and 2, oldest
        # first: the branch-by-branch loop with a list bank agrees
        model = ToyArModel(8, 4, seed=19)
        cfg = ar_config(steps=3, branches=4, seed=2, bank_capacity=2)
        assert_same(multi_branch(model, [[1]], [cfg])[0],
                    oracle_multi_branch(model, [1], cfg))

    def test_bank_growth_is_min_of_branches_and_capacity(self):
        # a penalized step's flops count its bank rows
        model = ToyArModel(8, 4, seed=19)
        cfg = ar_config(steps=3, branches=5, seed=2, bank_capacity=3)
        for i, branch in enumerate(multi_branch(model, [[1]], [cfg])[0]):
            n = min(i, 3)
            expected = flops_estimate(8, 4, n, n) if n else 0
            assert [r.flops for r in branch.trace] == [expected] * 3

    @pytest.mark.parametrize("capacity", [2, 16])
    def test_matches_branch_by_branch_generation(self, capacity):
        # step-major decoding must agree with generating each branch on
        # its own against the branches committed before it: the same
        # tokens, and traces equal up to the order of floating-point sums
        model = ToyArModel(16, 8, seed=37)
        cfg = ar_config(steps=6, branches=4, seed=11, bank_capacity=capacity)
        prompt = [3, 1, 4, 1, 5]
        assert_same(multi_branch(model, [prompt], [cfg])[0],
                    oracle_multi_branch(model, prompt, cfg))

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
        a = multi_branch(model, [[1, 2]], [cfg])[0]
        b = multi_branch(model, [[1, 2]], [cfg])[0]
        for ba, bb in zip(a, b):
            assert ba.tokens == bb.tokens
            assert [r.to_dict() for r in ba.trace] == [r.to_dict() for r in bb.trace]

    def test_diffusion_determinism_and_finiteness(self):
        model = ToyDiffusion(6, 12, seed=29)
        cfg = diffusion_config(12, branches=4, seed=8)
        a = multi_branch(model, [None], [cfg])[0]
        b = multi_branch(model, [None], [cfg])[0]
        for ba, bb in zip(a, b):
            np.testing.assert_array_equal(ba.final_latent, bb.final_latent)
            assert np.all(np.isfinite(ba.final_latent))
            assert all(np.isfinite(r.loss_total) for r in ba.trace)

    def test_diffusion_steps_must_match(self):
        model = ToyDiffusion(4, 10, seed=0)
        cfg = diffusion_config(steps=8)
        with pytest.raises(ValueError):
            multi_branch(model, [None], [cfg])[0]

    def test_flops_accumulate_only_with_references(self):
        model = ToyArModel(8, 4, seed=31)
        cfg = ar_config(steps=4, branches=2, seed=3)
        first, second = multi_branch(model, [[1]], [cfg])[0]
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
        branch = multi_branch(model, [[0]], [cfg])[0][0]  # prompt: "the"
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
