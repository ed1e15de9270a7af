import math
from pathlib import Path

import numpy as np
import pytest
from branch_oracle import ref_global_loss, ref_local_loss
from one_lane import embedding, hidden, latent, losses, repulsion

from uag.cli import ConfigError, build_run
from uag.penalty import (
    DEFAULT_EPSILON,
    TanhEmbedder,
    apply_uag,
    diffusion_flops_estimate,
    embedding_cosine_loss,
    flops_estimate,
    latent_cosine_loss,
    normalize_gradient,
    softmax,
)
from uag.schedule import StepWeights

HEAD = np.eye(2)  # the output matrix W


def local_loss(logits, bank):
    """The local loss a trace reports: the one the repulsion kernel
    returns with its gradient, 0 with no bank."""
    return repulsion(logits, bank)[0] if len(bank) else 0.0


def global_loss(h, bank):
    """The global loss a trace reports, from the hidden kernel."""
    return hidden(h, bank, HEAD)[0] if len(bank) else 0.0


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])

    def test_shift_invariance(self):
        for c in (-1e5, 0.0, 3.7, 1e5):
            np.testing.assert_allclose(softmax([c] * 4, ), [0.25] * 4)

    def test_derived_value(self):
        np.testing.assert_allclose(
            softmax([math.log(1), math.log(3)]), [0.25, 0.75], atol=1e-12)

    def test_output_is_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = softmax(rng.uniform(-50, 50, size=rng.integers(2, 30)))
            assert np.all(p >= 0)
            assert abs(p.sum() - 1.0) < 1e-9


class TestLocalLoss:
    def test_empty_bank_is_zero(self):
        assert local_loss([1.0, 2.0], []) == 0.0

    def test_single_reference(self):
        assert local_loss([0.0, 0.0], [np.array([1.0, 0.0])]) == \
            pytest.approx(0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            local_loss([0.0, 0.0], [np.array([1.0, 0.0, 0.0])])


class TestRepulsionGradient:
    def test_uniform_fixed_point(self):
        v = 5
        grad = repulsion(np.zeros(v), [np.full(v, 1.0 / v)])[1]
        np.testing.assert_allclose(grad, np.zeros(v), atol=1e-12)

    def test_derived_value(self):
        grad = repulsion([0.0, 0.0], [np.array([1.0, 0.0])])[1]
        np.testing.assert_allclose(grad, [0.25, -0.25], atol=1e-12)

    def test_sums_to_zero_on_simplex(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.integers(2, 40)
            logits = rng.standard_normal(v) * 3
            bank = [softmax(rng.standard_normal(v)) for _ in range(rng.integers(1, 5))]
            assert abs(repulsion(logits, bank)[1].sum()) < 1e-9

    def test_empty_bank_signals(self):
        for empty in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="empty reference bank"):
                repulsion([0.0, 0.0], empty)

    def test_max_aggregation_uses_most_similar(self):
        logits = np.array([3.0, 0.0])
        near = softmax([3.0, 0.0])
        far = softmax([-3.0, 0.0])
        grad = repulsion(logits, [far, near])[1]
        np.testing.assert_allclose(grad, repulsion(logits, [near])[1])


class TestGlobalLoss:
    def test_empty_bank(self):
        assert global_loss([1.0, 0.0], []) == 0.0

    def test_max_obvious(self):
        bank = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        assert global_loss([1.0, 0.0], bank) == pytest.approx(1.0)

    def test_tie_value(self):
        bank = [np.array([1.0, 1.0]), np.array([0.0, 3.0])]
        assert global_loss([2.0, 1.0], bank) == pytest.approx(3.0)


class TestHiddenGradient:
    def test_identity_singleton(self):
        head = np.eye(2)
        grad = hidden([1.0, 1.0], [np.array([0.3, 0.4])], head)[1]
        np.testing.assert_allclose(grad, [0.3, 0.4])

    def test_argmax_selection(self):
        head = np.eye(2)
        bank = [np.array([0.0, 1.0]), np.array([1.0, 0.0])]
        grad = hidden([1.0, 0.0], bank, head)[1]
        np.testing.assert_allclose(grad, [1.0, 0.0])

    def test_projection_applied(self):
        head = np.array([[2.0, 0.0], [0.0, 2.0]])
        grad = hidden([1.0, 1.0], [np.array([1.0, 0.0])], head)[1]
        np.testing.assert_allclose(grad, [2.0, 0.0])

    def test_first_index_wins_ties(self):
        head = np.eye(2)
        bank = [np.array([1.0, 1.0]), np.array([0.0, 3.0])]  # both dot to 3
        grad = hidden([2.0, 1.0], bank, head)[1]
        np.testing.assert_allclose(grad, [1.0, 1.0])

    def test_scale_invariance_of_argmax(self):
        rng = np.random.default_rng(5)
        head = rng.standard_normal((4, 3))
        h = rng.standard_normal(3)
        bank = [rng.standard_normal(3) for _ in range(5)]
        base = hidden(h, bank, head)[1]
        for c in (0.01, 7.0, 1e4):
            np.testing.assert_allclose(
                hidden(c * h, bank, head)[1], base)

    def test_empty_bank_signals(self):
        head = np.eye(2)
        for empty in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="empty reference bank"):
                hidden([1.0, 0.0], empty, head)


class TestLatentCosine:
    def test_self_cosine(self):
        z = np.array([0.3, -0.4, 1.0])
        assert latent_cosine_loss(z, [z.copy()]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert latent_cosine_loss([1.0, 0.0], [np.array([0.0, 2.0])]) == \
            pytest.approx(0.0)

    def test_derived_max(self):
        bank = [np.array([1.0, 0.0]), np.array([0.0, -1.0])]
        assert latent_cosine_loss([1.0, 1.0], bank) == \
            pytest.approx(1 / math.sqrt(2))

    def test_empty_bank_is_zero(self):
        assert latent_cosine_loss([1.0, 0.0], []) == 0.0

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError):
            latent_cosine_loss([0.0, 0.0], [np.array([1.0, 0.0])])
        with pytest.raises(ValueError):
            latent_cosine_loss([1.0, 0.0], [np.zeros(2)])

    def test_gradient_orthogonal_case(self):
        z = np.array([2.0, 0.0])
        y = np.array([0.0, 3.0])
        grad = latent(z, [y])[1]
        np.testing.assert_allclose(grad, y / (2.0 * 3.0), atol=1e-12)

    def test_gradient_vanishes_at_maximum(self):
        y = np.array([0.5, -1.0, 2.0])
        grad = latent(3.0 * y, [y])[1]
        np.testing.assert_allclose(grad, np.zeros(3), atol=1e-12)

    def test_gradient_derived_value(self):
        grad = latent([1.0, 0.0], [np.array([1.0, 1.0])])[1]
        np.testing.assert_allclose(grad, [0.0, 1 / math.sqrt(2)], atol=1e-12)

    def test_gradient_orthogonal_to_z(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = rng.integers(2, 20)
            z = rng.standard_normal(m)
            bank = [rng.standard_normal(m) for _ in range(rng.integers(1, 4))]
            grad = latent(z, bank)[1]
            assert abs(grad @ z) < 1e-9


class TestEmbeddingPenalty:
    def test_linearized_matches_latent_cosine(self):
        # tanh(z) ~ z near zero, so an identity embedder reduces to the
        # plain latent cosine gradient
        m = 4
        embedder = TanhEmbedder(u=np.eye(m), c=np.zeros(m))
        rng = np.random.default_rng(7)
        z = rng.standard_normal(m) * 1e-4
        bank = [rng.standard_normal(m)]
        grad = embedding(z, embedder, bank)[1]
        expected = latent(z, bank)[1]
        np.testing.assert_allclose(grad, expected, rtol=1e-4, atol=1e-8)

    def test_zero_at_cosine_maximum(self):
        rng = np.random.default_rng(8)
        embedder = TanhEmbedder(u=rng.standard_normal((3, 5)), c=rng.standard_normal(3))
        z = rng.standard_normal(5)
        e = embedder.embed(z)
        grad = embedding(z, embedder, [2.5 * e])[1]
        np.testing.assert_allclose(grad, np.zeros(5), atol=1e-9)

    def test_seeded_instance_matches_finite_differences(self):
        # frozen instance: latent size 8, embedding size 4, seed 7
        rng = np.random.default_rng(7)
        embedder = TanhEmbedder(u=rng.standard_normal((4, 8)),
                                c=rng.standard_normal(4))
        z = rng.standard_normal(8)
        bank = [rng.standard_normal(4) for _ in range(3)]
        analytic = embedding(z, embedder, bank)[1]

        def loss(x):
            e = embedder.embed(x)
            return max(e @ r / (np.linalg.norm(e) * np.linalg.norm(r))
                       for r in bank)

        h = 1e-6
        numeric = np.zeros(8)
        for i in range(8):
            d = np.zeros(8)
            d[i] = h
            numeric[i] = (loss(z + d) - loss(z - d)) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        assert rel < 1e-5

    def test_loss_empty_bank(self):
        embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
        assert embedding_cosine_loss([1.0, 2.0], embedder, []) == 0.0

    def test_empty_bank_signals(self):
        embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
        for empty in ([], np.empty((0, 2))):
            with pytest.raises(ValueError, match="empty reference bank"):
                embedding([1.0, 0.0], embedder, empty)


class TestNormalizeGradient:
    def test_constant_becomes_zero(self):
        np.testing.assert_allclose(
            normalize_gradient(np.full(7, 3.3), 1e-5), np.zeros(7), atol=1e-9)

    def test_derived_values(self):
        np.testing.assert_allclose(
            normalize_gradient(np.array([1.0, -1.0]), 1e-12), [1.0, -1.0],
            atol=1e-9)
        np.testing.assert_allclose(
            normalize_gradient(np.array([2.0, 0.0]), 1e-12), [1.0, -1.0],
            atol=1e-9)

    def test_moments(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            g = rng.standard_normal(rng.integers(2, 50)) * rng.uniform(0.1, 100)
            out = normalize_gradient(g, 1e-5)
            assert abs(out.mean()) < 1e-9
            assert out.var() <= 1.0 + 1e-12

    def test_variance_approaches_one(self):
        g = np.array([100.0, -100.0, 50.0, -50.0])
        out = normalize_gradient(g, 1e-5)
        assert out.var() == pytest.approx(1.0, abs=1e-6)

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            normalize_gradient(np.ones(3), 0.0)


class TestApplyUag:
    def test_zero_gradients_identity(self):
        y = np.array([1.0, 2.0, 3.0])
        out = apply_uag(y, np.zeros(3), np.zeros(3), StepWeights(1.0, 1.0))
        np.testing.assert_allclose(out, y)

    def test_zero_weights_identity(self):
        y = np.array([1.0, 2.0])
        out = apply_uag(y, np.ones(2), np.ones(2), StepWeights(0.0, 0.0))
        np.testing.assert_allclose(out, y)

    def test_derived_value(self):
        out = apply_uag(np.array([1.0, 1.0]), np.array([1.0, -1.0]),
                        np.zeros(2), StepWeights(0.5, 0.0))
        np.testing.assert_allclose(out, [0.5, 1.5])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_uag(np.ones(3), np.ones(2), np.ones(3), StepWeights(1.0, 1.0))


class TestUagLossValue:
    def test_empty_banks_zero(self):
        assert losses(0.0, 0.0, StepWeights(1.0, 1.0)) == (0.0, 0.0, 0.0)

    def test_local_only_weights(self):
        rng = np.random.default_rng(10)
        y = rng.standard_normal(4)
        bank = [softmax(rng.standard_normal(4))]
        loss, _ = repulsion(y, bank)
        loss_local, _, loss_total = losses(loss, 0.0, StepWeights(1.0, 0.0))
        assert loss_total == pytest.approx(loss_local)

    def test_recomposition(self):
        rng = np.random.default_rng(11)
        y = rng.standard_normal(4)
        h = rng.standard_normal(3)
        out_bank = [softmax(rng.standard_normal(4)) for _ in range(2)]
        hid_bank = [rng.standard_normal(3) for _ in range(2)]
        head = rng.standard_normal((4, 3))
        weights = StepWeights(0.7, 1.3)
        loss_total = losses(
            repulsion(y, out_bank)[0],
            hidden(h, hid_bank, head)[0],
            weights)[2]
        expected = (weights.w_local * ref_local_loss(y, out_bank)
                    + weights.w_global * ref_global_loss(h, hid_bank))
        assert loss_total == pytest.approx(expected, abs=1e-9)


class TestFlopsEstimate:
    def test_empty_banks_softmax_only(self):
        assert flops_estimate(10, 5, 0) == 40

    def test_hand_count(self):
        # V=4, N=2, d_h=0: softmax 16 + output dots 2*4*2=16 + repulsion
        # gradient of the most similar row 12 + local norm 20 + hidden
        # dots 0 + global norm 20
        assert flops_estimate(4, 0, 2) == 84

    def test_doubling_references_doubles_repulsion_term(self):
        # the per-reference part is the dots; the gradient is of one row
        one = flops_estimate(8, 0, 4) - flops_estimate(8, 0, 1)
        two = flops_estimate(8, 0, 7) - flops_estimate(8, 0, 1)
        assert two == 2 * one == 2 * 2 * 8 * 3

    def test_hidden_size_costs_only_the_dots(self):
        # the projected gradient is gathered from the model step's W h,
        # so d_h enters through the argmax dots alone, not a d_h*V product
        assert flops_estimate(64, 32, 5) - flops_estimate(64, 0, 5) == 2 * 32 * 5

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            flops_estimate(-1, 0, 0)

    def test_diffusion_estimate_zero_when_empty(self):
        assert diffusion_flops_estimate(16, 8, 0) == 0


class TestPenaltyConfig:
    """A run config's "penalty" section: its epsilon becomes the run's
    GenerationConfig.epsilon."""

    RAW = {"model": {"kind": "toy_ar", "vocab_size": 8, "hidden_size": 4},
           "max_steps": 4}

    def build(self, penalty=None):
        raw = dict(self.RAW) if penalty is None else {**self.RAW, "penalty": penalty}
        return build_run(raw, None, Path("."))[2]

    def test_defaults_valid(self):
        assert self.build().epsilon == DEFAULT_EPSILON == 1e-5
        assert self.build({"epsilon": 2e-5}).epsilon == 2e-5

    def test_rejects_bad_values(self):
        for bad in (0.0, -1e-5):
            with pytest.raises(ConfigError, match="epsilon must be positive"):
                self.build({"epsilon": bad})
