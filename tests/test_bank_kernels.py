"""The array penalty kernels against per-reference loop formulas.

The reference functions in branch_oracle loop over the bank one
reference at a time, the way the penalties were first written; the
kernels in uag.penalty do one matrix product over a stacked bank, here
through one lane (see one_lane).  Both must agree to 1e-12 on every bank
shape the step loops can produce.
"""

import numpy as np
import pytest
from branch_oracle import (
    ref_embedding_gradient,
    ref_global_loss,
    ref_hidden_gradient,
    ref_latent_gradient,
    ref_latent_loss,
    ref_local_loss,
    ref_normalize,
    ref_repulsion,
)
from one_lane import embedding, hidden, latent, losses, repulsion

from uag.penalty import (
    EmptyBankError,
    OutputProjection,
    PenaltyConfig,
    TanhEmbedder,
    embedding_cosine_loss,
    embedding_penalty_gradient,
    hidden_gradient_projected,
    latent_cosine_gradient,
    latent_cosine_loss,
    normalize_gradient,
    repulsion_gradient,
    softmax,
)
from uag.schedule import StepWeights

TOL = 1e-12
CAPACITY = 6
WEIGHTS = StepWeights(1.0, 1.0)


def _close(a, b):
    np.testing.assert_allclose(a, b, rtol=TOL, atol=TOL)


def _banks(rng, dim, make):
    """Random banks of every size from 1 to CAPACITY, as lists and arrays,
    plus banks with an exact duplicate of an earlier row."""
    for n in range(1, CAPACITY + 1):
        rows = [make(rng, dim) for _ in range(n)]
        yield rows
        yield np.array(rows)
        if n > 1:
            dup = rows + [rows[int(rng.integers(n))].copy()]
            yield dup
            yield np.array(dup)


def _dist(rng, v):
    return softmax(rng.standard_normal(v) * 2)


def _gauss(rng, d):
    return rng.standard_normal(d)


@pytest.mark.parametrize("how", ["max", "mean"])
def test_output_kernels_match_the_loop(how):
    rng = np.random.default_rng(0)
    cfg = PenaltyConfig(local_aggregation=how)
    for bank in _banks(rng, 24, _dist):
        y = rng.standard_normal(24) * 3
        sims, grad = repulsion(y, bank, how)
        _close(losses(sims, [], cfg, WEIGHTS)[0],
               ref_local_loss(y, bank, how))
        _close(grad, ref_repulsion(y, bank, how))


@pytest.mark.parametrize("how", ["max", "mean"])
def test_hidden_kernels_match_the_loop(how):
    rng = np.random.default_rng(1)
    cfg = PenaltyConfig(global_aggregation=how)
    proj = OutputProjection(w=rng.standard_normal((20, 12)), b=np.zeros(20))
    for bank in _banks(rng, 12, _gauss):
        h = rng.standard_normal(12)
        sims, grad = hidden(h, bank, proj)
        _close(losses([], sims, cfg, WEIGHTS)[1],
               ref_global_loss(h, bank, how))
        _close(grad, ref_hidden_gradient(h, bank, proj.w))


@pytest.mark.parametrize("how", ["max", "mean"])
def test_cosine_kernels_match_the_loop(how):
    rng = np.random.default_rng(2)
    cfg = PenaltyConfig(local_aggregation=how, global_aggregation=how)
    embedder = TanhEmbedder(u=rng.standard_normal((5, 9)), c=rng.standard_normal(5))
    for bank in _banks(rng, 9, _gauss):
        z = rng.standard_normal(9)
        _close(latent_cosine_loss(z, bank, cfg), ref_latent_loss(z, bank, how))
        _close(latent(z, bank)[1], ref_latent_gradient(z, bank))
    for bank in _banks(rng, 5, _gauss):
        z = rng.standard_normal(9)
        _close(embedding_cosine_loss(z, embedder, bank, cfg),
               ref_latent_loss(embedder.embed(z), bank, how))
        _close(embedding(z, embedder, bank)[1], ref_embedding_gradient(z, embedder, bank))


def test_lowest_index_wins_an_exact_tie():
    # rows 0 and 2 tie for the maximum; row 2 differs from row 0 so the
    # selected index shows in the result
    proj = OutputProjection(w=np.eye(2), b=np.zeros(2))
    bank = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 3.0]])
    _close(hidden([2.0, 1.0], bank, proj)[1], [1.0, 1.0])
    _close(repulsion([0.0, 0.0], np.array([[0.2, 0.8], [0.8, 0.2], [0.2, 0.8]]), "max")[1],
           ref_repulsion(np.zeros(2), [np.array([0.2, 0.8])], "max"))


def test_normalize_matches_mean_and_var():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = rng.standard_normal(int(rng.integers(2, 70))) * rng.uniform(0.1, 50)
        np.testing.assert_array_equal(normalize_gradient(g, 1e-5), ref_normalize(g, 1e-5))


def test_empty_and_zero_norm_banks_raise():
    embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
    proj = OutputProjection(w=np.eye(2), b=np.zeros(2))
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(EmptyBankError):
            repulsion([0.0, 1.0], empty)
        with pytest.raises(EmptyBankError):
            hidden([0.0, 1.0], empty, proj)
        with pytest.raises(EmptyBankError):
            latent([0.0, 1.0], empty)
        with pytest.raises(EmptyBankError):
            embedding([0.0, 1.0], embedder, empty)
        assert latent_cosine_loss([0.0, 1.0], empty, PenaltyConfig()) == 0.0
    for bank in ([np.array([1.0, 0.0]), np.zeros(2)], np.array([[1.0, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError, match="zero-norm"):
            latent([1.0, 1.0], bank)
        with pytest.raises(ValueError, match="zero-norm"):
            latent_cosine_loss([1.0, 1.0], bank, PenaltyConfig())
    with pytest.raises(ValueError, match="zero-norm"):
        latent([0.0, 0.0], np.array([[1.0, 0.0]]))


def test_shape_mismatches_raise():
    # a bank of 3 lanes against 2 lanes, and one vector outside the lane
    # form, which no kernel reads as one lane
    proj = OutputProjection(w=np.eye(2), b=np.zeros(2))
    embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
    bank = np.ones((4, 3, 2))
    norms, window = np.full((4, 3), np.sqrt(2.0)), np.ones((1, 4), dtype=bool)
    for x in (np.ones((2, 2)), np.ones(2)):
        with pytest.raises(ValueError, match="reference shape"):
            repulsion_gradient(x, bank)
        with pytest.raises(ValueError, match="reference shape"):
            hidden_gradient_projected(x, bank, proj)
    for z in (np.ones((1, 2, 2)), np.ones((3, 2))):
        with pytest.raises(ValueError, match="reference shape"):
            latent_cosine_gradient(z, bank, norms, window)
        with pytest.raises(ValueError, match="reference shape"):
            embedding_penalty_gradient(z, embedder, bank, norms, window)
