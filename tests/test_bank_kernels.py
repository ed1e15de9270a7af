"""The array penalty kernels against per-reference loop formulas.

The reference functions below loop over the bank one reference at a
time, the way the penalties were first written; the kernels in
uag.penalty do one matrix product over a stacked bank.  Both must agree
to 1e-12 on every bank shape the step loops can produce.
"""

import numpy as np
import pytest

from uag.penalty import (
    EmptyBankError,
    OutputProjection,
    PenaltyConfig,
    TanhEmbedder,
    embedding_cosine_loss,
    embedding_penalty_gradient,
    global_loss_hidden,
    hidden_gradient_projected,
    latent_cosine_gradient,
    latent_cosine_loss,
    local_loss_softmax,
    normalize_gradient,
    repulsion_gradient,
    row_norms,
    softmax,
)
from uag.process import BranchContribution, ReferenceBankSet

TOL = 1e-12
CAPACITY = 6


def _aggregate(sims, how):
    return float(np.max(sims)) if how == "max" else float(np.mean(sims))


def _cosine(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero-norm vector")
    return float(a @ b / (na * nb))


def ref_local_loss(logits, bank, how):
    if not len(bank):
        return 0.0
    p = softmax(logits)
    return _aggregate(np.array([p @ q for q in bank]), how)


def ref_repulsion(logits, bank, how):
    if not len(bank):
        raise EmptyBankError("empty")
    p = softmax(logits)
    refs = list(bank)
    if how == "max":
        refs = [refs[int(np.argmax([p @ q for q in refs]))]]
    grad = np.zeros_like(p)
    for q in refs:
        grad += p * q - (p @ q) * p
    return grad / len(refs)


def ref_global_loss(h, bank, how):
    if not len(bank):
        return 0.0
    return _aggregate(np.array([h @ b for b in bank]), how)


def ref_hidden_gradient(h, bank, w):
    if not len(bank):
        raise EmptyBankError("empty")
    return w @ bank[int(np.argmax([h @ b for b in bank]))]


def ref_latent_loss(z, bank, how):
    if not len(bank):
        return 0.0
    return _aggregate(np.array([_cosine(z, y) for y in bank]), how)


def ref_latent_gradient(z, bank):
    if not len(bank):
        raise EmptyBankError("empty")
    sims = [_cosine(z, y) for y in bank]
    idx = int(np.argmax(sims))
    nz, ny = np.linalg.norm(z), np.linalg.norm(bank[idx])
    return bank[idx] / (nz * ny) - (sims[idx] / nz**2) * z


def ref_embedding_gradient(z, embedder, bank):
    e = embedder.embed(z)
    return embedder.u.T @ ((1.0 - e**2) * ref_latent_gradient(e, bank))


def ref_normalize(g, eps):
    return (g - np.mean(g)) / np.sqrt(np.var(g) + eps)


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
        _close(local_loss_softmax(y, bank, cfg), ref_local_loss(y, bank, how))
        _close(repulsion_gradient(y, bank, how), ref_repulsion(y, bank, how))


@pytest.mark.parametrize("how", ["max", "mean"])
def test_hidden_kernels_match_the_loop(how):
    rng = np.random.default_rng(1)
    cfg = PenaltyConfig(global_aggregation=how)
    proj = OutputProjection(w=rng.standard_normal((20, 12)), b=np.zeros(20))
    for bank in _banks(rng, 12, _gauss):
        h = rng.standard_normal(12)
        _close(global_loss_hidden(h, bank, cfg), ref_global_loss(h, bank, how))
        _close(hidden_gradient_projected(h, bank, proj),
               ref_hidden_gradient(h, bank, proj.w))


@pytest.mark.parametrize("how", ["max", "mean"])
def test_cosine_kernels_match_the_loop(how):
    rng = np.random.default_rng(2)
    cfg = PenaltyConfig(local_aggregation=how, global_aggregation=how)
    embedder = TanhEmbedder(u=rng.standard_normal((5, 9)), c=rng.standard_normal(5))
    for bank in _banks(rng, 9, _gauss):
        z = rng.standard_normal(9)
        norms = row_norms(bank)
        for given in (None, norms):
            _close(latent_cosine_loss(z, bank, cfg, given),
                   ref_latent_loss(z, bank, how))
            _close(latent_cosine_gradient(z, bank, given),
                   ref_latent_gradient(z, bank))
    for bank in _banks(rng, 5, _gauss):
        z = rng.standard_normal(9)
        e = embedder.embed(z)
        for embedded, norms in ((None, None), (e, row_norms(bank))):
            _close(embedding_cosine_loss(z, embedder, bank, cfg, embedded, norms),
                   ref_latent_loss(e, bank, how))
            _close(embedding_penalty_gradient(z, embedder, bank, embedded, norms),
                   ref_embedding_gradient(z, embedder, bank))


def test_lowest_index_wins_an_exact_tie():
    # rows 0 and 2 tie for the maximum; row 2 differs from row 0 so the
    # selected index shows in the result
    proj = OutputProjection(w=np.eye(2), b=np.zeros(2))
    bank = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 3.0]])
    _close(hidden_gradient_projected([2.0, 1.0], bank, proj), [1.0, 1.0])
    _close(repulsion_gradient([0.0, 0.0], np.array([[0.2, 0.8], [0.8, 0.2], [0.2, 0.8]]),
                              "max"), ref_repulsion(np.zeros(2), [np.array([0.2, 0.8])], "max"))


def test_normalize_matches_mean_and_var():
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = rng.standard_normal(int(rng.integers(2, 70))) * rng.uniform(0.1, 50)
        np.testing.assert_array_equal(normalize_gradient(g, 1e-5), ref_normalize(g, 1e-5))


def test_banks_after_eviction_match_the_loop():
    rng = np.random.default_rng(4)
    steps, v, d, m = 3, 10, 4, 6
    banks = ReferenceBankSet(capacity_per_step=3)
    committed = []
    for _ in range(5):  # two evictions per step
        contrib = BranchContribution(
            outputs={t: _dist(rng, v) for t in range(1, steps + 1)},
            hiddens={t: rng.standard_normal(d) for t in range(1, steps + 1)},
            latents={t: rng.standard_normal(m) for t in range(1, steps + 1)})
        committed.append({kind: {t: r.copy() for t, r in getattr(contrib, kind).items()}
                          for kind in ("outputs", "hiddens", "latents")})
        banks.commit(contrib)
    kept = committed[-3:]
    for t in range(1, steps + 1):
        outputs = [c["outputs"][t] for c in kept]
        hiddens = [c["hiddens"][t] for c in kept]
        latents = [c["latents"][t] for c in kept]
        np.testing.assert_array_equal(banks.outputs_at(t), outputs)
        np.testing.assert_array_equal(banks.hiddens_at(t), hiddens)
        np.testing.assert_array_equal(banks.latents_at(t), latents)
        y, z = rng.standard_normal(v), rng.standard_normal(m)
        _close(repulsion_gradient(y, banks.outputs_at(t)), ref_repulsion(y, outputs, "mean"))
        _close(latent_cosine_gradient(z, banks.latents_at(t), banks.latent_norms_at(t)),
               ref_latent_gradient(z, latents))
        _close(banks.hidden_norms_at(t), [np.linalg.norm(r) for r in hiddens])


def test_committed_rows_stay_with_their_contribution():
    rng = np.random.default_rng(5)
    banks = ReferenceBankSet(capacity_per_step=2)
    contribs, copies = [], []
    for _ in range(4):
        contrib = BranchContribution(outputs={1: _dist(rng, 5), 2: _dist(rng, 5)})
        copies.append({t: r.copy() for t, r in contrib.outputs.items()})
        banks.commit(contrib)
        contribs.append(contrib)
    for contrib, copy in zip(contribs, copies):
        for t in (1, 2):
            np.testing.assert_array_equal(contrib.outputs[t], copy[t])
    with pytest.raises(ValueError):
        contribs[-1].outputs[1][0] = 0.0  # banked rows are read-only
    contribs[0].outputs[1][0] = 0.0  # evicted rows are the owner's own copy


def test_empty_and_zero_norm_banks_raise():
    embedder = TanhEmbedder(u=np.eye(2), c=np.zeros(2))
    proj = OutputProjection(w=np.eye(2), b=np.zeros(2))
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(EmptyBankError):
            repulsion_gradient([0.0, 1.0], empty)
        with pytest.raises(EmptyBankError):
            hidden_gradient_projected([0.0, 1.0], empty, proj)
        with pytest.raises(EmptyBankError):
            latent_cosine_gradient([0.0, 1.0], empty)
        with pytest.raises(EmptyBankError):
            embedding_penalty_gradient([0.0, 1.0], embedder, empty)
        assert latent_cosine_loss([0.0, 1.0], empty, PenaltyConfig()) == 0.0
    for bank in ([np.array([1.0, 0.0]), np.zeros(2)], np.array([[1.0, 0.0], [0.0, 0.0]])):
        with pytest.raises(ValueError):
            latent_cosine_gradient([1.0, 1.0], bank)
        with pytest.raises(ValueError):
            latent_cosine_loss([1.0, 1.0], bank, PenaltyConfig())
    with pytest.raises(ValueError):
        latent_cosine_gradient([0.0, 0.0], np.array([[1.0, 0.0]]))


def test_a_contribution_over_other_steps_is_rejected():
    banks = ReferenceBankSet(2)
    banks.commit(BranchContribution(outputs={1: np.ones(3) / 3}))
    with pytest.raises(ValueError):
        banks.commit(BranchContribution(outputs={1: np.ones(3) / 3, 2: np.ones(3) / 3}))
