"""Finite-difference verification of every analytic gradient."""

import numpy as np
from branch_oracle import ref_global_loss, ref_local_loss

from uag.penalty import (
    TanhEmbedder,
    embedding_penalty_gradient,
    hidden_gradient_projected,
    latent_cosine_gradient,
    repulsion_gradient,
    softmax,
)
from uag.schedule import StepWeights


def central_difference(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = h
        grad[i] = (fn(x + bump) - fn(x - bump)) / (2 * h)
    return grad


def relative_error(analytic, numeric):
    scale = max(np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / scale


def argmax_margin(scores):
    """Gap between the best and second-best similarity."""
    ordered = np.sort(scores)
    return ordered[-1] - ordered[-2] if len(ordered) > 1 else np.inf


def test_repulsion_gradient_matches_finite_differences():
    rng = np.random.default_rng(100)
    for _ in range(100):
        v = int(rng.integers(2, 65))
        logits = rng.standard_normal(v) * 2
        bank = [softmax(rng.standard_normal(v)) for _ in range(rng.integers(1, 5))]
        analytic = repulsion_gradient(logits, bank)
        numeric = central_difference(
            lambda y: ref_local_loss(y, bank, "mean"), logits)
        assert relative_error(analytic, numeric) < 1e-5


def test_hidden_gradient_matches_finite_differences():
    # restricted to the gradient w.r.t. the hidden state, before the
    # output-matrix projection
    rng = np.random.default_rng(101)
    checked = 0
    while checked < 100:
        d = int(rng.integers(2, 65))
        h = rng.standard_normal(d)
        bank = [rng.standard_normal(d) for _ in range(rng.integers(1, 5))]
        if argmax_margin(np.array([h @ b for b in bank])) < 1e-3:
            continue  # finite differences would straddle the max kink
        identity = np.eye(d)

        class _Proj:
            w = identity

        analytic = hidden_gradient_projected(h, bank, _Proj())
        numeric = central_difference(
            lambda x: ref_global_loss(x, bank, "max"), h)
        assert relative_error(analytic, numeric) < 1e-5
        checked += 1


def test_latent_cosine_gradient_matches_finite_differences():
    rng = np.random.default_rng(102)
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 65))
        z = rng.standard_normal(m)
        bank = [rng.standard_normal(m) for _ in range(rng.integers(1, 5))]
        sims = np.array([z @ y / (np.linalg.norm(z) * np.linalg.norm(y))
                         for y in bank])
        if argmax_margin(sims) < 1e-3:
            continue
        analytic = latent_cosine_gradient(z, bank)

        def loss(x):
            return max(x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                       for y in bank)

        numeric = central_difference(loss, z)
        assert relative_error(analytic, numeric) < 1e-5
        checked += 1


def test_embedding_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        m = int(rng.integers(2, 17))
        e_dim = int(rng.integers(2, 9))
        embedder = TanhEmbedder(u=rng.standard_normal((e_dim, m)),
                                c=rng.standard_normal(e_dim) * 0.2)
        z = rng.standard_normal(m)
        bank = [rng.standard_normal(e_dim) for _ in range(rng.integers(1, 4))]
        e = embedder.embed(z)
        sims = np.array([e @ r / (np.linalg.norm(e) * np.linalg.norm(r))
                         for r in bank])
        if argmax_margin(sims) < 1e-3:
            continue
        analytic = embedding_penalty_gradient(z, embedder, bank)

        def loss(x):
            ex = embedder.embed(x)
            return max(ex @ r / (np.linalg.norm(ex) * np.linalg.norm(r))
                       for r in bank)

        numeric = central_difference(loss, z)
        assert relative_error(analytic, numeric) < 1e-5
        checked += 1


def _random_lm_instance(rng):
    v = int(rng.integers(4, 33))
    d = int(rng.integers(3, 9))
    y = rng.standard_normal(v) * 2
    out_bank = [softmax(rng.standard_normal(v)) for _ in range(rng.integers(1, 5))]
    h = rng.standard_normal(d)
    hid_bank = [rng.standard_normal(d) for _ in range(rng.integers(1, 4))]
    weights = StepWeights(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))
    return y, out_bank, h, hid_bank, weights


def _uag_loss(y, out_bank, h, hid_bank, weights):
    # the hidden state does not depend on the logits, so the global term
    # is constant under logit updates; the mean-aggregated local path is
    # the one whose exact gradient the repulsion formula provides
    return (weights.w_local * ref_local_loss(y, out_bank, "mean")
            + weights.w_global * ref_global_loss(h, hid_bank, "max"))


def run_monotonicity_trial(instances, eta, seed=200):
    """Count UAG-loss decreases under the raw-gradient logit update."""
    rng = np.random.default_rng(seed)
    decreases = 0
    failures = []
    for _ in range(instances):
        y, out_bank, h, hid_bank, weights = _random_lm_instance(rng)
        grad = weights.w_local * repulsion_gradient(y, out_bank)
        before = _uag_loss(y, out_bank, h, hid_bank, weights)
        after = _uag_loss(y - eta * grad, out_bank, h, hid_bank, weights)
        if after <= before:
            decreases += 1
        else:
            failures.append(float(np.linalg.norm(grad)))
    return decreases, failures


def test_raw_gradient_step_monotonically_decreases_loss():
    for eta in (1e-3, 1e-4):
        decreases, failures = run_monotonicity_trial(1000, eta)
        assert decreases >= 990, f"eta={eta}: only {decreases}/1000 decreased"
        assert all(norm < 1e-8 for norm in failures), \
            f"eta={eta}: non-degenerate failures {failures}"


def test_normalized_update_behavior_reported_not_asserted():
    # the guarantee holds for the raw gradient; the variance-normalized
    # update is only observed here
    rng = np.random.default_rng(201)
    decreases = 0
    trials = 200
    from uag.penalty import normalize_gradient

    for _ in range(trials):
        y, out_bank, h, hid_bank, weights = _random_lm_instance(rng)
        grad = normalize_gradient(repulsion_gradient(y, out_bank), 1e-5)
        before = _uag_loss(y, out_bank, h, hid_bank, weights)
        after = _uag_loss(y - weights.w_local * 1e-4 * grad, out_bank, h,
                          hid_bank, weights)
        decreases += after <= before
    print(f"normalized-update decrease rate: {decreases}/{trials}")
    assert trials > 0
