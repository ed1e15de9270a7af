"""Branch-major reference loop: the decoder as it was first written.

Each branch runs all of its steps against banks of the branches
committed before it, and is committed once it finishes.  A bank is a
list of rows per step, oldest first; at capacity the oldest row is
dropped.  The penalty formulas below loop over a bank one reference at
a time, the way the penalties were first written, and the trace losses
are computed apart from the gradients; nothing here calls uag.penalty's
similarity or gradient functions.  Tests compare uag.process.multi_branch
against this loop, and the penalty functions against these formulas.
"""

import numpy as np

from uag.penalty import (
    EmptyBankError,
    UagStepRecord,
    diffusion_flops_estimate,
    flops_estimate,
    softmax,
)
from uag.process import Branch, ToyDiffusion, ddim_step, prompt_state
from uag.schedule import schedule_weights


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


def ref_repulsion(logits, bank, how="mean"):
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


def ref_sample(logits, temperature, rng):
    cum = np.cumsum(softmax(np.asarray(logits) / temperature))
    return min(int(np.searchsorted(cum, rng.random(), side="right")), len(cum) - 1)


class ListBanks:
    """Per-step row lists of the committed branches, newest `capacity` kept."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = {"outputs": {}, "hiddens": {}, "latents": {}}

    def at(self, kind, step):
        return self.rows[kind].get(step, [])

    def commit(self, contrib):
        for kind, per_step in contrib.items():
            for step, row in per_step.items():
                bank = self.rows[kind].setdefault(step, [])
                bank.append(np.array(row))
                if len(bank) > self.capacity:
                    bank.pop(0)


def _record(step, weights, loss_local, loss_global, flops):
    return UagStepRecord(
        step=step, loss_local=loss_local, loss_global=loss_global,
        loss_total=weights.w_local * loss_local + weights.w_global * loss_global,
        w_local=weights.w_local, w_global=weights.w_global, flops=flops)


def ar_branch(model, prompt, cfg, banks, rng):
    h, last = prompt_state(model, prompt)
    tokens, trace, flops = [], [], 0
    contrib = {"outputs": {}, "hiddens": {}}
    pen = cfg.penalty
    for step in range(1, cfg.max_steps + 1):
        y, h_new = model.step(h, last)
        weights = schedule_weights(step, cfg.schedule)
        flops += model.step_flops()
        out_refs = banks.at("outputs", step) if cfg.uag_enabled else []
        hid_refs = banks.at("hiddens", step) if cfg.uag_enabled else []
        step_flops = 0
        y_hat = y
        if out_refs:
            g_local = ref_normalize(ref_repulsion(y, out_refs), pen.epsilon)
            g_global = ref_normalize(
                ref_hidden_gradient(h_new, hid_refs, model.proj.w), pen.epsilon)
            y_hat = y - (weights.w_local * g_local + weights.w_global * g_global)
            step_flops = flops_estimate(model.vocab_size, model.hidden_size,
                                        len(out_refs), len(hid_refs))
            flops += step_flops
        trace.append(_record(step, weights,
                             ref_local_loss(y, out_refs, pen.local_aggregation),
                             ref_global_loss(h_new, hid_refs, pen.global_aggregation),
                             step_flops))
        tok = ref_sample(y_hat, cfg.temperature, rng)
        tokens.append(tok)
        contrib["outputs"][step] = softmax(y_hat)
        contrib["hiddens"][step] = h_new
        h, last = h_new, tok
    return Branch(tokens=tokens, final_latent=None, trace=trace,
                  total_flops=flops), contrib


def diffusion_branch(model, init, cfg, banks, rng):
    z = np.asarray(init, dtype=float) if init is not None else rng.standard_normal(
        model.latent_size)
    trace, flops = [], 0
    contrib = {"latents": {}, "hiddens": {}}
    pen = cfg.penalty
    for step in range(1, model.steps + 1):
        tau = model.steps - step + 1
        y = model.predict_noise(z, tau)
        weights = schedule_weights(step, cfg.schedule)
        flops += model.step_flops()
        e = model.embedder.embed(z)
        lat_refs = banks.at("latents", step) if cfg.uag_enabled else []
        emb_refs = banks.at("hiddens", step) if cfg.uag_enabled else []
        step_flops = 0
        y_hat = y
        if lat_refs:
            g_local = -ref_normalize(ref_latent_gradient(z, lat_refs), pen.epsilon)
            g_global = -ref_normalize(
                ref_embedding_gradient(z, model.embedder, emb_refs), pen.epsilon)
            y_hat = y - (weights.w_local * g_local + weights.w_global * g_global)
            step_flops = diffusion_flops_estimate(model.latent_size, model.embed_size,
                                                  len(lat_refs), len(emb_refs))
            flops += step_flops
        trace.append(_record(step, weights,
                             ref_latent_loss(z, lat_refs, pen.local_aggregation),
                             ref_latent_loss(e, emb_refs, pen.global_aggregation),
                             step_flops))
        contrib["latents"][step] = z.copy()
        contrib["hiddens"][step] = e
        z = ddim_step(z, y_hat, tau, model)
    return Branch(tokens=None, final_latent=z, trace=trace, total_flops=flops), contrib


def oracle_multi_branch(model, prompt, cfg):
    """cfg.branches branches, one after another, each committed when done."""
    banks = ListBanks(cfg.bank_capacity)
    run = diffusion_branch if isinstance(model, ToyDiffusion) else ar_branch
    branches = []
    for i in range(cfg.branches):
        rng = np.random.default_rng(cfg.seed + i)
        branch, contrib = run(model, prompt, cfg, banks, rng)
        banks.commit(contrib)
        branches.append(branch)
    return branches


def assert_same(got, want, tol=1e-12):
    """Tokens and flops equal; trace values and latents within tol."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.tokens == w.tokens
        assert g.total_flops == w.total_flops
        assert [r.step for r in g.trace] == [r.step for r in w.trace]
        assert [r.flops for r in g.trace] == [r.flops for r in w.trace]
        for name in ("loss_local", "loss_global", "loss_total", "w_local", "w_global"):
            np.testing.assert_allclose([getattr(r, name) for r in g.trace],
                                       [getattr(r, name) for r in w.trace],
                                       rtol=0, atol=tol, err_msg=name)
        if w.final_latent is not None:
            np.testing.assert_allclose(g.final_latent, w.final_latent, rtol=0, atol=tol)
