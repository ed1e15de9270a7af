"""One vector against one bank, through the penalty kernels' lane form.

The gradient functions in uag.penalty take a lane axis (token kernels)
or queries under a window (cosine kernels) and return (similarities,
gradient).  These adapters run one vector (dim,) against a bank
(n, dim) as a single lane and query, and return its similarities (n,)
and gradient (dim,).  `losses` reduces one query's similarities of
each kind through the step-wide uag_loss_value.
"""

import numpy as np

from uag.penalty import (
    embedding_penalty_gradient,
    hidden_gradient_projected,
    latent_cosine_gradient,
    repulsion_gradient,
    row_norms,
    uag_loss_value,
)


def _one(x):
    return np.asarray(x, dtype=float)[None]


def _bank(bank):
    return np.asarray(bank, dtype=float)[:, None]


def _norms_and_window(refs):
    return row_norms(refs), np.ones((1, len(refs)), dtype=bool)


def repulsion(logits, bank, aggregation="mean"):
    sims, grad = repulsion_gradient(_one(logits), _bank(bank), aggregation)
    return sims[0], grad[0]


def hidden(h, bank, proj):
    sims, grad = hidden_gradient_projected(_one(h), _bank(bank), proj)
    return sims[0], grad[0]


def latent(z, bank):
    refs = _bank(bank)
    sims, grad = latent_cosine_gradient(_one(_one(z)), refs, *_norms_and_window(refs))
    return sims[0, 0], grad[0, 0]


def embedding(z, embedder, bank):
    refs = _bank(bank)
    e = _one(_one(embedder.embed(np.asarray(z, dtype=float))))
    sims, grad = embedding_penalty_gradient(e, embedder, refs, *_norms_and_window(refs))
    return sims[0, 0], grad[0, 0]


def losses(local_sims, global_sims, cfg, weights):
    """(loss_local, loss_global, loss_total) of one query's (n,) local and
    global similarities ([] where it has no bank), as floats."""
    return tuple(float(loss[0]) for loss in
                 uag_loss_value(_one(local_sims), _one(global_sims), cfg, weights))
