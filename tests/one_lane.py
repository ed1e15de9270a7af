"""One vector against one bank, through the penalty kernels' one form.

Every gradient function in uag.penalty takes queries (q, lanes, dim)
against a bank (n, lanes, dim) under a (q, n) window and returns
(similarities, gradient).  These adapters run one vector (dim,) against
a bank (n, dim) as a single query and lane whose window holds every row,
and return its similarities (n,) and gradient (dim,).  `losses` reduces
one query's similarities of each kind through the step-wide
uag_loss_value.
"""

import numpy as np

from uag.penalty import (
    embedding_penalty_gradient,
    hidden_gradient_projected,
    lane_matvec,
    latent_cosine_gradient,
    repulsion_gradient,
    row_norms,
    uag_loss_value,
)


def _one(x):
    return np.asarray(x, dtype=float)[None]


def _query(x):
    """One vector as a single query and lane."""
    return _one(_one(x))


def _bank_and_window(bank):
    refs = np.asarray(bank, dtype=float)[:, None]
    return refs, np.ones((1, len(refs)), dtype=bool)


def _unwrap(sims, grad):
    return sims[0, 0], grad[0, 0]


def repulsion(logits, bank):
    return _unwrap(*repulsion_gradient(_query(logits), *_bank_and_window(bank)))


def hidden(h, bank, w):
    """Against the bank's rows projected by the output matrix w, as the
    model step projects them."""
    refs, window = _bank_and_window(bank)
    projected = lane_matvec(w, refs) if refs.size else refs  # an empty bank raises
    return _unwrap(*hidden_gradient_projected(_query(h), refs, projected, window))


def latent(z, bank):
    refs, window = _bank_and_window(bank)
    return _unwrap(*latent_cosine_gradient(_query(z), refs, row_norms(refs), window))


def embedding(z, embedder, bank):
    refs, window = _bank_and_window(bank)
    e = _query(embedder.embed(np.asarray(z, dtype=float)))
    return _unwrap(*embedding_penalty_gradient(e, embedder, refs, row_norms(refs), window))


def losses(local_sims, global_sims, weights):
    """(loss_local, loss_global, loss_total) of one query's (n,) local and
    global similarities ([] where it has no bank), as floats."""
    return tuple(float(loss[0]) for loss in
                 uag_loss_value(_one(local_sims), _one(global_sims), weights))
