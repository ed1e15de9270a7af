"""One vector against one bank, through the penalty kernels' one form.

Every gradient function in uag.penalty takes queries (q, lanes, dim)
against a bank (n, lanes, dim) under a (q, n) window and returns
(loss, gradient): each query's max similarity over its window and the
gradient of that max.  These adapters run one vector (dim,) against a
bank (n, dim) as a single query and lane whose window holds every row,
and return its loss as a float and its gradient (dim,).  `repulsion`
takes logits and hands the kernel their softmax, as the token step
does.  `losses` forms one query's trace losses through the step-wide
uag_loss_value.
"""

import numpy as np

from uag.penalty import (
    embedding_penalty_gradient,
    hidden_gradient_projected,
    lane_matvec,
    latent_cosine_gradient,
    repulsion_gradient,
    softmax,
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


def _unwrap(loss, grad):
    return float(loss[0, 0]), grad[0, 0]


def repulsion(logits, bank):
    return _unwrap(*repulsion_gradient(_query(softmax(logits)), *_bank_and_window(bank)))


def hidden(h, bank, w):
    """Against the bank's rows projected by the output matrix w, as the
    model step projects them."""
    refs, window = _bank_and_window(bank)
    projected = lane_matvec(w, refs) if refs.size else refs  # an empty bank raises
    return _unwrap(*hidden_gradient_projected(_query(h), refs, projected, window))


def latent(z, bank):
    refs, window = _bank_and_window(bank)
    return _unwrap(*latent_cosine_gradient(_query(z), refs, window))


def embedding(z, embedder, bank):
    refs, window = _bank_and_window(bank)
    e = _query(embedder.embed(np.asarray(z, dtype=float)))
    return _unwrap(*embedding_penalty_gradient(e, embedder, refs, window))


def losses(loss_local, loss_global, weights):
    """(loss_local, loss_global, loss_total) of one query's local and
    global losses (0.0 where it has no bank), as floats."""
    return (float(loss_local), float(loss_global),
            float(uag_loss_value(loss_local, loss_global, weights)))
