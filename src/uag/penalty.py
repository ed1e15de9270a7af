"""Similarity losses, their analytic gradients, and the avoidance update.

All gradients here are closed-form; no automatic differentiation is used.
The local penalty acts on the output representation (softmax distribution
for token processes, latent for diffusion), the global penalty on the
hidden/semantic representation.  Gradients are variance-normalized before
being weighted and subtracted from the raw output.  Each gradient function
has one calling form, windowed queries against a lane-batched bank,
and returns its loss with its gradient (see above _lanes).
latent_cosine_gradient is the one cosine kernel; the embedding penalty
chains it through e(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_EPSILON = 1e-5
# Bound on the shift one weighted penalty gradient makes to one output
# entry (max_weight).  A shift of even 1e3 saturates a softmax; this one
# is far from the float range's 1.8e308, in which the decode's squares
# and temperature divisions of the penalized outputs must stay.
MAX_SHIFT = 1e100
# Largest matrix lane_matvec multiplies in one piece (512 KiB of float64,
# a quarter of a 2 MiB per-core L2); a larger one goes through in row
# blocks of about this many floats.
BLOCK_FLOATS = 2**16


def lane_matvec(a: np.ndarray, x, out: np.ndarray | None = None) -> np.ndarray:
    """a @ x[l] for every lane l of x (lanes, k), as (lanes, rows).

    Each lane is one matrix-vector product, the same one a single vector
    gets, so a lane's result does not depend on which other lanes
    decode beside it.  A 1-D x is one vector.  `out`, if given, receives
    the result.

    An `a` of more than BLOCK_FLOATS floats is multiplied in row blocks,
    each against every lane before the next, so that one block stays in
    cache for all lanes instead of each lane streaming all of `a`.  A
    block's row count is a multiple of 8 and the last block takes any
    remainder short of 8 rows, so every block starts at the alignment
    the whole matrix has, and no block is a single row, which numpy
    would hand to a dot product instead of the matrix-vector kernel.
    Each output row is then the same dot product over k that one
    product of all of `a` computes, byte for byte, and lanes stay
    independent because each lane is still its own product per block.
    """
    x = np.asarray(x, dtype=float)[..., None]
    rows, k = a.shape
    if rows * k <= BLOCK_FLOATS:
        return np.matmul(a, x, out=None if out is None else out[..., None])[..., 0]
    if out is None:
        out = np.empty(x.shape[:-2] + (rows,), dtype=np.result_type(a, x))
    block = max(8, BLOCK_FLOATS // k // 8 * 8)
    start = 0
    for stop in (*range(block, rows - 7, block), rows):
        np.matmul(a[start:stop], x, out=out[..., start:stop, None])
        start = stop
    return out


class UagStepRecord(NamedTuple):
    """Per-step trace of the avoidance losses and weights."""

    step: int
    loss_local: float
    loss_global: float
    loss_total: float
    w_local: float
    w_global: float
    flops: int = 0


@dataclass(frozen=True)
class TanhEmbedder:
    """Fixed embedding surrogate e(z) = tanh(u @ z + c)."""

    u: np.ndarray
    c: np.ndarray

    def embed(self, z: np.ndarray) -> np.ndarray:
        """e(z) of z, which may carry a leading lane axis."""
        return np.tanh(lane_matvec(self.u, z) + self.c)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax along the last axis."""
    x = np.asarray(logits, dtype=float)
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# Each penalty is the maximum similarity over its bank: dot products for
# token models, latent and embedding cosines for diffusion.  Every
# kernel takes queries (q, lanes, dim) against one bank (n, lanes, dim),
# oldest row first, one independent decode per lane, and a (q, n)
# boolean window: query i's bank is the rows j with window[i, j].  Each
# returns (loss, gradient): the loss (q, lanes) is each query's max
# similarity over its window, the one the trace reports, and the
# gradient (q, lanes, ...) is that of the most similar row (lowest
# index on ties), the one the update applies.  Every kernel raises
# ValueError on an empty bank; the cosine kernel, which the embedding
# penalty chains through e(z), also on a query or bank row whose norm is
# zero or not finite.


def _lanes(x, bank, window):
    """x, bank and window as arrays of agreeing shapes; an empty bank
    raises ValueError."""
    x = np.asarray(x, dtype=float)
    refs = np.asarray(bank, dtype=float)
    if not refs.size:
        raise ValueError("empty reference bank")
    if x.ndim != 3 or refs.shape[1:] != x.shape[1:]:
        raise ValueError(f"reference shape {refs.shape[1:]} != {x.shape[1:]}")
    window = np.asarray(window, dtype=bool)
    if window.shape != (len(x), len(refs)):
        raise ValueError(f"window shape {window.shape} != {(len(x), len(refs))}")
    return x, refs, window


def _lane_dots(refs: np.ndarray, x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """x[i, l] . refs[j, l] per query i, lane and row j, -inf outside the window."""
    return np.where(window[:, None], np.matmul(refs.transpose(1, 0, 2), x[..., None])[..., 0],
                    -np.inf)


def repulsion_gradient(p, out_bank, window):
    """Closed-form logit gradient of the distribution-similarity penalty.

    p are the queries' distributions softmax(logits).  The loss is
    max_r p . q_r; its logit gradient at the most similar row q* is
        grad = p * q* - (p . q*) p
    which is tangent to the simplex (entries sum to zero).
    """
    p, refs, window = _lanes(p, out_bank, window)
    dots = _lane_dots(refs, p, window)
    loss = dots.max(axis=-1)
    return loss, p * refs[dots.argmax(axis=-1), np.arange(p.shape[1])] - loss[..., None] * p


def hidden_gradient_projected(h, hid_bank, projected_bank, window):
    """Hidden-state penalty gradient projected to logit space.

    The loss is max_b <h, b>; its gradient w.r.t. h is the most similar
    bank entry b*, which the output matrix maps to logit space as W b*.
    projected_bank (n, lanes, V) holds W b of every bank row, which the
    model step has already computed for its logits, so the gradient is a
    gather of one row per query and lane, with no matrix product.
    """
    h, refs, window = _lanes(h, hid_bank, window)
    projected = np.asarray(projected_bank, dtype=float)
    if projected.ndim != 3 or projected.shape[:2] != refs.shape[:2]:
        raise ValueError(f"projected bank shape {projected.shape} does not "
                         f"match the bank's {refs.shape[:2]}")
    dots = _lane_dots(refs, h, window)
    return dots.max(axis=-1), projected[dots.argmax(axis=-1), np.arange(h.shape[1])]


def latent_cosine_gradient(z, latent_bank, window):
    """Gradient of the max-cosine latent penalty w.r.t. the latent.

    At the most similar bank latent y* (lowest index on ties):
        grad = y* / (|z||y*|) - cos(z, y*) z / |z|^2
    which is orthogonal to z (cosine is scale-invariant in z).
    The loss is the max of cos(z, y).
    """
    z, refs, window = _lanes(z, latent_bank, window)
    with np.errstate(over="ignore", invalid="ignore"):  # raised below
        norms = np.sqrt(np.add.reduce(refs * refs, axis=-1))
        z_norms = np.sqrt(np.add.reduce(z * z, axis=-1))
        scale = z_norms[..., None] * norms.T
    if not np.isfinite(scale).all():
        raise ValueError("cosine undefined for a non-finite norm")
    if not scale.all():
        raise ValueError("cosine undefined for zero-norm vector")
    sims = _lane_dots(refs, z, window) / scale
    lanes = np.arange(sims.shape[-2])
    best = sims.argmax(axis=-1)  # the first maximum: lowest index on ties
    loss = sims.max(axis=-1)
    # float_power is the C pow() of a scalar's **, not the array square
    grad = (refs[best, lanes] / (z_norms * norms[best, lanes])[..., None]
            - (loss / np.float_power(z_norms, 2))[..., None] * z)
    return loss, grad


def latent_cosine_loss(z, latent_bank) -> float:
    """Max cosine similarity of one latent (dim,) to cached latents
    (n, dim), the local diffusion loss."""
    if not len(latent_bank):
        return 0.0
    refs = np.asarray(latent_bank, dtype=float)[:, None]
    query = np.asarray(z, dtype=float)[None, None]
    return float(latent_cosine_gradient(query, refs, np.ones((1, len(refs)), bool))[0][0, 0])


def embedding_cosine_loss(z, embedder: TanhEmbedder, embed_bank) -> float:
    """Max cosine similarity of one embedded latent to cached embeddings
    (n, e), the global diffusion loss."""
    return latent_cosine_loss(embedder.embed(z), embed_bank)


def embedding_penalty_gradient(embedded, embedder: TanhEmbedder, embed_bank, window):
    """Latent gradient of max-cosine similarity in embedding space.

    Chains the cosine gradient through e(z) = tanh(u @ z + c):
        grad_z = u.T @ ((1 - e^2) * grad_e cos(e, e*))
    where e* is the most similar bank embedding.  The queries are given
    by their embeddings e = embedder.embed(z), which is all the chain
    rule needs of z.  The loss is the max of cos(e, e_r).
    """
    e = np.asarray(embedded, dtype=float)
    loss, grad_e = latent_cosine_gradient(e, embed_bank, window)
    return loss, lane_matvec(embedder.u.T, (1.0 - e**2) * grad_e)


def normalize_gradient(g, epsilon: float) -> np.ndarray:
    """Center and variance-normalize a gradient along its last dimension.

    (g - mean(g)) / sqrt(var(g) + epsilon), population variance.
    Constant inputs map to the zero vector.  The reductions are the ones
    np.mean and np.var make, without their dispatch cost.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    centered = g - np.add.reduce(g, axis=-1, keepdims=True) / n
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True) / n
    return centered / np.sqrt(var + epsilon)


def max_weight(dim: int) -> float:
    """The largest schedule weight, alpha or beta, for outputs of `dim`
    entries: MAX_SHIFT / sqrt(dim).

    normalize_gradient's entries are below sqrt(dim) in magnitude: an
    entry c_i of a centered vector has c_i**2 <= sum(c**2) = dim * var,
    so |c_i| / sqrt(var + epsilon) < sqrt(dim).  Every schedule kind's
    weights are at most alpha and beta, so apply_uag moves each entry
    by less than (alpha + beta) * sqrt(dim), which weights up to this
    bound keep below 2 * MAX_SHIFT.  That leaves the penalized logits
    finite over any temperature above about 1e-200, and a penalized
    latent's squares, summed in its cosine norm, finite too.
    """
    return MAX_SHIFT / math.sqrt(dim)


def apply_uag(y, g_local, g_global, weights) -> np.ndarray:
    """Subtract the weighted penalty gradients from the raw output."""
    y = np.asarray(y, dtype=float)
    g_local = np.asarray(g_local, dtype=float)
    g_global = np.asarray(g_global, dtype=float)
    if g_local.shape != y.shape or g_global.shape != y.shape:
        raise ValueError("gradient shapes must match the output shape")
    return y - (weights.w_local * g_local + weights.w_global * g_global)


def uag_loss_value(loss_local, loss_global, weights):
    """A step's total trace loss: the local and global losses the kernels
    returned, weighted the way the update weights their gradients."""
    return weights.w_local * loss_local + weights.w_global * loss_global


def flops_estimate(v: int, d_h: int, n: int) -> int:
    """Multiply/add count for one penalty step on the token path, against
    n bank rows of each kind.

    Documented formula (all terms counted as one op per scalar
    multiply or add):

        softmax over v logits:        4v   (shift, exp, sum, divide)
        output similarities:          2v per bank entry for the argmax
                                      dots
        repulsion gradient:           3v for the most similar row
                                      (elementwise product, rescale,
                                      subtract)
        hidden similarities:          2*d_h per bank entry for the
                                      argmax dots; the projected
                                      gradient is a row of the model
                                      step's W h, gathered, not computed
        normalization:                5v per gradient present
                                      (mean, center, variance at 2v,
                                      divide)

    so 4v + 2(v + d_h) n + 13v in all with n > 0.  Empty banks
    contribute nothing beyond the softmax term.
    """
    if min(v, d_h, n) < 0:
        raise ValueError("sizes must be nonnegative")
    total = 4 * v
    if n > 0:
        total += 2 * v * n + 3 * v + 2 * d_h * n + 2 * 5 * v
    return total


def diffusion_flops_estimate(m: int, e: int, n: int) -> int:
    """Multiply/add count for one penalty step on the latent path, against
    n bank rows of each kind.

    Analogous to flops_estimate: cosine similarities cost 3m (2m dot +
    m for norms amortized) per cached latent plus 4m for the gradient;
    the embedding surrogate costs 2*e*m + e forward, 3e per cached
    embedding, and 2*e*m + 2e for the chain rule; normalization is 5m
    per gradient present.  Empty banks cost nothing.
    """
    if min(m, e, n) < 0:
        raise ValueError("sizes must be nonnegative")
    if n == 0:
        return 0
    return (3 * m * n + 4 * m + 5 * m
            + 2 * e * m + e + 3 * e * n + 2 * e * m + 2 * e + 5 * m)
