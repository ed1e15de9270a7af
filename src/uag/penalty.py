"""Similarity losses, their analytic gradients, and the avoidance update.

All gradients here are closed-form; no automatic differentiation is used.
The local penalty acts on the output representation (softmax distribution
for token processes, latent for diffusion), the global penalty on the
hidden/semantic representation.  Gradients are variance-normalized before
being weighted and subtracted from the raw output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AGGREGATIONS = ("max", "mean")

DEFAULT_EPSILON = 1e-5


class EmptyBankError(ValueError):
    """Raised when a gradient is requested against an empty reference bank."""


def lane_matvec(a: np.ndarray, x, out: np.ndarray | None = None) -> np.ndarray:
    """a @ x[l] for every lane l of x (lanes, k), as (lanes, rows).

    Each lane is one matrix-vector product, the same one a single vector
    gets, so a lane's result does not depend on which other lanes
    decode beside it.  A 1-D x is one vector.  `out`, if given, receives
    the result.
    """
    x = np.asarray(x, dtype=float)[..., None]
    return np.matmul(a, x, out=None if out is None else out[..., None])[..., 0]


@dataclass(frozen=True)
class OutputProjection:
    """Output head y = w @ h + b mapping hidden states to logits."""

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if w.ndim != 2 or b.ndim != 1 or w.shape[0] != b.shape[0]:
            raise ValueError("projection shapes inconsistent")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "b", b)

    def apply(self, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Logits of h, which may carry a leading lane axis, into `out`
        if given."""
        y = lane_matvec(self.w, h, out)
        y += self.b
        return y


@dataclass(frozen=True)
class PenaltyConfig:
    """Normalization and loss-aggregation choices for the penalty path.

    The similarities are fixed by the process: dot products for token
    models, latent and embedding cosines for diffusion.  The aggregation
    flags govern reported loss values; the gradient formulas keep their
    own closed-form conventions (mean over the bank for the output-level
    repulsion, argmax for the hidden and latent penalties).
    """

    epsilon: float = DEFAULT_EPSILON
    local_aggregation: str = "max"
    global_aggregation: str = "max"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.local_aggregation not in AGGREGATIONS:
            raise ValueError(f"bad local_aggregation {self.local_aggregation!r}")
        if self.global_aggregation not in AGGREGATIONS:
            raise ValueError(f"bad global_aggregation {self.global_aggregation!r}")


@dataclass(frozen=True)
class UagStepRecord:
    """Per-step trace of the avoidance losses and weights."""

    step: int
    loss_local: float
    loss_global: float
    loss_total: float
    w_local: float
    w_global: float
    flops: int = 0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "loss_local": self.loss_local,
            "loss_global": self.loss_global,
            "loss_total": self.loss_total,
            "w_local": self.w_local,
            "w_global": self.w_global,
            "flops": self.flops,
        }


@dataclass(frozen=True)
class TanhEmbedder:
    """Fixed embedding surrogate e(z) = tanh(u @ z + c)."""

    u: np.ndarray
    c: np.ndarray

    def embed(self, z: np.ndarray) -> np.ndarray:
        """e(z) of z, which may carry a leading lane axis."""
        return np.tanh(lane_matvec(self.u, z) + self.c)


def _aggregate(sims, how: str) -> float:
    """Similarities reduced to the reported loss: their max or their
    mean, per cfg's *_aggregation; no similarities report 0."""
    sims = np.asarray(sims, dtype=float)
    if not sims.size:
        return 0.0
    return float(sims.max() if how == "max" else np.add.reduce(sims) / sims.size)


def softmax(logits: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Max-subtracted stable softmax along the last axis, into `out` if
    given (which may be logits itself)."""
    x = np.asarray(logits, dtype=float)
    e = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


# The gradient functions take one vector x (dim,) against a bank
# (n, dim), or a lane axis: x (lanes, dim) against a bank (n, lanes,
# dim), one independent decode per lane.  Banks are oldest row first.
# With return_sims=True they return (similarities, gradient), the
# similarities (n,) or (lanes, n) being the ones the gradient was built
# from, so a reported loss aggregates them and nothing is recomputed.


def _lanes(x, bank, kind: str):
    """(x as (lanes, dim), bank as (n, lanes, dim), whether x was one
    vector); an empty bank raises EmptyBankError."""
    x = np.asarray(x, dtype=float)
    refs = np.asarray(bank, dtype=float)
    if not refs.size:
        raise EmptyBankError(f"no references in {kind} bank")
    if refs.shape[1:] != x.shape:
        raise ValueError(f"reference shape {refs.shape[1:]} != {x.shape}")
    return (x[None], refs[:, None], True) if x.ndim == 1 else (x, refs, False)


def _result(sims, grad, one: bool, return_sims: bool):
    if one:
        sims, grad = sims[0], grad[0]
    return (sims, grad) if return_sims else grad


def _lane_dots(refs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x[l] . refs[j, l] for every lane l and bank row j, as (lanes, n)."""
    return np.matmul(refs.transpose(1, 0, 2), x[..., None])[..., 0]


def repulsion_gradient(logits, out_bank, aggregation: str = "mean", *,
                       return_sims: bool = False):
    """Closed-form logit gradient of the distribution-similarity penalty.

    mean aggregation: (1/N) sum_r (p * q_r - (p . q_r) p) with
    p = softmax(logits); max aggregation differentiates only the most
    similar reference.  The result is tangent to the simplex (entries
    sum to zero).  The similarities are p . q_r.
    """
    p, refs, one = _lanes(softmax(logits), out_bank, "output")
    dots = _lane_dots(refs, p)
    if aggregation == "max":
        best = dots.argmax(axis=1)
        lanes = np.arange(len(p))
        grad = p * refs[best, lanes] - dots[lanes, best][:, None] * p
    else:
        grad = (p * np.add.reduce(refs, axis=0)
                - np.add.reduce(dots, axis=1, keepdims=True) * p) / len(refs)
    return _result(dots, grad, one, return_sims)


def hidden_gradient_projected(h, hid_bank, proj: OutputProjection, *,
                              return_sims: bool = False):
    """Hidden-state penalty gradient projected to logit space.

    The gradient of max_b <h, b> w.r.t. h is the most-similar bank entry
    b* (lowest index on ties); the output matrix maps it to logit space.
    The similarities are h . b.
    """
    h, refs, one = _lanes(h, hid_bank, "hidden")
    dots = _lane_dots(refs, h)
    grad = lane_matvec(proj.w, refs[dots.argmax(axis=1), np.arange(len(h))])
    return _result(dots, grad, one, return_sims)


def row_norms(rows) -> np.ndarray:
    """Euclidean norm of each row of an (n, dim) array."""
    rows = np.asarray(rows, dtype=float)
    return np.sqrt(np.add.reduce(rows * rows, axis=-1))


def _cosine_gradient(z, bank, norms, kind: str):
    """(cos(z, r) per row, gradient of the max cosine w.r.t. z), as
    (lanes, n) and (lanes, dim), with whether z was one vector."""
    z, refs, one = _lanes(z, bank, kind)
    norms = (row_norms(refs) if norms is None
             else np.asarray(norms, dtype=float).reshape(refs.shape[:2]))
    z_norms = np.sqrt(np.matmul(z[:, None, :], z[..., None])[:, 0, 0])
    scale = z_norms[:, None] * norms.T
    if not scale.all():
        raise ValueError("cosine undefined for zero-norm vector")
    sims = _lane_dots(refs, z) / scale
    lanes = np.arange(len(z))
    best = sims.argmax(axis=1)
    # float_power is the C pow() of a scalar's **, not the array square
    grad = (refs[best, lanes] / (z_norms * norms[best, lanes])[:, None]
            - (sims[lanes, best] / np.float_power(z_norms, 2))[:, None] * z)
    return sims, grad, one


def latent_cosine_loss(z, latent_bank, cfg: PenaltyConfig, norms=None) -> float:
    """Cosine similarity of a latent to cached latents (local diffusion loss).

    `norms`, if given, are the bank's row norms.
    """
    if not len(latent_bank):
        return 0.0
    sims = latent_cosine_gradient(z, latent_bank, norms, return_sims=True)[0]
    return _aggregate(sims, cfg.local_aggregation)


def latent_cosine_gradient(z, latent_bank, norms=None, *, return_sims: bool = False):
    """Gradient of the max-cosine latent penalty w.r.t. the latent.

    At the most similar bank latent y* (lowest index on ties):
        grad = y* / (|z||y*|) - cos(z, y*) z / |z|^2
    which is orthogonal to z (cosine is scale-invariant in z).
    `norms`, if given, are the bank's row norms.  The similarities are
    cos(z, y).
    """
    sims, grad, one = _cosine_gradient(z, latent_bank, norms, "latent")
    return _result(sims, grad, one, return_sims)


def embedding_cosine_loss(z, embedder: TanhEmbedder, embed_bank, cfg: PenaltyConfig,
                          embedded=None, norms=None) -> float:
    """Cosine similarity of the embedded latent to cached embeddings.

    `embedded`, if given, is embedder.embed(z); `norms` the bank's row
    norms.
    """
    if not len(embed_bank):
        return 0.0
    sims = embedding_penalty_gradient(z, embedder, embed_bank, embedded, norms,
                                      return_sims=True)[0]
    return _aggregate(sims, cfg.global_aggregation)


def embedding_penalty_gradient(z, embedder: TanhEmbedder, embed_bank,
                               embedded=None, norms=None, *,
                               return_sims: bool = False):
    """Latent gradient of max-cosine similarity in embedding space.

    Chains the cosine gradient through e(z) = tanh(u @ z + c):
        grad_z = u.T @ ((1 - e^2) * grad_e cos(e, e*))
    where e* is the most similar bank embedding.  `embedded`, if given,
    is embedder.embed(z); `norms` the bank's row norms.  The
    similarities are cos(e, e_r).
    """
    e = embedder.embed(z) if embedded is None else np.asarray(embedded, dtype=float)
    sims, grad_e, one = _cosine_gradient(e, embed_bank, norms, "embedding")
    grad = lane_matvec(embedder.u.T, (1.0 - e**2) * grad_e.reshape(e.shape))
    if one:
        sims = sims[0]
    return (sims, grad) if return_sims else grad


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


def apply_uag(y, g_local, g_global, weights) -> np.ndarray:
    """Subtract the weighted penalty gradients from the raw output."""
    y = np.asarray(y, dtype=float)
    g_local = np.asarray(g_local, dtype=float)
    g_global = np.asarray(g_global, dtype=float)
    if g_local.shape != y.shape or g_global.shape != y.shape:
        raise ValueError("gradient shapes must match the output shape")
    return y - (weights.w_local * g_local + weights.w_global * g_global)


def uag_loss_value(local_sims, global_sims, cfg: PenaltyConfig, weights,
                   step: int = 0, flops: int = 0) -> UagStepRecord:
    """One step's trace record from the similarities its gradients were
    built from (as return_sims gives them; empty where no bank was).

    Each loss aggregates its similarities per cfg; the total weights
    them the way the update weights the gradients.
    """
    loss_local = _aggregate(local_sims, cfg.local_aggregation)
    loss_global = _aggregate(global_sims, cfg.global_aggregation)
    total = weights.w_local * loss_local + weights.w_global * loss_global
    return UagStepRecord(
        step=step,
        loss_local=loss_local,
        loss_global=loss_global,
        loss_total=total,
        w_local=weights.w_local,
        w_global=weights.w_global,
        flops=flops,
    )


def flops_estimate(v: int, d_h: int, n_out: int, n_hid: int) -> int:
    """Multiply/add count for one penalty step on the token path.

    Documented formula (all terms counted as one op per scalar
    multiply or add):

        softmax over v logits:        4v   (shift, exp, sum, divide)
        repulsion gradient:           6v per reference
                                      (elementwise product, dot product
                                      at 2v, rescale, subtract,
                                      accumulate; the final 1/N scale is
                                      folded into the accumulation)
        hidden projection:            2*d_h per bank entry for the
                                      argmax dots, plus 2*d_h*v for the
                                      output-matrix product
        normalization:                5v per gradient present
                                      (mean, center, variance at 2v,
                                      divide)

    Empty banks contribute nothing beyond the softmax term.
    """
    if min(v, d_h, n_out, n_hid) < 0:
        raise ValueError("sizes must be nonnegative")
    total = 4 * v
    if n_out > 0:
        total += 6 * v * n_out + 5 * v
    if n_hid > 0:
        total += 2 * d_h * n_hid + 2 * d_h * v + 5 * v
    return total


def diffusion_flops_estimate(m: int, e: int, n_lat: int, n_emb: int) -> int:
    """Multiply/add count for one penalty step on the latent path.

    Analogous to flops_estimate: cosine similarities cost 3m (2m dot +
    m for norms amortized) per cached latent plus 4m for the gradient;
    the embedding surrogate costs 2*e*m + e forward, 3e per cached
    embedding, and 2*e*m + 2e for the chain rule; normalization is 5m
    per gradient present.
    """
    if min(m, e, n_lat, n_emb) < 0:
        raise ValueError("sizes must be nonnegative")
    total = 0
    if n_lat > 0:
        total += 3 * m * n_lat + 4 * m + 5 * m
    if n_emb > 0:
        total += 2 * e * m + e + 3 * e * n_emb + 2 * e * m + 2 * e + 5 * m
    return total
