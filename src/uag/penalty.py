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
LOCAL_SIMS = ("dot", "cosine")
GLOBAL_SIMS = ("dot", "embedding")

DEFAULT_EPSILON = 1e-5


class EmptyBankError(ValueError):
    """Raised when a gradient is requested against an empty reference bank."""


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

    def apply(self, h: np.ndarray) -> np.ndarray:
        return self.w @ h + self.b


@dataclass(frozen=True)
class PenaltyConfig:
    """Similarity and normalization choices for the penalty path.

    The aggregation flags govern reported loss values; the gradient
    formulas keep their own closed-form conventions (mean over the bank
    for the output-level repulsion, argmax for the hidden and latent
    penalties).
    """

    epsilon: float = DEFAULT_EPSILON
    local_aggregation: str = "max"
    global_aggregation: str = "max"
    sim_local: str = "dot"
    sim_global: str = "dot"

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.local_aggregation not in AGGREGATIONS:
            raise ValueError(f"bad local_aggregation {self.local_aggregation!r}")
        if self.global_aggregation not in AGGREGATIONS:
            raise ValueError(f"bad global_aggregation {self.global_aggregation!r}")
        if self.sim_local not in LOCAL_SIMS:
            raise ValueError(f"bad sim_local {self.sim_local!r}")
        if self.sim_global not in GLOBAL_SIMS:
            raise ValueError(f"bad sim_global {self.sim_global!r}")

    @classmethod
    def from_dict(cls, raw: dict) -> "PenaltyConfig":
        return cls(
            epsilon=float(raw.get("epsilon", DEFAULT_EPSILON)),
            local_aggregation=raw.get("local_aggregation", "max"),
            global_aggregation=raw.get("global_aggregation", "max"),
            sim_local=raw.get("sim_local", "dot"),
            sim_global=raw.get("sim_global", "dot"),
        )


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
        return np.tanh(self.u @ np.asarray(z, dtype=float) + self.c)


def _aggregate(sims: np.ndarray, how: str) -> float:
    return float(sims.max() if how == "max" else sims.mean())


def _rows(bank, dim: int) -> np.ndarray:
    """A reference bank as one (n, dim) float array, oldest row first.

    Accepts a stacked array or a list of vectors; an empty bank comes
    back with n = 0.
    """
    rows = np.asarray(bank, dtype=float)
    if rows.size == 0:
        return rows.reshape(0, dim)
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise ValueError(f"reference shape {rows.shape[1:]} != ({dim},)")
    return rows


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted stable softmax."""
    x = np.asarray(logits, dtype=float)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def local_loss_softmax(logits, out_bank, cfg: PenaltyConfig) -> float:
    """Dot-product similarity of softmax(logits) to cached distributions.

    Aggregated per cfg.local_aggregation; an empty bank contributes no
    penalty.
    """
    logits = np.asarray(logits, dtype=float)
    refs = _rows(out_bank, logits.shape[-1])
    if not len(refs):
        return 0.0
    return _aggregate(refs @ softmax(logits), cfg.local_aggregation)


def repulsion_gradient(logits, out_bank, aggregation: str = "mean") -> np.ndarray:
    """Closed-form logit gradient of the distribution-similarity penalty.

    mean aggregation: (1/N) sum_r (p * q_r - (p . q_r) p) with
    p = softmax(logits); max aggregation differentiates only the most
    similar reference.  The result is tangent to the simplex (entries
    sum to zero).
    """
    p = softmax(logits)
    refs = _rows(out_bank, p.shape[-1])
    if not len(refs):
        raise EmptyBankError("no references in output bank")
    dots = refs @ p
    if aggregation == "max":
        i = int(dots.argmax())
        return p * refs[i] - dots[i] * p
    return (p * refs.sum(axis=0) - dots.sum() * p) / len(refs)


def global_loss_hidden(h, hid_bank, cfg: PenaltyConfig) -> float:
    """Dot-product similarity of the hidden state to cached hidden states."""
    h = np.asarray(h, dtype=float)
    refs = _rows(hid_bank, h.shape[-1])
    if not len(refs):
        return 0.0
    return _aggregate(refs @ h, cfg.global_aggregation)


def hidden_gradient_projected(h, hid_bank, proj: OutputProjection) -> np.ndarray:
    """Hidden-state penalty gradient projected to logit space.

    The gradient of max_b <h, b> w.r.t. h is the most-similar bank entry
    b* (lowest index on ties); the output matrix maps it to logit space.
    """
    h = np.asarray(h, dtype=float)
    refs = _rows(hid_bank, h.shape[-1])
    if not len(refs):
        raise EmptyBankError("no references in hidden bank")
    return proj.w @ refs[int((refs @ h).argmax())]


def row_norms(rows) -> np.ndarray:
    """Euclidean norm of each row of an (n, dim) array."""
    rows = np.asarray(rows, dtype=float)
    return np.sqrt(np.add.reduce(rows * rows, axis=-1))


def _cosines(z: np.ndarray, bank, norms) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(cos(z, r) per row, rows, row norms, |z|) for a non-empty bank."""
    refs = _rows(bank, z.shape[-1])
    norms = row_norms(refs) if norms is None else norms
    nz = np.sqrt(z @ z)
    if nz == 0.0 or not norms.all():
        raise ValueError("cosine undefined for zero-norm vector")
    return (refs @ z) / (nz * norms), refs, norms, nz


def latent_cosine_loss(z, latent_bank, cfg: PenaltyConfig, norms=None) -> float:
    """Cosine similarity of a latent to cached latents (local diffusion loss).

    `norms`, if given, are the bank's row norms.
    """
    z = np.asarray(z, dtype=float)
    if not len(latent_bank):
        return 0.0
    sims = _cosines(z, latent_bank, norms)[0]
    return _aggregate(sims, cfg.local_aggregation)


def latent_cosine_gradient(z, latent_bank, norms=None) -> np.ndarray:
    """Gradient of the max-cosine latent penalty w.r.t. the latent.

    At the most similar bank latent y*:
        grad = y* / (|z||y*|) - cos(z, y*) z / |z|^2
    which is orthogonal to z (cosine is scale-invariant in z).
    `norms`, if given, are the bank's row norms.
    """
    z = np.asarray(z, dtype=float)
    if not len(latent_bank):
        raise EmptyBankError("no references in latent bank")
    sims, refs, norms, nz = _cosines(z, latent_bank, norms)
    idx = int(sims.argmax())
    return refs[idx] / (nz * norms[idx]) - (sims[idx] / nz**2) * z


def embedding_cosine_loss(z, embedder: TanhEmbedder, embed_bank, cfg: PenaltyConfig,
                          embedded=None, norms=None) -> float:
    """Cosine similarity of the embedded latent to cached embeddings.

    `embedded`, if given, is embedder.embed(z); `norms` the bank's row
    norms.
    """
    if not len(embed_bank):
        return 0.0
    e = embedder.embed(z) if embedded is None else embedded
    return _aggregate(_cosines(e, embed_bank, norms)[0], cfg.global_aggregation)


def embedding_penalty_gradient(z, embedder: TanhEmbedder, embed_bank,
                               embedded=None, norms=None) -> np.ndarray:
    """Latent gradient of max-cosine similarity in embedding space.

    Chains the cosine gradient through e(z) = tanh(u @ z + c):
        grad_z = u.T @ ((1 - e^2) * grad_e cos(e, e*))
    where e* is the most similar bank embedding.  `embedded`, if given,
    is embedder.embed(z); `norms` the bank's row norms.
    """
    if not len(embed_bank):
        raise EmptyBankError("no references in embedding bank")
    e = embedder.embed(z) if embedded is None else embedded
    grad_e = latent_cosine_gradient(e, embed_bank, norms)
    return embedder.u.T @ ((1.0 - e**2) * grad_e)


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


def uag_loss_value(y, h, out_bank, hid_bank, cfg: PenaltyConfig, weights,
                   step: int = 0, flops: int = 0) -> UagStepRecord:
    """Evaluate the weighted avoidance loss at one step without modifying y."""
    loss_local = local_loss_softmax(y, out_bank, cfg)
    loss_global = global_loss_hidden(h, hid_bank, cfg)
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
