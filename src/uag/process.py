"""Step-wise generative processes with per-step avoidance penalties.

Two toy processes exercise the penalty machinery end to end: a recurrent
autoregressive token model and a deterministic latent diffusion sampler.
Both emit an (output, hidden) pair per step; reference banks cache those
representations across branches so later branches are pushed away from
earlier ones.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .penalty import (
    OutputProjection,
    PenaltyConfig,
    TanhEmbedder,
    UagStepRecord,
    apply_uag,
    diffusion_flops_estimate,
    embedding_cosine_loss,
    embedding_penalty_gradient,
    flops_estimate,
    hidden_gradient_projected,
    latent_cosine_gradient,
    latent_cosine_loss,
    normalize_gradient,
    repulsion_gradient,
    row_norms,
    softmax,
    uag_loss_value,
)
from .schedule import ScheduleParams, StepWeights, schedule_weights

# The toy models run peaked; branches repeat without a penalty at this
# temperature, which is the regime the avoidance update is for.
DEFAULT_TEMPERATURE = 0.1
START_TOKEN = 0


class ToyArModel:
    """Seeded recurrent token model: h' = tanh(R h + E[tok]), y = W h' + b.

    All weights are Gaussian scaled by 1/sqrt(hidden_size) and fully
    determined by the seed, so the model is reconstructible anywhere.
    """

    def __init__(self, vocab_size: int, hidden_size: int, seed: int = 0, *,
                 token_embed=None, recur=None, proj=None, init_hidden=None,
                 vocab=None):
        if vocab_size < 2 or hidden_size < 1:
            raise ValueError("need vocab_size >= 2 and hidden_size >= 1")
        self.vocab_size = vocab_size
        self.hidden_size = hidden_size
        self.seed = seed
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(hidden_size)
        self.token_embed = (
            np.asarray(token_embed, dtype=float) if token_embed is not None
            else rng.standard_normal((vocab_size, hidden_size)) * scale
        )
        self.recur = (
            np.asarray(recur, dtype=float) if recur is not None
            else rng.standard_normal((hidden_size, hidden_size)) * scale
        )
        self.proj = proj if proj is not None else OutputProjection(
            w=rng.standard_normal((vocab_size, hidden_size)) * scale,
            b=rng.standard_normal(vocab_size) * scale,
        )
        self.init_hidden = (
            np.asarray(init_hidden, dtype=float) if init_hidden is not None
            else np.zeros(hidden_size)
        )
        self.vocab = list(vocab) if vocab is not None else [
            f"w{i:03d}" for i in range(vocab_size)
        ]

    def step(self, h, last_token):
        return ar_step(self, h, last_token)

    def advance(self, h, last_token: int) -> np.ndarray:
        """The next hidden state alone, without the output projection."""
        if not 0 <= last_token < self.vocab_size:
            raise ValueError(f"token {last_token} outside vocab of {self.vocab_size}")
        return np.tanh(self.recur @ np.asarray(h, dtype=float)
                       + self.token_embed[last_token])

    def step_flops(self) -> int:
        """Documented per-step model cost: recurrence matvec (2*d_h^2),
        embedding add + tanh (2*d_h), output matvec + bias (2*d_h*V + V),
        and the sampling softmax (4*V)."""
        d, v = self.hidden_size, self.vocab_size
        return 2 * d * d + 2 * d + 2 * d * v + v + 4 * v


def ar_step(model: ToyArModel, h, last_token: int):
    """One recurrent step: returns (logits, new_hidden).

    The returned hidden state is the one that produced the logits and is
    what gets cached into the hidden bank.
    """
    h_new = model.advance(h, last_token)
    return model.proj.apply(h_new), h_new


class BigramModel:
    """Deterministic bigram-table model with the same step interface.

    Hidden state is the previous step's next-token distribution and the
    output projection is the identity, which makes penalty behavior
    directly interpretable in tests.
    """

    def __init__(self, vocab: list[str], bigram):
        table = np.asarray(bigram, dtype=float)
        v = len(vocab)
        if table.shape != (v, v):
            raise ValueError("bigram table must be square and match the vocab")
        if np.any(table < 0):
            raise ValueError("bigram rows must be nonnegative")
        rows = table.sum(axis=1, keepdims=True)
        if np.any(rows == 0):
            raise ValueError("bigram rows must not be all-zero")
        self.vocab = list(vocab)
        self.vocab_size = v
        self.hidden_size = v
        self.bigram = table / rows
        self.proj = OutputProjection(w=np.eye(v), b=np.zeros(v))
        self.init_hidden = np.full(v, 1.0 / v)

    def step(self, h, last_token: int):
        row = self.advance(h, last_token)
        return np.log(row + 1e-12), row

    def advance(self, h, last_token: int) -> np.ndarray:
        if not 0 <= last_token < self.vocab_size:
            raise ValueError(f"token {last_token} outside vocab of {self.vocab_size}")
        return self.bigram[last_token].copy()

    def step_flops(self) -> int:
        v = self.vocab_size
        return 2 * v + 4 * v  # log lookup row + sampling softmax


def load_bigram_model(path) -> BigramModel:
    """Load the {"vocab": [...], "bigram": [[...]]} fixture format."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return BigramModel(raw["vocab"], raw["bigram"])


class ToyDiffusion:
    """Deterministic latent diffusion toy with an affine noise predictor.

    alphas_bar has length steps+1 with alphas_bar[0] = 1 and is strictly
    decreasing (standard linear-beta schedule).  The embedder stands in
    for the decode-and-embed path used by the global penalty.
    """

    def __init__(self, latent_size: int, steps: int, seed: int = 0, *,
                 embed_size: int | None = None, alphas_bar=None):
        if latent_size < 1 or steps < 1:
            raise ValueError("need latent_size >= 1 and steps >= 1")
        self.latent_size = latent_size
        self.steps = steps
        self.seed = seed
        if alphas_bar is not None:
            ab = np.asarray(alphas_bar, dtype=float)
            if ab.shape != (steps + 1,) or ab[0] != 1.0 or np.any(np.diff(ab) >= 0):
                raise ValueError("alphas_bar must be length steps+1, start at 1, "
                                 "and decrease strictly")
            self.alphas_bar = ab
        else:
            betas = np.linspace(1e-4, 0.02, steps)
            self.alphas_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        rng = np.random.default_rng(seed)
        m = latent_size
        self.score_weights = rng.standard_normal((m, m)) * (0.4 / np.sqrt(m))
        self.score_bias = rng.standard_normal(m) * 0.8
        e = embed_size if embed_size is not None else max(2, m // 2)
        self.embed_size = e
        self.embedder = TanhEmbedder(
            u=rng.standard_normal((e, m)) / np.sqrt(m),
            c=rng.standard_normal(e) * 0.1,
        )

    def predict_noise(self, z, t: int) -> np.ndarray:
        """Affine noise prediction; t is accepted for interface parity."""
        return self.score_weights @ np.asarray(z, dtype=float) + self.score_bias

    def step_flops(self) -> int:
        """Score matvec + bias (2m^2 + m) plus the scheduler update (6m)."""
        m = self.latent_size
        return 2 * m * m + m + 6 * m


def ddim_step(z, predicted_noise, t: int, model: ToyDiffusion) -> np.ndarray:
    """Deterministic denoising update from diffusion time t to t-1.

    z0_hat = (z - sqrt(1 - a_t) y) / sqrt(a_t)
    z_prev = sqrt(a_prev) z0_hat + sqrt(1 - a_prev) y

    with a = alphas_bar; at t=1 this returns z0_hat exactly.
    """
    if not 1 <= t <= model.steps:
        raise ValueError(f"diffusion time {t} outside [1, {model.steps}]")
    z = np.asarray(z, dtype=float)
    y = np.asarray(predicted_noise, dtype=float)
    a_t = model.alphas_bar[t]
    a_prev = model.alphas_bar[t - 1]
    z0_hat = (z - np.sqrt(1.0 - a_t) * y) / np.sqrt(a_t)
    return np.sqrt(a_prev) * z0_hat + np.sqrt(1.0 - a_prev) * y


class _BankRows:
    """One kind of bank row, stacked branch-major as (n, steps, width).

    buffer[j, index[s]] is the row of the j-th oldest committed branch
    at step s, so a step's bank is the (n, width) view
    buffer[:n, index[s]], with n = len(owners).
    The first `dim` columns of a row hold the representation; a further
    column, if any, holds its norm.  Rows live in one buffer allocated at
    the first commit with room for `capacity` branches, and are stored
    once: owners[j] is the contribution dict whose entries are views of
    buffer[j].  The buffer is read-only between commits.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.steps: list[int] = []
        self.index: dict[int, int] = {}
        self.dim = 0
        self.buffer = np.empty((0, 0, 0))
        self.owners: list[dict] = []

    def at(self, step: int) -> np.ndarray | None:
        i = self.index.get(step)
        return None if i is None else self.buffer[:len(self.owners), i]

    def slot(self, steps: list[int], dim: int, width: int) -> np.ndarray:
        """The writable (steps, width) row of a new branch.

        At capacity the oldest row is evicted: its owner gets a copy,
        and the others move down one place, branch by branch, so no
        full-size temporary is made.
        """
        n = len(self.owners)
        if not n:
            self.steps, self.index, self.dim = steps, {s: i for i, s in enumerate(steps)}, dim
            self.buffer = np.empty((self.capacity, len(steps), width))
            return self.buffer[0]
        if steps != self.steps or (dim, width) != (self.dim, self.buffer.shape[2]):
            raise ValueError("every committed branch must cover the same steps "
                             "with the same row size")
        self.buffer.flags.writeable = True
        if n == self.capacity:
            self.owners.pop(0).update(zip(steps, self.buffer[0, :, :dim].copy()))
            for j in range(n - 1):
                self.buffer[j] = self.buffer[j + 1]
            for entries, rows in zip(self.owners, self.buffer):
                entries.update(zip(steps, rows[:, :dim]))
            n -= 1
        return self.buffer[n]

    def seal(self, owner: dict) -> None:
        """Freeze the buffer and point `owner` at the new row."""
        self.buffer.flags.writeable = False
        owner.update(zip(self.steps, self.buffer[len(self.owners), :, :self.dim]))
        self.owners.append(owner)


class ReferenceBankSet:
    """Per-step caches of outputs, hidden states, and latents.

    Banks are keyed by the 1-based generation step.  Each step's bank is
    one stacked (n, dim) array, one row per committed branch, oldest
    first; at capacity the oldest row is evicted.  The buffers are
    allocated at the first commit with room for capacity_per_step rows,
    so a caller that knows how many branches it will commit sizes them
    by passing no more than that.  Each committed row is stored once:
    commit points the contribution's entries at the bank's rows
    (read-only views), and hands an evicted contribution its rows back
    as copies.  An array the accessors return is valid until the next
    commit.

    Commit also caches the norm of every hidden and latent row, which
    the cosine penalties read on every step.  Every branch committed to
    one set must cover the same steps.
    """

    def __init__(self, capacity_per_step: int = 16):
        if capacity_per_step < 1:
            raise ValueError("capacity_per_step must be >= 1")
        self.capacity_per_step = capacity_per_step
        self._outputs = _BankRows(capacity_per_step)
        self._hiddens = _BankRows(capacity_per_step)  # rows [h | norm(h)]
        self._latents = _BankRows(capacity_per_step)  # rows [z | norm(z)]

    def outputs_at(self, step: int) -> np.ndarray:
        rows = self._outputs.at(step)
        return _EMPTY_BANK if rows is None else rows

    def hiddens_at(self, step: int) -> np.ndarray:
        rows = self._hiddens.at(step)
        return _EMPTY_BANK if rows is None else rows[:, :-1]

    def latents_at(self, step: int) -> np.ndarray:
        rows = self._latents.at(step)
        return _EMPTY_BANK if rows is None else rows[:, :-1]

    def hidden_norms_at(self, step: int) -> np.ndarray | None:
        rows = self._hiddens.at(step)
        return None if rows is None else rows[:, -1]

    def latent_norms_at(self, step: int) -> np.ndarray | None:
        rows = self._latents.at(step)
        return None if rows is None else rows[:, -1]

    def commit(self, contrib: "BranchContribution") -> None:
        """Insert one finished branch's per-step representations."""
        if contrib.outputs:
            _store(self._outputs, contrib.outputs, norms=False)
        if contrib.latents:
            _store(self._latents, contrib.latents, norms=True)
        if contrib.hiddens:
            _store(self._hiddens, contrib.hiddens, norms=True)


_EMPTY_BANK = np.empty((0, 0))
_EMPTY_BANK.flags.writeable = False


def _store(bank: _BankRows, rows: dict[int, np.ndarray], norms: bool) -> None:
    """Commit one contribution dict to `bank`."""
    dim = np.shape(next(iter(rows.values())))[0]
    slot = bank.slot(list(rows), dim, dim + 1 if norms else dim)
    for i, row in enumerate(rows.values()):
        slot[i, :dim] = row
    if norms:
        slot[:, dim] = row_norms(slot[:, :dim])
    bank.seal(rows)


@dataclass
class BranchContribution:
    """Representations a branch offers to the banks, keyed by step."""

    outputs: dict[int, np.ndarray] = field(default_factory=dict)
    hiddens: dict[int, np.ndarray] = field(default_factory=dict)
    latents: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass
class Branch:
    """One generated sample plus its trace and bank contribution."""

    tokens: list[int] | None
    final_latent: np.ndarray | None
    trace: list[UagStepRecord]
    contrib: BranchContribution
    wall_time: float = 0.0
    total_flops: int = 0


@dataclass(frozen=True)
class GenerationConfig:
    """Everything needed to reproduce a multi-branch run."""

    schedule: ScheduleParams
    penalty: PenaltyConfig
    temperature: float = DEFAULT_TEMPERATURE
    max_steps: int = 40
    branches: int = 1
    seed: int = 0
    uag_enabled: bool = True
    bank_capacity: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.temperature < math.inf:  # also rejects NaN
            raise ValueError("temperature must be positive and finite")
        if self.branches < 1:
            raise ValueError("branches must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.bank_capacity < 1:
            raise ValueError("bank_capacity must be >= 1")


def sample_token(logits, temperature: float, rng: np.random.Generator) -> int:
    """Draw a token from softmax(logits / temperature).

    Exactly one uniform draw is consumed per call, so penalty-modified
    and unmodified runs stay on the same random stream.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    logits = np.asarray(logits, dtype=float)
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    probs = softmax(logits / temperature)
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random(), side="right"))
    return min(idx, logits.shape[-1] - 1)


def _zero_record(step: int, weights: StepWeights) -> UagStepRecord:
    return UagStepRecord(step=step, loss_local=0.0, loss_global=0.0,
                         loss_total=0.0, w_local=weights.w_local,
                         w_global=weights.w_global, flops=0)


def prompt_state(model, prompt_tokens) -> tuple[np.ndarray, int]:
    """(hidden state, last token) after reading the prompt.

    Reads only the recurrence (model.advance); the logits of prompt
    positions are never used, so they are not computed.
    """
    h = np.asarray(model.init_hidden, dtype=float)
    last = START_TOKEN
    for tok in prompt_tokens or []:
        h = model.advance(h, tok)
        last = tok
    return h, last


def _generate_ar_branch(model, prompt_tokens, cfg: GenerationConfig,
                        banks: ReferenceBankSet, rng, prefix) -> Branch:
    if cfg.penalty.sim_local != "dot" or cfg.penalty.sim_global != "dot":
        raise ValueError("token processes use dot-product similarities")
    h, last = prefix if prefix is not None else prompt_state(model, prompt_tokens)
    tokens: list[int] = []
    trace: list[UagStepRecord] = []
    contrib = BranchContribution()
    total_flops = 0
    eps = cfg.penalty.epsilon
    for step in range(1, cfg.max_steps + 1):
        y, h_new = model.step(h, last)
        weights = schedule_weights(step, cfg.schedule)
        total_flops += model.step_flops()
        out_refs = banks.outputs_at(step)
        hid_refs = banks.hiddens_at(step)
        if cfg.uag_enabled and (len(out_refs) or len(hid_refs)):
            g_local = np.zeros_like(y)
            g_global = np.zeros_like(y)
            if len(out_refs):
                g_local = normalize_gradient(repulsion_gradient(y, out_refs), eps)
            if len(hid_refs):
                g_global = normalize_gradient(
                    hidden_gradient_projected(h_new, hid_refs, model.proj), eps)
            y_hat = apply_uag(y, g_local, g_global, weights)
            step_flops = flops_estimate(model.vocab_size, model.hidden_size,
                                        len(out_refs), len(hid_refs))
            total_flops += step_flops
        else:
            y_hat = y
            step_flops = 0
        if cfg.uag_enabled:
            record = uag_loss_value(y, h_new, out_refs, hid_refs, cfg.penalty,
                                    weights, step=step, flops=step_flops)
        else:
            record = _zero_record(step, weights)
        trace.append(record)
        tok = sample_token(y_hat, cfg.temperature, rng)
        tokens.append(tok)
        contrib.outputs[step] = softmax(y_hat)
        contrib.hiddens[step] = h_new
        h = h_new
        last = tok
    return Branch(tokens=tokens, final_latent=None, trace=trace,
                  contrib=contrib, total_flops=total_flops)


def _generate_diffusion_branch(model: ToyDiffusion, init_noise,
                               cfg: GenerationConfig, banks: ReferenceBankSet,
                               rng) -> Branch:
    if cfg.penalty.sim_local != "cosine" or cfg.penalty.sim_global != "embedding":
        raise ValueError("diffusion processes use cosine/embedding similarities")
    if cfg.max_steps != model.steps:
        raise ValueError("max_steps must equal the diffusion step count")
    z = (np.asarray(init_noise, dtype=float) if init_noise is not None
         else rng.standard_normal(model.latent_size))
    trace: list[UagStepRecord] = []
    contrib = BranchContribution()
    total_flops = 0
    eps = cfg.penalty.epsilon
    embedder = model.embedder
    for step in range(1, model.steps + 1):
        tau = model.steps - step + 1  # diffusion time counts down
        y = model.predict_noise(z, tau)
        weights = schedule_weights(step, cfg.schedule)
        total_flops += model.step_flops()
        e = embedder.embed(z)  # read by the global penalty, its loss, and the bank
        lat_refs = banks.latents_at(step)
        emb_refs = banks.hiddens_at(step)
        lat_norms = banks.latent_norms_at(step)
        emb_norms = banks.hidden_norms_at(step)
        if cfg.uag_enabled and (len(lat_refs) or len(emb_refs)):
            # The scheduler removes predicted noise, so the next latent
            # depends on y with a negative coefficient for any valid
            # alphas_bar.  The repulsive direction in noise space is
            # therefore the NEGATED latent-similarity gradient.
            g_local = np.zeros_like(y)
            g_global = np.zeros_like(y)
            if len(lat_refs):
                g_local = -normalize_gradient(
                    latent_cosine_gradient(z, lat_refs, lat_norms), eps)
            if len(emb_refs):
                g_global = -normalize_gradient(
                    embedding_penalty_gradient(z, embedder, emb_refs,
                                               embedded=e, norms=emb_norms),
                    eps)
            y_hat = apply_uag(y, g_local, g_global, weights)
            step_flops = diffusion_flops_estimate(model.latent_size,
                                                  model.embed_size,
                                                  len(lat_refs), len(emb_refs))
            total_flops += step_flops
        else:
            y_hat = y
            step_flops = 0
        if cfg.uag_enabled:
            loss_local = latent_cosine_loss(z, lat_refs, cfg.penalty, lat_norms)
            loss_global = embedding_cosine_loss(z, embedder, emb_refs, cfg.penalty,
                                                embedded=e, norms=emb_norms)
            total = weights.w_local * loss_local + weights.w_global * loss_global
            record = UagStepRecord(step=step, loss_local=loss_local,
                                   loss_global=loss_global, loss_total=total,
                                   w_local=weights.w_local,
                                   w_global=weights.w_global, flops=step_flops)
        else:
            record = _zero_record(step, weights)
        trace.append(record)
        contrib.latents[step] = z.copy()
        contrib.hiddens[step] = e
        z = ddim_step(z, y_hat, tau, model)
    return Branch(tokens=None, final_latent=z, trace=trace, contrib=contrib,
                  total_flops=total_flops)


def generate_branch(model, prompt, cfg: GenerationConfig,
                    banks: ReferenceBankSet, rng: np.random.Generator, *,
                    prefix: tuple[np.ndarray, int] | None = None) -> Branch:
    """Generate one branch against the current banks.

    `prompt` is a token-id list for token models or an initial latent
    (may be None to draw from rng) for diffusion.  For token models,
    `prefix` may carry prompt_state(model, prompt), so that several
    branches read the prompt once.  The branch's bank contribution is
    returned on the Branch, not inserted; callers commit it once the
    branch is complete.
    """
    start = time.perf_counter()
    if isinstance(model, ToyDiffusion):
        branch = _generate_diffusion_branch(model, prompt, cfg, banks, rng)
    else:
        branch = _generate_ar_branch(model, prompt, cfg, banks, rng, prefix)
    branch.wall_time = time.perf_counter() - start
    return branch


def multi_branch(model, prompt, cfg: GenerationConfig) -> list[Branch]:
    """Generate cfg.branches branches sequentially with shared banks.

    Branch i uses rng seed cfg.seed + i and sees the committed
    representations of branches 0..i-1.  Nothing is committed that no
    later branch reads: not the last branch, nor any branch with the
    penalty off.
    """
    # a bank never holds more rows than the branches committed to it
    banks = ReferenceBankSet(max(1, min(cfg.bank_capacity, cfg.branches - 1)))
    prefix = None if isinstance(model, ToyDiffusion) else prompt_state(model, prompt)
    branches: list[Branch] = []
    for i in range(cfg.branches):
        rng = np.random.default_rng(cfg.seed + i)
        branch = generate_branch(model, prompt, cfg, banks, rng, prefix=prefix)
        if cfg.uag_enabled and i + 1 < cfg.branches:
            banks.commit(branch.contrib)
        branches.append(branch)
    return branches


def naive_config(cfg: GenerationConfig) -> GenerationConfig:
    """The same run with the penalty switched off."""
    return replace(cfg, uag_enabled=False)


def tokenize(text: str, vocab: list[str]) -> list[int]:
    """Whitespace tokenizer with a byte fallback.

    Words found in the vocab map to their index; anything else falls
    back to its UTF-8 bytes taken modulo the vocab size.
    """
    index = {w: i for i, w in enumerate(vocab)}
    ids: list[int] = []
    for word in text.split():
        if word in index:
            ids.append(index[word])
        else:
            ids.extend(b % len(vocab) for b in word.encode("utf-8"))
    return ids


def detokenize(ids, vocab: list[str]) -> str:
    return " ".join(vocab[i] for i in ids)
