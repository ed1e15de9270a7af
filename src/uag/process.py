"""Step-wise generative processes with per-step avoidance penalties.

Two toy processes exercise the penalty machinery end to end: a recurrent
autoregressive token model and a deterministic latent diffusion sampler.
Decoding is step-major; a lane is one (prompt, config) pair, and the
lanes of a call decode on a leading array axis.  Each step runs the
model once for every branch and lane, then penalizes branch b against
that step's rows of the branches before it, under one causal window:
one call per penalty serves every branch, except the token output
penalty, whose bank holds the penalized distributions of earlier
branches, so it and the draw run branch by branch.  No bank row is
kept past its step.  decode_lanes is the whole decode: its one step
loop writes each step's losses in place, and it returns a call's
tokens or latents, losses and weights as arrays, lane first;
multi_branch is their view as Branch records with per-step traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .penalty import (
    DEFAULT_EPSILON,
    TanhEmbedder,
    UagStepRecord,
    apply_uag,
    diffusion_flops_estimate,
    embedding_penalty_gradient,
    flops_estimate,
    hidden_gradient_projected,
    lane_matvec,
    latent_cosine_gradient,
    normalize_gradient,
    repulsion_gradient,
    softmax,
    uag_loss_value,
)
# Looked up here by perfbench/tracing.py, which times the diffusion
# trace losses under these names; the loop reports both processes'
# losses through uag_loss_value.
from .penalty import embedding_cosine_loss, latent_cosine_loss  # noqa: F401
from .schedule import ScheduleParams, StepWeights, schedule_weights

# The toy models run peaked; branches repeat without a penalty at this
# temperature, which is the regime the avoidance update is for.
DEFAULT_TEMPERATURE = 0.1
START_TOKEN = 0
# Bound on the floats in the (branches, lanes, width) step arrays of one
# run of lanes that decode_lanes decodes together (256 KiB each); see
# lanes_per_call.
LANE_FLOATS = 2**15


def _check_tokens(tokens, vocab_size: int) -> None:
    ids = np.asarray(tokens)
    if np.any((ids < 0) | (ids >= vocab_size)):
        raise ValueError(f"token {tokens} outside vocab of {vocab_size}")


class ToyArModel:
    """Seeded recurrent token model: h' = tanh(R h + E[tok]), y = W h' + b.

    All weights are Gaussian scaled by 1/sqrt(hidden_size) and fully
    determined by the seed, so the model is reconstructible anywhere.
    token_embed (E) and recur (R) are the recurrence, out_w (W) and
    out_b (b) the output head.
    Hidden states and tokens may carry a leading lane axis.
    """

    def __init__(self, vocab_size: int, hidden_size: int, seed: int = 0):
        if vocab_size < 2 or hidden_size < 1:
            raise ValueError("need vocab_size >= 2 and hidden_size >= 1")
        self.vocab_size = vocab_size
        self.hidden_size = hidden_size
        self.seed = seed
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(hidden_size)
        self.token_embed = rng.standard_normal((vocab_size, hidden_size)) * scale
        self.recur = rng.standard_normal((hidden_size, hidden_size)) * scale
        self.out_w = rng.standard_normal((vocab_size, hidden_size)) * scale
        self.out_b = rng.standard_normal(vocab_size) * scale
        self.init_hidden = np.zeros(hidden_size)
        self.vocab = [f"w{i:03d}" for i in range(vocab_size)]

    def step(self, h, last_token, out=None, projected=None):
        """One recurrent step: returns (logits, new_hidden).

        The returned hidden state is the one that produced the logits and
        is what the hidden bank holds.  `out`, if given, receives the
        logits.  `projected`, if given, receives W h', the logits before
        the bias, which the hidden penalty gathers its rows from.
        """
        h_new = self.advance(h, last_token)
        return np.add(lane_matvec(self.out_w, h_new, projected), self.out_b, out=out), h_new

    def advance(self, h, last_token) -> np.ndarray:
        """The next hidden state alone, without the output projection."""
        _check_tokens(last_token, self.vocab_size)
        x = lane_matvec(self.recur, h)
        x += self.token_embed[last_token]
        return np.tanh(x, out=x)

    def step_flops(self) -> int:
        """Documented per-step model cost: recurrence matvec (2*d_h^2),
        embedding add + tanh (2*d_h), output matvec + bias (2*d_h*V + V),
        and the sampling softmax (4*V)."""
        d, v = self.hidden_size, self.vocab_size
        return 2 * d * d + 2 * d + 2 * d * v + v + 4 * v


class BigramModel:
    """Deterministic bigram-table model with the same step interface.

    Hidden state is the previous step's next-token distribution and the
    output head is the identity, so the hidden penalty's logit-space rows
    are the hidden states themselves; this makes penalty behavior
    directly interpretable in tests.
    """

    def __init__(self, vocab: list[str], bigram):
        # texts are written and tokenized as whitespace-separated words
        words = all(isinstance(w, str) and w.split() == [w] for w in vocab)
        if not words or len(set(vocab)) != len(vocab):  # set() of strings only
            raise ValueError("vocab words must be distinct, non-empty strings "
                             "without whitespace")
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
        self.init_hidden = np.full(v, 1.0 / v)

    def step(self, h, last_token, out=None, projected=None):
        row = self.advance(h, last_token)
        if projected is not None:  # the head is the identity: W h' is h'
            projected[...] = row
        return np.log(row + 1e-12, out=out), row

    def advance(self, h, last_token) -> np.ndarray:
        _check_tokens(last_token, self.vocab_size)
        return self.bigram[last_token].copy()

    def step_flops(self) -> int:
        v = self.vocab_size
        return 2 * v + 4 * v  # log lookup row + sampling softmax


class ToyDiffusion:
    """Deterministic latent diffusion toy with an affine noise predictor.

    alphas_bar has length steps+1 with alphas_bar[0] = 1 and is strictly
    decreasing (standard linear-beta schedule).  The embedder, of
    max(2, latent_size // 2) outputs, stands in for the decode-and-embed
    path used by the global penalty.
    """

    def __init__(self, latent_size: int, steps: int, seed: int = 0):
        if latent_size < 1 or steps < 1:
            raise ValueError("need latent_size >= 1 and steps >= 1")
        self.latent_size = latent_size
        self.steps = steps
        self.seed = seed
        betas = np.linspace(1e-4, 0.02, steps)
        self.alphas_bar = np.concatenate([[1.0], np.cumprod(1.0 - betas)])
        rng = np.random.default_rng(seed)
        m = latent_size
        self.score_weights = rng.standard_normal((m, m)) * (0.4 / np.sqrt(m))
        self.score_bias = rng.standard_normal(m) * 0.8
        e = self.embed_size = max(2, m // 2)
        self.embedder = TanhEmbedder(
            u=rng.standard_normal((e, m)) / np.sqrt(m),
            c=rng.standard_normal(e) * 0.1,
        )

    def predict_noise(self, z, t: int) -> np.ndarray:
        """Affine noise prediction; t is accepted for interface parity."""
        return lane_matvec(self.score_weights, z) + self.score_bias

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
    a_t = float(model.alphas_bar[t])
    a_prev = float(model.alphas_bar[t - 1])
    z0_hat = (z - math.sqrt(1.0 - a_t) * y) / math.sqrt(a_t)
    return math.sqrt(a_prev) * z0_hat + math.sqrt(1.0 - a_prev) * y


@dataclass
class Branch:
    """One generated sample plus its per-step trace."""

    tokens: list[int] | None
    final_latent: np.ndarray | None
    trace: list[UagStepRecord]
    total_flops: int = 0


@dataclass(frozen=True)
class GenerationConfig:
    """Everything needed to reproduce a multi-branch run."""

    schedule: ScheduleParams
    # variance floor of the penalty gradients' normalization
    epsilon: float = DEFAULT_EPSILON
    temperature: float = DEFAULT_TEMPERATURE
    max_steps: int = 40
    branches: int = 1
    seed: int = 0
    uag_enabled: bool = True
    bank_capacity: int = 16

    def __post_init__(self) -> None:
        if not self.epsilon > 0:  # also rejects NaN
            raise ValueError("epsilon must be positive")
        if not 0 < self.temperature < math.inf:  # also rejects NaN
            raise ValueError("temperature must be positive and finite")
        if self.branches < 1:
            raise ValueError("branches must be >= 1")
        if self.seed < 0:  # default_rng takes no negative seed
            raise ValueError("seed must be >= 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.bank_capacity < 1:
            raise ValueError("bank_capacity must be >= 1")


def sample_token(logits, temperature, rng: np.random.Generator):
    """Draw a token from softmax(logits / temperature).

    Exactly one uniform draw is consumed per call, so penalty-modified
    and unmodified runs stay on the same random stream.  The token is
    the first whose cumulative probability exceeds the draw.  logits may
    carry a leading lane axis, with one temperature per lane; the lanes
    share the draw and the result is their tokens as a list.
    """
    temperature = np.asarray(temperature, dtype=float)
    if not np.all(temperature > 0):
        raise ValueError("temperature must be positive")
    logits = np.asarray(logits, dtype=float)
    with np.errstate(over="ignore"):  # an overflow is the inf caught below
        tempered = logits / temperature[..., None]
    finite = np.isfinite(tempered).all(axis=-1)
    if not finite.all():
        bad = np.broadcast_to(temperature, finite.shape)[~finite]
        raise ValueError(f"non-finite logits / temperature at temperature {float(bad[0])!r}")
    cum = np.cumsum(softmax(tempered), axis=-1)
    # the count of cum <= u is searchsorted(cum, u, side="right") per row
    idx = np.add.reduce(cum <= rng.random(), axis=-1)
    return np.minimum(idx, logits.shape[-1] - 1).tolist()


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


class ReferenceBankSet:
    """The token path's chained reference rows of the current step.

    rows is one (branches - 1, lanes, V) array of penalized output
    distributions, zero before its first commit and overwritten branch
    by branch; the step's window picks branch b's bank from all of it.
    """

    def __init__(self, rows: np.ndarray):
        self.rows = rows

    def commit(self, b: int, row: np.ndarray) -> None:
        """Store branch b's row of this step."""
        self.rows[b] = row


class _TokenLanes:
    """Token decoding: hidden states, last tokens and the step's output bank.

    Arrays are (branches, lanes, ...); y holds every branch's logits of
    the step.  The global bank rows are the hidden states, all known at
    step start, so one call penalizes every branch's, gathering each
    gradient from the step's W h (wh) in place of projecting it; the
    local ones are the penalized distributions softmax(y_hat), so branch
    b's holds what the branches before it settled and that penalty and
    the draw run branch by branch.  Its queries, the unpenalized
    distributions softmax(y), are all known at step start and taken once.
    """

    def __init__(self, model, prompts, cfg: GenerationConfig, temperatures):
        self.model = model
        # sweep points repeat their prompts: read each distinct one once
        read = {key: prompt_state(model, key) for key in dict.fromkeys(map(tuple, prompts))}
        states = [read[tuple(p)] for p in prompts]
        shape = (cfg.branches, len(prompts))
        self.h = np.broadcast_to(np.stack([h for h, _ in states]),
                                 (*shape, model.hidden_size))
        self.tokens = np.empty((*shape, cfg.max_steps + 1), dtype=np.intp)
        self.tokens[..., 0] = [last for _, last in states]
        self.y = np.empty((*shape, model.vocab_size))
        # every branch's W h of the step, the hidden penalty's logit-space rows
        self.wh = np.empty_like(self.y)
        self.bank = ReferenceBankSet(np.zeros((cfg.branches - 1, *self.y.shape[1:])))
        self.rngs = [np.random.default_rng(cfg.seed + b) for b in range(cfg.branches)]
        self.temperatures, self.epsilon = temperatures, cfg.epsilon

    def step(self, step: int, weights: StepWeights, losses, window) -> None:
        """Run the model and the hidden penalty of every branch, then the
        output penalty and the draw branch by branch, writing branch b's
        local and global losses into losses[0, b] and losses[1, b]."""
        # every step's logits reuse one buffer: a fresh (branches, lanes,
        # vocab) array per step costs page faults once it passes the
        # allocator's mmap threshold
        self.y, self.h = self.model.step(self.h, self.tokens[..., step - 1], out=self.y,
                                         projected=self.wh)
        if len(window):
            losses[1, 1:], g_global = hidden_gradient_projected(self.h[1:], self.h[:-1],
                                                                self.wh[:-1], window)
            g_global = normalize_gradient(g_global, self.epsilon)
            p = softmax(self.y[1:])  # the output penalty's queries
        with np.errstate(over="ignore", invalid="ignore"):  # raised as non-finite below
            for b, rng in enumerate(self.rngs):
                y_hat = self.y[b]
                if b and len(window):
                    losses[0, b:b + 1], g_local = repulsion_gradient(
                        p[b - 1:b], self.bank.rows, window[b - 1:b])
                    y_hat = apply_uag(y_hat, normalize_gradient(g_local[0], self.epsilon),
                                      g_global[b - 1], weights)
                try:
                    self.tokens[b, :, step] = sample_token(y_hat, self.temperatures, rng)
                except ValueError:
                    if b and len(window):  # the penalty made them: name its weights
                        _require_finite("logits / temperature",
                                        (y_hat / self.temperatures[:, None])[None], step,
                                        weights)
                    raise
                if b < len(window):
                    self.bank.commit(b, softmax(y_hat))


class _LatentLanes:
    """Diffusion decoding: every branch of a step penalized in one pass.

    The bank rows are the latents before the step and their embeddings,
    all known at step start.  The scheduler removes predicted noise: the
    repulsive direction in noise space is the negated similarity gradient.
    """

    def __init__(self, model: ToyDiffusion, prompts, cfg: GenerationConfig, _):
        if cfg.max_steps != model.steps:
            raise ValueError("max_steps must equal the diffusion step count")
        self.model = model
        z = np.empty((cfg.branches, len(prompts), model.latent_size))
        for b in range(cfg.branches):  # lanes share each branch's draw
            noise = np.random.default_rng(cfg.seed + b).standard_normal(z.shape[2])
            z[b] = [noise if init is None else init for init in prompts]
        self.z, self.epsilon = z, cfg.epsilon

    def step(self, step: int, weights: StepWeights, losses, window) -> None:
        """Penalize every branch at once, writing branch b's local and
        global losses into losses[0, b] and losses[1, b], then take the
        DDIM step of all."""
        model, z, t = self.model, self.z, self.model.steps - step + 1
        y = model.predict_noise(z, t)
        with np.errstate(over="ignore", invalid="ignore"):  # raised as non-finite below
            if len(window):
                e = model.embedder.embed(z)
                try:
                    losses[0, 1:], g_local = latent_cosine_gradient(z[1:], z[:-1], window)
                    losses[1, 1:], g_global = embedding_penalty_gradient(
                        e[1:], model.embedder, e[:-1], window)
                except ValueError:  # a non-finite norm names its lane's weights
                    _require_finite("cosine norm", np.linalg.norm(z, axis=-1), step, weights)
                    raise
                g = normalize_gradient(np.array((-g_local, -g_global)), self.epsilon)
                y[1:] = apply_uag(y[1:], g[0], g[1], weights)
                _require_finite("penalized noise", y, step, weights)
            self.z = ddim_step(z, y, t, model)
        _require_finite("next latent", self.z, step, weights)


def _require_finite(what: str, values, step: int, weights: StepWeights) -> None:
    """Raise ValueError naming the step's weights of the first lane whose
    (branches, lanes, ...) values are not all finite."""
    finite = np.isfinite(values)
    if not finite.all():
        lane = finite.reshape(*values.shape[:2], -1).all(axis=(0, 2)).argmin()
        w = StepWeights(float(weights.w_local[lane, 0]), float(weights.w_global[lane, 0]))
        raise ValueError(f"non-finite {what} at step {step} under {w}")


def _widths(model) -> tuple[int, int]:
    """A step row's output and hidden widths: (V, d_h), or (m, e) for diffusion."""
    return ((model.latent_size, model.embed_size) if isinstance(model, ToyDiffusion)
            else (model.vocab_size, model.hidden_size))


def lanes_per_call(model, cfg: GenerationConfig) -> int:
    """How many lanes decode_lanes decodes at a time.

    The per-step arrays of a decode are (branches, lanes, width) with
    width the output plus the hidden size; decoding this many lanes at
    a time keeps memory under a bound set by the model, whatever the
    number of prompts and sweep points.
    """
    return max(1, LANE_FLOATS // (cfg.branches * sum(_widths(model))))


def decode_lanes(model, prompts, cfgs):
    """Decode every lane (prompts[i], cfgs[i]) into lane-first arrays
    (outputs, losses, weights, flops): tokens (lanes, branches, steps) or
    final latents (lanes, branches, m); each step's local, global and
    total loss (lanes, branches, steps, 3), 0 for a branch without a
    bank; each step's (w_local, w_global) (lanes, steps, 2); and each
    branch's penalty flops per step (branches,).

    `prompts` are token-id lists for token models, or initial latents
    (None: drawn from the branch's rng) for diffusion.  Lanes may differ
    only in schedule and temperature.  Branch b is penalized against the
    same step's rows of branches max(0, b - capacity) .. b-1, oldest
    first, and draws from default_rng(seed + b), one draw per step
    shared by the lanes.  The window, flops, weights and result arrays
    are built once per call; the one step loop then decodes the lanes
    lanes_per_call at a time, each run of them freed before the next is
    built, and writes every step's local and global losses in place.
    """
    if len(prompts) != len(cfgs) or not cfgs:
        raise ValueError("need one config per prompt and at least one lane")
    cfg = cfgs[0]
    for other in cfgs[1:]:
        if replace(other, schedule=cfg.schedule, temperature=cfg.temperature) != cfg:
            raise ValueError("lanes may differ only in schedule and temperature")
    # window[b - 1, j]: branch j's row is in branch b's bank, the newest
    # bank_capacity branches before b (0 <= b - 1 - j < bank_capacity);
    # no rows without the penalty
    q = cfg.branches - 1 if cfg.uag_enabled else 0
    window = np.tri(q, dtype=bool) & ~np.tri(q, k=-cfg.bank_capacity, dtype=bool)
    # each branch's flops of a penalized step, at its bank's row count
    estimate = diffusion_flops_estimate if isinstance(model, ToyDiffusion) else flops_estimate
    flops = np.zeros(cfg.branches, dtype=np.int64)
    flops[1:1 + len(window)] = [estimate(*_widths(model), n) for n in window.sum(1).tolist()]
    # lanes with equal schedules (a sweep point's prompts) share their weights
    column = {s: i for i, s in enumerate(dict.fromkeys(c.schedule for c in cfgs))}
    weights = np.array([[(w.w_local, w.w_global) for w in
                         (schedule_weights(step, s, cfg.max_steps)
                          for step in range(1, cfg.max_steps + 1))]
                        for s in column])[[column[c.schedule] for c in cfgs]]
    losses = np.zeros((len(cfgs), cfg.branches, cfg.max_steps, 3))
    kind = _LatentLanes if isinstance(model, ToyDiffusion) else _TokenLanes
    per_call = lanes_per_call(model, cfg)
    outputs = []
    # a step writes its losses[k, b, lane] into a (2, branches, lanes) view
    for run in (slice(first, first + per_call) for first in range(0, len(cfgs), per_call)):
        lanes = kind(model, prompts[run], cfg, np.array([c.temperature for c in cfgs[run]]))
        for step, w in enumerate(weights[run].transpose(1, 0, 2), 1):
            lanes.step(step, StepWeights(w[:, :1], w[:, 1:]), losses[run, :, step - 1, :2].T,
                       window)
        outputs.append((lanes.z if kind is _LatentLanes else lanes.tokens[..., 1:])
                       .transpose(1, 0, 2))
        del lanes  # before the next run's arrays are built
    # every step's total, weighted the way the update weighted it
    losses[..., 2] = uag_loss_value(losses[..., 0], losses[..., 1],
                                    StepWeights(weights[:, None, :, 0], weights[:, None, :, 1]))
    return np.concatenate(outputs), losses, weights, flops


def multi_branch(model, prompts, cfgs) -> list[list[Branch]]:
    """decode_lanes(model, prompts, cfgs) as each lane's branches, each
    with one UagStepRecord per step."""
    outputs, losses, weights, flops = decode_lanes(model, prompts, cfgs)
    losses, weights, flops = losses.tolist(), weights.tolist(), flops.tolist()
    return [[generate_branch(output, [UagStepRecord(step, *loss, *w, flops=f) for step, (loss, w)
                                      in enumerate(zip(branch_losses, lane_weights), 1)],
                             cfgs[0].max_steps * (model.step_flops() + f))
             for output, branch_losses, f in zip(lane_outputs, lane_losses, flops)]
            for lane_outputs, lane_losses, lane_weights in zip(outputs, losses, weights)]


def generate_branch(output: np.ndarray, trace: list[UagStepRecord], total_flops: int) -> Branch:
    """One branch from its row of decode_lanes' outputs: its tokens, or
    its final latent (a view of that row), with its trace and flops."""
    if output.dtype.kind == "f":
        return Branch(None, output, trace, total_flops)
    return Branch(output.tolist(), None, trace, total_flops)


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
