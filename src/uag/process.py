"""Step-wise generative processes with per-step avoidance penalties.

Two toy processes exercise the penalty machinery end to end: a recurrent
autoregressive token model and a deterministic latent diffusion sampler.
Decoding is step-major.  A lane is one (prompt, config) pair, and every
lane of a call decodes on a leading array axis.  Each step runs the
model once for every branch and lane, then penalizes and samples
branch b against that step's rows of the branches before it, branch by
branch (diffusion takes the DDIM step of every branch once all are
penalized).  The reference banks are one step's rows and are never
kept past the step.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .penalty import (
    OutputProjection,
    PenaltyConfig,
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
    row_norms,
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
# Bound on the floats in one multi_branch call's (branches, lanes, width)
# step arrays (256 KiB each); see lanes_per_call.
LANE_FLOATS = 2**15


def _check_tokens(tokens, vocab_size: int) -> None:
    ids = np.asarray(tokens)
    if np.any((ids < 0) | (ids >= vocab_size)):
        raise ValueError(f"token {tokens} outside vocab of {vocab_size}")


class ToyArModel:
    """Seeded recurrent token model: h' = tanh(R h + E[tok]), y = W h' + b.

    All weights are Gaussian scaled by 1/sqrt(hidden_size) and fully
    determined by the seed, so the model is reconstructible anywhere.
    Hidden states and tokens may carry a leading lane axis.
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

    def step(self, h, last_token, out=None):
        """One recurrent step: returns (logits, new_hidden).

        The returned hidden state is the one that produced the logits and
        is what the hidden bank holds.  `out`, if given, receives the
        logits.
        """
        h_new = self.advance(h, last_token)
        return self.proj.apply(h_new, out), h_new

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

    def step(self, h, last_token, out=None):
        row = self.advance(h, last_token)
        return np.log(row + 1e-12, out=out), row

    def advance(self, h, last_token) -> np.ndarray:
        _check_tokens(last_token, self.vocab_size)
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
    if not np.isfinite(logits).all():
        raise ValueError("non-finite logits")
    cum = np.cumsum(softmax(logits / temperature[..., None]), axis=-1)
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
    """The current step's reference rows of every branch and lane.

    Each kind of row is one (branches, lanes, ...) array that is
    replaced or overwritten every step, so no row outlives its step.
    Branch b's bank of a kind is rows[max(0, b - capacity):b]: the same
    step's rows of the newest `capacity` branches before it, oldest
    first.
    """

    def __init__(self, capacity: int, branches: int, lanes: int, **shapes):
        self.capacity = capacity
        self.rows = {kind: np.empty((branches, lanes, *shape))
                     for kind, shape in shapes.items()}

    def share(self, **rows) -> None:
        """Take arrays that hold every branch's rows of this step as the
        step's rows of their kinds, without copying them."""
        self.rows.update(rows)

    def commit(self, b: int, **rows) -> None:
        """Store branch b's rows of this step, one keyword per kind."""
        for kind, row in rows.items():
            self.rows[kind][b] = row

    def bank(self, kind: str, b: int) -> np.ndarray:
        return self.rows[kind][max(0, b - self.capacity):b]


class _TokenLanes:
    """Token decoding: hidden states, last tokens and the step's banks.

    Arrays are (branches, lanes, ...); y holds every branch's logits of
    the step.  The local bank rows are the branches' penalized
    distributions softmax(y_hat), the global ones their hidden states.
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
        self.banks = ReferenceBankSet(cfg.bank_capacity, *shape,
                                      outputs=(model.vocab_size,))
        self.rngs = [np.random.default_rng(cfg.seed + b) for b in range(cfg.branches)]
        self.temperatures = temperatures
        self.step_flops = model.step_flops()

    def step(self, step: int) -> None:
        # every step's logits reuse one buffer: a fresh (branches, lanes,
        # vocab) array per step costs page faults once it passes the
        # allocator's mmap threshold
        self.y, self.h = self.model.step(self.h, self.tokens[..., step - 1], out=self.y)
        self.banks.share(hiddens=self.h)

    def penalize(self, b: int):
        local, g_local = repulsion_gradient(self.y[b], self.banks.bank("outputs", b),
                                            return_sims=True)
        glob, g_global = hidden_gradient_projected(
            self.h[b], self.banks.bank("hiddens", b), self.model.proj, return_sims=True)
        return local, g_local, glob, g_global

    def penalty_flops(self, n: int) -> int:
        return flops_estimate(self.model.vocab_size, self.model.hidden_size, n, n)

    def settle(self, b: int, y_hat, step: int, keep: bool) -> None:
        """Sample branch b's token in every lane, with one draw of its
        own stream; keep its distribution for the later branches."""
        self.tokens[b, :, step] = sample_token(y_hat, self.temperatures, self.rngs[b])
        if keep:
            self.banks.commit(b, outputs=softmax(y_hat))

    def advance(self, step: int) -> None:
        pass  # settle() drew every branch's token

    def result(self, b: int, lane: int) -> dict:
        return {"tokens": self.tokens[b, lane, 1:].tolist(), "final_latent": None}


class _LatentLanes:
    """Diffusion decoding: latents, embeddings and the step's banks.

    y holds every branch's predicted noise of the step.  The local bank
    rows are the branches' latents before the step, the global ones
    their embeddings; both with their row norms.  The scheduler removes
    predicted noise, so the next latent depends on y with a negative
    coefficient for any valid alphas_bar: the repulsive direction in
    noise space is the negated similarity gradient.
    """

    def __init__(self, model: ToyDiffusion, prompts, cfg: GenerationConfig, _):
        if cfg.max_steps != model.steps:
            raise ValueError("max_steps must equal the diffusion step count")
        self.model = model
        z = np.empty((cfg.branches, len(prompts), model.latent_size))
        for b in range(cfg.branches):  # lanes share each branch's draw
            noise = np.random.default_rng(cfg.seed + b).standard_normal(z.shape[2])
            z[b] = [noise if init is None else init for init in prompts]
        self.z = z
        self.banks = ReferenceBankSet(cfg.bank_capacity, *z.shape[:2])
        self.step_flops = model.step_flops()

    def step(self, step: int) -> None:
        # every row a branch offers this step is known before any penalty
        self.e = self.model.embedder.embed(self.z)
        self.banks.share(latents=self.z, embeds=self.e, latent_norms=row_norms(self.z),
                         embed_norms=row_norms(self.e))
        self.y = self.model.predict_noise(self.z, self.model.steps - step + 1)

    def penalize(self, b: int):
        bank = self.banks.bank
        local, g_local = latent_cosine_gradient(
            self.z[b], bank("latents", b), bank("latent_norms", b), return_sims=True)
        glob, g_global = embedding_penalty_gradient(
            self.z[b], self.model.embedder, bank("embeds", b), self.e[b],
            bank("embed_norms", b), return_sims=True)
        return local, -g_local, glob, -g_global

    def penalty_flops(self, n: int) -> int:
        m = self.model
        return diffusion_flops_estimate(m.latent_size, m.embed_size, n, n)

    def settle(self, b: int, y_hat, step: int, keep: bool) -> None:
        self.y[b] = y_hat  # step() shared every row of the step

    def advance(self, step: int) -> None:
        self.z = ddim_step(self.z, self.y, self.model.steps - step + 1, self.model)

    def result(self, b: int, lane: int) -> dict:
        return {"tokens": None, "final_latent": self.z[b, lane].copy()}


def lanes_per_call(model, cfg: GenerationConfig) -> int:
    """How many lanes one multi_branch call should decode.

    A call's per-step arrays are (branches, lanes, width) with width
    the output plus the hidden size; callers split their prompts and
    sweep points into calls of this many lanes, so that memory stays
    under a bound set by the model, whatever their number.
    """
    width = (model.latent_size + model.embed_size if isinstance(model, ToyDiffusion)
             else model.vocab_size + model.hidden_size)
    return max(1, LANE_FLOATS // (cfg.branches * width))


def multi_branch(model, prompts, cfgs, *, trace: bool = True) -> list[list[Branch]]:
    """Decode every lane (prompts[i], cfgs[i]); returns each lane's branches.

    `prompts` are token-id lists for token models, or initial latents
    (None: drawn from the branch's rng) for diffusion.  Lanes may differ
    only in schedule and temperature.  Decoding is step-major: each step
    runs the model for every branch and lane, then penalizes branch b
    against the same step's rows of branches max(0, b - capacity) ..
    b-1, oldest first, and samples it (or, for diffusion, takes the DDIM
    step of every branch once all are penalized).  Branch b draws from
    default_rng(seed + b), one draw per step shared by the lanes.  With
    trace=False no per-step records are made.
    """
    start = time.perf_counter()
    if len(prompts) != len(cfgs) or not cfgs:
        raise ValueError("need one config per prompt and at least one lane")
    cfg = cfgs[0]
    for other in cfgs[1:]:
        if replace(other, schedule=cfg.schedule, temperature=cfg.temperature) != cfg:
            raise ValueError("lanes may differ only in schedule and temperature")
    kind = _LatentLanes if isinstance(model, ToyDiffusion) else _TokenLanes
    lanes = kind(model, prompts, cfg, np.array([c.temperature for c in cfgs]))
    n_lanes, pen = len(cfgs), cfg.penalty
    # bank rows per branch, and each penalized step's flops
    rows = [min(b, cfg.bank_capacity) if cfg.uag_enabled else 0
            for b in range(cfg.branches)]
    flops = [lanes.penalty_flops(n) if n else 0 for n in rows]
    records = [[[] for _ in rows] for _ in cfgs]  # per lane and branch
    no_sims = np.empty((n_lanes, 0))
    for step in range(1, cfg.max_steps + 1):
        weights = [schedule_weights(step, c.schedule) for c in cfgs]
        lane_weights = StepWeights(np.array([[w.w_local] for w in weights]),
                                   np.array([[w.w_global] for w in weights]))
        lanes.step(step)
        for b, n in enumerate(rows):
            y_hat, local, glob = lanes.y[b], no_sims, no_sims
            if n:
                local, g_local, glob, g_global = lanes.penalize(b)
                g = normalize_gradient(np.array((g_local, g_global)), pen.epsilon)
                y_hat = apply_uag(y_hat, g[0], g[1], lane_weights)
            if trace:
                for lane, w in enumerate(weights):
                    records[lane][b].append(uag_loss_value(
                        local[lane], glob[lane], pen, w, step=step, flops=flops[b]))
            lanes.settle(b, y_hat, step, keep=cfg.uag_enabled and b + 1 < cfg.branches)
        lanes.advance(step)
    # a branch has no wall time of its own: each gets an equal share
    wall = (time.perf_counter() - start) / (n_lanes * cfg.branches)
    return [[generate_branch(lanes, lane, b, records[lane][b], wall,
                             cfg.max_steps * (lanes.step_flops + flops[b]))
             for b in range(cfg.branches)] for lane in range(n_lanes)]


def generate_branch(lanes, lane: int, b: int, trace: list[UagStepRecord],
                    wall_time: float, total_flops: int) -> Branch:
    """Branch b of one lane, as multi_branch decoded it: its tokens or
    final latent, with its trace and costs."""
    return Branch(**lanes.result(b, lane), trace=trace, wall_time=wall_time,
                  total_flops=total_flops)


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
