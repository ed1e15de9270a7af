"""Hyperparameter sweeping with Pareto-front selection.

Each swept point runs the full multi-branch generation and scores a
(diversity, degeneration) objective pair; the front keeps the points not
dominated under (maximize diversity, minimize degeneration).  Every
point and prompt of a sweep decodes as one lane of one decode_lanes
call, whose token array is scored as it is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .metrics import corpus_degeneration, self_bleu
from .process import GenerationConfig, decode_lanes
# Looked up here by perfbench/tracing.py, whose process.loop site names
# it; run_sweep scores decode_lanes' token array and makes no records.
from .process import multi_branch  # noqa: F401

PARAM_ORDER = ("alpha", "beta", "l0", "delta", "temperature")
# The schedule weights and sharpness are nonnegative.
NONNEGATIVE = ("alpha", "beta", "delta")
SAMPLING_MODES = ("grid", "random")
DEFAULT_MAX_DEGEN = 0.9


@dataclass(frozen=True)
class ParamSpec:
    """Either an explicit grid of values or a (min, max) range."""

    grid: tuple[float, ...] | None = None
    low: float | None = None
    high: float | None = None

    def __post_init__(self) -> None:
        if self.grid is not None:
            if len(self.grid) == 0:
                raise ValueError("grid must be nonempty")
        elif self.low is None or self.high is None:
            raise ValueError("need either a grid or a (min, max) range")
        elif self.low > self.high:
            raise ValueError("min must be <= max")

    def lowest(self) -> float:
        return min(self.grid) if self.grid is not None else self.low

    def highest(self) -> float:
        return max(self.grid) if self.grid is not None else self.high


@dataclass(frozen=True)
class SweepSpace:
    """Search space over the schedule parameters and temperature."""

    params: dict[str, ParamSpec]
    sampling: str = "grid"
    budget: int = 1

    def __post_init__(self) -> None:
        if self.sampling not in SAMPLING_MODES:
            raise ValueError(f"unknown sampling mode {self.sampling!r}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        for name, spec in self.params.items():
            if name not in PARAM_ORDER:
                raise ValueError(f"unknown sweep parameter {name!r}")
            if self.sampling == "grid" and spec.grid is None:
                raise ValueError(f"grid sampling requires explicit values for {name}")
            if name in NONNEGATIVE and spec.lowest() < 0:
                raise ValueError(f"{name} values must be nonnegative, "
                                 f"got {spec.lowest()}")
            if name == "temperature" and spec.lowest() <= 0:
                raise ValueError(f"temperature values must be positive, got {spec.lowest()}")


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated parameter vector."""

    run_id: int
    params: dict[str, float]
    diversity: float
    degeneration: float


def _base_values(base_cfg: GenerationConfig) -> dict[str, float]:
    sched = base_cfg.schedule
    return {"alpha": sched.alpha, "beta": sched.beta, "l0": sched.l0,
            "delta": sched.delta, "temperature": base_cfg.temperature}


def enumerate_vectors(space: SweepSpace, base_cfg: GenerationConfig,
                      rng: np.random.Generator) -> list[dict[str, float]]:
    """Parameter vectors in documented order.

    Grid mode enumerates the cross product row-major over
    (alpha, beta, l0, delta, temperature), truncated to the budget;
    random mode draws budget vectors, uniform over ranges or uniform
    choices from explicit grids.  Parameters absent from the space stay
    at their base-config values.
    """
    base = _base_values(base_cfg)
    if space.sampling == "grid":
        axes = [space.params[name].grid if name in space.params else (base[name],)
                for name in PARAM_ORDER]
        product = itertools.islice(itertools.product(*axes), space.budget)
        return [dict(zip(PARAM_ORDER, combo)) for combo in product]
    vectors = []
    for _ in range(space.budget):
        vec = dict(base)
        for name in PARAM_ORDER:
            spec = space.params.get(name)
            if spec is None:
                continue
            if spec.grid is not None:
                vec[name] = float(spec.grid[rng.integers(len(spec.grid))])
            else:
                vec[name] = float(rng.uniform(spec.low, spec.high))
        vectors.append(vec)
    return vectors


def _configure(base_cfg: GenerationConfig, vec: dict[str, float]) -> GenerationConfig:
    sched = replace(base_cfg.schedule, alpha=vec["alpha"], beta=vec["beta"],
                    l0=vec["l0"], delta=vec["delta"])
    return replace(base_cfg, schedule=sched, temperature=vec["temperature"])


def evaluate_objectives(tokens) -> tuple[np.ndarray, np.ndarray]:
    """(diversity, degeneration) of each config, from an int array
    (configs, prompts, branches, steps) of its prompts' branch tokens.

    Diversity is 1 - the mean over prompts of the self-BLEU of the
    prompt's branch corpus; degeneration is the mean over prompts of the
    corpus's mean per-branch repetition score.  Every corpus is scored
    in one self_bleu and one corpus_degeneration call.
    """
    corpora = tokens.reshape(-1, *tokens.shape[2:])
    bleus = self_bleu(corpora).reshape(tokens.shape[:2])
    degens = corpus_degeneration(corpora).reshape(tokens.shape[:2])
    return 1.0 - bleus.mean(axis=1), degens.mean(axis=1)


def run_sweep(space: SweepSpace, base_cfg: GenerationConfig, model, prompts,
              rng: np.random.Generator) -> list[SweepPoint]:
    """Evaluate every sampled parameter vector; deterministic under a seed.

    The points x prompts lanes decode in one decode_lanes call.
    """
    if not prompts:
        raise ValueError("prompts must be nonempty")
    vectors = enumerate_vectors(space, base_cfg, rng)
    cfgs = [_configure(base_cfg, vec) for vec in vectors]
    tokens = decode_lanes(model, prompts * len(cfgs), [c for c in cfgs for _ in prompts])[0]
    diversity, degeneration = evaluate_objectives(
        tokens.reshape(len(cfgs), len(prompts), *tokens.shape[1:]))
    return [SweepPoint(i, vec, div, degen) for i, (vec, div, degen) in
            enumerate(zip(vectors, diversity.tolist(), degeneration.tolist()))]


def dominates(a: SweepPoint, b: SweepPoint) -> bool:
    """a dominates b: at least as good on both objectives, better on one."""
    return (a.diversity >= b.diversity and a.degeneration <= b.degeneration
            and (a.diversity > b.diversity or a.degeneration < b.degeneration))


def pareto_front(points) -> tuple[SweepPoint, ...]:
    """Non-dominated points via a sort-and-scan; objective duplicates kept."""
    if not points:
        raise ValueError("points must be nonempty")
    ordered = sorted(points, key=lambda p: (-p.diversity, p.degeneration, p.run_id))
    front = [ordered[0]]
    for p in ordered[1:]:
        # last has the lowest degeneration of the points before p, all of
        # which are at least as diverse as p
        last = front[-1]
        if p.degeneration < last.degeneration or (
                (p.diversity, p.degeneration) == (last.diversity, last.degeneration)):
            front.append(p)
    return tuple(front)


def select_best(front) -> SweepPoint | None:
    """Most diverse point of `front` whose degeneration is at most
    DEFAULT_MAX_DEGEN, ties by lower degeneration, then run_id; None
    when every point's is higher."""
    admissible = [p for p in front if p.degeneration <= DEFAULT_MAX_DEGEN]
    return min(admissible, key=lambda p: (-p.diversity, p.degeneration, p.run_id),
               default=None)
