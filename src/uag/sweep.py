"""Hyperparameter sweeping with Pareto-front selection.

Each swept point runs the full multi-branch generation and scores a
(diversity, degeneration) objective pair; the front keeps the points not
dominated under (maximize diversity, minimize degeneration).  Every
point and prompt of a sweep decodes as one lane, as many lanes to a
call as process.lanes_per_call allows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .metrics import corpus_degeneration, self_bleu
from .process import GenerationConfig, lanes_per_call, multi_branch

PARAM_ORDER = ("alpha", "beta", "l0", "delta", "temperature")
# The schedule weights and sharpness are nonnegative.
NONNEGATIVE = ("alpha", "beta", "delta")
SAMPLING_MODES = ("grid", "random")
DEFAULT_MAX_DEGEN = 0.9


class NoAdmissiblePointError(ValueError):
    """Raised when every front point exceeds the degeneration cap."""


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
            if name in NONNEGATIVE and spec.lowest() < 0:
                raise ValueError(f"{name} values must be nonnegative, "
                                 f"got {spec.lowest()}")


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
        axes = []
        for name in PARAM_ORDER:
            spec = space.params.get(name)
            if spec is None:
                axes.append((base[name],))
            elif spec.grid is None:
                raise ValueError(f"grid sampling requires explicit values for {name}")
            else:
                axes.append(spec.grid)
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


def evaluate_objectives(corpora) -> tuple[float, float]:
    """(diversity, degeneration) for one config from each prompt's corpus
    of branch token lists.

    Diversity is 1 - mean self-BLEU of each prompt's branch corpus;
    degeneration is the mean per-branch repetition score.
    """
    bleus = [self_bleu(corpus) for corpus in corpora]
    degens = [corpus_degeneration(corpus) for corpus in corpora]
    return 1.0 - float(np.mean(bleus)), float(np.mean(degens))


def run_sweep(space: SweepSpace, base_cfg: GenerationConfig, model, prompts,
              rng: np.random.Generator) -> list[SweepPoint]:
    """Evaluate every sampled parameter vector; deterministic under a seed.

    The points x prompts lanes decode without per-step trace records,
    a run of whole points per multi_branch call, and each call's
    branches are scored and freed before the next call decodes.
    """
    if not prompts:
        raise ValueError("prompts must be nonempty")
    vectors = enumerate_vectors(space, base_cfg, rng)
    per_call = max(1, lanes_per_call(model, base_cfg) // len(prompts))
    points = []
    for first in range(0, len(vectors), per_call):
        cfgs = [_configure(base_cfg, vec) for vec in vectors[first:first + per_call]]
        lanes = multi_branch(model, [p for _ in cfgs for p in prompts],
                             [c for c in cfgs for _ in prompts], trace=False)
        for i in range(len(cfgs)):
            diversity, degeneration = evaluate_objectives(
                [[b.tokens for b in branches]
                 for branches in lanes[i * len(prompts):(i + 1) * len(prompts)]])
            points.append(SweepPoint(run_id=first + i, params=vectors[first + i],
                                     diversity=diversity, degeneration=degeneration))
        del lanes
    return points


def dominates(a: SweepPoint, b: SweepPoint) -> bool:
    """a dominates b: at least as good on both objectives, better on one."""
    return (a.diversity >= b.diversity and a.degeneration <= b.degeneration
            and (a.diversity > b.diversity or a.degeneration < b.degeneration))


def pareto_front(points) -> tuple[SweepPoint, ...]:
    """Non-dominated points via a sort-and-scan; objective duplicates kept."""
    if not points:
        raise ValueError("points must be nonempty")
    ordered = sorted(points, key=lambda p: (-p.diversity, p.degeneration, p.run_id))
    front: list[SweepPoint] = []
    best_degen = float("inf")  # lowest degeneration among strictly higher diversity
    i = 0
    while i < len(ordered):
        j = i
        while j < len(ordered) and ordered[j].diversity == ordered[i].diversity:
            j += 1
        group = ordered[i:j]
        group_min = min(p.degeneration for p in group)
        for p in group:
            if p.degeneration == group_min and p.degeneration < best_degen:
                front.append(p)
        best_degen = min(best_degen, group_min)
        i = j
    return tuple(front)


def select_best(front, max_degen: float = DEFAULT_MAX_DEGEN) -> SweepPoint:
    """Most diverse admissible point of `front`; ties by lower
    degeneration, then run_id."""
    admissible = [p for p in front if p.degeneration <= max_degen]
    if not admissible:
        raise NoAdmissiblePointError(
            f"every front point has degeneration > {max_degen}")
    return min(admissible, key=lambda p: (-p.diversity, p.degeneration, p.run_id))
