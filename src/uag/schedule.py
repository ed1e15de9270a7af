"""Step-dependent weights for the local and global avoidance penalties.

The logistic schedule blends a local (output-level) weight that dominates
early in generation with a global (hidden-level) weight that dominates
late.  Constant and linear schedules are provided as ablations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

SCHEDULE_KINDS = ("logistic", "constant", "linear")

# Default hyperparameters for the built-in toy processes.  Chosen by a
# desk-scale sweep; see default_schedule().
DEFAULT_ALPHA = 2.0
DEFAULT_BETA = 1.0
DEFAULT_DELTA = 0.25

# exp() overflows near 710; clamping preserves the saturated limits exactly.
_EXP_CLAMP = 700.0


@dataclass(frozen=True)
class ScheduleParams:
    """Parameters of the penalty-weight schedule.

    alpha/beta are the maximum local/global weights, l0 the transition
    center (in steps) and delta the sharpness.  A schedule spans the run
    that uses it: schedule_weights takes that run's max_steps as T.
    """

    alpha: float
    beta: float
    l0: float
    delta: float
    kind: str = "logistic"

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.delta < 0:  # a negative sharpness inverts the handoff
            raise ValueError(f"schedule.delta must be nonnegative, got {self.delta}")
        if self.kind not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")


@dataclass(frozen=True)
class StepWeights:
    """Penalty weights for a single generation step."""

    w_local: float
    w_global: float


def logistic_gate(t: float, delta: float, l0: float) -> float:
    """Logistic gate s_t = 1 / (1 + exp(delta * (t - l0))).

    Strictly decreasing in t for delta > 0.  The exponent is clamped so
    extreme arguments saturate to 0 or 1 instead of overflowing.
    """
    return 1.0 / (1.0 + math.exp(min(max(delta * (t - l0), -_EXP_CLAMP), _EXP_CLAMP)))


def schedule_weights(t: int, params: ScheduleParams, horizon: int) -> StepWeights:
    """Penalty weights at step t (1-based) of a run of T = horizon steps.

    logistic: (alpha * s_t, beta * (1 - s_t))
    constant: (alpha, beta)
    linear:   local fraction falls from 1 at t=1 to 0 at t=T while the
              global fraction rises complementarily; T=1 degenerates to
              the constant kind.
    """
    if t < 1 or t > horizon:
        raise ValueError(f"step {t} outside [1, {horizon}]")
    if params.kind == "constant":
        return StepWeights(params.alpha, params.beta)
    if params.kind == "linear":
        if horizon == 1:
            return StepWeights(params.alpha, params.beta)
        frac = (t - 1) / (horizon - 1)
        return StepWeights(params.alpha * (1.0 - frac), params.beta * frac)
    gate = logistic_gate(t, params.delta, params.l0)
    return StepWeights(params.alpha * gate, params.beta * (1.0 - gate))


def default_schedule(horizon: int) -> ScheduleParams:
    """Default logistic schedule for a run of `horizon` steps.

    The horizon only places the transition center at mid-generation, so
    local repulsion shapes the early steps and hidden-state repulsion
    the late ones.
    """
    return ScheduleParams(alpha=DEFAULT_ALPHA, beta=DEFAULT_BETA, l0=horizon / 2.0,
                          delta=DEFAULT_DELTA, kind="logistic")
