"""Gradient-penalty decoding for multi-branch diversity.

Generates several branches from one prompt while penalizing each new
branch's similarity to representations cached from the previous ones,
on built-in toy autoregressive and diffusion processes.
"""

__version__ = "0.1.0"

from .metrics import DiversityReport, diversity_report, mean_pairwise_cosine
from .penalty import (
    EmptyBankError,
    OutputProjection,
    PenaltyConfig,
    TanhEmbedder,
    UagStepRecord,
)
from .process import (
    BigramModel,
    Branch,
    GenerationConfig,
    ToyArModel,
    ToyDiffusion,
    multi_branch,
)
from .schedule import ScheduleParams, StepWeights, default_schedule, schedule_weights
from .sweep import SweepPoint, SweepSpace, pareto_front, run_sweep, select_best

__all__ = [
    "__version__",
    "BigramModel",
    "Branch",
    "DiversityReport",
    "EmptyBankError",
    "GenerationConfig",
    "OutputProjection",
    "PenaltyConfig",
    "ScheduleParams",
    "StepWeights",
    "SweepPoint",
    "SweepSpace",
    "TanhEmbedder",
    "ToyArModel",
    "ToyDiffusion",
    "UagStepRecord",
    "default_schedule",
    "diversity_report",
    "mean_pairwise_cosine",
    "multi_branch",
    "pareto_front",
    "run_sweep",
    "schedule_weights",
    "select_best",
]
