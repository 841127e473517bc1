"""Differentially private noisy gradient descent with exact accounting.

The package trains generalized linear models with a shrink-and-noise update
(noisy projected SGD viewed as a Langevin chain), certifies the privacy of
each schedule with a Renyi/strong-composition accountant, and ships a
reproducible experiment harness for rate, dimension, stability, and
privacy-utility checks.
"""

from .core import (
    Dataset,
    InfinitePrivacyLossError,
    InvalidParameterError,
    RngStream,
    seeded_rng,
)
from .engine import run_multi_pass, run_single_pass
from .losses import GlmLoss, LossBounds, loss_bounds
from .privacy import (
    DpBudget,
    RdpBudget,
    account_report,
    certify_theorem1,
    certify_theorem2,
    multi_pass_privacy,
)
from .schedules import (
    MultiPassSchedule,
    SinglePassSchedule,
    multi_pass_schedule,
    single_pass_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "DpBudget",
    "GlmLoss",
    "InfinitePrivacyLossError",
    "InvalidParameterError",
    "LossBounds",
    "MultiPassSchedule",
    "RdpBudget",
    "RngStream",
    "SinglePassSchedule",
    "account_report",
    "certify_theorem1",
    "certify_theorem2",
    "loss_bounds",
    "multi_pass_privacy",
    "multi_pass_schedule",
    "run_multi_pass",
    "run_single_pass",
    "seeded_rng",
    "single_pass_schedule",
    "__version__",
]
