"""Stage-wise MAP matrix factorization with structured shrinkage priors.

Rank-one contributions are added one at a time and estimated by a
minorize-maximize coordinate ascent under a heavy-tailed (marginal
Student-t) cell loss; covariates and metacovariates shape the sparsity
pattern of the loadings, and a stick-breaking prior on the factor
activations selects the rank.
"""

from .latent import apply_transform, initial_latent, update_latent
from .model import (
    FactorContribution,
    FitResult,
    HyperParams,
    ObservedMatrix,
    SideInfo,
    Transform,
    cell_marginal_loglik,
    frelu,
    loading_matrix,
    log_prior_contribution,
    materialize,
    similarity_matrix,
)
from .optimizer import fit, fit_contribution, predict_matrix, stopping_decision
from .shrinkage import (
    ShrinkageParams,
    default_truncation,
    expected_rank,
    prob_active,
    simulate_rank_pmf,
)
from .simulate import ScenarioSpec, fit_baseline, generate, rmse, run_experiment

__version__ = "0.1.0"

__all__ = [
    "FactorContribution",
    "FitResult",
    "HyperParams",
    "ObservedMatrix",
    "ScenarioSpec",
    "ShrinkageParams",
    "SideInfo",
    "Transform",
    "apply_transform",
    "cell_marginal_loglik",
    "default_truncation",
    "expected_rank",
    "fit",
    "fit_baseline",
    "fit_contribution",
    "frelu",
    "generate",
    "initial_latent",
    "loading_matrix",
    "log_prior_contribution",
    "materialize",
    "predict_matrix",
    "prob_active",
    "rmse",
    "run_experiment",
    "similarity_matrix",
    "simulate_rank_pmf",
    "stopping_decision",
    "update_latent",
]
