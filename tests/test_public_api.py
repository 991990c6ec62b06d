"""Public names: every export resolves, and the package exports a fixed list."""

import importlib

import pytest

import xfile

MODULES = ("cli", "io", "latent", "model", "optimizer", "shrinkage", "simulate")

PACKAGE_EXPORTS = [
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


def test_package_exports_are_pinned():
    assert xfile.__all__ == PACKAGE_EXPORTS


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_export_resolves(module):
    mod = xfile if module is None else importlib.import_module(f"xfile.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
