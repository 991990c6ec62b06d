"""Golden traces: four small seeded fits must keep their rank and objective trace.

The expected values in ``data/golden_traces.json`` were recorded from the
code before the objective was read from the state's cached arrays, the
full-mask case (which takes the objective's path for a mask with every
cell observed) from the code before the steps wrote into the state's
workspace, and the two truncated cases from the code whose latent refresh
takes the mode min(cells, -fitted_prev); a speed-up that changes any
number of these fits fails here.  The cases are
built by :func:`build_case` alone, so the file can be recorded again with

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); \\
        import test_golden_trace as g; g.record()"

which should only ever be done by a change that means to alter results.
"""

import json
from math import log, sqrt
from pathlib import Path

import numpy as np
import pytest

from xfile import optimizer
from xfile.model import (
    FactorContribution,
    HyperParams,
    ObservedMatrix,
    SideInfo,
    Transform,
    cell_marginal_loglik,
    log_prior_contribution,
    materialize,
)
from xfile.optimizer import fit
from xfile.shrinkage import ShrinkageParams, prob_active

GOLDEN = Path(__file__).parent / "data" / "golden_traces.json"
CASES = ("identity-holdout", "truncated", "identity-full", "truncated-holdout")
SEEDS = {"identity-holdout": 2024, "truncated": 2025, "identity-full": 2026,
         "truncated-holdout": 2027}


def build_case(name):
    """Seeded data (30 x 25, or 60 x 45 fully observed), side information and
    hyperparameters of one case."""
    n, p = (60, 45) if name == "identity-full" else (30, 25)
    rng = np.random.default_rng(SEEDS[name])
    side = SideInfo(
        x=np.column_stack([np.ones(n), rng.standard_normal((n, 2))]),
        w=np.column_stack([np.ones(p), rng.standard_normal((p, 2))]),
    )
    latent = (4.0 * np.outer(np.abs(rng.standard_normal(n)), rng.standard_normal(p))
              + 3.0 * np.outer(rng.standard_normal(n), np.abs(rng.standard_normal(p)))
              + 0.5 * rng.standard_normal((n, p)))
    if name == "identity-holdout":
        data = ObservedMatrix(latent, rng.random((n, p)) > 0.2)
    elif name == "identity-full":
        data = ObservedMatrix(latent, np.ones((n, p), bool))
    elif name == "truncated":
        data = ObservedMatrix(np.maximum(latent, 0.0), np.ones((n, p), bool),
                              Transform.NONNEG_TRUNCATION)
    else:
        data = ObservedMatrix(np.maximum(latent, 0.0), rng.random((n, p)) > 0.2,
                              Transform.NONNEG_TRUNCATION)
    hp = HyperParams(
        a_sigma=1.0, b_sigma=0.5, a_eta=2.0, b_eta=1.0, shrink=ShrinkageParams(3.0, 0.0),
        zeta_n=0.25, zeta_p=0.25, max_factors=3 if name == "identity-full" else 4,
        tol=1e-8, max_inner_iters=60,
        n_restarts=2, seed=7,
    )
    return data, side, hp


def record():
    """Writes the golden file from the current code."""
    golden = {}
    for name in CASES:
        result = fit(*build_case(name))
        golden[name] = {"rank": result.rank, "logpost_trace": result.logpost_trace.tolist()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")


@pytest.mark.parametrize("name", CASES)
def test_fit_matches_golden_trace(name):
    expected = json.loads(GOLDEN.read_text())[name]
    result = fit(*build_case(name))
    assert result.rank == expected["rank"]
    np.testing.assert_allclose(result.logpost_trace, expected["logpost_trace"],
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["identity-holdout", "truncated-holdout"])
def test_empty_alternative(name, monkeypatch):
    """Every stopping decision scores the empty alternative as the masked loss
    of the accepted factors' residual plus the prior of a switched-off
    contribution at its prior modes, activation mass excluded."""
    data, side, hp = build_case(name)
    decisions = []
    stop = optimizer.stopping_decision

    def spy(l_active, l_inactive, h, shrink):
        decisions.append((h, l_inactive))
        return stop(l_active, l_inactive, h, shrink)

    monkeypatch.setattr(optimizer, "stopping_decision", spy)
    result = fit(data, side, hp)
    assert [h for h, _ in decisions] == list(range(1, min(result.rank + 1, hp.max_factors) + 1))

    n, p = data.shape
    mode = FactorContribution(
        u_tilde=np.zeros(n), psi_tilde=np.full(n, float(hp.zeta_n >= 0.5)),
        beta=np.r_[1.0 - hp.eps_frelu, np.zeros(side.q_x - 1)],
        v_tilde=np.zeros(p), phi_tilde=np.full(p, float(hp.zeta_p >= 0.5)),
        gamma=np.r_[1.0 - hp.eps_frelu, np.zeros(side.q_w - 1)],
        eta=sqrt(hp.b_eta / (hp.a_eta + 0.5 * p + 1.0)), rho=0,
    )
    for h, l_inactive in decisions:
        fitted = materialize(result.contributions[: h - 1], side, hp.eps_frelu)
        resid = data.values - fitted
        if data.transform == Transform.NONNEG_TRUNCATION:
            # the mode of a zero candidate's residual at the observed zeros
            resid = np.where(data.values == 0, np.minimum(0, -fitted), resid)
        lik = np.sum(cell_marginal_loglik(resid[data.mask], hp.a_sigma, hp.b_sigma))
        prior = log_prior_contribution(mode, side, hp, h) - log(1.0 - prob_active(h, hp.shrink))
        assert l_inactive == pytest.approx(lik + prior, rel=1e-12)
