"""Shared builders for the test suite."""

import numpy as np
import pytest

from xfile.model import (
    FactorContribution,
    FitResult,
    HyperParams,
    ObservedMatrix,
    SideInfo,
    cell_marginal_loglik,
    log_prior_contribution,
)
from xfile.optimizer import InnerState
from xfile.shrinkage import ShrinkageParams
from xfile.simulate import _covariate_block


def make_side(n, p, q_x=1, q_w=1, rng=None):
    """Side info with q_x/q_w exogenous columns plus intercepts."""
    if q_x == 1 and q_w == 1:
        return SideInfo.intercept_only(n, p)
    rng = rng or np.random.default_rng(0)
    x = np.column_stack([np.ones(n), rng.standard_normal((n, q_x - 1))])
    w = np.column_stack([np.ones(p), rng.standard_normal((p, q_w - 1))])
    return SideInfo(x=x, w=w)


def make_hp(**kwargs) -> HyperParams:
    defaults = dict(
        a_sigma=1.0, b_sigma=0.5, a_eta=2.0, b_eta=1.0,
        shrink=ShrinkageParams(3.0, 0.0), zeta_n=0.25, zeta_p=0.25,
        max_factors=6, tol=1e-8, max_inner_iters=200, n_restarts=3, seed=0,
    )
    defaults.update(kwargs)
    return HyperParams(**defaults)


def random_contribution(n, p, q_x, q_w, rng, rho=1) -> FactorContribution:
    return FactorContribution(
        u_tilde=rng.standard_normal(n),
        psi_tilde=(rng.random(n) < 0.6).astype(float),
        beta=rng.standard_normal(q_x),
        v_tilde=rng.standard_normal(p),
        phi_tilde=(rng.random(p) < 0.6).astype(float),
        gamma=rng.standard_normal(q_w),
        eta=float(rng.gamma(2.0, 1.0) + 0.1),
        rho=rho,
    )


def fit_result(contributions, latent_residual) -> FitResult:
    """FitResult holding ``contributions``, with an empty trace."""
    return FitResult(contributions=tuple(contributions), logpost_trace=np.empty(0),
                     trace_factors=np.empty(0, dtype=int), latent_residual=latent_residual)


def random_state(rng, n=8, p=7, q_x=2, q_w=2, hp=None, sparse_frac=0.5, h=1,
                 full_mask=False, ztilde=None, unobserved=0.15) -> InnerState:
    """Random inner state with a mix of on/off flags and a masked residual
    (a share ``unobserved`` of cells unobserved, none with ``full_mask``;
    ``ztilde`` replaces the drawn residual, which is drawn either way so the
    other draws stay the same)."""
    hp = hp or make_hp()
    side = make_side(n, p, q_x, q_w, rng)
    drawn = rng.standard_normal((n, p)) * 2.0
    ztilde = drawn if ztilde is None else ztilde
    mask = rng.random((n, p)) > unobserved
    if full_mask:
        mask[:] = True
    if not mask.any():
        mask[0, 0] = True
    return InnerState(
        ztilde=ztilde,
        mask=mask,
        side=side,
        hp=hp,
        h=h,
        u=rng.standard_normal(n),
        psi=(rng.random(n) > sparse_frac).astype(float),
        beta=rng.standard_normal(q_x) * 0.7 + np.eye(q_x)[0],
        v=rng.standard_normal(p),
        phi=(rng.random(p) > sparse_frac).astype(float),
        gamma=rng.standard_normal(q_w) * 0.7 + np.eye(q_w)[0],
        eta=float(rng.gamma(2.0, 0.6) + 0.2),
    )


def validated_objective(state):
    """The candidate objective of ``state`` through fresh arrays and the
    validated public functions (the reference for ``inner_logpost``)."""
    hp = state.hp
    resid = (state.ztilde - state.cells())[state.mask]
    return (float(np.sum(cell_marginal_loglik(resid, hp.a_sigma, hp.b_sigma)))
            + log_prior_contribution(state.candidate(), state.side, hp, state.h))


def _one_block_outer(s, a, b):
    """outer(a, b) in the orientation of the side ``s``: the column side's
    (p, n) cells are an (n, p) product seen transposed, the layout of the
    steps' workspace blocks, so row sums add in the order the steps use."""
    return np.outer(b, a).T if s.names[0] == "v" else np.outer(a, b)


def one_block_surrogate_sums(s, scale, ra, cb, at):
    """``optimizer._surrogate_sums`` over all of the side's rows at once,
    from ``np.outer`` and fresh arrays; ``scale`` is the state's per-cell
    2 b_sigma in the side's orientation."""
    denom = 1.0 / (scale + (s.ztilde - _one_block_outer(s, ra * at, cb)) ** 2)
    return ra * ra * (denom @ (cb * cb)), ra * ((denom * s.ztilde) @ cb)


def one_block_loglik_delta(s, scale, a_sigma, a, b):
    """``optimizer._masked_loglik_delta`` over all of the side's rows at
    once, from ``np.outer`` and fresh arrays."""
    loss = np.log1p((s.ztilde - _one_block_outer(s, a, b)) ** 2 / scale)
    return (a_sigma + 0.5) * (s.off_loss - loss).sum(axis=1)


def exact_row_loss(ztilde, A, u, a_sigma: float, b_sigma: float) -> float:
    """Masked Student-t loss of one row as a function of its loading u."""
    r = np.asarray(ztilde, dtype=float) - np.asarray(A, dtype=float) * u
    return float(np.sum(cell_marginal_loglik(r, a_sigma, b_sigma)))


def minorant_row_loss(ztilde, A, u_tan, u, a_sigma: float, b_sigma: float) -> float:
    """Quadratic lower bound of :func:`exact_row_loss`, tangent at ``u_tan``.

    Bounds log(x) by its tangent log(x0) + (x - x0)/x0 inside the loss.
    """
    z = np.asarray(ztilde, dtype=float)
    A = np.asarray(A, dtype=float)
    two_b = 2.0 * b_sigma
    r_tan_sq = (z - A * u_tan) ** 2
    r_sq = (z - A * u) ** 2
    terms = np.log1p(r_tan_sq / two_b) + (r_sq - r_tan_sq) / (two_b + r_tan_sq)
    return float(-(a_sigma + 0.5) * np.sum(terms))


def strong_multiplicative_instance(seed, n=50, p=50, q_x=5, q_w=5, noise=0.1,
                                   scales=(25.0, 20.0, 15.0)):
    """Rank-len(scales) data built from the rectified-link loading structure,
    with factor strengths normalized so every factor is well above noise."""
    rng = np.random.default_rng(seed)
    x = np.column_stack([np.ones(n), _covariate_block(n, q_x, rng)])
    w = np.column_stack([np.ones(p), _covariate_block(p, q_w, rng)])
    side = SideInfo(x=x, w=w)
    truth = np.zeros((n, p))
    for s in scales:
        while True:
            u = np.maximum(x @ rng.standard_normal(q_x + 1), 0.0) * rng.standard_normal(n)
            v = np.maximum(w @ rng.standard_normal(q_w + 1), 0.0) * rng.standard_normal(p)
            nu, nv = np.linalg.norm(u), np.linalg.norm(v)
            if nu > 1e-8 and nv > 1e-8:
                break
        truth += s * np.outer(u / nu, v / nv)
    values = truth + noise * rng.standard_normal((n, p))
    data = ObservedMatrix(values=values, mask=np.ones((n, p), dtype=bool))
    return data, side, truth


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
