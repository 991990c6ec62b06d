"""The steps and the objective work in the state's own buffers.

Every coordinate step and :func:`inner_logpost` writes its n x p
temporaries into the workspace its :class:`InnerState` allocated when it was
built.  These tests check that no step allocates an n x p array, that two
states never share a buffer, and that the coefficient step, which reads the
workspace after objective evaluations wrote it, keeps or rejects its Newton
point as an allocating reference does.
The latent refresh of truncated data writes only the observed zeros.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from conftest import make_hp, make_side, random_state, validated_objective
from xfile.latent import initial_latent, observed_zeros
from xfile.model import ObservedMatrix, Transform
from xfile.optimizer import (
    fit_contribution,
    inner_logpost,
    run_inner,
    step_beta,
    step_eta,
    step_gamma,
    step_phi,
    step_psi,
    step_u,
    step_v,
)

STEPS = (("u", step_u), ("psi", step_psi), ("beta", step_beta), ("v", step_v),
         ("phi", step_phi), ("gamma", step_gamma), ("eta", step_eta))
ARRAYS = ("u", "psi", "beta", "v", "phi", "gamma", "fx", "gw")


@pytest.mark.parametrize("full_mask", [True, False])
def test_no_step_allocates_a_cell_array(full_mask):
    # Numpy reports its data buffers to tracemalloc, so the traced peak of a
    # call bounds the largest temporary it built.
    state = random_state(np.random.default_rng(7), n=200, p=150, q_x=3, q_w=3,
                         full_mask=full_mask)
    one_array = state.mask.size * 8
    peaks = {}
    tracemalloc.start()
    try:
        for name, fn in (*STEPS, ("inner_logpost", inner_logpost)):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            fn(state)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / one_array
    finally:
        tracemalloc.stop()
    assert max(peaks.values()) < 1.0, peaks


def test_latent_refresh_allocates_no_cell_array():
    # One refresh of a truncated state, from the "eta" event to the
    # "latent" event of run_inner, writes only the observed zeros.
    n, p = 200, 150
    rng = np.random.default_rng(5)
    values = np.maximum(rng.standard_normal((n, p)) + 0.3, 0.0)
    data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
    fitted_prev = 0.5 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
    state = random_state(rng, n=n, p=p, q_x=3, q_w=3, hp=make_hp(max_inner_iters=2), h=2,
                         full_mask=True, ztilde=initial_latent(data) - fitted_prev)
    peaks, base = [], [0]

    def callback(h, name, s, prev):
        if name == "eta":
            tracemalloc.reset_peak()
            base[0] = tracemalloc.get_traced_memory()[0]
        elif name == "latent":
            peaks.append((tracemalloc.get_traced_memory()[1] - base[0]) / (n * p * 8))

    tracemalloc.start()
    try:
        run_inner(state, zeros=observed_zeros(data), fitted_prev=fitted_prev,
                  inner_callback=callback)
    finally:
        tracemalloc.stop()
    assert peaks and max(peaks) < 1.0, peaks


def test_restarts_never_hold_two_workspaces():
    n, p = 200, 150
    rng = np.random.default_rng(3)
    side = make_side(n, p, 3, 3, rng)
    residual = rng.standard_normal((n, p))

    def peak(restarts):
        hp = make_hp(n_restarts=restarts, max_inner_iters=2)
        tracemalloc.start()
        try:
            fit_contribution(residual, side, hp, 1, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1] / (n * p * 8)
        finally:
            tracemalloc.stop()

    # Later restarts add the winner's kept ztilde (one array); a previous
    # restart's state still alive would add its whole workspace (three).
    assert peak(3) - peak(1) < 2.0


def _stepped(states, iterations=3):
    """Runs the seven steps on every state, one step at a time across states."""
    for _ in range(iterations):
        for _, fn in STEPS:
            for state in states:
                fn(state)
    return states


@pytest.mark.parametrize("full_mask", [True, False])
def test_interleaved_states_match_separate_runs(full_mask):
    def build(seed):
        return random_state(np.random.default_rng(seed), n=20, p=15, q_x=3, q_w=3,
                            full_mask=full_mask)

    alone = [_stepped([build(seed)])[0] for seed in (21, 22)]
    together = _stepped([build(21), build(22)])
    for a, b in zip(alone, together):
        for name in ARRAYS:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.eta == b.eta
        assert inner_logpost(a) == inner_logpost(b) == _reference_objective(b, "beta", b.beta)


def _reference_objective(state, name, coef):
    """The validated objective with coefficients ``name`` set to ``coef``."""
    trial = copy.copy(state)
    setattr(trial, name, coef)
    trial.refresh_links()
    return validated_objective(trial)


def _reference_coef_step(state, name):
    """The coefficient update written with allocating formulas.

    Returns the kept coefficients, the objective there, and whether the
    Newton point was rejected.  For the columns every (p, n) array is a
    transposed view of an (n, p) one, so its row sums add in the order the
    step uses.
    """
    hp = state.hp
    if name == "beta":
        z, mask, X, mu = state.ztilde, state.mask, state.side.x, state.mu_b
        A = state.eta * np.outer(state.psi * state.u, state.gw * state.phi * state.v)
        link = state.fx
    else:
        z, mask, X, mu = state.ztilde.T, state.mask.T, state.side.w, state.mu_g
        A = (state.eta * np.outer(state.fx * state.psi * state.u, state.phi * state.v)).T
        link = state.gw
    coef = getattr(state, name)
    on_axis = ((X @ coef) > 0.0)[:, None]
    valid = mask & on_axis & (A != 0.0)
    denom = 2.0 * hp.b_sigma + (z - A * link[:, None])**2
    wsum = np.where(valid, A * A / denom, 0.0).sum(axis=1)
    tsum = np.where(valid, A * z / denom, 0.0).sum(axis=1)
    ridge = 1.0 / (2.0 * (hp.a_sigma + 0.5))
    M = (X * wsum[:, None]).T @ X + ridge * np.eye(X.shape[1])
    newton = np.linalg.solve(M, X.T @ (tsum - hp.eps_frelu * wsum) + ridge * mu)

    j_before = _reference_objective(state, name, coef)
    j = _reference_objective(state, name, newton)
    if j >= j_before:
        return newton, j, False
    return coef, j_before, True


@pytest.mark.parametrize("name, step, seed", [
    ("beta", step_beta, 13), ("beta", step_beta, 18),
    ("gamma", step_gamma, 114), ("gamma", step_gamma, 124),
])
def test_newton_or_stay_matches_reference(name, step, seed):
    # No monkeypatch: on these states the exact objective itself rejects the
    # Newton point, which the step scores in the workspace, so the
    # coefficients, their links and the objective stay as they were.
    state = random_state(np.random.default_rng(seed), n=9, p=8, q_x=3, q_w=3)
    before = {k: getattr(state, k).copy() for k in (name, "fx", "gw")}
    _, j, rejected = _reference_coef_step(state, name)
    assert rejected
    step(state)
    for key, value in before.items():
        np.testing.assert_array_equal(getattr(state, key), value)
    assert inner_logpost(state) == j


def test_cells_is_not_overwritten_by_the_objective():
    state = random_state(np.random.default_rng(5))
    cells = state.cells()
    kept = cells.copy()
    inner_logpost(state)
    np.testing.assert_array_equal(cells, kept)
