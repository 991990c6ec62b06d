"""The steps and the objective work in the state's own buffer.

Every coordinate step and :func:`inner_logpost` writes its n x p
temporaries into the one workspace buffer its :class:`InnerState` allocated
when it was built.  These tests check that no step allocates an n x p
array; that the step kernels and the objective, which walk the buffer in
blocks of rows, sum exactly what one block over every row would when the
cells fit one block, and the row sums of every shape, while the column sums
and the objective of several blocks agree to rounding; that two states never
share a buffer; and that the coefficient step, which reads surrogate sums
out of the buffer, keeps its Newton point or stays as an allocating
reference does.  The latent refresh of truncated data writes only the
observed zeros.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from conftest import (
    make_hp,
    make_side,
    one_block_loglik_delta,
    one_block_surrogate_sums,
    random_state,
    validated_objective,
)
from xfile.latent import initial_latent, observed_zeros
from xfile.model import ObservedMatrix, Transform, frelu
from xfile.optimizer import (
    _columns,
    _masked_loglik_delta,
    _rows,
    _surrogate_sums,
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


@pytest.mark.parametrize("n, p", [(200, 150), (400, 200)])
@pytest.mark.parametrize("full_mask", [True, False])
def test_no_step_allocates_a_cell_array(full_mask, n, p):
    # Numpy reports its data buffers to tracemalloc, so the traced peak of a
    # call bounds the largest temporary it built.  At 400 x 200 both sides
    # of the steps run in more than one block of rows.
    state = random_state(np.random.default_rng(7), n=n, p=p, q_x=3, q_w=3,
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


def _assert_rtol_1e12(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("unobserved", [0.0, 0.2])
@pytest.mark.parametrize("side", [_rows, _columns])
@pytest.mark.parametrize("n, p, blocks", [(400, 200, 2), (50, 50, 1), (100, 150, 1)])
def test_block_kernels_equal_one_block_reference(n, p, blocks, side, unobserved):
    # 400 x 200 runs in row blocks of 320 and 80 rows: each row's sum lies
    # in one block, bit for bit, while each column's adds partial sums over
    # the blocks.  The other shapes fit one block: bit for bit on both sides.
    state = random_state(np.random.default_rng(17), n=n, p=p, q_x=3, q_w=3,
                         full_mask=unobserved == 0.0, unobserved=unobserved)
    s = side(state)
    assert len(s.blocks) == blocks
    check = _assert_rtol_1e12 if side is _columns and blocks > 1 else np.testing.assert_array_equal
    scale = state.scale if side is _rows else state.scale.T
    ra = (state.eta / s.c) * s.link
    cb = s.other_link * s.other_eff
    for got, want in zip(_surrogate_sums(s, ra, cb, s.loading * s.c),
                         one_block_surrogate_sums(s, scale, ra, cb, s.loading * s.c)):
        check(got, want)
    a = state.eta * (s.link * s.loading)
    check(_masked_loglik_delta(s, state, a, cb),
          one_block_loglik_delta(s, scale, state.hp.a_sigma, a, cb))


@pytest.mark.parametrize("unobserved", [0.0, 0.2])
@pytest.mark.parametrize("n, p", [(400, 200), (803, 397)])
def test_multi_block_objective_matches_validated_reference(n, p, unobserved):
    state = random_state(np.random.default_rng(19), n=n, p=p, q_x=3, q_w=3,
                         full_mask=unobserved == 0.0, unobserved=unobserved)
    assert len(state._row_blocks) > 1
    assert inner_logpost(state) == pytest.approx(validated_objective(state), rel=1e-13, abs=0.0)


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
    # restart's state still alive would add its ztilde, off_loss and
    # workspace buffer (three).
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

    Returns the Newton point and whether the step keeps it: iff every row
    keeps the sign of its linear score, or else the per-row bound, the
    tangent minorant summed over every row, is non-negative.  For the
    columns every (p, n) array is a transposed view of an (n, p) one, so its
    row sums add in the order the step uses.
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
    on_axis = (X @ coef) > 0.0
    denom = 2.0 * hp.b_sigma + (z - A * link[:, None])**2
    w = np.where(mask, A * A / denom, 0.0).sum(axis=1)
    t = np.where(mask, A * z / denom, 0.0).sum(axis=1)
    wsum, tsum = np.where(on_axis, w, 0.0), np.where(on_axis, t, 0.0)
    ridge = 1.0 / (2.0 * (hp.a_sigma + 0.5))
    M = (X * wsum[:, None]).T @ X + ridge * np.eye(X.shape[1])
    newton = np.linalg.solve(M, X.T @ (tsum - hp.eps_frelu * wsum) + ridge * mu)

    if np.array_equal(X @ newton > 0.0, on_axis):
        return newton, True
    new_link = frelu(X @ newton, hp.eps_frelu)
    loss = np.sum((new_link - link) * (w * (new_link + link) - 2.0 * t))
    prior = np.sum((newton - mu) ** 2) - np.sum((coef - mu) ** 2)
    return newton, -(hp.a_sigma + 0.5) * loss - 0.5 * prior >= 0.0


@pytest.mark.parametrize("name, step, seed, kept", [
    ("beta", step_beta, 13, False), ("beta", step_beta, 18, False),
    ("beta", step_beta, 801, True), ("beta", step_beta, 804, True),
    ("gamma", step_gamma, 114, False), ("gamma", step_gamma, 124, False),
    ("gamma", step_gamma, 804, True), ("gamma", step_gamma, 805, True),
])
def test_certified_newton_point_or_stay_matches_reference(name, step, seed, kept):
    # No monkeypatch: on these states the Newton point flips a rectifier
    # sign, and the bound, summed from sums the step reads out of the
    # workspace, keeps it or leaves the coefficients and links as they were.
    state = random_state(np.random.default_rng(seed), n=9, p=8, q_x=3, q_w=3)
    X = state.side.x if name == "beta" else state.side.w
    before = {k: getattr(state, k).copy() for k in (name, "fx", "gw")}
    newton, kept_by_reference = _reference_coef_step(state, name)
    assert not np.array_equal(X @ newton > 0.0, X @ before[name] > 0.0)
    assert kept_by_reference == kept
    step(state)
    if kept:
        np.testing.assert_allclose(getattr(state, name), newton, rtol=1e-10, atol=0.0)
        np.testing.assert_array_equal(state.fx, frelu(state.side.x @ state.beta,
                                                      state.hp.eps_frelu))
        np.testing.assert_array_equal(state.gw, frelu(state.side.w @ state.gamma,
                                                      state.hp.eps_frelu))
    else:
        for key, value in before.items():
            np.testing.assert_array_equal(getattr(state, key), value)
    assert inner_logpost(state) == _reference_objective(state, name, getattr(state, name))


def test_cells_is_not_overwritten_by_the_objective():
    state = random_state(np.random.default_rng(5))
    cells = state.cells()
    kept = cells.copy()
    inner_logpost(state)
    np.testing.assert_array_equal(cells, kept)
