"""Stage-wise greedy fitting of rank-one contributions by coordinate ascent.

One factor is added at a time: given the accepted factors, a candidate is
optimized by cycling through closed-form block updates (steps 1-7 below,
plus a latent-residual refresh for truncated data) and is kept only when the
activation-weighted log-posterior favors it over the empty alternative.

Per inner iteration the blocks are:

  1. row loadings u        -- quadratic surrogate of the Student-t loss,
                              tangent at the current value, solved per row
  2. row flags psi         -- exact on/off comparison per row
  3. row coefficients beta -- Newton step on the surrogate, kept when no
                              rectifier sign changes or the per-row bound
                              is non-negative, otherwise no move
  4. column loadings v     -- step 1 on the transposed problem
  5. column flags phi      -- step 2 on the transposed problem
  6. column coefficients gamma -- step 3 on the transposed problem
  7. scale eta             -- exact conditional mode of eta^2 given vstar
  8. latent residual       -- truncated-data refresh (latent module)

Steps 4-6 are steps 1-3 on the transposed problem (ztilde.T, mask.T,
x<->w, u<->v, psi<->phi, beta<->gamma, zeta_n<->zeta_p) with one loading
scale c: the prior sees loading * c ~ N(0, c^2), with c = 1 for the rows
and c = eta for the columns, whose loadings enter as vstar = v * eta.

Every block either maximizes the exact objective over its coordinates or
takes a point whose minorant gain over the current value is non-negative
(the MM argument), so the log-posterior is non-decreasing across steps 1-7
and no step evaluates it.  The coefficient steps keep their Newton point
when no row changes the sign of its linear score or the per-row bound,
which sums the tangent minorant over every row, is non-negative, and stay
put otherwise.

An unobserved cell has infinite scale 2 b_sigma: zero loss, zero surrogate
weight, so no step masks.  The exact objective (:func:`inner_logpost`) is
summed straight from the candidate's arrays; :class:`InnerState` holds them
with the constants it caches and the workspace the steps write into.

The per-cell kernels of steps 1-6 (:func:`_surrogate_sums` and
:func:`_masked_loglik_delta`) and the objective walk the same blocks of rows
of at most ``shrinkage.CHUNK_CELLS`` cells, each in a block-sized view of
the workspace, so a block's elementwise passes and sums stay in L2 rather
than streaming n x p temporaries through L3; the column side sees each
block transposed and adds its column sums over the blocks.  Rank-one
products come from ``np.einsum("i,j->ij", a, b, out=...)``, which at 800 x
400 took half the time of ``np.outer``; the two agree except in the sign of
zero products, which the kernels square away.
"""

from dataclasses import dataclass
from math import log, sqrt
from typing import NamedTuple

import numpy as np

from .latent import apply_transform, initial_latent, observed_zeros, update_latent
from .model import (
    FactorContribution,
    FitResult,
    HyperParams,
    ObservedMatrix,
    SideInfo,
    Transform,
    _log1p_sq,
    _log_prior,
    beta_prior_mean,
    cell_marginal_loglik,
    frelu,
    log_prior_contribution,
    materialize,
)
from .shrinkage import CHUNK_CELLS, ShrinkageParams, prob_active

__all__ = [
    "InnerState",
    "inner_logpost",
    "step_u",
    "step_psi",
    "step_beta",
    "step_v",
    "step_phi",
    "step_gamma",
    "step_eta",
    "run_inner",
    "InnerFit",
    "fit_contribution",
    "stopping_decision",
    "fit",
    "predict_matrix",
]


def _blocks(scale, work) -> tuple:
    """The (n, p) workspace ``work`` in blocks of rows that fit ``CHUNK_CELLS``
    cells, the largest multiple of 8 rows that fits (8 when none does).  Per
    block: the index of its cells, of its row sums in one row of partial
    sums, its ``scale`` and a C-ordered (R, p) prefix view of ``work``."""
    n, p = work.shape
    flat = work.reshape(-1)
    step = max(8, CHUNK_CELLS // p // 8 * 8)
    blocks = []
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        size = rows.stop - start
        blocks.append(((rows, slice(None)), (0, rows), scale[rows] if scale.ndim else scale,
                       flat[:size * p].reshape(size, p)))
    return tuple(blocks)


def _total(parts) -> np.ndarray:
    """The sum of the rows of partial sums (a one-row sum turns -0.0 into 0.0)."""
    return parts[0] if len(parts) == 1 else parts.sum(axis=0)


class InnerState:
    """Mutable candidate state for one factor's coordinate ascent.

    ``ztilde`` is the state's copy of the latent residual after subtracting
    accepted factors, 0 at unobserved cells.  ``x_beta``/``w_gamma`` cache
    the linear scores and ``fx``/``gw`` their links frelu(x'beta) and
    frelu(w'gamma); :meth:`refresh_links` recomputes them and must follow
    every change of ``beta`` or ``gamma`` outside the coefficient steps.

    ``side``, ``hp``, ``h`` and ``mask`` are fixed for the life of the
    state, and the constants of the objective that follow from them are
    cached when it is built: the coefficient prior means ``mu_b``/``mu_g``,
    ``log_q`` = log Pr(rho_h = 1), ``neg_a_half`` = -(a_sigma + 1/2),
    ``two_b`` = 2 b_sigma and ``scale``, 2 b_sigma per cell (``two_b`` or an
    n x p array, +inf where unobserved).  ``off_loss`` = log1p(ztilde^2 /
    two_b) is the per-cell loss (over -(a_sigma + 1/2)) of the residual with
    the candidate switched off.  Both arrays are written only here and, at
    the observed zeros of truncated data, by :func:`run_inner`'s latent refresh.

    The state owns the workspace of its steps and of :func:`inner_logpost`,
    one n x p buffer ``_work``, so that none of them allocates an n x p
    array.  They walk it in the row blocks of :func:`_blocks`: ``_row_blocks``
    for the rows and the objective, ``_transposed_blocks`` the same memory
    seen (p, R) for the columns, one row of partial sums per block.  Rows per
    block are a multiple of 8 because BLAS's gemv kernels take rows in
    groups: blocked row sums came out bit-identical to one pass over the
    whole array at blocks of 16 rows or more, but not at 7, 13 or 41.  No
    value in the buffer outlives the call that wrote it.  ``_observed``
    holds per block the flat indices of its observed cells and a buffer of
    that length to gather them into (None when every cell is observed).
    """

    def __init__(self, ztilde, mask, side, hp, h, u, psi, beta, v, phi, gamma, eta):
        self.mask = np.asarray(mask, bool)
        self.side = side
        self.hp = hp
        self.h = h
        self.mu_b = beta_prior_mean(side.q_x, hp.eps_frelu)
        self.mu_g = beta_prior_mean(side.q_w, hp.eps_frelu)
        self.log_q = log(prob_active(h, hp.shrink))
        self.neg_a_half = -(hp.a_sigma + 0.5)
        self.two_b = 2.0 * hp.b_sigma
        self.ztilde = np.where(self.mask, ztilde, 0.0)
        self.off_loss = _log1p_sq(self.ztilde, self.two_b)
        self.u = np.asarray(u, dtype=float)
        self.psi = np.asarray(psi, dtype=float)
        self.beta = np.asarray(beta, dtype=float)
        self.v = np.asarray(v, dtype=float)
        self.phi = np.asarray(phi, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.eta = float(eta)
        self.refresh_links()
        self._work = np.empty(self.mask.shape)
        full = self.mask.all()
        self.scale = np.float64(self.two_b) if full else np.where(self.mask, self.two_b, np.inf)
        self._row_blocks = _blocks(self.scale, self._work)
        self._transposed_blocks = tuple(
            ((slice(None), rows), k, scale.T, work.T)  # np.float64 has .T
            for k, ((rows, _), _, scale, work) in enumerate(self._row_blocks))
        if full:
            self._observed = (None,) * len(self._row_blocks)
        else:
            index = [np.flatnonzero(self.mask[cells]) for cells, *_ in self._row_blocks]
            buffer = np.empty(max(i.size for i in index))
            self._observed = tuple((i, buffer[:i.size]) for i in index)

    def refresh_links(self):
        self.x_beta, self.w_gamma = self.side.x @ self.beta, self.side.w @ self.gamma
        self.fx = frelu(self.x_beta, self.hp.eps_frelu)
        self.gw = frelu(self.w_gamma, self.hp.eps_frelu)

    def factors(self):
        """The row and column factors a, b of the cells eta * (a_i * b_j)."""
        return self.fx * self.psi * self.u, self.gw * self.phi * self.v

    def cells(self):
        """The candidate's n x p cells, in a fresh array."""
        a, b = self.factors()
        return np.multiply(self.eta, np.einsum("i,j->ij", a, b))

    def candidate(self) -> FactorContribution:
        return FactorContribution(
            u_tilde=self.u.copy(), psi_tilde=self.psi.copy(), beta=self.beta.copy(),
            v_tilde=self.v.copy(), phi_tilde=self.phi.copy(), gamma=self.gamma.copy(),
            eta=self.eta, rho=1,
        )


def inner_logpost(state: InnerState) -> float:
    """Exact objective for the current candidate: masked data loss plus the
    candidate's log prior (activation term included, rho = 1).

    Equal to ``cell_marginal_loglik`` summed over the masked residual plus
    ``log_prior_contribution(state.candidate(), ...)``, but read from the
    state's arrays and cached constants, and summed block by block: bit for
    bit when the cells fit one block, else up to the order of the sum.
    """
    a, b = state.factors()
    lik = -0.0  # the additive identity: one block's sum stays bit for bit
    for ((rows, _), _, _, resid), observed in zip(state._row_blocks, state._observed):
        np.multiply(state.eta, np.einsum("i,j->ij", a[rows], b, out=resid), out=resid)
        np.subtract(state.ztilde[rows], resid, out=resid)
        resid = (resid.ravel() if observed is None  # all cells, in the order of resid[mask]
                 else np.take(resid, observed[0], mode="clip", out=observed[1]))
        np.multiply(state.neg_a_half, _log1p_sq(resid, state.two_b, out=resid), out=resid)
        lik += float(np.sum(resid))
    prior = _log_prior(state.u, state.psi, state.beta, state.v, state.phi, state.gamma,
                       state.eta, state.mu_b, state.mu_g, state.hp)
    return lik + (prior + state.log_q)  # grouped as log_prior_contribution adds them


class _Side(NamedTuple):
    """One side of the candidate posed as the rows of its problem."""

    ztilde: np.ndarray
    off_loss: np.ndarray   # the state's off_loss in this orientation
    design: np.ndarray
    mu: np.ndarray         # prior mean of the coefficients
    zeta: float
    c: float
    score: np.ndarray      # the linear scores design @ coef
    link: np.ndarray
    loading: np.ndarray
    flags: np.ndarray
    coef: np.ndarray
    other_link: np.ndarray
    other_eff: np.ndarray  # the other side's flags * loading
    blocks: tuple          # per row block: cells index, partial sums index, scale, workspace
    parts: int             # rows of partial sums the blocks write
    names: tuple           # state attributes of loading, flags, coefficients, score, link

    def store(self, state: InnerState, *values, at: int = 0) -> None:
        """Sets the state attributes ``names[at:]`` to ``values``."""
        for name, value in zip(self.names[at:], values):
            setattr(state, name, value)


def _rows(state: InnerState) -> _Side:
    return _Side(state.ztilde, state.off_loss, state.side.x, state.mu_b,
                 state.hp.zeta_n, 1.0, state.x_beta, state.fx, state.u, state.psi, state.beta,
                 state.gw, state.phi * state.v, state._row_blocks, 1,
                 ("u", "psi", "beta", "x_beta", "fx"))


def _columns(state: InnerState) -> _Side:
    return _Side(state.ztilde.T, state.off_loss.T, state.side.w,
                 state.mu_g, state.hp.zeta_p, state.eta, state.w_gamma, state.gw, state.v,
                 state.phi, state.gamma, state.fx, state.psi * state.u, state._transposed_blocks,
                 len(state._transposed_blocks), ("v", "phi", "gamma", "w_gamma", "gw"))


def _surrogate_sums(s: _Side, ra, cb, at):
    """Per-row sums w = sum_j A^2 / D and t = sum_j A ztilde / D of the
    rank-one A = outer(ra, cb), with the surrogate denominator D = 2b + r^2
    at the tangent residual r = ztilde - A * at (one tangent value per row).
    Cells with A = 0 add zero (D >= 2b > 0), as do unobserved cells (2b = inf).

    A is never formed: w = ra^2 * (1/D @ cb^2) and t = ra * ((ztilde / D) @
    cb), with 1/D computed once per block, whose partial sums add up over
    the blocks on the column side.  Overwrites the workspace; the returned
    vectors are fresh, so the caller may write the workspace again.

    The loading step solves its surrogate from these sums.  The coefficient
    step feeds its Newton system the on-axis rows' sums, and the sums of
    every row to :func:`_coef_gain_bound`.
    """
    w, t = np.empty((s.parts, ra.size)), np.empty((s.parts, ra.size))
    lead, cb2 = ra * at, cb * cb
    for (own, other), part, scale, denom in s.blocks:
        z = s.ztilde[own, other]
        np.einsum("i,j->ij", lead[own], cb[other], out=denom)
        np.subtract(z, denom, out=denom)
        np.add(scale, np.square(denom, out=denom), out=denom)
        np.divide(1.0, denom, out=denom)
        np.matmul(denom, cb2[other], out=w[part])
        np.matmul(np.multiply(denom, z, out=denom), cb[other], out=t[part])
    return ra * ra * _total(w), ra * _total(t)


def _masked_loglik_delta(s: _Side, state: InnerState, a, b) -> np.ndarray:
    """Per-row sums of the loss gain of switching on each row's cells
    outer(a, b): loss(ztilde) - loss(ztilde - outer(a, b)).  Overwrites the
    workspace."""
    gain = np.empty((s.parts, a.size))
    for (own, other), part, scale, work in s.blocks:
        np.einsum("i,j->ij", a[own], b[other], out=work)
        loss = _log1p_sq(np.subtract(s.ztilde[own, other], work, out=work), scale, out=work)
        np.subtract(s.off_loss[own, other], loss, out=loss).sum(axis=1, out=gain[part])
    return (state.hp.a_sigma + 0.5) * _total(gain)


# ---------------------------------------------------------------------------
# Steps 1-3 for one side (steps 4-6 are these on the transposed problem)
# ---------------------------------------------------------------------------

def _update_loadings(state: InnerState, s: _Side) -> InnerState:
    """Loading update from the quadratic surrogate, tangent at the current value.

    Treating all rows as flagged on, the per-row closed form for the scaled
    loading l = loading * c is

        l_i = (sum_j zbar_ij / D2_ij) / (sum_j 1 / D2_ij + 1 / (2(a+1/2) c^2))

    with A_ij = (eta / c) * frelu(x'beta) * frelu(w'gamma) * (flag * loading)
    of the other side, over columns with effective loading, zbar = ztilde / A
    and D2 = A^-2 {2b + (zbar - l)^2}, so cells with A = 0 get zero weight.
    Rows currently flagged on take the proposal (surrogate tangency
    guarantees ascent); rows flagged off adopt it, switching on, only when
    that strictly increases the exact objective.  The stored loading is l / c.
    """
    hp = state.hp
    if not s.other_eff.any():
        return state
    ra = (state.eta / s.c) * s.link
    cb = s.other_link * s.other_eff
    scaled = s.loading * s.c
    w, wz = _surrogate_sums(s, ra, cb, scaled)
    ridge = 1.0 / (2.0 * (hp.a_sigma + 0.5) * s.c**2)
    prop = wz / (w + ridge)

    inactive = s.flags != 1.0
    new = np.where(inactive, scaled, prop)
    flags = s.flags
    if inactive.any():
        d_lik = _masked_loglik_delta(s, state, ra * prop, cb)
        d_post = (
            log(s.zeta / (1.0 - s.zeta))
            + d_lik
            + (scaled**2 - prop**2) / (2.0 * s.c**2)
        )
        switch_on = inactive & (d_post > 0.0)
        new = np.where(switch_on, prop, new)
        flags = np.where(switch_on, 1.0, flags)
    s.store(state, new / s.c, flags)
    return state


def _update_flags(state: InnerState, s: _Side) -> InnerState:
    """Exact per-row on/off decision for the sparsity flags.

    A row is flagged on iff the loss gain of its contribution (at the
    current loading) strictly beats the Bernoulli log odds; ties resolve to
    the sparser state.  Loadings of rows flagged off are reset to the prior
    mode zero, which can only raise the objective.
    """
    d_lik = _masked_loglik_delta(s, state, state.eta * (s.link * s.loading),
                                 s.other_link * s.other_eff)
    on = (log(s.zeta / (1.0 - s.zeta)) + d_lik) > 0.0
    s.store(state, np.where(on, s.loading, 0.0), on.astype(float))
    return state


def _coef_gain_bound(state: InnerState, s: _Side, w, t, coef, l1) -> float:
    """Lower bound on J(coef) - J(s.coef), the objective's change when this
    side's coefficients move from s.coef to ``coef``.

    ``w`` and ``t`` are the per-row surrogate sums of :func:`_surrogate_sums`,
    tangent at the current links l0 = s.link, and l1 = frelu(design @ coef)
    are the links at ``coef``.  The tangent bound log x <= log x0 + (x - x0)
    / x0 holds for every link value, so the bound

        -(a + 1/2) sum_i (l1_i - l0_i) (w_i (l1_i + l0_i) - 2 t_i)
            - (|coef - mu|^2 - |s.coef - mu|^2) / 2

    holds on every row, whether or not its rectifier changes sign; rows
    whose links do not move add zero.
    """
    l0 = s.link
    loss = float(np.sum((l1 - l0) * (w * (l1 + l0) - 2.0 * t)))
    prior = float(np.sum((coef - s.mu) ** 2)) - float(np.sum((s.coef - s.mu) ** 2))
    return state.neg_a_half * loss - 0.5 * prior


def _update_coef(state: InnerState, s: _Side) -> InnerState:
    """Newton update of the coefficient vector, or no move.

    The Newton system is restricted to rows with positive linear score and
    columns with effective loading.  It solves the ridge-regularized normal
    equations of the quadratic surrogate (the prior ridge keeps them
    nonsingular).  The Newton point is kept when one of two certificates
    holds:

    - no sign changes: every row keeps the sign of its linear score, so the
      cells are affine in the coefficients on the rows it models and
      constant on the others, the surrogate plus the prior minorizes the
      exact objective, and its maximizer cannot lower it;
    - a sign changes: :func:`_coef_gain_bound`, the tangent minorant summed
      over every row at the actual links, bounds the objective's change
      from below, so a non-negative bound certifies the point.

    Otherwise the coefficients, scores and links stay as they are.  Neither
    branch evaluates the objective.  The sign test comes first: in exact
    arithmetic it implies a non-negative bound, and it costs less.
    """
    hp = state.hp
    on_axis = s.score > 0.0
    if not on_axis.any() or not s.other_eff.any():
        return state
    w, t = _surrogate_sums(s, state.eta * (s.flags * s.loading), s.other_link * s.other_eff,
                           s.link)
    # off-axis links are flat in coef; columns without loading have A = 0
    wvec, tvec = np.where(on_axis, w, 0.0), np.where(on_axis, t, 0.0)
    ridge = 1.0 / (2.0 * (hp.a_sigma + 0.5))
    M = (s.design * wvec[:, None]).T @ s.design
    M.flat[::M.shape[0] + 1] += ridge
    # the on-axis links are x'coef + eps, so the normal equations for x'coef carry t - eps * w
    rhs = s.design.T @ (tvec - hp.eps_frelu * wvec) + ridge * s.mu
    newton = np.linalg.solve(M, rhs)

    score = s.design @ newton
    link = frelu(score, hp.eps_frelu)
    if (np.array_equal(score > 0.0, on_axis)
            or _coef_gain_bound(state, s, w, t, newton, link) >= 0.0):
        s.store(state, newton, score, link, at=2)
    return state


def step_u(state: InnerState) -> InnerState:
    """Step 1: row loadings (:func:`_update_loadings` with c = 1)."""
    return _update_loadings(state, _rows(state))


def step_psi(state: InnerState) -> InnerState:
    """Step 2: row flags with rate zeta_n (:func:`_update_flags`)."""
    return _update_flags(state, _rows(state))


def step_beta(state: InnerState) -> InnerState:
    """Step 3: row coefficients (:func:`_update_coef`)."""
    return _update_coef(state, _rows(state))


def step_v(state: InnerState) -> InnerState:
    """Step 4: column loadings, step 1 on the transposed problem with c = eta."""
    return _update_loadings(state, _columns(state))


def step_phi(state: InnerState) -> InnerState:
    """Step 5: column flags, step 2 on the transposed problem (rate zeta_p)."""
    return _update_flags(state, _columns(state))


def step_gamma(state: InnerState) -> InnerState:
    """Step 6: column coefficients, step 3 on the transposed problem."""
    return _update_coef(state, _columns(state))


# ---------------------------------------------------------------------------
# Step 7: scale
# ---------------------------------------------------------------------------

def step_eta(state: InnerState) -> InnerState:
    """Exact conditional mode of eta^2 given vstar.

    eta^2 = (b_eta + 0.5 * sum_j vstar_j^2) / (a_eta + 0.5 p + 1); the
    stored loadings are rescaled so vstar, and hence the materialized cells,
    stay fixed.
    """
    hp = state.hp
    vstar = state.v * state.eta
    p = state.v.size
    eta2 = (hp.b_eta + 0.5 * float(np.sum(vstar**2))) / (hp.a_eta + 0.5 * p + 1.0)
    state.eta = sqrt(eta2)
    state.v = vstar / state.eta
    return state


_STEPS = (("u", step_u), ("psi", step_psi), ("beta", step_beta), ("v", step_v),
          ("phi", step_phi), ("gamma", step_gamma), ("eta", step_eta))

_WARMUP_STEPS = tuple((n, f) for n, f in _STEPS if n not in ("psi", "phi"))

WARMUP_MAX_ITERS = 40
WARMUP_REL_TOL = 1e-4


# ---------------------------------------------------------------------------
# Inner loop, restarts, stopping rule, outer loop
# ---------------------------------------------------------------------------

def run_inner(
    state: InnerState,
    zeros: np.ndarray | None = None,
    fitted_prev: np.ndarray | None = None,
    inner_callback=None,
) -> list[float]:
    """Cycles the coordinate steps until the relative objective change drops
    below ``hp.tol`` or ``hp.max_inner_iters`` is reached.

    The first iterations cycle only the continuous blocks with the flags
    held all-on (warm-up): under the heavy-tailed loss a freshly drawn
    candidate fits nothing, and deciding the flags in that regime switches
    every row and column off permanently.  Once the continuous block has
    roughly stabilized the flag steps join and the full cycle 1-7 (plus the
    latent refresh for truncated data) runs to convergence.  Returns the
    per-iteration objective values, starting value included.

    Truncated data passes the flat indices of its observed ``zeros``
    (:func:`latent.observed_zeros`) and the accepted factors' ``fitted_prev``.
    ``inner_callback(state.h, step_name, state, fitted_prev)``, when given,
    is called after every step and after every latent refresh.
    """
    hp = state.hp
    if zeros is not None:  # buffers of the latent refresh: only the zeros can change
        rows, cols = np.divmod(zeros, state.mask.shape[1])
        prev = np.take(fitted_prev, zeros)
        cells, z = np.empty(zeros.size), np.empty(zeros.size)
        ztilde, off_loss = state.ztilde.reshape(-1), state.off_loss.reshape(-1)  # views
    j_prev = inner_logpost(state)
    trace = [j_prev]
    warmup_left = WARMUP_MAX_ITERS
    for _ in range(hp.max_inner_iters + WARMUP_MAX_ITERS):
        for name, fn in _WARMUP_STEPS if warmup_left else _STEPS:
            fn(state)
            if inner_callback is not None:
                inner_callback(state.h, name, state, fitted_prev)
        if zeros is not None:
            a, b = state.factors()  # the candidate's cells at the zeros
            np.take(a, rows, mode="clip", out=cells)
            np.multiply(cells, np.take(b, cols, mode="clip", out=z), out=cells)
            np.multiply(state.eta, cells, out=cells)
            update_latent(prev, cells, out=z)
            ztilde[zeros] = z
            off_loss[zeros] = _log1p_sq(z, state.two_b, out=cells)
            if inner_callback is not None:
                inner_callback(state.h, "latent", state, fitted_prev)
        j = inner_logpost(state)
        trace.append(j)
        change, scale = abs(j - j_prev), max(1.0, abs(j_prev))
        if warmup_left:
            warmup_left = 0 if change <= WARMUP_REL_TOL * scale else warmup_left - 1
        elif change <= hp.tol * scale:
            break
        j_prev = j
    return trace


def _draw_initial_state(ztilde, mask, side, hp, h, rng) -> InnerState:
    """Initial candidate: continuous parameters drawn from their priors.

    The sparsity flags start all-on (rho is likewise treated as 1 during the
    inner optimization): flags are re-decided from the first iteration on,
    and starting them at a sparse prior draw would make the all-off
    degenerate candidate an absorbing state for the greedy flag updates.
    """
    n, p = side.x.shape[0], side.w.shape[0]
    tau = rng.gamma(hp.a_eta, 1.0 / hp.b_eta)  # eta^-2 ~ Gamma(a_eta, rate b_eta)
    return InnerState(
        ztilde=ztilde,
        mask=mask,
        side=side,
        hp=hp,
        h=h,
        u=rng.standard_normal(n),
        psi=np.ones(n),
        beta=beta_prior_mean(side.q_x, hp.eps_frelu) + rng.standard_normal(side.q_x),
        v=rng.standard_normal(p),
        phi=np.ones(p),
        gamma=beta_prior_mean(side.q_w, hp.eps_frelu) + rng.standard_normal(side.q_w),
        eta=tau**-0.5,
    )


@dataclass
class InnerFit:
    """Winning restart of one factor's inner optimization."""

    candidate: FactorContribution
    trace: list
    z_tilde: np.ndarray


def fit_contribution(
    residual: np.ndarray,
    side: SideInfo,
    hp: HyperParams,
    h: int,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
    zeros: np.ndarray | None = None,
    fitted_prev: np.ndarray | None = None,
    inner_callback=None,
) -> InnerFit:
    """Optimizes one candidate factor from ``n_restarts`` prior draws.

    ``residual`` is the latent matrix minus the previously accepted factors.
    Returns the restart with the highest converged objective (ties keep the
    earliest restart); the last entry of its ``trace`` is the candidate-block
    objective, i.e. the masked data loss plus this candidate's log prior.
    """
    if mask is None:
        mask = np.ones(residual.shape, bool)
    if not np.all(np.isfinite(residual[mask])):
        raise ValueError("residual contains non-finite observed entries")
    best = None
    for child in rng.spawn(hp.n_restarts):
        sub_rng = np.random.default_rng(child)
        state = _draw_initial_state(residual, mask, side, hp, h, sub_rng)
        trace = run_inner(state, zeros, fitted_prev, inner_callback)
        if best is None or trace[-1] > best.trace[-1]:
            best = InnerFit(
                candidate=state.candidate(),
                trace=trace,
                z_tilde=state.ztilde,
            )
        del state  # frees its workspace before the next restart builds one
    return best


def stopping_decision(
    logpost_active: float,
    logpost_inactive: float,
    h: int,
    shrink: ShrinkageParams,
) -> bool:
    """Keep factor h iff log Pr(active) + logpost_active exceeds
    log Pr(inactive) + logpost_inactive.

    Both log-posteriors must share the data and normalization convention and
    exclude the activation prior mass itself.  The inactive value scores the
    residual with the candidate switched off plus the prior of its
    parameters at their prior modes, which is the same for every h.
    """
    q = prob_active(h, shrink)
    return log(q) + logpost_active > log(1.0 - q) + logpost_inactive


def fit(
    data: ObservedMatrix,
    side: SideInfo,
    hp: HyperParams,
    inner_callback=None,
) -> FitResult:
    """Forward stage-wise fit: adds factors until one is rejected.

    Factor h is kept when it beats the empty alternative, the residual with
    the candidate switched off (:func:`stopping_decision`).  Each accepted
    contribution is sign-normalized so its column loadings sum to a
    nonnegative value (the materialized model is invariant).  For truncated
    data the latent values at observed zeros are carried across factors.
    ``inner_callback(h, step_name, state, fitted_prev)``, when given, goes
    to :func:`run_inner`, which calls it after every step and latent refresh
    (diagnostics hook; it must not modify its arguments).
    """
    n, p = data.shape
    if side.x.shape[0] != n or side.w.shape[0] != p:
        raise ValueError(
            f"side info shapes ({side.x.shape[0]}, {side.w.shape[0]}) do not match "
            f"data shape ({n}, {p})"
        )
    latent = initial_latent(data)
    fitted = np.zeros((n, p))
    contributions = []
    trace_vals: list[float] = []
    trace_fids: list[int] = []
    prior_prev = 0.0
    zeros = observed_zeros(data)
    root = np.random.default_rng(np.random.SeedSequence(hp.seed))
    # Prior of the empty alternative, the same for every h: loadings and
    # coefficient offsets at zero, flags at their Bernoulli mode, and eta^2 =
    # b_eta / (a_eta + p/2 + 1), the fixed point of the scale step on an
    # all-zero candidate, so a degenerate fit can never beat this reference.
    mu_b = beta_prior_mean(side.q_x, hp.eps_frelu)
    mu_g = beta_prior_mean(side.q_w, hp.eps_frelu)
    prior0 = _log_prior(
        np.zeros(n), np.full(n, 1.0 if hp.zeta_n >= 0.5 else 0.0), mu_b,
        np.zeros(p), np.full(p, 1.0 if hp.zeta_p >= 0.5 else 0.0), mu_g,
        sqrt(hp.b_eta / (hp.a_eta + 0.5 * p + 1.0)), mu_b, mu_g, hp,
    )

    for h in range(1, hp.max_factors + 1):
        resid = latent - fitted
        best = fit_contribution(
            resid,
            side,
            hp,
            h,
            root,
            mask=data.mask,
            zeros=zeros if data.transform == Transform.NONNEG_TRUNCATION else None,
            fitted_prev=fitted,
            inner_callback=inner_callback,
        )
        q = prob_active(h, hp.shrink)
        l_active = best.trace[-1] - log(q)

        # Empty alternative: the residual with the candidate switched off,
        # its observed zeros refreshed for zero candidate cells.
        resid.flat[zeros] = update_latent(np.take(fitted, zeros), np.zeros(zeros.size))
        lik0 = float(np.sum(cell_marginal_loglik(resid[data.mask], hp.a_sigma, hp.b_sigma)))
        l_inactive = lik0 + prior0

        if not stopping_decision(l_active, l_inactive, h, hp.shrink):
            break

        cand = best.candidate
        if float(np.sum(cand.v_tilde)) < 0.0:
            cand = cand.flip_signs()
        contributions.append(cand)
        trace_vals.extend(v + prior_prev for v in best.trace)
        trace_fids.extend([h] * len(best.trace))
        prior_prev += log_prior_contribution(cand, side, hp, h)
        latent.flat[zeros] = best.z_tilde.flat[zeros] + fitted.flat[zeros]
        fitted += cand.cells(side, hp.eps_frelu)

    residual = np.where(data.mask, latent - fitted, 0.0)
    return FitResult(
        contributions=tuple(contributions),
        logpost_trace=np.asarray(trace_vals, dtype=float),
        trace_factors=np.asarray(trace_fids, dtype=int),
        latent_residual=residual,
    )


def predict_matrix(fit_result: FitResult, side: SideInfo, eps: float, transform: Transform) -> np.ndarray:
    """Fitted values on the observation scale (latent fit through the transform)."""
    return apply_transform(materialize(fit_result.contributions, side, eps), transform)
