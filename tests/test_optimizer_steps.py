"""Coordinate-ascent steps: closed forms, surrogate bound, certificates."""

import copy
from dataclasses import replace
from math import log

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from conftest import (
    exact_row_loss,
    make_hp,
    make_side,
    minorant_row_loss,
    random_state,
    validated_objective,
)
from xfile import optimizer
from xfile.latent import initial_latent, observed_zeros
from xfile.model import (
    ObservedMatrix,
    SideInfo,
    Transform,
    cell_marginal_loglik,
    frelu,
    log_prior_contribution,
)
from xfile.optimizer import (
    InnerState,
    inner_logpost,
    run_inner,
    step_beta,
    step_eta,
    step_gamma,
    step_phi,
    step_psi,
    step_u,
    step_v,
    stopping_decision,
)
from xfile.shrinkage import ShrinkageParams, prob_active


def scalar_state(ztilde, u, v=1.0, eta=1.0, hp=None, psi=1.0, phi=1.0):
    """1x1 problem with unit links (intercept-only side info, coefficients 1)."""
    hp = hp or make_hp(zeta_n=0.5, zeta_p=0.5)
    side = make_side(1, 1)
    return InnerState(
        ztilde=np.array([[ztilde]]), mask=np.ones((1, 1), bool), side=side, hp=hp, h=1,
        u=np.array([u]), psi=np.array([psi]), beta=np.array([1.0]),
        v=np.array([v]), phi=np.array([phi]), gamma=np.array([1.0]), eta=eta,
    )


class TestStepU:
    def test_zero_data_fixed_point(self):
        hp = make_hp(a_sigma=1.0, b_sigma=0.5)
        state = scalar_state(0.0, 0.0, hp=hp)
        step_u(state)
        assert state.u[0] == 0.0

    def test_tangent_at_optimum_update(self):
        # A=1, ztilde=3, tangent at u=3: D^2 = 1, proposal 3 / (1 + 1/3)
        hp = make_hp(a_sigma=1.0, b_sigma=0.5)
        state = scalar_state(3.0, 3.0, hp=hp)
        step_u(state)
        assert state.u[0] == pytest.approx(2.25)

    def test_iterates_to_penalized_optimum(self):
        hp = make_hp(a_sigma=1.0, b_sigma=0.5)
        state = scalar_state(3.0, 3.0, hp=hp)
        for _ in range(500):
            step_u(state)

        res = minimize_scalar(
            lambda u: -(-1.5 * np.log1p((3.0 - u) ** 2) - 0.5 * u * u),
            bounds=(0.0, 3.0), method="bounded",
            options={"xatol": 1e-12},
        )
        assert state.u[0] == pytest.approx(res.x, rel=1e-4)

    def test_skips_without_informative_columns(self, rng):
        state = random_state(rng)
        state.v[:] = 0.0
        u_before = state.u.copy()
        step_u(state)
        np.testing.assert_array_equal(state.u, u_before)


class TestMinorant:
    @pytest.mark.parametrize("seed", range(20))
    def test_bound_tangency_and_slope(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.integers(3, 12)
        z = rng.standard_normal(m) * 3.0
        A = rng.standard_normal(m)
        A[np.abs(A) < 0.05] = 0.3
        u_tan = rng.standard_normal() * 2.0
        a_sigma = float(rng.uniform(0.5, 3.0))
        b_sigma = float(rng.uniform(0.2, 2.0))

        grid = np.linspace(u_tan - 8.0, u_tan + 8.0, 1000)
        for u in grid:
            exact = exact_row_loss(z, A, u, a_sigma, b_sigma)
            bound = minorant_row_loss(z, A, u_tan, u, a_sigma, b_sigma)
            assert bound <= exact + 1e-9

        at_tan = minorant_row_loss(z, A, u_tan, u_tan, a_sigma, b_sigma)
        assert at_tan == pytest.approx(exact_row_loss(z, A, u_tan, a_sigma, b_sigma),
                                       rel=1e-12, abs=1e-12)

        h = 1e-6 * max(1.0, abs(u_tan))
        slope_exact = (
            exact_row_loss(z, A, u_tan + h, a_sigma, b_sigma)
            - exact_row_loss(z, A, u_tan - h, a_sigma, b_sigma)
        ) / (2 * h)
        slope_bound = (
            minorant_row_loss(z, A, u_tan, u_tan + h, a_sigma, b_sigma)
            - minorant_row_loss(z, A, u_tan, u_tan - h, a_sigma, b_sigma)
        ) / (2 * h)
        scale = max(1.0, abs(slope_exact))
        assert abs(slope_bound - slope_exact) / scale < 1e-6


def _flag_oracle(state, index, row: bool):
    """Brute-force two-point comparison: objective with the flag on vs off."""
    on = copy.deepcopy(state)
    off = copy.deepcopy(state)
    if row:
        on.psi[index], off.psi[index] = 1.0, 0.0
    else:
        on.phi[index], off.phi[index] = 1.0, 0.0
    return inner_logpost(on) > inner_logpost(off)


class TestFlagSteps:
    @pytest.mark.parametrize("seed", range(20))
    def test_psi_matches_bruteforce(self, seed):
        rng = np.random.default_rng(100 + seed)
        state = random_state(rng, n=5, p=5)
        expected = [_flag_oracle(state, i, row=True) for i in range(5)]
        step_psi(state)
        np.testing.assert_array_equal(state.psi, np.array(expected, dtype=float))

    @pytest.mark.parametrize("seed", range(20))
    def test_phi_matches_bruteforce(self, seed):
        rng = np.random.default_rng(200 + seed)
        state = random_state(rng, n=5, p=5)
        expected = [_flag_oracle(state, j, row=False) for j in range(5)]
        step_phi(state)
        np.testing.assert_array_equal(state.phi, np.array(expected, dtype=float))

    def test_zero_loading_ties_to_off(self, rng):
        state = random_state(rng, n=4, p=4, hp=make_hp(zeta_n=0.5, zeta_p=0.5))
        state.u[:] = 0.0
        step_psi(state)
        np.testing.assert_array_equal(state.psi, np.zeros(4))
        state.v[:] = 0.0
        step_phi(state)
        np.testing.assert_array_equal(state.phi, np.zeros(4))

    def test_half_rate_threshold_is_pure_likelihood(self, rng):
        # at rate 1/2 the Bernoulli log odds vanish: the flag is on exactly
        # when the active model fits strictly better
        state = random_state(rng, n=6, p=6, hp=make_hp(zeta_n=0.5, zeta_p=0.5))
        cells_on = state.eta * np.outer(state.fx * state.u, state.gw * state.phi * state.v)
        two_b = 2.0 * state.hp.b_sigma
        gain = np.where(
            state.mask,
            np.log1p(state.ztilde**2 / two_b)
            - np.log1p((state.ztilde - cells_on) ** 2 / two_b),
            0.0,
        ).sum(axis=1)
        step_psi(state)
        np.testing.assert_array_equal(state.psi, (gain > 0).astype(float))

    def test_off_resets_loading(self, rng):
        # nothing to fit: all flags must drop, loadings reset
        state = random_state(rng, n=5, p=5, hp=make_hp(zeta_n=0.01, zeta_p=0.01),
                             ztilde=np.zeros((5, 5)))
        step_psi(state)
        np.testing.assert_array_equal(state.psi, np.zeros(5))
        np.testing.assert_array_equal(state.u, np.zeros(5))
        step_phi(state)
        np.testing.assert_array_equal(state.v, np.zeros(5))


class TestCoefficientSteps:
    def test_intercept_only_shrinks_weighted_mean(self):
        # equal surrogate weights: the update is a scalar shrinkage of the
        # weighted mean toward the prior mean 1 - eps
        hp = make_hp(a_sigma=1.0, b_sigma=0.5)
        n, p = 4, 3
        side = make_side(n, p)
        u = np.ones(n)
        v = np.ones(p)
        target = 1.7
        state = InnerState(
            ztilde=np.full((n, p), target), mask=np.ones((n, p), bool), side=side,
            hp=hp, h=1, u=u, psi=np.ones(n), beta=np.array([1.0]),
            v=v, phi=np.ones(p), gamma=np.array([1.0]), eta=1.0,
        )
        # A = 1 for every cell, residual at tangent = target - 1
        w_cell = 1.0 / (2 * 0.5 + (target - 1.0) ** 2)
        ridge = 1.0 / (2.0 * 1.5)
        expected = (n * p * w_cell * target + ridge * 1.0) / (n * p * w_cell + ridge)
        step_beta(state)
        assert state.beta[0] == pytest.approx(expected, rel=1e-12)

    def test_skip_when_link_dead(self, rng):
        state = random_state(rng)
        state.beta = -np.abs(state.beta) - 1.0
        state.beta[0] = -5.0  # every linear score negative
        state.refresh_links()
        before = state.beta.copy()
        step_beta(state)
        np.testing.assert_array_equal(state.beta, before)

    @pytest.mark.parametrize("seed", range(50))
    def test_safeguard_never_decreases(self, seed):
        rng = np.random.default_rng(300 + seed)
        state = random_state(rng, n=7, p=6, q_x=3, q_w=3)
        j0 = inner_logpost(state)
        step_beta(state)
        j1 = inner_logpost(state)
        assert j1 >= j0 - 1e-10
        step_gamma(state)
        j2 = inner_logpost(state)
        assert j2 >= j1 - 1e-10


def surrogate_maximizer(state, name):
    """BFGS maximizer of the coefficient step's surrogate, from its definition.

    Each observed cell's loss log(2b + r^2) is bounded by its tangent at the
    current residual, and the link is x'coef + eps on the rows (columns for
    gamma) whose linear score is positive now and held at its current value
    on the others.  The prior is the validated ``log_prior_contribution``.
    """
    hp = state.hp
    if name == "beta":
        z, mask, X, link0 = state.ztilde, state.mask, state.side.x, state.fx
        A = state.eta * np.outer(state.psi * state.u, state.gw * state.phi * state.v)
    else:
        z, mask, X, link0 = state.ztilde.T, state.mask.T, state.side.w, state.gw
        A = state.eta * np.outer(state.fx * state.psi * state.u, state.phi * state.v).T
    coef0 = getattr(state, name)
    on_axis = X @ coef0 > 0.0
    assert on_axis.any()
    two_b = 2.0 * hp.b_sigma
    r0 = z - A * link0[:, None]

    def negated(coef):
        link = np.where(on_axis, X @ coef + hp.eps_frelu, link0)
        r = z - A * link[:, None]
        bound = np.log1p(r0**2 / two_b) + (r**2 - r0**2) / (two_b + r0**2)
        trial = copy.copy(state)
        setattr(trial, name, coef)
        prior = log_prior_contribution(trial.candidate(), state.side, hp, state.h)
        return (hp.a_sigma + 0.5) * np.sum(bound[mask]) - prior

    return minimize(negated, coef0, method="BFGS", jac="3-point", options={"gtol": 1e-10}).x


class TestSurrogateOracle:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("name, step", [("beta", step_beta), ("gamma", step_gamma)])
    def test_newton_point_maximizes_the_surrogate(self, monkeypatch, name, step, eps, seed):
        state = random_state(np.random.default_rng(900 + seed), n=9, p=8, q_x=3, q_w=3,
                             hp=make_hp(eps_frelu=eps))
        expected = surrogate_maximizer(state, name)
        # a zero bound certifies every Newton point, so the step keeps it
        monkeypatch.setattr(optimizer, "_coef_gain_bound", lambda *args: 0.0)
        step(state)
        np.testing.assert_allclose(getattr(state, name), expected, rtol=0.0, atol=1e-6)


def _coef_and_design(state, step):
    """Name of the coefficients ``step`` updates, and their design matrix."""
    return ("beta", state.side.x) if step is step_beta else ("gamma", state.side.w)


def _bound(state, step, coef, on_axis_only=False):
    """``optimizer._coef_gain_bound`` at ``coef`` and its links, fed the
    per-row surrogate sums of every row from allocating formulas (of the
    on-axis rows only, zero elsewhere, with ``on_axis_only``)."""
    s = optimizer._rows(state) if step is step_beta else optimizer._columns(state)
    unobserved = ~(state.mask if step is step_beta else state.mask.T)
    A = state.eta * np.outer(s.flags * s.loading, s.other_link * s.other_eff)
    denom = 2.0 * state.hp.b_sigma + (s.ztilde - A * s.link[:, None]) ** 2
    w = np.where(unobserved, 0.0, A * A / denom).sum(axis=1)
    t = np.where(unobserved, 0.0, A * s.ztilde / denom).sum(axis=1)
    if on_axis_only:
        on_axis = s.design @ s.coef > 0.0
        w, t = np.where(on_axis, w, 0.0), np.where(on_axis, t, 0.0)
    return optimizer._coef_gain_bound(state, s, w, t, coef,
                                      frelu(s.design @ coef, state.hp.eps_frelu))


def _exact_change(state, name, coef):
    """J(coef) - J(current) from the validated objective."""
    trial = copy.copy(state)
    setattr(trial, name, coef)
    trial.refresh_links()
    return validated_objective(trial) - validated_objective(state)


class TestCoefGainBound:
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("step", [step_beta, step_gamma])
    def test_bounds_the_exact_change_of_sign_switching_proposals(self, step, eps, full_mask):
        # proposals that switch some rows on-axis and others off-axis; the
        # sums of the on-axis rows alone (the Newton system's surrogate) miss
        # the off-axis rows and overshoot the exact change somewhere
        overshoots = 0
        for seed in range(6):
            rng = np.random.default_rng(1000 + seed)
            state = random_state(rng, n=9, p=8, q_x=3, q_w=3, hp=make_hp(eps_frelu=eps),
                                 full_mask=full_mask)
            state.beta[0] = state.gamma[0] = 0.0  # no intercept: rows on both sides of the axis
            state.refresh_links()
            name, X = _coef_and_design(state, step)
            coef = getattr(state, name)
            on_axis = X @ coef > 0.0
            slack = 1e-9 * max(1.0, abs(validated_objective(state)))
            proposals = (coef + 1.5 * rng.standard_normal(coef.size) for _ in range(200))
            switching = [c for c in proposals
                         if np.any(on_axis & (X @ c <= 0.0)) and np.any(~on_axis & (X @ c > 0.0))]
            assert len(switching) >= 5
            for proposal in switching[:5]:
                change = _exact_change(state, name, proposal)
                assert _bound(state, step, proposal) <= change + slack
                overshoots += _bound(state, step, proposal, on_axis_only=True) > change + slack
        assert overshoots > 0


class TestRejectedNewtonPoint:
    SEEDS = {step_beta: (803, 809, 815, 821, 841), step_gamma: (800, 808, 814, 818, 827)}

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("step", [step_beta, step_gamma])
    def test_rejected_newton_point_stays_without_reevaluating(self, monkeypatch, step, seed):
        # on these states the Newton point flips a rectifier sign and the
        # per-row bound is negative, so the step stays put without
        # evaluating the objective
        rng = np.random.default_rng(self.SEEDS[step][seed])
        state = random_state(rng, n=7, p=6, q_x=3, q_w=3, sparse_frac=0.0)
        name, X = _coef_and_design(state, step)
        before = {k: getattr(state, k).copy() for k in ("beta", "gamma", "fx", "gw")}
        bound = optimizer._coef_gain_bound
        newton = []  # the step asks for the bound only when a sign flips

        def recorded(state, s, w, t, coef, link):
            newton.append(coef.copy())
            return bound(state, s, w, t, coef, link)

        monkeypatch.setattr(optimizer, "_coef_gain_bound", recorded)
        calls = []
        monkeypatch.setattr(optimizer, "inner_logpost", lambda s: calls.append(s))
        step(state)
        assert calls == []
        assert len(newton) == 1
        assert not np.array_equal(X @ newton[0] > 0.0, X @ before[name] > 0.0)
        assert _bound(state, step, newton[0]) < 0.0
        for key, value in before.items():
            np.testing.assert_array_equal(getattr(state, key), value)


class TestNoStepEvaluatesTheObjective:
    STEPS = (step_u, step_psi, step_beta, step_v, step_phi, step_gamma, step_eta)

    @staticmethod
    def _counted(monkeypatch):
        calls = []
        objective = optimizer.inner_logpost

        def counted(s):
            calls.append(None)
            return objective(s)

        monkeypatch.setattr(optimizer, "inner_logpost", counted)
        return calls

    @staticmethod
    def _states():
        for seeds in TestRejectedNewtonPoint.SEEDS.values():
            for seed in seeds:
                yield random_state(np.random.default_rng(seed), n=7, p=6, q_x=3, q_w=3,
                                   sparse_frac=0.0)
        yield random_state(np.random.default_rng(31), n=9, p=8, q_x=3, q_w=3,
                           hp=make_hp(eps_frelu=0.3))

    def test_steps_never_evaluate_the_objective(self, monkeypatch):
        # each step runs on its own copy of each state, so the coefficient
        # steps meet the sign-flipping Newton points of TestRejectedNewtonPoint
        calls = self._counted(monkeypatch)
        states = list(self._states())
        assert not states[-1].mask.all()
        for state in states:
            for step in self.STEPS:
                step(copy.deepcopy(state))
                assert calls == [], step.__name__

    @pytest.mark.parametrize("truncated", [False, True])
    def test_run_inner_evaluates_once_per_trace_entry(self, monkeypatch, truncated):
        rng = np.random.default_rng(770)
        n, p = 10, 8
        hp = make_hp(max_inner_iters=5)
        if truncated:
            values = np.maximum(rng.standard_normal((n, p)) + 0.3, 0.0)
            data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
            fitted_prev = 0.5 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
            state = random_state(rng, n=n, p=p, hp=hp, h=2, full_mask=True,
                                 ztilde=initial_latent(data) - fitted_prev)
            args = (observed_zeros(data), fitted_prev)
        else:
            state, args = random_state(rng, n=n, p=p, hp=hp), ()
        calls = self._counted(monkeypatch)
        trace = run_inner(state, *args)
        assert len(trace) > 2
        assert len(calls) == len(trace)


class TestBoundCertifiedNewtonPoint:
    @pytest.mark.parametrize("seed", [804, 811])
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("step", [step_beta, step_gamma])
    def test_sign_flipping_newton_point_is_kept_unevaluated(self, monkeypatch, step, h, eps,
                                                           full_mask, seed):
        # the Newton point flips a rectifier sign, but the per-row bound is
        # non-negative: no exact evaluation, and no fall
        state = random_state(np.random.default_rng(seed), n=7, p=6, q_x=3, q_w=3,
                             hp=make_hp(eps_frelu=eps), sparse_frac=0.0, h=h,
                             full_mask=full_mask)
        name, X = _coef_and_design(state, step)
        before = copy.deepcopy(state)
        j_before = inner_logpost(state)
        calls = []

        def counted(s):
            calls.append(None)
            return inner_logpost(s)

        monkeypatch.setattr(optimizer, "inner_logpost", counted)
        step(state)
        kept = getattr(state, name)
        assert calls == []
        assert not np.array_equal(X @ kept > 0.0, X @ getattr(before, name) > 0.0)
        assert _bound(before, step, kept) >= 0.0
        assert inner_logpost(state) >= j_before - 1e-10 * max(1.0, abs(j_before))


class TestCertifiedNewtonPoint:
    @pytest.mark.parametrize("seed", [803, 805])
    @pytest.mark.parametrize("full_mask", [True, False])
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize("step", [step_beta, step_gamma])
    def test_sign_keeping_newton_point_is_kept_unevaluated(self, monkeypatch, step, h, eps,
                                                          full_mask, seed):
        # every row keeps the sign of its linear score at the Newton point, so
        # the surrogate certifies it: no exact evaluation, and no fall
        state = random_state(np.random.default_rng(seed), n=7, p=6, q_x=3, q_w=3,
                             hp=make_hp(eps_frelu=eps), sparse_frac=0.0, h=h,
                             full_mask=full_mask)
        state.beta[0] = state.gamma[0] = 3.0  # live links: the step does not exit early
        state.refresh_links()
        name, X = _coef_and_design(state, step)
        j_before = inner_logpost(state)
        coef = getattr(state, name).copy()
        calls = []

        def counted(s):
            calls.append(None)
            return inner_logpost(s)

        monkeypatch.setattr(optimizer, "inner_logpost", counted)
        step(state)
        assert calls == []
        assert not np.array_equal(getattr(state, name), coef)
        np.testing.assert_array_equal(X @ getattr(state, name) > 0.0, X @ coef > 0.0)
        assert inner_logpost(state) >= j_before - 1e-10 * max(1.0, abs(j_before))


class TestExactObjective:
    @pytest.mark.parametrize("seed", range(60))
    def test_equals_validated_objective_after_every_step(self, seed):
        # the seeds cycle through h, shrinkage delta, link offset and mask
        h = (1, 3, 7)[seed % 3]
        delta = (0.0, 0.2)[seed // 3 % 2]
        eps = (0.0, 0.3)[seed // 6 % 2]
        rng = np.random.default_rng(700 + seed)
        hp = make_hp(shrink=ShrinkageParams(3.0, delta), eps_frelu=eps)
        state = random_state(rng, n=9, p=7, q_x=3, q_w=2, hp=hp, h=h,
                             full_mask=seed // 12 % 2 == 1)
        assert inner_logpost(state) == validated_objective(state)
        for step in (step_u, step_psi, step_beta, step_v, step_phi, step_gamma, step_eta):
            step(state)
            assert inner_logpost(state) == validated_objective(state)

    @pytest.mark.parametrize("seed", range(5))
    def test_latent_refresh_renews_cached_off_state_loss(self, seed):
        rng = np.random.default_rng(760 + seed)
        n, p = 10, 8
        values = np.maximum(rng.standard_normal((n, p)) + 0.3, 0.0)
        data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
        fitted_prev = 0.5 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
        state = random_state(rng, n=n, p=p, hp=make_hp(max_inner_iters=5), h=2,
                             full_mask=True, ztilde=initial_latent(data) - fitted_prev)
        start = state.ztilde.copy()
        run_inner(state, zeros=observed_zeros(data), fitted_prev=fitted_prev)
        assert not np.array_equal(state.ztilde, start)
        assert inner_logpost(state) == validated_objective(state)
        # a state built afresh from the same arrays takes the same flag and
        # loading decisions, which read the off-state loss
        fresh = InnerState(
            ztilde=state.ztilde.copy(), mask=state.mask, side=state.side, hp=state.hp,
            h=state.h, u=state.u.copy(), psi=state.psi.copy(), beta=state.beta.copy(),
            v=state.v.copy(), phi=state.phi.copy(), gamma=state.gamma.copy(), eta=state.eta,
        )
        np.testing.assert_array_equal(state.off_loss, fresh.off_loss)
        for step in (step_psi, step_u, step_phi, step_v):
            step(state)
            step(fresh)
        for name in ("u", "psi", "v", "phi"):
            np.testing.assert_array_equal(getattr(state, name), getattr(fresh, name))


class TestStepV:
    def test_zero_data_fixed_point(self):
        state = scalar_state(0.0, 1.0, v=0.0)
        step_v(state)
        assert state.v[0] == 0.0

    def test_large_scale_limit_is_weighted_least_squares(self):
        hp = make_hp(a_sigma=1.0, b_sigma=0.5, a_eta=2.0, b_eta=1.0)
        state = scalar_state(3.0, 1.0, v=3.0 / 1e6, eta=1e6, hp=hp)
        step_v(state)
        # ridge vanishes: vstar -> weighted mean of zbar = ztilde / A = 3
        assert state.v[0] * state.eta == pytest.approx(3.0, rel=1e-6)

    def test_iterates_to_penalized_optimum(self):
        hp = make_hp(a_sigma=1.0, b_sigma=0.5)
        eta = 0.8
        state = scalar_state(2.0, 1.0, v=2.0 / eta, eta=eta, hp=hp)
        for _ in range(500):
            step_v(state)
        res = minimize_scalar(
            lambda vs: -(
                cell_marginal_loglik(2.0 - vs, 1.0, 0.5) - vs * vs / (2 * eta * eta)
            ),
            bounds=(0.0, 3.0), method="bounded", options={"xatol": 1e-12},
        )
        assert state.v[0] * eta == pytest.approx(res.x, rel=1e-4)


def _transposed(state):
    """The candidate posed on the transposed problem: ztilde.T, mask.T,
    x<->w, u<->v, psi<->phi, beta<->gamma, zeta_n<->zeta_p."""
    return InnerState(
        ztilde=state.ztilde.T.copy(), mask=state.mask.T.copy(),
        side=SideInfo(x=state.side.w, w=state.side.x),
        hp=replace(state.hp, zeta_n=state.hp.zeta_p, zeta_p=state.hp.zeta_n), h=state.h,
        u=state.v.copy(), psi=state.phi.copy(), beta=state.gamma.copy(),
        v=state.u.copy(), phi=state.psi.copy(), gamma=state.beta.copy(), eta=state.eta,
    )


class TestRowColumnMirror:
    @pytest.mark.parametrize("seed", range(30))
    def test_column_steps_are_row_steps_of_transposed_state(self, seed):
        # at eta = 1 the column loadings share the rows' N(0, 1) prior, so
        # the column steps must act as the row steps of the transposed state
        rng = np.random.default_rng(600 + seed)
        state = random_state(rng, n=7, p=5, q_x=3, q_w=2,
                             hp=make_hp(zeta_n=0.2, zeta_p=0.35))
        state.eta = 1.0
        for col_step, row_step in ((step_v, step_u), (step_phi, step_psi),
                                   (step_gamma, step_beta)):
            cols = col_step(copy.deepcopy(state))
            rows = row_step(_transposed(state))
            np.testing.assert_allclose(cols.v, rows.u, rtol=1e-12, atol=0)
            np.testing.assert_array_equal(cols.phi, rows.psi)
            np.testing.assert_allclose(cols.gamma, rows.beta, rtol=1e-12, atol=0)


class TestStepEta:
    def test_arithmetic_examples(self):
        hp = make_hp(a_eta=2.0, b_eta=2.0)
        side = make_side(2, 2)
        state = InnerState(
            ztilde=np.zeros((2, 2)), mask=np.ones((2, 2), bool), side=side, hp=hp,
            h=1, u=np.ones(2), psi=np.ones(2), beta=np.array([1.0]),
            v=np.zeros(2), phi=np.ones(2), gamma=np.array([1.0]), eta=1.0,
        )
        step_eta(state)
        assert state.eta**2 == pytest.approx(0.5)  # (2 + 0) / (2 + 1 + 1)

        state.eta = 1.0
        state.v = np.array([2.0, 2.0])
        step_eta(state)
        assert state.eta**2 == pytest.approx(1.5)  # (2 + 4) / 4

    def test_vstar_and_cells_fixed(self, rng):
        state = random_state(rng)
        vstar = state.v * state.eta
        cells = state.cells()
        step_eta(state)
        np.testing.assert_allclose(state.v * state.eta, vstar, rtol=1e-12)
        np.testing.assert_allclose(state.cells(), cells, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_conditional_mode_oracle(self, seed):
        rng = np.random.default_rng(400 + seed)
        state = random_state(rng, p=9)
        hp = state.hp
        vstar = state.v * state.eta
        ssq = float(np.sum(vstar**2))

        def neg_conditional(x):
            # full conditional of the squared scale given vstar
            return -(
                -0.5 * vstar.size * np.log(2 * np.pi * x)
                - ssq / (2 * x)
                - (hp.a_eta + 1.0) * np.log(x)
                - hp.b_eta / x
            )

        res = minimize_scalar(neg_conditional, bounds=(1e-8, 50.0), method="bounded",
                              options={"xatol": 1e-12})
        step_eta(state)
        assert state.eta**2 == pytest.approx(res.x, rel=1e-5)


class TestStoppingDecision:
    def test_equal_logposts_reject_when_unlikely(self):
        shrink = ShrinkageParams(0.5, 0.0)  # q1 = 1/3 < 1/2
        assert not stopping_decision(-10.0, -10.0, 1, shrink)

    def test_algebraic_threshold(self):
        shrink = ShrinkageParams(2.0, 0.0)
        q = prob_active(3, shrink)
        gap = log((1.0 - q) / q)
        assert stopping_decision(gap + 1e-9, 0.0, 3, shrink)
        assert not stopping_decision(gap - 1e-9, 0.0, 3, shrink)

    def test_figure_threshold(self):
        # q = 5/6 at the first factor: accept iff the gap exceeds ln(1/5)
        shrink = ShrinkageParams(5.0, 0.0)
        gap = log(1.0 / 5.0)
        assert stopping_decision(gap + 1e-9, 0.0, 1, shrink)
        assert not stopping_decision(gap - 1e-9, 0.0, 1, shrink)


class TestMonotoneAscent:
    @pytest.mark.parametrize("seed", range(25))
    def test_every_step_ascends(self, seed):
        rng = np.random.default_rng(500 + seed)
        state = random_state(rng, n=9, p=8, q_x=3, q_w=3)
        last = [inner_logpost(state)]

        def callback(h, name, s, prev):
            j = inner_logpost(s)
            assert j >= last[0] - 1e-10, f"step {name} decreased the objective"
            last[0] = j

        run_inner(state, inner_callback=callback)
