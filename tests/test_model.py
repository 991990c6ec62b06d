"""Data model, densities, and similarity exports."""

from dataclasses import replace
from math import log, pi, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from conftest import fit_result, make_hp, make_side, random_contribution
from xfile.model import (
    FactorContribution,
    ObservedMatrix,
    SideInfo,
    Transform,
    cell_marginal_loglik,
    frelu,
    log_prior_contribution,
    materialize,
    similarity_matrix,
)
from xfile.shrinkage import prob_active


class TestFrelu:
    def test_branches(self):
        assert frelu(-2.0, 0.0) == 0.0
        assert frelu(3.0, 0.1) == pytest.approx(3.1)
        assert frelu(0.0, 0.5) == 0.5

    @given(st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 5))
    @settings(max_examples=200, deadline=None)
    def test_monotone_nonnegative(self, s, t, eps):
        lo, hi = min(s, t), max(s, t)
        assert frelu(lo, eps) <= frelu(hi, eps)
        assert frelu(lo, eps) >= eps >= 0.0


class TestCellLoss:
    def test_pinned_values(self):
        assert cell_marginal_loglik(0.0, 1.0, 0.5) == 0.0
        assert cell_marginal_loglik(1.0, 1.0, 0.5) == pytest.approx(-1.5 * log(2.0))
        assert cell_marginal_loglik(3.0, 0.5, 0.5) == pytest.approx(-log(10.0))

    def test_peak_at_zero_and_decreasing(self):
        grid = np.linspace(0.0, 10.0, 200)
        vals = cell_marginal_loglik(grid, 1.3, 0.7)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) < 0)
        np.testing.assert_allclose(
            cell_marginal_loglik(-grid, 1.3, 0.7), vals, rtol=0, atol=0
        )

    @pytest.mark.parametrize("a,b", [(1.0, 0.5), (2.0, 1.5), (0.7, 0.3)])
    def test_matches_variance_mixture_quadrature(self, a, b):
        # integrating N(r; 0, s) against the inverse-gamma prior on s must
        # reproduce exp(cell loss) up to a common constant
        def marginal(r):
            val, _ = integrate.quad(
                lambda s: stats.norm.pdf(r, scale=sqrt(s))
                * stats.invgamma.pdf(s, a, scale=b),
                0.0, np.inf, limit=200,
            )
            return val

        base = marginal(0.0)
        for r in (0.0, 0.5, 1.0, 3.0):
            expected_ratio = np.exp(cell_marginal_loglik(r, a, b))
            assert marginal(r) / base == pytest.approx(expected_ratio, rel=1e-4)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            cell_marginal_loglik(1.0, 0.0, 1.0)


def _oracle_log_prior(c, side, hp, h):
    """Independent recomputation through scipy distributions."""
    total = stats.norm.logpdf(c.u_tilde).sum()
    total += stats.bernoulli.logpmf(c.psi_tilde.astype(int), hp.zeta_n).sum()
    vstar = c.v_tilde * c.eta
    total += stats.norm.logpdf(vstar, scale=c.eta).sum()
    total += stats.bernoulli.logpmf(c.phi_tilde.astype(int), hp.zeta_p).sum()
    mu_b = np.zeros(side.q_x)
    mu_b[0] = 1.0 - hp.eps_frelu
    mu_g = np.zeros(side.q_w)
    mu_g[0] = 1.0 - hp.eps_frelu
    total += stats.norm.logpdf(c.beta, loc=mu_b).sum()
    total += stats.norm.logpdf(c.gamma, loc=mu_g).sum()
    total += stats.invgamma.logpdf(c.eta**2, hp.a_eta, scale=hp.b_eta)
    q = prob_active(h, hp.shrink)
    total += log(q) if c.rho == 1 else log(1.0 - q)
    return float(total)


class TestLogPrior:
    def test_symmetric_bernoulli(self, rng):
        hp = make_hp(zeta_n=0.5)
        side = make_side(6, 5, 2, 2, rng)
        c_on = random_contribution(6, 5, 2, 2, rng)
        flipped = FactorContribution(
            u_tilde=c_on.u_tilde, psi_tilde=1.0 - c_on.psi_tilde, beta=c_on.beta,
            v_tilde=c_on.v_tilde, phi_tilde=c_on.phi_tilde, gamma=c_on.gamma,
            eta=c_on.eta, rho=c_on.rho,
        )
        # at rate 1/2 every flag contributes ln(1/2) regardless of its value
        assert log_prior_contribution(c_on, side, hp, 1) == pytest.approx(
            log_prior_contribution(flipped, side, hp, 1)
        )

    def test_zero_loadings_normal_part(self, rng):
        hp = make_hp()
        side = make_side(9, 4, 2, 2, rng)
        c = random_contribution(9, 4, 2, 2, rng)
        zeroed = FactorContribution(
            u_tilde=np.zeros(9), psi_tilde=c.psi_tilde, beta=c.beta,
            v_tilde=c.v_tilde, phi_tilde=c.phi_tilde, gamma=c.gamma,
            eta=c.eta, rho=c.rho,
        )
        delta = log_prior_contribution(zeroed, side, hp, 1) - log_prior_contribution(
            c, side, hp, 1
        )
        # swapping u for the zero vector moves the u-part to -n*ln(sqrt(2*pi))
        u_part_c = stats.norm.logpdf(c.u_tilde).sum()
        assert delta == pytest.approx(-9 * log(sqrt(2 * pi)) - u_part_c)

    @pytest.mark.parametrize("h,rho", [(1, 1), (2, 0), (5, 1)])
    def test_matches_independent_recomputation(self, rng, h, rho):
        hp = make_hp(eps_frelu=0.2)
        side = make_side(7, 6, 3, 2, rng)
        c = random_contribution(7, 6, 3, 2, rng, rho=rho)
        assert log_prior_contribution(c, side, hp, h) == pytest.approx(
            _oracle_log_prior(c, side, hp, h), rel=1e-12
        )

    def test_sign_flip_invariance(self, rng):
        hp = make_hp()
        side = make_side(6, 5, 2, 2, rng)
        c = random_contribution(6, 5, 2, 2, rng)
        assert log_prior_contribution(c, side, hp, 1) == log_prior_contribution(
            c.flip_signs(), side, hp, 1
        )

    def test_activation_split(self, rng):
        hp = make_hp()
        side = make_side(5, 5, 2, 2, rng)
        on = random_contribution(5, 5, 2, 2, rng, rho=1)
        off = replace(on, rho=0)
        q = prob_active(3, hp.shrink)
        assert log_prior_contribution(on, side, hp, 3) - log_prior_contribution(
            off, side, hp, 3
        ) == pytest.approx(log(q) - log(1.0 - q))


class TestMaterialize:
    def test_empty(self):
        side = make_side(3, 4)
        np.testing.assert_array_equal(materialize([], side), np.zeros((3, 4)))

    def test_unit_example(self):
        side = make_side(2, 2)
        c = FactorContribution(
            u_tilde=np.ones(2), psi_tilde=np.ones(2), beta=np.array([1.0]),
            v_tilde=np.ones(2), phi_tilde=np.ones(2), gamma=np.array([1.0]),
            eta=2.0, rho=1,
        )
        np.testing.assert_allclose(materialize([c], side), np.full((2, 2), 2.0))

    def test_switched_off_is_zero(self, rng):
        side = make_side(4, 4, 2, 2, rng)
        c = random_contribution(4, 4, 2, 2, rng, rho=0)
        np.testing.assert_array_equal(materialize([c], side), np.zeros((4, 4)))

    def test_additive_over_concatenation(self, rng):
        side = make_side(5, 6, 2, 3, rng)
        cs = [random_contribution(5, 6, 2, 3, rng) for _ in range(4)]
        total = materialize(cs, side)
        np.testing.assert_allclose(
            total, materialize(cs[:2], side) + materialize(cs[2:], side), rtol=1e-14
        )


class TestKernelSimilarity:
    def test_diagonal_and_symmetry(self, rng):
        side = make_side(6, 5, 2, 2, rng)
        contributions = [random_contribution(6, 5, 2, 2, rng) for _ in range(3)]
        fit = fit_result(contributions, np.zeros((6, 5)))
        S = similarity_matrix(fit, side)
        np.testing.assert_allclose(np.diag(S), np.ones(6), rtol=1e-12)
        np.testing.assert_allclose(S, S.T, rtol=1e-12)

    def test_two_factor_hand_case(self):
        # two rows, two factors, intercept-only links (value 1), flags on
        side = make_side(2, 3)
        c1 = FactorContribution(
            u_tilde=np.array([1.0, 3.0]), psi_tilde=np.ones(2), beta=np.array([1.0]),
            v_tilde=np.ones(3), phi_tilde=np.ones(3), gamma=np.array([1.0]),
            eta=2.0, rho=1,
        )
        c2 = FactorContribution(
            u_tilde=np.array([0.0, 1.0]), psi_tilde=np.array([0.0, 1.0]),
            beta=np.array([1.0]), v_tilde=np.ones(3), phi_tilde=np.ones(3),
            gamma=np.array([1.0]), eta=0.5, rho=1,
        )
        fit = fit_result([c1, c2], np.zeros((2, 3)))
        # loadings: row0 = (1, 0), row1 = (3, 1); scales (2, 0.5)
        expected = np.exp(-0.5 * ((1.0 - 3.0) ** 2 / 2.0 + (0.0 - 1.0) ** 2 / 0.5))
        np.testing.assert_allclose(similarity_matrix(fit, side),
                                   [[1.0, expected], [expected, 1.0]], rtol=1e-12)
        expected_sq = np.exp(-0.5 * ((1.0 - 3.0) ** 2 / 4.0 + (0.0 - 1.0) ** 2 / 0.25))
        np.testing.assert_allclose(similarity_matrix(fit, side, squared_scale=True),
                                   [[1.0, expected_sq], [expected_sq, 1.0]], rtol=1e-12)

    def test_rank_zero_rejected(self):
        side = make_side(3, 3)
        with pytest.raises(ValueError):
            similarity_matrix(fit_result([], np.zeros((3, 3))), side)


class TestValidation:
    def test_observed_matrix(self):
        with pytest.raises(ValueError):
            ObservedMatrix(np.zeros((2, 2)), np.zeros((2, 2), bool))
        with pytest.raises(ValueError):
            ObservedMatrix(np.array([[np.nan, 1.0]]), np.ones((1, 2), bool))
        with pytest.raises(ValueError):
            ObservedMatrix(np.array([[-1.0, 1.0]]), np.ones((1, 2), bool),
                           Transform.NONNEG_TRUNCATION)
        # masked cells may be anything
        ObservedMatrix(np.array([[np.nan, 1.0]]), np.array([[False, True]]))

    def test_side_info(self):
        with pytest.raises(ValueError):
            SideInfo(x=np.zeros((3, 1)), w=np.ones((3, 1)))
        SideInfo.intercept_only(3, 4)

    def test_hyper_params(self):
        with pytest.raises(ValueError):
            make_hp(zeta_n=0.0)
        with pytest.raises(ValueError):
            make_hp(a_sigma=-1.0)
        with pytest.warns(RuntimeWarning, match="b_eta"):
            make_hp(a_eta=1.0, b_eta=2.0)

    def test_contribution_flags(self):
        with pytest.raises(ValueError):
            FactorContribution(
                u_tilde=np.ones(2), psi_tilde=np.array([0.5, 1.0]), beta=np.ones(1),
                v_tilde=np.ones(2), phi_tilde=np.ones(2), gamma=np.ones(1),
                eta=1.0, rho=1,
            )
        with pytest.raises(ValueError):
            FactorContribution(
                u_tilde=np.ones(2), psi_tilde=np.ones(2), beta=np.ones(1),
                v_tilde=np.ones(2), phi_tilde=np.ones(2), gamma=np.ones(1),
                eta=0.0, rho=1,
            )
