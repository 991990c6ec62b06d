"""Stick-breaking prior: closed forms, truncation, Monte Carlo."""

import tracemalloc
import warnings
from contextlib import nullcontext
from fractions import Fraction
from math import inf

import numpy as np
import pytest
from scipy import stats

from xfile.shrinkage import (
    CHUNK_CELLS,
    ShrinkageParams,
    _stick_remainders,
    activation_tail,
    default_truncation,
    expected_rank,
    prob_active,
    simulate_prior_ranks,
    simulate_rank_pmf,
)


class TestParams:
    def test_valid(self):
        ShrinkageParams(alpha=5.0, delta=0.0)
        ShrinkageParams(alpha=-0.3, delta=0.4)

    @pytest.mark.parametrize("alpha,delta", [(1.0, 1.0), (1.0, -0.1), (-0.5, 0.4), (0.0, 0.0),
                                             ("5", 0.0), (True, 0.0), (5.0, False), (5.0, None)])
    def test_invalid(self, alpha, delta):
        with pytest.raises(ValueError):
            ShrinkageParams(alpha=alpha, delta=delta)

    @pytest.mark.parametrize("alpha,delta", [(1e17, 0.0), (1e17, 0.3)])
    def test_alpha_whose_first_activation_rounds_to_one(self, alpha, delta):
        # Pr(rho_1 = 1) = (alpha + delta) / (1 + alpha) evaluates to 1.0, and
        # log Pr(rho_1 = 0) is undefined
        with pytest.raises(ValueError, match="alpha"):
            ShrinkageParams(alpha=alpha, delta=delta)

    @pytest.mark.parametrize("alpha", [1e12, 1e14])
    def test_large_alpha_whose_first_activation_is_below_one(self, alpha):
        # the true Pr(rho_1 = 1) = 1 - 0.7 / (1 + alpha) is below 1 by more
        # than an ulp
        assert prob_active(1, ShrinkageParams(alpha=alpha, delta=0.3)) < 1.0


class TestProbActive:
    def test_geometric_case(self):
        params = ShrinkageParams(1.0, 0.0)
        assert prob_active(1, params) == pytest.approx(0.5)
        assert prob_active(2, params) == pytest.approx(0.25)

    def test_gamma_ratio_exact(self):
        # Gamma(3)Gamma(3) / {Gamma(4)Gamma(2)} = 4/6
        assert prob_active(1, ShrinkageParams(0.5, 0.5)) == pytest.approx(2.0 / 3.0)

    def test_closed_form_delta_zero(self):
        params = ShrinkageParams(4.0, 0.0)
        for h in range(1, 12):
            assert prob_active(h, params) == pytest.approx((4.0 / 5.0) ** h, rel=1e-12)

    @pytest.mark.parametrize("params", [
        ShrinkageParams(5.0, 0.0),
        ShrinkageParams(2.8, 0.2),
        ShrinkageParams(0.6, 0.4),
        ShrinkageParams(1.0, 0.7),
    ])
    def test_strictly_decreasing(self, params):
        probs = [prob_active(h, params) for h in range(1, 60)]
        assert all(0.0 < q < 1.0 for q in probs)
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_large_h_stable(self):
        q = prob_active(10_000, ShrinkageParams(3.6, 0.4))
        assert 0.0 < q < 1e-2
        assert np.isfinite(q)

    def test_invalid_h(self):
        with pytest.raises(ValueError):
            prob_active(0, ShrinkageParams(1.0, 0.0))

    @pytest.mark.parametrize("alpha,delta", [(2.8, 0.2), (0.6, 0.4), (-0.3, 0.4), (1e6, 0.3),
                                             (5e12, 0.3), (1e14, 0.3)])
    def test_matches_exact_product(self, alpha, delta):
        params = ShrinkageParams(alpha, delta)
        for h in (1, 2, 3, 10, 100):
            exact = exact_prob_active(h, alpha, delta)
            assert abs(Fraction(prob_active(h, params)) / exact - 1) < 1e-14, h
            tail = exact * (1 + Fraction(alpha) + Fraction(delta) * (h - 1)) / (1 - 2 * Fraction(delta))
            assert abs(Fraction(activation_tail(params, h - 1)) / tail - 1) < 1e-14, h


def exact_prob_active(h, alpha, delta) -> Fraction:
    """Pr(rho_h = 1) = prod_{m<=h} (alpha + delta m) / (1 + alpha + delta (m - 1)),
    in exact rational arithmetic."""
    alpha, delta, q = Fraction(alpha), Fraction(delta), Fraction(1)
    for m in range(1, h + 1):
        q *= (alpha + delta * m) / (1 + alpha + delta * (m - 1))
    return q


class TestExpectedRank:
    def test_figure_values(self):
        assert expected_rank(ShrinkageParams(5.0, 0.0)) == pytest.approx(5.0)
        assert expected_rank(ShrinkageParams(2.8, 0.2)) == pytest.approx(5.0)
        assert expected_rank(ShrinkageParams(1.0, 0.5)) == inf

    def test_tail_at_zero_matches_expected_rank(self):
        for params in (ShrinkageParams(5.0, 0.0), ShrinkageParams(2.8, 0.2),
                       ShrinkageParams(0.6, 0.4)):
            assert activation_tail(params, 0) == pytest.approx(expected_rank(params), rel=1e-10)

    def test_tail_matches_partial_sums(self):
        # independent check of the telescoped tail: brute-force summation
        params = ShrinkageParams(2.8, 0.2)
        brute = sum(prob_active(h, params) for h in range(11, 4000))
        assert activation_tail(params, 10) == pytest.approx(brute, rel=1e-6)

    def test_tail_divergent(self):
        assert activation_tail(ShrinkageParams(1.0, 0.5), 10) == inf


class TestDefaultTruncation:
    def test_tail_below_target(self):
        params = ShrinkageParams(5.0, 0.0)
        H = default_truncation(params)
        assert activation_tail(params, H) < 1e-4
        assert activation_tail(params, H - 1) >= 1e-4

    def test_capped(self):
        assert default_truncation(ShrinkageParams(0.6, 0.4)) == 10_000
        assert default_truncation(ShrinkageParams(1.0, 0.5)) == 10_000


class TestSimulation:
    def test_activation_frequencies_match_prob_active(self):
        for params in (ShrinkageParams(5.0, 0.0), ShrinkageParams(2.45, 0.3)):
            rng = np.random.default_rng(11)
            ctx = pytest.warns(RuntimeWarning) if params.delta > 0 else nullcontext()
            with ctx:
                sample = simulate_prior_ranks(params, 80, 40_000, rng)
            for h in range(1, 11):
                q = prob_active(h, params)
                freq = sample.activation_freq[h - 1]
                mcse = np.sqrt(q * (1.0 - q) / sample.k.size)
                assert abs(freq - q) < 4 * mcse

    @pytest.mark.parametrize("params", [
        ShrinkageParams(5.0, 0.0),
        ShrinkageParams(2.8, 0.2),
        ShrinkageParams(0.6, 0.4),
    ])
    def test_mean_rank(self, params):
        rng = np.random.default_rng(23)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sample = simulate_prior_ranks(params, 200, 40_000, rng)
        se = sample.k.std(ddof=1) / np.sqrt(sample.k.size)
        assert abs(sample.mean - expected_rank(params)) < 4 * se

    def test_tiny_alpha_concentrates_at_zero(self):
        rng = np.random.default_rng(3)
        ks, probs = simulate_rank_pmf(ShrinkageParams(1e-4, 0.0), None, 5_000, rng)
        assert probs[0] > 0.999

    def test_pmf_sums_to_one(self):
        rng = np.random.default_rng(5)
        _, probs = simulate_rank_pmf(ShrinkageParams(5.0, 0.0), None, 5_000, rng)
        assert probs.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("delta,alpha", [(0.0, 5.0), (0.2, 2.8), (0.0, 20.0), (0.2, 11.8)])
    def test_default_truncation_does_not_warn(self, delta, alpha):
        # the criterion-1 cases whose default truncation is below the cap
        params = ShrinkageParams(alpha, delta)
        H = default_truncation(params)
        assert H < 10_000
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            simulate_prior_ranks(params, H, 200, np.random.default_rng(1))

    def test_truncation_warning(self):
        rng = np.random.default_rng(9)
        with pytest.warns(RuntimeWarning, match="truncation"):
            simulate_prior_ranks(ShrinkageParams(5.0, 0.0), 5, 100, rng)


class TestStickSampler:
    """The delta > 0 gamma-ratio draw of 1 - omega_m ~ Beta(alpha + delta*m, 1 - delta)."""

    H = 200

    @pytest.mark.parametrize("alpha,delta", [(2.8, 0.2), (0.6, 0.4)])
    def test_matches_beta(self, alpha, delta):
        a = 1.0 - delta
        b = alpha + delta * np.arange(1, self.H + 1)
        out, scratch = np.empty((5_000, self.H)), np.empty((5_000, self.H))
        _stick_remainders(np.random.default_rng(31), a, b, out, scratch)
        for m in (1, 10, self.H):
            test = stats.kstest(out[:, m - 1], stats.beta(alpha + delta * m, a).cdf)
            assert test.pvalue > 1e-3, (m, test)

    def test_underflow_stays_in_unit_interval(self):
        # (alpha, delta) = (-0.989, 0.99): exp(-E / a) underflows one time in
        # 1700 and Gamma(0.001) about one time in two, so both do about 100
        # times here; no 0 / 0 may reach the sticks
        out, scratch = np.empty((200_000, 1)), np.empty((200_000, 1))
        _stick_remainders(np.random.default_rng(5), 0.01, np.array([0.001]), out, scratch)
        assert ((out >= 0.0) & (out <= 1.0)).all()


class TestSimulationChunks:
    @pytest.mark.parametrize("params", [ShrinkageParams(5.0, 0.0), ShrinkageParams(2.8, 0.2)])
    @pytest.mark.parametrize("H,n_draws", [
        (150, CHUNK_CELLS // 150 + 1),
        (150, 1),
        (CHUNK_CELLS + 1, 3),
    ], ids=["chunk-plus-one", "one-draw", "one-row-chunks"])
    def test_chunk_edges(self, params, H, n_draws):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # H = 150 is short for delta > 0
            sample = simulate_prior_ranks(params, H, n_draws, np.random.default_rng(2))
        assert sample.k.shape == (n_draws,)
        assert ((sample.activation_freq >= 0.0) & (sample.activation_freq <= 1.0)).all()

    def test_same_seed_bit_identical(self):
        runs = [simulate_prior_ranks(ShrinkageParams(2.8, 0.2), 609, 2_000,
                                     np.random.default_rng(17)) for _ in range(2)]
        assert runs[0].k.tobytes() == runs[1].k.tobytes()
        assert runs[0].activation_freq.tobytes() == runs[1].activation_freq.tobytes()

    def test_peak_memory(self):
        # the draws live in two chunk buffers, not in (n_draws, H) temporaries
        rng = np.random.default_rng(13)
        tracemalloc.start()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                simulate_prior_ranks(ShrinkageParams(2.8, 0.2), 150, 100_000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
