"""Stage-wise outer loop: rank selection, identification, reproducibility."""

import re

import numpy as np
import pytest

from conftest import make_hp, make_side, strong_multiplicative_instance
from xfile.model import ObservedMatrix, SideInfo, Transform, materialize
from xfile.optimizer import fit, fit_contribution, inner_logpost, predict_matrix
from xfile.shrinkage import ShrinkageParams


def _noise_hp(seed):
    return make_hp(
        a_sigma=1.0, b_sigma=1.0, shrink=ShrinkageParams(0.5, 0.0),
        zeta_n=0.25, zeta_p=0.25, max_factors=4, tol=1e-7,
        max_inner_iters=150, n_restarts=3, seed=seed,
    )


class TestRankSelection:
    def test_pure_noise_mostly_rejected(self):
        # weak-signal candidates must fail the activation-weighted comparison
        ranks = []
        for s in range(50):
            values = np.random.default_rng(900 + s).standard_normal((20, 20))
            data = ObservedMatrix(values, np.ones((20, 20), bool))
            ranks.append(fit(data, SideInfo.intercept_only(20, 20), _noise_hp(s)).rank)
        assert np.mean(np.array(ranks) <= 1) >= 0.9

    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(0)
        n = p = 30
        truth = 5.0 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
        values = truth + 0.1 * rng.standard_normal((n, p))
        data = ObservedMatrix(values, np.ones((n, p), bool))
        hp = make_hp(
            a_sigma=1.0, b_sigma=0.5, shrink=ShrinkageParams(1.0, 0.0),
            max_factors=6, tol=1e-7, max_inner_iters=250, n_restarts=5, seed=11,
        )
        result = fit(data, SideInfo.intercept_only(n, p), hp)
        assert result.rank == 1
        fitted = result.contributions[0].cells(SideInfo.intercept_only(n, p), 0.0)
        corr = np.corrcoef(fitted.ravel(), truth.ravel())[0, 1]
        assert abs(corr) > 0.99
        assert np.linalg.norm(fitted - truth) / np.linalg.norm(truth) < 0.05

    def test_rank_zero_predicts_zero(self):
        values = 0.01 * np.random.default_rng(1).standard_normal((10, 10))
        data = ObservedMatrix(values, np.ones((10, 10), bool))
        side = SideInfo.intercept_only(10, 10)
        hp = make_hp(shrink=ShrinkageParams(0.05, 0.0), max_factors=3,
                     n_restarts=2, seed=4)
        result = fit(data, side, hp)
        assert result.rank == 0
        assert result.contributions == ()
        np.testing.assert_array_equal(
            predict_matrix(result, side, 0.0, Transform.IDENTITY), np.zeros((10, 10))
        )


class TestIdentification:
    def test_sign_convention(self, rng):
        side = make_side(12, 12, 3, 3, rng)
        values = rng.standard_normal((12, 12)) + 3.0 * np.outer(
            rng.standard_normal(12), rng.standard_normal(12)
        )
        data = ObservedMatrix(values, np.ones((12, 12), bool))
        result = fit(data, side, make_hp(seed=2, n_restarts=3, max_inner_iters=80))
        for c in result.contributions:
            assert c.v_tilde.sum() >= 0.0

    def test_flip_preserves_materialization(self, rng):
        side = make_side(8, 8, 2, 2, rng)
        values = rng.standard_normal((8, 8)) + 2.0 * np.outer(
            rng.standard_normal(8), rng.standard_normal(8)
        )
        data = ObservedMatrix(values, np.ones((8, 8), bool))
        result = fit(data, side, make_hp(seed=3, n_restarts=2, max_inner_iters=60))
        if result.rank:
            c = result.contributions[0]
            np.testing.assert_array_equal(c.cells(side, 0.0), c.flip_signs().cells(side, 0.0))


class TestTrace:
    def test_monotone_within_each_factor(self, rng):
        side = make_side(14, 13, 3, 3, rng)
        values = rng.standard_normal((14, 13)) + 2.5 * np.outer(
            rng.standard_normal(14), rng.standard_normal(13)
        )
        mask = rng.random((14, 13)) > 0.15
        data = ObservedMatrix(values, mask)
        result = fit(data, side, make_hp(seed=8, max_inner_iters=120))
        assert result.rank >= 1
        assert result.logpost_trace.size
        for h in np.unique(result.trace_factors):
            vals = result.logpost_trace[result.trace_factors == h]
            assert np.all(np.diff(vals) >= -1e-10)

    def test_latent_residual_zero_off_mask(self, rng):
        side = make_side(6, 6)
        values = rng.standard_normal((6, 6))
        mask = rng.random((6, 6)) > 0.3
        data = ObservedMatrix(values, mask)
        result = fit(data, side, make_hp(seed=1, n_restarts=1, max_inner_iters=40))
        assert np.all(result.latent_residual[~mask] == 0.0)


class TestStepEvents:
    @pytest.mark.parametrize("transform", list(Transform))
    def test_event_stream(self, rng, transform):
        # Per factor h, each of the 2 restarts emits warm-up cycles (W), then
        # full cycles (F); every cycle ends in a latent refresh only under
        # truncation.  fitted_prev is the sum of the factors accepted before h.
        n, p = 12, 10
        side = make_side(n, p, 2, 2, rng)
        values = rng.standard_normal((n, p)) + 3.0 * np.outer(
            rng.standard_normal(n), rng.standard_normal(p)
        )
        if transform == Transform.NONNEG_TRUNCATION:
            values = np.maximum(values, 0.0)
        data = ObservedMatrix(values, rng.random((n, p)) > 0.1, transform)
        hp = make_hp(seed=6, n_restarts=2, max_inner_iters=30, max_factors=3)
        events, prev_at = [], {}

        def callback(h, name, state, fitted_prev):
            assert h == state.h
            events.append((h, name))
            if h not in prev_at:
                prev_at[h] = fitted_prev.copy()

        result = fit(data, side, hp, inner_callback=callback)
        assert result.rank >= 1
        last_h = min(result.rank + 1, hp.max_factors)
        hs = [h for h, _ in events]
        assert hs == sorted(hs) and set(hs) == set(range(1, last_h + 1))

        latent = ("latent",) if transform == Transform.NONNEG_TRUNCATION else ()
        cycles = {"W": ("u", "beta", "v", "gamma", "eta") + latent,
                  "F": ("u", "psi", "beta", "v", "phi", "gamma", "eta") + latent}
        for h in range(1, last_h + 1):
            names = tuple(name for g, name in events if g == h)
            kinds, i = "", 0
            while i < len(names):
                kind = next((k for k, c in cycles.items() if names[i:i + len(c)] == c), None)
                assert kind, names[i:i + 8]
                kinds += kind
                i += len(cycles[kind])
            assert re.fullmatch("(W+F+)" * hp.n_restarts, kinds), kinds
            np.testing.assert_array_equal(
                prev_at[h], materialize(result.contributions[:h - 1], side, hp.eps_frelu))


class TestWholeFitAscent:
    @pytest.mark.parametrize("transform", list(Transform))
    @pytest.mark.parametrize("eps", [0.0, 0.3])
    @pytest.mark.parametrize("held_out", [0.0, 0.2])
    def test_objective_never_falls_between_events(self, eps, held_out, transform):
        # every step of every restart of every factor, not only h = 1, and
        # under truncation every latent refresh too
        data, side, _ = strong_multiplicative_instance(3, n=24, p=20, q_x=3, q_w=3)
        mask = np.random.default_rng(4).random(data.shape) >= held_out
        values = data.values
        if transform == Transform.NONNEG_TRUNCATION:
            values = np.maximum(values, 0.0)
        data = ObservedMatrix(values, mask, transform)
        hp = make_hp(eps_frelu=eps, max_factors=4, n_restarts=2, seed=5)
        last, checked = [None, 0.0], set()  # the previous event's state and objective

        def callback(h, name, state, fitted_prev):
            j = inner_logpost(state)
            if state is last[0]:
                before = last[1]
                assert j >= before - 1e-10 * max(1.0, abs(before)), (h, name, before, j)
                checked.add(h)
            last[:] = state, j

        fit(data, side, hp, inner_callback=callback)
        assert max(checked) >= 2


class TestReproducibility:
    def test_identical_seeds_identical_fits(self, rng):
        side = make_side(10, 10, 2, 2, rng)
        values = rng.standard_normal((10, 10)) + 2.0 * np.outer(
            rng.standard_normal(10), rng.standard_normal(10)
        )
        data = ObservedMatrix(values, np.ones((10, 10), bool))
        hp = make_hp(seed=77, n_restarts=2, max_inner_iters=60)
        r1 = fit(data, side, hp)
        r2 = fit(data, side, hp)
        assert r1.rank == r2.rank
        np.testing.assert_array_equal(r1.logpost_trace, r2.logpost_trace)
        for a, b in zip(r1.contributions, r2.contributions):
            np.testing.assert_array_equal(a.u_tilde, b.u_tilde)
            np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
            assert a.eta == b.eta

    def test_masked_cells_do_not_influence_fit(self, rng):
        side = make_side(10, 10)
        values = rng.standard_normal((10, 10)) + 2.0 * np.outer(
            rng.standard_normal(10), rng.standard_normal(10)
        )
        mask = rng.random((10, 10)) > 0.25
        hp = make_hp(seed=5, n_restarts=2, max_inner_iters=60)
        r1 = fit(ObservedMatrix(values, mask), side, hp)
        perturbed = values.copy()
        perturbed[~mask] += 100.0 * rng.standard_normal((~mask).sum())
        r2 = fit(ObservedMatrix(perturbed, mask), side, hp)
        assert r1.rank == r2.rank
        np.testing.assert_array_equal(r1.logpost_trace, r2.logpost_trace)
        for a, b in zip(r1.contributions, r2.contributions):
            np.testing.assert_array_equal(a.u_tilde, b.u_tilde)

    def test_unobserved_residual_cells_are_never_read(self, rng):
        # fit_contribution checks only the observed cells for finiteness, and
        # a huge fill would overflow (a RuntimeWarning, an error here) if read
        side = make_side(10, 10, 2, 2, rng)
        residual = rng.standard_normal((10, 10)) + 2.0 * np.outer(
            rng.standard_normal(10), rng.standard_normal(10)
        )
        mask = rng.random((10, 10)) > 0.25
        hp = make_hp(n_restarts=2, max_inner_iters=30)
        zero, *filled = (
            fit_contribution(np.where(mask, residual, fill), side, hp, 1,
                             np.random.default_rng(3), mask=mask)
            for fill in (0.0, np.nan, 1e200)
        )
        for other in filled:
            np.testing.assert_array_equal(zero.trace, other.trace)
            for name in ("u_tilde", "psi_tilde", "beta", "v_tilde", "phi_tilde", "gamma"):
                np.testing.assert_array_equal(getattr(zero.candidate, name),
                                              getattr(other.candidate, name))


class TestErrors:
    def test_dimension_mismatch(self, rng):
        data = ObservedMatrix(rng.standard_normal((5, 4)), np.ones((5, 4), bool))
        with pytest.raises(ValueError, match="side info"):
            fit(data, SideInfo.intercept_only(4, 4), make_hp())

    def test_eps_frelu_smoke(self, rng):
        # links never die with a positive offset; fit must still run
        side = make_side(8, 8, 2, 2, rng)
        values = rng.standard_normal((8, 8)) + 2.0 * np.outer(
            rng.standard_normal(8), rng.standard_normal(8)
        )
        data = ObservedMatrix(values, np.ones((8, 8), bool))
        hp = make_hp(eps_frelu=0.1, seed=6, n_restarts=2, max_inner_iters=50)
        result = fit(data, side, hp)
        assert result.rank >= 0
