"""Truncation transform and latent residual updates."""

import numpy as np
import pytest

from conftest import make_hp, make_side
from xfile.latent import apply_transform, initial_latent, update_latent
from xfile.model import ObservedMatrix, Transform
from xfile.optimizer import fit
from xfile.shrinkage import ShrinkageParams


def _cell(z, prev, curr):
    """(z_tilde, fitted_prev, fitted_curr) for a single cell."""
    return np.array([[float(z)]]), np.array([[float(prev)]]), np.array([[float(curr)]])


class TestUpdateLatent:
    def test_positive_cell_subtracts_previous_fit(self):
        data = ObservedMatrix(np.array([[3.0]]), np.ones((1, 1), bool),
                              Transform.NONNEG_TRUNCATION)
        out = update_latent(*_cell(0.0, 1.0, 1.4), data)
        assert out[0, 0] == pytest.approx(2.0)

    def test_zero_cell_interior_mode(self):
        # cumulative fit -1 below the bound 0.5: keep the interior value
        data = ObservedMatrix(np.array([[0.0]]), np.ones((1, 1), bool),
                              Transform.NONNEG_TRUNCATION)
        out = update_latent(*_cell(9.9, -0.5, -1.0), data)
        assert out[0, 0] == pytest.approx(-1.0)

    def test_zero_cell_clipped_at_bound(self):
        data = ObservedMatrix(np.array([[0.0]]), np.ones((1, 1), bool),
                              Transform.NONNEG_TRUNCATION)
        out = update_latent(*_cell(9.9, 0.5, 0.2), data)
        assert out[0, 0] == pytest.approx(-0.5)

    def test_identity_noop(self):
        data = ObservedMatrix(np.array([[3.0]]), np.ones((1, 1), bool))
        z, prev, curr = _cell(123.0, 1.0, 2.0)
        assert update_latent(z, prev, curr, data) is z

    def test_unobserved_cells_untouched(self):
        values = np.array([[0.0, 2.0]])
        mask = np.array([[True, False]])
        data = ObservedMatrix(values, mask, Transform.NONNEG_TRUNCATION)
        out = update_latent(np.array([[5.0, 7.0]]), np.zeros((1, 2)), np.ones((1, 2)), data)
        assert out[0, 1] == 7.0

    def test_invariants_after_update(self, rng):
        n = p = 8
        values = np.maximum(rng.standard_normal((n, p)), 0.0)
        data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
        prev = rng.standard_normal((n, p))
        curr = prev + rng.standard_normal((n, p))
        out = update_latent(rng.standard_normal((n, p)), prev, curr, data)
        pos = values > 0
        np.testing.assert_allclose(out[pos], (values - prev)[pos])
        zero = values == 0
        assert np.all((prev + out)[zero] <= 1e-12)


class TestApplyTransform:
    def test_identity_copies(self, rng):
        m = rng.standard_normal((3, 4))
        out = apply_transform(m, Transform.IDENTITY)
        np.testing.assert_array_equal(out, m)
        assert out is not m

    def test_truncation(self):
        np.testing.assert_array_equal(
            apply_transform(np.array([-1.0, 0.0, 2.0]), Transform.NONNEG_TRUNCATION),
            np.array([0.0, 0.0, 2.0]),
        )


class TestInitialLatent:
    def test_zeros_off_mask_and_at_observed_zeros(self):
        values = np.array([[1.5, np.nan], [0.0, 2.0]])
        mask = np.array([[True, False], [True, True]])
        data = ObservedMatrix(values, mask, Transform.NONNEG_TRUNCATION)
        latent = initial_latent(data)
        np.testing.assert_array_equal(latent, np.array([[1.5, 0.0], [0.0, 2.0]]))


def _truncation_hp(seed):
    return make_hp(
        a_sigma=1.0, b_sigma=0.5, shrink=ShrinkageParams(2.0, 0.0),
        zeta_n=0.25, zeta_p=0.25, max_factors=4, tol=1e-7,
        max_inner_iters=100, n_restarts=3, seed=seed,
    )


class TestTruncatedFit:
    def test_matches_identity_fit_on_positive_data(self, rng):
        n = p = 15
        values = np.abs(rng.standard_normal((n, p))) + 0.5
        values += 2.0 * np.abs(np.outer(rng.standard_normal(n), rng.standard_normal(p)))
        mask = rng.random((n, p)) > 0.1
        side = make_side(n, p)
        hp = _truncation_hp(9)
        r_id = fit(ObservedMatrix(values, mask, Transform.IDENTITY), side, hp)
        r_tr = fit(ObservedMatrix(values, mask, Transform.NONNEG_TRUNCATION), side, hp)
        assert r_id.rank == r_tr.rank
        np.testing.assert_array_equal(r_id.logpost_trace, r_tr.logpost_trace)
        np.testing.assert_array_equal(r_id.latent_residual, r_tr.latent_residual)
        for a, b in zip(r_id.contributions, r_tr.contributions):
            np.testing.assert_array_equal(a.u_tilde, b.u_tilde)
            np.testing.assert_array_equal(a.v_tilde, b.v_tilde)
            assert a.eta == b.eta

    def test_latent_invariants_at_every_iteration(self, rng):
        n = p = 12
        base = np.outer(np.abs(rng.standard_normal(n)) + 0.3,
                        np.abs(rng.standard_normal(p)) + 0.3)
        values = np.maximum(base + 0.5 * rng.standard_normal((n, p)), 0.0)
        zero_frac = (values == 0).mean()
        assert zero_frac > 0.05
        data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
        side = make_side(n, p)
        checked = [0]

        def callback(h, name, state, fitted_prev):
            if name != "latent":
                return
            pos = data.mask & (values > 0)
            zero = data.mask & (values == 0)
            np.testing.assert_allclose(state.ztilde[pos], (values - fitted_prev)[pos],
                                       rtol=0, atol=1e-9)
            assert np.all((fitted_prev + state.ztilde)[zero] <= 1e-9)
            checked[0] += 1

        fit(data, side, _truncation_hp(13), inner_callback=callback)
        assert checked[0] > 0

    def test_zero_cells_keep_latent_nonpositive(self, rng):
        n = p = 10
        values = np.maximum(rng.standard_normal((n, p)), 0.0)
        data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
        side = make_side(n, p)
        result = fit(data, side, _truncation_hp(21))
        # latent fit + residual = latent value; must respect the truncation
        fitted = sum((c.cells(side, 0.0) for c in result.contributions),
                     np.zeros((n, p)))
        latent = fitted + result.latent_residual
        assert np.all(latent[values == 0] <= 1e-9)
