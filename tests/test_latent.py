"""Truncation transform and latent residual updates."""

import numpy as np
import pytest

from conftest import make_hp, make_side, random_state
from xfile.latent import apply_transform, initial_latent, observed_zeros, update_latent
from xfile.model import ObservedMatrix, Transform
from xfile.optimizer import InnerState, fit, run_inner
from xfile.shrinkage import ShrinkageParams

PARAMS = ("u", "psi", "beta", "v", "phi", "gamma", "eta")


class TestObservedZeros:
    def test_only_observed_zeros_in_row_major_order(self):
        # positive cells are pinned and unobserved cells carry no data
        values = np.array([[0.0, 3.0, 0.0], [2.0, 0.0, 0.0]])
        mask = np.array([[True, True, False], [True, True, True]])
        data = ObservedMatrix(values, mask, Transform.NONNEG_TRUNCATION)
        np.testing.assert_array_equal(observed_zeros(data), [0, 4, 5])

    def test_identity_has_none(self):
        data = ObservedMatrix(np.array([[0.0, 3.0]]), np.ones((1, 2), bool))
        assert observed_zeros(data).size == 0


class TestUpdateLatent:
    # The refreshed value is the residual z_tilde (latent = fitted_prev +
    # z_tilde), and the candidate's mean for it is its own cells, so the mode
    # of its Student-t conditional truncated to latent <= 0 is
    # min(cells, -fitted_prev): the candidate's cell below the bound, the
    # bound otherwise.

    def test_zero_cell_interior_mode(self):
        # candidate cell -1 below the bound 0.5: keep the interior value
        out = update_latent(np.array([-0.5]), np.array([-1.0]))
        assert out[0] == pytest.approx(-1.0)

    def test_zero_cell_clipped_at_bound(self):
        out = update_latent(np.array([0.5]), np.array([-0.3]))
        assert out[0] == pytest.approx(-0.5)

    def test_invariants_after_update(self, rng):
        prev = rng.standard_normal(64)
        cells = rng.standard_normal(64)
        out = np.empty(64)
        assert update_latent(prev, cells.copy(), out=out) is out
        np.testing.assert_array_equal(out, np.minimum(cells, -prev))
        assert np.all(prev + out <= 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_refresh_writes_the_full_matrix_mode_at_zeros_only(self, seed):
        # The in-place refresh of run_inner against the full n x p formula:
        # positive cells keep y - fitted_prev, unobserved cells keep their
        # value, and off_loss is the fresh loss of the refreshed residual.
        rng = np.random.default_rng(seed)
        n, p = 9, 7
        values = np.maximum(rng.standard_normal((n, p)) + 0.3, 0.0)
        mask = rng.random((n, p)) > 0.2
        data = ObservedMatrix(values, mask, Transform.NONNEG_TRUNCATION)
        fitted_prev = 0.5 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
        ztilde = initial_latent(data) - fitted_prev
        ztilde[~mask] = rng.standard_normal(int((~mask).sum()))
        base = random_state(rng, n=n, p=p, hp=make_hp(max_inner_iters=4), h=2)
        state = InnerState(ztilde=ztilde, mask=mask, side=base.side, hp=base.hp, h=2,
                           **{k: getattr(base, k) for k in PARAMS})
        zero = mask & (values == 0)
        before = []
        checked = [0]

        def callback(h, name, s, prev):
            if name == "eta":
                before.append(s.ztilde.copy())
            elif name == "latent":
                expected = before[-1].copy()
                full = np.minimum(s.cells(), -fitted_prev)
                expected[zero] = full[zero]
                np.testing.assert_array_equal(s.ztilde, expected)
                np.testing.assert_array_equal(s.off_loss, np.log1p(s.ztilde**2 / s.two_b))
                checked[0] += 1

        run_inner(state, zeros=observed_zeros(data), fitted_prev=fitted_prev,
                  inner_callback=callback)
        assert checked[0] > 0
        pos = mask & (values > 0)
        np.testing.assert_array_equal(state.ztilde[pos], (values - fitted_prev)[pos])

    def test_state_never_writes_the_callers_residual(self, rng):
        # the state refreshes its own copy, which is 0 at the unobserved
        # cells however large the caller's values there
        n, p = 9, 7
        values = np.maximum(rng.standard_normal((n, p)) + 0.3, 0.0)
        mask = rng.random((n, p)) > 0.2
        data = ObservedMatrix(values, mask, Transform.NONNEG_TRUNCATION)
        fitted_prev = 0.5 * np.outer(rng.standard_normal(n), rng.standard_normal(p))
        ztilde = np.where(mask, initial_latent(data) - fitted_prev, 1e200)
        given = ztilde.copy()
        base = random_state(rng, n=n, p=p, hp=make_hp(max_inner_iters=4), h=2)
        state = InnerState(ztilde=ztilde, mask=mask, side=base.side, hp=base.hp, h=2,
                           **{k: getattr(base, k) for k in PARAMS})
        zeros = observed_zeros(data)
        assert zeros.size and not mask.all()
        run_inner(state, zeros=zeros, fitted_prev=fitted_prev)
        assert not np.array_equal(state.ztilde.flat[zeros], given.flat[zeros])
        np.testing.assert_array_equal(ztilde, given)
        np.testing.assert_array_equal(state.ztilde[~mask], 0.0)
        np.testing.assert_array_equal(state.off_loss[~mask], 0.0)


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
