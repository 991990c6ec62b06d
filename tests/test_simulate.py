"""Benchmark harness: generation, RMSE, baseline, experiment runs."""

import numpy as np
import pytest

from xfile import simulate
from xfile.model import HyperParams
from xfile.shrinkage import ShrinkageParams
from xfile.simulate import (
    ScenarioSpec,
    baseline_predict,
    fit_baseline,
    generate,
    rmse,
    run_experiment,
    run_grid_search,
)


def _spec(**kwargs):
    defaults = dict(n=40, p=30, k_true=3, q_x=4, q_w=4, dgp="additive",
                    holdout_fraction=0.2, sparsity_fraction=0.75, noise_sd=1.0,
                    n_replicates=3, seed=5)
    defaults.update(kwargs)
    return ScenarioSpec(**defaults)


def _strip_wall_time(csv_text: str) -> str:
    # wall-clock measurements are the one nondeterministic report column
    lines = []
    for line in csv_text.splitlines():
        if line.startswith("#") or line.startswith("replicate"):
            lines.append(line)
        else:
            lines.append(",".join(line.split(",")[:-1]))
    return "\n".join(lines)


class TestGenerate:
    def test_holdout_count(self):
        spec = _spec(n=100, p=100, holdout_fraction=0.2)
        observed, _, _ = generate(spec, np.random.default_rng(0))
        assert (~observed.mask).sum() == 2000

    def test_side_info_layout(self):
        spec = _spec()
        _, side, _ = generate(spec, np.random.default_rng(1))
        assert side.x.shape == (40, 5) and side.w.shape == (30, 5)
        assert np.all(side.x[:, 0] == 1.0)
        # exogenous columns alternate binary and continuous
        assert set(np.unique(side.x[:, 1])) <= {0.0, 1.0}
        assert np.unique(side.x[:, 2]).size > 2

    def test_zero_fraction_concentrates(self):
        # Bernoulli zeroing of the loadings: empirical fraction near 3/4
        from xfile.simulate import _sparsify

        loadings = np.ones((125, 4))  # 500 entries
        zeros = (_sparsify(loadings, 0.75, np.random.default_rng(2)) == 0.0).mean()
        assert abs(zeros - 0.75) < 0.02
        big = (_sparsify(np.ones((2000, 4)), 0.75, np.random.default_rng(3)) == 0.0).mean()
        assert abs(big - 0.75) < 0.02

    def test_near_noiseless_rank(self):
        spec = _spec(n=60, p=50, k_true=3, sparsity_fraction=0.0, noise_sd=1e-9)
        _, _, truth = generate(spec, np.random.default_rng(4))
        s = np.linalg.svd(truth, compute_uv=False)
        assert (s > 1e-6 * s[0]).sum() <= 3

    def test_multiplicative_dgp_runs(self):
        spec = _spec(dgp="multiplicative")
        observed, side, truth = generate(spec, np.random.default_rng(5))
        assert observed.values.shape == (40, 30)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            _spec(dgp="bogus")
        with pytest.raises(ValueError):
            _spec(holdout_fraction=0.0)
        with pytest.raises(ValueError):
            _spec(sparsity_fraction=1.0)


class TestRmse:
    def test_exact_match(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_constant_offset(self):
        truth = np.arange(6.0)
        assert rmse(truth + 1.0, truth) == pytest.approx(1.0)

    def test_hand_case(self):
        assert rmse(np.array([2.0, 3.0]), np.array([1.0, 5.0])) == pytest.approx(
            np.sqrt(2.5)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.empty(0), np.empty(0))
        with pytest.raises(ValueError):
            rmse(np.ones(3), np.ones(4))


class TestBaseline:
    def test_model_true_data_zero_residual(self, rng):
        r = rng.standard_normal(12)
        c = rng.standard_normal(9)
        values = r[:, None] + c[None, :]
        from xfile.model import ObservedMatrix

        data = ObservedMatrix(values, np.ones((12, 9), bool))
        b_u, b_v = fit_baseline(data)
        np.testing.assert_allclose(baseline_predict(b_u, b_v), values, atol=1e-7)
        assert b_v.mean() == pytest.approx(0.0, abs=1e-9)

    def test_constant_matrix(self):
        from xfile.model import ObservedMatrix

        data = ObservedMatrix(np.full((4, 5), 3.0), np.ones((4, 5), bool))
        b_u, b_v = fit_baseline(data)
        np.testing.assert_allclose(b_u, np.full(4, 3.0), atol=1e-10)
        np.testing.assert_allclose(b_v, np.zeros(5), atol=1e-10)

    def test_missing_cell_matches_normal_equations(self, rng):
        from xfile.model import ObservedMatrix

        values = rng.standard_normal((3, 3))
        mask = np.ones((3, 3), bool)
        mask[1, 2] = False
        data = ObservedMatrix(values, mask)
        b_u, b_v = fit_baseline(data)

        # dense least squares with the mean(b_v) = 0 constraint via
        # reparameterization b_v = B @ t, B spanning the zero-mean subspace
        rows, cols = np.nonzero(mask)
        B = np.eye(3)[:, :2] - 1.0 / 3.0
        design = np.zeros((rows.size, 3 + 2))
        for k, (i, j) in enumerate(zip(rows, cols)):
            design[k, i] = 1.0
            design[k, 3:] = B[j]
        sol, *_ = np.linalg.lstsq(design, values[mask], rcond=None)
        b_u_ref = sol[:3]
        b_v_ref = B @ sol[3:]
        np.testing.assert_allclose(b_u, b_u_ref, atol=1e-7)
        np.testing.assert_allclose(b_v, b_v_ref, atol=1e-7)

    def test_empty_row_defaults_to_zero(self, rng):
        from xfile.model import ObservedMatrix

        values = rng.standard_normal((4, 4)) + 5.0
        mask = np.ones((4, 4), bool)
        mask[2, :] = False
        data = ObservedMatrix(values, mask)
        b_u, _ = fit_baseline(data)
        assert b_u[2] == 0.0

    def test_holdout_rmse_approaches_noise_sd(self, rng):
        # intercept-true data: held-out error converges to the noise level
        from xfile.model import ObservedMatrix

        n = p = 100
        sigma = 0.8
        values = (rng.standard_normal(n)[:, None] + rng.standard_normal(p)[None, :]
                  + sigma * rng.standard_normal((n, p)))
        mask = rng.random((n, p)) > 0.2
        data = ObservedMatrix(values, mask)
        b_u, b_v = fit_baseline(data)
        err = rmse(baseline_predict(b_u, b_v)[~mask], values[~mask])
        assert abs(err - sigma) / sigma < 0.1


def _fast_hp(**kwargs):
    defaults = dict(
        a_sigma=1.0, b_sigma=1.0, a_eta=2.0, b_eta=1.0,
        shrink=ShrinkageParams(3.0, 0.0), zeta_n=0.15, zeta_p=0.15,
        max_factors=4, tol=1e-6, max_inner_iters=60, n_restarts=2, seed=0,
    )
    defaults.update(kwargs)
    return HyperParams(**defaults)


class TestRunExperiment:
    def test_replicates_and_summary(self):
        spec = _spec(n=25, p=20, k_true=2, n_replicates=3, dgp="multiplicative",
                     sparsity_fraction=0.25)
        report = run_experiment(spec, _fast_hp())
        assert len(report.rmses("xfile")) == 3
        assert len(report.rmses("baseline")) == 3
        summary = report.summary()
        for model in ("xfile", "baseline"):
            vals = report.rmses(model)
            assert vals.min() <= summary[model]["median"] <= vals.max()
        csv_text = report.to_csv()
        assert csv_text.startswith("#")
        assert "replicate,model,rmse,rank_selected,wall_time_ms" in csv_text

    def test_reproducible(self):
        spec = _spec(n=20, p=15, k_true=2, n_replicates=2, sparsity_fraction=0.25)
        r1 = run_experiment(spec, _fast_hp())
        r2 = run_experiment(spec, _fast_hp())
        assert _strip_wall_time(r1.to_csv()) == _strip_wall_time(r2.to_csv())

    def test_distinct_replicate_data(self):
        spec = _spec(n=20, p=15, n_replicates=2)
        seqs = np.random.SeedSequence(spec.seed).spawn(2)
        d1, _, _ = generate(spec, np.random.default_rng(seqs[0]))
        d2, _, _ = generate(spec, np.random.default_rng(seqs[1]))
        assert not np.array_equal(d1.values, d2.values)

    def test_generation_deterministic(self):
        spec = _spec()
        d1, s1, t1 = generate(spec, np.random.default_rng(42))
        d2, s2, t2 = generate(spec, np.random.default_rng(42))
        np.testing.assert_array_equal(d1.values, d2.values)
        np.testing.assert_array_equal(d1.mask, d2.mask)
        np.testing.assert_array_equal(s1.x, s2.x)
        np.testing.assert_array_equal(t1, t2)

    def test_failed_replicate_is_recorded_and_skipped(self, monkeypatch):
        spec = _spec(n=18, p=14, k_true=2, n_replicates=3, sparsity_fraction=0.25)
        clean = run_experiment(spec, _fast_hp())
        calls = []
        real_fit = simulate.fit

        def fit_failing_second_call(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("boom")
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(simulate, "fit", fit_failing_second_call)
        with pytest.warns(RuntimeWarning) as caught:
            report = run_experiment(spec, _fast_hp())
        error = "replicate 1: xfile failed: FloatingPointError('boom')"
        assert [str(w.message) for w in caught] == [error]
        assert report.errors == (error,)

        def stripped(records):
            # wall time aside; replicate 1 keeps neither its xfile nor its baseline record
            return [(r.replicate, r.model, r.rmse, r.rank_selected) for r in records]

        assert stripped(report.records) == stripped(
            r for r in clean.records if r.replicate != 1)
        assert error in report.to_csv().splitlines()[0]


class TestGridSearch:
    def test_selects_from_grid(self):
        spec = _spec(n=20, p=15, k_true=2, n_replicates=1, sparsity_fraction=0.25)
        grid = {"alpha": [1.0, 4.0], "b_sigma": [0.5, 1.0]}
        best_hp, trials = run_grid_search(spec, _fast_hp(), grid)
        assert len(trials) == 4
        assert best_hp.shrink.alpha in grid["alpha"]
        assert best_hp.b_sigma in grid["b_sigma"]
        best_score = min(t["rmse"] for t in trials)
        chosen = [t for t in trials if t["rmse"] == best_score][0]
        assert best_hp.shrink.alpha == chosen["alpha"]

    @pytest.mark.parametrize("grid", [{"alpha": [1.0, "x"]}, {"alpha": ["3"]},
                                      {"b_sigma": [True]}, {"alpha": [1.0, -3.0]},
                                      {"b_sigma": [0.5, 0.0]}])
    def test_non_numeric_candidates_rejected_before_fitting(self, monkeypatch, grid):
        calls = []
        real_fit = simulate.fit

        def counting_fit(*args, **kwargs):
            calls.append(args)
            return real_fit(*args, **kwargs)

        monkeypatch.setattr(simulate, "fit", counting_fit)
        with pytest.raises(ValueError, match=next(iter(grid))):
            run_grid_search(_spec(n=12, p=10, k_true=2, n_replicates=1), _fast_hp(), grid)
        assert calls == []
