"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import json
import time
import warnings

import numpy as np
from scipy.optimize import minimize_scalar

from conftest import (
    exact_row_loss,
    make_hp,
    make_side,
    minorant_row_loss,
    random_state,
    strong_multiplicative_instance,
)
from xfile.cli import main
from xfile.io import load_matrix, save_matrix
from xfile.model import (
    HyperParams,
    ObservedMatrix,
    Transform,
    cell_marginal_loglik,
)
from xfile.optimizer import (
    InnerState,
    fit,
    inner_logpost,
    predict_matrix,
    run_inner,
    step_eta,
    step_phi,
    step_psi,
    step_u,
    step_v,
)
from xfile.shrinkage import (
    ShrinkageParams,
    default_truncation,
    expected_rank,
    prob_active,
    simulate_prior_ranks,
)
from xfile.simulate import (
    ScenarioSpec,
    baseline_predict,
    fit_baseline,
    generate,
    rmse,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_prior_mean_of_k():
    """Monte Carlo prior mean of the factor count matches the closed form
    within 2% for six concentration/discount pairs, in under 10 s."""
    cases = [(0.0, 5.0), (0.2, 2.8), (0.4, 0.6), (0.0, 20.0), (0.2, 11.8), (0.4, 3.6)]
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for delta, alpha in cases:
        params = ShrinkageParams(alpha, delta)
        H = min(default_truncation(params), 150)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sample = simulate_prior_ranks(params, H, 100_000,
                                          np.random.default_rng(2024))
        target = expected_rank(params)
        rel = abs(sample.mean - target) / target
        worst = max(worst, rel)
        details.append(f"(d={delta},a={alpha}): {sample.mean:.3f} vs {target:g}")
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 10.0
    _report(1, ok, f"worst rel err {worst:.4f} (<0.02), {elapsed:.1f}s (<10s); "
                   + "; ".join(details))


def test_criterion_2_activation_probabilities():
    """Per-factor activation frequencies match the exact marginal
    probabilities within 4 Monte Carlo standard errors for h <= 10."""
    n_draws = 50_000
    worst = 0.0
    for delta, alpha in ((0.0, 5.0), (0.3, 2.45)):
        params = ShrinkageParams(alpha, delta)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sample = simulate_prior_ranks(params, 80, n_draws,
                                          np.random.default_rng(7))
        for h in range(1, 11):
            q = prob_active(h, params)
            se = np.sqrt(q * (1.0 - q) / n_draws)
            z = abs(sample.activation_freq[h - 1] - q) / se
            worst = max(worst, z)
    _report(2, worst < 4.0, f"worst |z| = {worst:.2f} (< 4 MC standard errors)")


def test_criterion_3_monotone_ascent():
    """The exact log-posterior never decreases across coordinate-ascent
    steps on 100 random instances (absolute slack 1e-10), in under 60 s."""
    t0 = time.perf_counter()
    worst = [0.0]
    steps = [0]
    for inst in range(100):
        rng = np.random.default_rng(10_000 + inst)
        state = random_state(rng, n=15, p=15, q_x=3, q_w=3,
                             hp=make_hp(max_inner_iters=30, tol=1e-9, seed=inst))
        last = [inner_logpost(state)]

        def callback(h, name, s, prev):
            j = inner_logpost(s)
            worst[0] = max(worst[0], last[0] - j)
            steps[0] += 1
            last[0] = j

        run_inner(state, inner_callback=callback)
    elapsed = time.perf_counter() - t0
    ok = worst[0] <= 1e-10 and elapsed < 60.0
    _report(3, ok, f"worst decrease {worst[0]:.2e} over {steps[0]} steps "
                   f"(slack 1e-10), {elapsed:.1f}s (<60s)")


def test_criterion_4_minorant_contract():
    """The quadratic surrogate lower-bounds the exact loss on a 1000-point
    grid per instance, with tangency value and slope matching."""
    worst_gap = 0.0  # positive means the bound exceeded the exact loss
    worst_slope = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(3, 12))
        z = rng.standard_normal(m) * 3.0
        A = rng.standard_normal(m)
        A[np.abs(A) < 0.05] = 0.3
        u_tan = float(rng.standard_normal() * 2.0)
        a_s = float(rng.uniform(0.5, 3.0))
        b_s = float(rng.uniform(0.2, 2.0))
        grid = np.linspace(u_tan - 8.0, u_tan + 8.0, 1000)
        for u in grid:
            gap = (minorant_row_loss(z, A, u_tan, u, a_s, b_s)
                   - exact_row_loss(z, A, u, a_s, b_s))
            worst_gap = max(worst_gap, gap)
        h = 1e-6 * max(1.0, abs(u_tan))
        s_exact = (exact_row_loss(z, A, u_tan + h, a_s, b_s)
                   - exact_row_loss(z, A, u_tan - h, a_s, b_s)) / (2 * h)
        s_bound = (minorant_row_loss(z, A, u_tan, u_tan + h, a_s, b_s)
                   - minorant_row_loss(z, A, u_tan, u_tan - h, a_s, b_s)) / (2 * h)
        worst_slope = max(worst_slope, abs(s_bound - s_exact) / max(1.0, abs(s_exact)))
        tangency = abs(minorant_row_loss(z, A, u_tan, u_tan, a_s, b_s)
                       - exact_row_loss(z, A, u_tan, a_s, b_s))
        worst_gap = max(worst_gap, tangency)
    ok = worst_gap <= 1e-9 and worst_slope < 1e-6
    _report(4, ok, f"worst bound violation {worst_gap:.2e}, "
                   f"worst tangent slope rel err {worst_slope:.2e} (<1e-6)")


def test_criterion_5_update_oracles():
    """Closed-form updates match independent 1-d numeric maximization
    (loadings, scale) and brute-force two-point evaluation (flags)."""
    hp = make_hp(a_sigma=1.0, b_sigma=0.5, zeta_n=0.5, zeta_p=0.5)
    side = make_side(1, 1)

    def scalar_state(zt, u, v, eta):
        return InnerState(
            ztilde=np.array([[zt]]), mask=np.ones((1, 1), bool), side=side, hp=hp,
            h=1, u=np.array([u]), psi=np.ones(1), beta=np.array([1.0]),
            v=np.array([v]), phi=np.ones(1), gamma=np.array([1.0]), eta=eta,
        )

    # converged row loading vs numeric argmax of the penalized scalar loss
    state = scalar_state(3.0, 3.0, 1.0, 1.0)
    for _ in range(400):
        step_u(state)
    ref_u = minimize_scalar(
        lambda u: -(cell_marginal_loglik(3.0 - u, 1.0, 0.5) - 0.5 * u * u),
        bounds=(0.0, 3.0), method="bounded", options={"xatol": 1e-12}).x
    err_u = abs(state.u[0] - ref_u) / abs(ref_u)

    # converged scaled column loading
    eta = 0.8
    state = scalar_state(2.0, 1.0, 2.0 / eta, eta)
    for _ in range(400):
        step_v(state)
    ref_v = minimize_scalar(
        lambda vs: -(cell_marginal_loglik(2.0 - vs, 1.0, 0.5)
                     - vs * vs / (2 * eta * eta)),
        bounds=(0.0, 3.0), method="bounded", options={"xatol": 1e-12}).x
    err_v = abs(state.v[0] * eta - ref_v) / abs(ref_v)

    # scale mode vs numeric argmax of its full conditional
    rng = np.random.default_rng(3)
    st = random_state(rng, p=9)
    vstar = st.v * st.eta
    ssq = float(np.sum(vstar**2))
    ref_eta2 = minimize_scalar(
        lambda x: -(-0.5 * vstar.size * np.log(2 * np.pi * x) - ssq / (2 * x)
                    - (st.hp.a_eta + 1.0) * np.log(x) - st.hp.b_eta / x),
        bounds=(1e-8, 50.0), method="bounded", options={"xatol": 1e-12}).x
    step_eta(st)
    err_eta = abs(st.eta**2 - ref_eta2) / ref_eta2

    # flag flips vs brute-force two-point objective comparison
    import copy

    mismatches = 0
    for seed in range(20):
        rng = np.random.default_rng(600 + seed)
        st = random_state(rng, n=5, p=5)
        expected_psi = []
        for i in range(5):
            on, off = copy.deepcopy(st), copy.deepcopy(st)
            on.psi[i], off.psi[i] = 1.0, 0.0
            expected_psi.append(inner_logpost(on) > inner_logpost(off))
        st_psi = copy.deepcopy(st)
        step_psi(st_psi)
        mismatches += int(not np.array_equal(st_psi.psi,
                                             np.array(expected_psi, dtype=float)))
        expected_phi = []
        for j in range(5):
            on, off = copy.deepcopy(st), copy.deepcopy(st)
            on.phi[j], off.phi[j] = 1.0, 0.0
            expected_phi.append(inner_logpost(on) > inner_logpost(off))
        st_phi = copy.deepcopy(st)
        step_phi(st_phi)
        mismatches += int(not np.array_equal(st_phi.phi,
                                             np.array(expected_phi, dtype=float)))

    ok = err_u < 1e-4 and err_v < 1e-4 and err_eta < 1e-4 and mismatches == 0
    _report(5, ok, f"loading rel errs {err_u:.2e}/{err_v:.2e}, scale rel err "
                   f"{err_eta:.2e} (<1e-4), flag mismatches {mismatches}/40")


def test_criterion_6_rank_recovery():
    """On strong three-factor data with noise sd 0.1 the selected rank is
    exactly 3 in at least 80% of 25 replicates and never exceeds 5."""
    t0 = time.perf_counter()
    hp = HyperParams(
        a_sigma=1.0, b_sigma=0.5, a_eta=2.0, b_eta=1.0,
        shrink=ShrinkageParams(5.0, 0.0), zeta_n=0.25, zeta_p=0.25,
        max_factors=8, tol=1e-7, max_inner_iters=200, n_restarts=5, seed=0,
    )
    ranks = []
    for rep in range(25):
        data, side, _ = strong_multiplicative_instance(3000 + rep)
        ranks.append(fit(data, side, hp.with_seed(rep)).rank)
    elapsed = time.perf_counter() - t0
    exact = float(np.mean(np.array(ranks) == 3))
    ok = exact >= 0.8 and max(ranks) <= 5 and elapsed < 300.0
    _report(6, ok, f"rank==3 in {exact:.0%} of 25 (>=80%), max rank "
                   f"{max(ranks)} (<=5), {elapsed:.0f}s (<300s); ranks={ranks}")


def test_criterion_7_holdout_rmse_vs_baseline():
    """Multiplicative benchmark (n=p=50, k=3, 20% held out, noise sd 1):
    the factorization beats the intercept baseline in at least 90% of 25
    replicates and its median RMSE stays below 1.5x the noise sd."""
    t0 = time.perf_counter()
    spec = ScenarioSpec(n=50, p=50, k_true=3, q_x=5, q_w=5, dgp="multiplicative",
                        holdout_fraction=0.2, sparsity_fraction=0.25, noise_sd=1.0,
                        n_replicates=25, seed=2042)
    hp = HyperParams(
        a_sigma=1.0, b_sigma=1.0, a_eta=2.0, b_eta=1.0,
        shrink=ShrinkageParams(5.0, 0.0), zeta_n=0.1, zeta_p=0.1,
        max_factors=10, tol=1e-6, max_inner_iters=150, n_restarts=4, seed=0,
    )
    wins = 0
    rmses = []
    seqs = np.random.SeedSequence(spec.seed).spawn(spec.n_replicates)
    for i in range(spec.n_replicates):
        rng = np.random.default_rng(seqs[i])
        observed, side, truth = generate(spec, rng)
        held = ~observed.mask
        result = fit(observed, side, hp.with_seed(int(seqs[i].generate_state(1)[0])))
        pred = predict_matrix(result, side, hp.eps_frelu, observed.transform)
        r_x = rmse(pred[held], truth[held])
        b_u, b_v = fit_baseline(observed)
        r_b = rmse(baseline_predict(b_u, b_v)[held], truth[held])
        rmses.append(r_x)
        wins += int(r_x < r_b)
    elapsed = time.perf_counter() - t0
    win_share = wins / spec.n_replicates
    median = float(np.median(rmses))
    ok = win_share >= 0.9 and median < 1.5 * spec.noise_sd and elapsed < 900.0
    _report(7, ok, f"beat baseline in {win_share:.0%} (>=90%), median RMSE "
                   f"{median:.3f} (<1.5), {elapsed:.0f}s (<900s)")


def test_criterion_8_no_overshrinking_of_large_signals():
    """Single-cell conditional MAP under the heavy-tailed scale-mixture
    prior: the relative gap to the unpenalized optimum shrinks with the
    signal and is below 5% at signal 100."""
    a_sigma, b_sigma = 3.0, 0.5
    a_eta, b_eta = 1.0, 1.0

    def objective(c, chat):
        # cell loss plus the marginal prior of an eta-scaled loading:
        # integrating N(0, eta^2) against the prior on eta^2 leaves a
        # Student-t with 2*a_eta df and squared scale b_eta/a_eta
        prior = -(a_eta + 0.5) * np.log1p(c * c / (2.0 * b_eta))
        return cell_marginal_loglik(chat - c, a_sigma, b_sigma) + prior

    gaps = []
    for chat in (10.0, 50.0, 100.0):
        grid = np.linspace(-2.0, 1.2 * chat, 200_001)
        coarse = grid[np.argmax(objective(grid, chat))]
        refined = minimize_scalar(lambda c: -objective(c, chat),
                                  bracket=(coarse - 0.5, coarse, coarse + 0.5)).x
        gaps.append(abs(refined - chat) / chat)
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[2] < 0.05
    _report(8, ok, f"relative gaps at signals (10, 50, 100): "
                   f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}, last < 0.05")


def test_criterion_9_truncation_consistency():
    """All-positive data: truncated and identity fits coincide exactly.
    Data with ~30% exact zeros: the latent-state invariants hold at every
    inner iteration."""
    rng = np.random.default_rng(99)
    n = p = 20
    positive = np.abs(rng.standard_normal((n, p))) + 0.5
    positive += 2.0 * np.abs(np.outer(rng.standard_normal(n), rng.standard_normal(p)))
    mask = rng.random((n, p)) > 0.1
    side = make_side(n, p)
    hp = make_hp(shrink=ShrinkageParams(2.0, 0.0), max_factors=4,
                 max_inner_iters=100, tol=1e-7, n_restarts=3, seed=31)
    r_id = fit(ObservedMatrix(positive, mask, Transform.IDENTITY), side, hp)
    r_tr = fit(ObservedMatrix(positive, mask, Transform.NONNEG_TRUNCATION), side, hp)
    identical = (
        r_id.rank == r_tr.rank
        and np.array_equal(r_id.logpost_trace, r_tr.logpost_trace)
        and all(
            np.array_equal(a.u_tilde, b.u_tilde)
            and np.array_equal(a.v_tilde, b.v_tilde)
            and a.eta == b.eta
            for a, b in zip(r_id.contributions, r_tr.contributions)
        )
    )

    base = np.outer(np.abs(rng.standard_normal(n)) + 0.2,
                    np.abs(rng.standard_normal(p)) + 0.2)
    raw = base + 0.8 * rng.standard_normal((n, p)) - 0.4
    values = np.maximum(raw, 0.0)
    zero_frac = float((values == 0).mean())
    data = ObservedMatrix(values, np.ones((n, p), bool), Transform.NONNEG_TRUNCATION)
    violations = [0]
    checks = [0]

    def callback(h, name, state, fitted_prev):
        if name != "latent":
            return
        checks[0] += 1
        pos = values > 0
        zero = values == 0
        if not np.allclose(state.ztilde[pos], (values - fitted_prev)[pos],
                           rtol=0, atol=1e-9):
            violations[0] += 1
        if np.any((fitted_prev + state.ztilde)[zero] > 1e-9):
            violations[0] += 1

    fit(data, side, hp.with_seed(32), inner_callback=callback)
    ok = identical and violations[0] == 0 and checks[0] > 0 and 0.15 < zero_frac < 0.45
    _report(9, ok, f"positive-data fits identical: {identical}; latent "
                   f"invariants checked {checks[0]}x with {violations[0]} "
                   f"violations on {zero_frac:.0%}-zero data")


def test_criterion_10_reproducibility(tmp_path):
    """Identical seeds give bit-identical model files; fit -> predict is
    self-consistent with the fitted values."""
    rng = np.random.default_rng(5)
    values = rng.standard_normal((12, 10)) + 2.0 * np.outer(
        rng.standard_normal(12), rng.standard_normal(10))
    mask = rng.random((12, 10)) > 0.2
    data_path = tmp_path / "data.csv"
    save_matrix(data_path, values, mask)
    cfg = tmp_path / "hp.json"
    cfg.write_text(json.dumps({"alpha": 2.0, "n_restarts": 2,
                               "max_inner_iters": 60, "max_factors": 3}))

    def run(tag):
        out = tmp_path / tag
        assert main(["fit", "--data", str(data_path), "--config", str(cfg),
                     "--seed", "11", "--out-dir", str(out)]) == 0
        return out

    a, b = run("a"), run("b")
    model_files = ["manifest.json", "u_tilde.csv", "psi_tilde.csv", "beta.csv",
                   "v_tilde.csv", "phi_tilde.csv", "gamma.csv", "theta.csv",
                   "fitted.csv", "contributions.csv", "rank.txt",
                   "logpost_trace.csv", "latent_residual.csv"]
    identical = all((a / f).read_bytes() == (b / f).read_bytes() for f in model_files)

    mask_path = tmp_path / "m.csv"
    save_matrix(mask_path, (~mask).astype(float))
    pred_path = tmp_path / "pred.csv"
    assert main(["predict", "--model", str(a), "--mask", str(mask_path),
                 "--out", str(pred_path)]) == 0
    fitted = load_matrix(a / "fitted.csv").values
    consistent = True
    for line in pred_path.read_text().strip().splitlines()[1:]:
        i, j, val = line.split(",")
        if abs(float(val) - fitted[int(i), int(j)]) > 1e-12 * max(1.0, abs(fitted[int(i), int(j)])):
            consistent = False
    ok = identical and consistent
    _report(10, ok, f"model files bit-identical: {identical}; "
                    f"predict matches fitted values: {consistent}")
