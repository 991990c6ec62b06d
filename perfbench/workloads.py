"""The four seeded workloads: input generation, one timed pass, and checks.

Every workload builds its inputs from the seed alone and hands xfile only
the generated matrices, side information and hyperparameters.  A pass is
what ``wall_s`` times; ``failures`` runs after the timer stops and tests
properties of the model, never exact bits, so that a deliberate change of
results (for example a corrected latent refresh) is not read as a failure.
"""

import hashlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from xfile import io as xio
from xfile import optimizer, shrinkage, simulate
from xfile.model import HyperParams, ObservedMatrix, SideInfo, Transform, materialize
from xfile.shrinkage import ShrinkageParams

# criterion-1 (delta, alpha) cases of the acceptance suite
PRIOR_CASES = ((0.0, 5.0), (0.2, 2.8), (0.4, 0.6), (0.0, 20.0), (0.2, 11.8), (0.4, 3.6))
PRIOR_H_CAP = 150
PRIOR_MEAN_RTOL = 0.02
TRACE_RTOL = 1e-10


@dataclass
class Outcome:
    """What one pass produced, kept for the checks and the fingerprint."""

    result: object
    data: object = None
    side: object = None


def fingerprint_fit(result) -> str:
    """Hash of every number a FitResult carries (rank, trace, contributions)."""
    h = hashlib.sha256()
    h.update(str(result.rank).encode())
    for arr in (result.logpost_trace, result.trace_factors, result.latent_residual):
        h.update(np.ascontiguousarray(arr).tobytes())
    for c in result.contributions:
        for arr in (c.u_tilde, c.psi_tilde, c.beta, c.v_tilde, c.phi_tilde, c.gamma):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.float64(c.eta).tobytes() + bytes([c.rho]))
    return h.hexdigest()


def trace_is_monotone(result) -> bool:
    """The log-posterior never falls within a factor's trace (relative slack)."""
    vals, fids = result.logpost_trace, result.trace_factors
    same = fids[1:] == fids[:-1]
    drop = vals[:-1] - vals[1:]
    slack = TRACE_RTOL * np.maximum(1.0, np.abs(vals[:-1]))
    return bool(np.all(drop[same] <= slack[same]))


def input_seed(seed: int, k: int) -> int:
    """Seed of pass k's inputs within the run seeded by ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _normal_side(n, p, q, rng) -> SideInfo:
    x = np.column_stack([np.ones(n), rng.standard_normal((n, q))])
    w = np.column_stack([np.ones(p), rng.standard_normal((p, q))])
    return SideInfo(x=x, w=w)


class SimulateWorkload:
    """``simulate.run_experiment`` on the criterion-7 scenario."""

    name = "simulate-50"
    noise_sd = 1.0

    def __init__(self, tiny: bool):
        self.n = 12 if tiny else 50
        self.replicates = 1 if tiny else 12
        # criterion 7's settings, except that every inner run spends its
        # whole budget (tol = 1e-12, 40 iterations after warm-up) and a
        # replicate tries at most two factors (two unless it rejects the
        # first): its work then hardly depends on its data, which with
        # criterion 7's settings moved wall_s by a quarter between seeds
        self.hp = HyperParams(
            a_sigma=1.0, b_sigma=1.0, a_eta=2.0, b_eta=1.0,
            shrink=ShrinkageParams(5.0, 0.0), zeta_n=0.1, zeta_p=0.1,
            max_factors=2, tol=1e-12,
            max_inner_iters=5 if tiny else 40, n_restarts=1 if tiny else 4, seed=0,
        )

    def shapes(self):
        return [(self.n, self.n)]

    def setup(self, seed: int, k: int, workdir: Path):
        return simulate.ScenarioSpec(
            n=self.n, p=self.n, k_true=3, q_x=5, q_w=5, dgp="multiplicative",
            holdout_fraction=0.2, sparsity_fraction=0.25, noise_sd=self.noise_sd,
            n_replicates=self.replicates, seed=input_seed(seed, k),
        )

    def run(self, spec, outdir: Path) -> Outcome:
        return Outcome(result=simulate.run_experiment(spec, self.hp))

    def operations(self, spec) -> int:
        return spec.n_replicates

    def failures(self, spec, out: Outcome, outdir: Path) -> int:
        """Errored replicates; every replicate fails when the median RMSE
        breaks criterion 7's rule (below 1.5 x the noise sd)."""
        report = out.result
        rmses = report.rmses("xfile")
        if rmses.size == 0 or not np.median(rmses) < 1.5 * self.noise_sd:
            return spec.n_replicates
        return len(report.errors)

    def rmse(self, spec, out: Outcome) -> float:
        return float(np.median(out.result.rmses("xfile")))

    def fingerprint(self, out: Outcome) -> str:
        rows = [(r.replicate, r.model, r.rmse.hex(), r.rank_selected) for r in out.result.records]
        return hashlib.sha256(repr((rows, out.result.errors)).encode()).hexdigest()


@dataclass
class FitInputs:
    data_csv: Path
    x_csv: Path
    w_csv: Path
    values: np.ndarray
    truth: np.ndarray
    n: int
    p: int
    seed: int


class FitWorkload:
    """The ``xfile fit`` path as library calls: CSV in, model directory out."""

    name = "fit-800x400"
    rank = 3

    def __init__(self, tiny: bool):
        self.n, self.p = (60, 30) if tiny else (800, 400)
        self.q = 2 if tiny else 5
        # one restart and a five-iteration budget keep every inner run
        # budget-bound, so the iteration count (3 x (40 warm-up + 5)) does
        # not depend on the seed; max_factors = 3 keeps the pass to the
        # three planted factors
        self.hp = HyperParams(
            a_sigma=1.0, b_sigma=0.5, a_eta=2.0, b_eta=1.0,
            shrink=ShrinkageParams(5.0, 0.0), zeta_n=0.25, zeta_p=0.25,
            max_factors=self.rank, tol=1e-8, max_inner_iters=5, n_restarts=1, seed=0,
        )

    def shapes(self):
        return [(self.n, self.p)]

    def setup(self, seed: int, k: int, workdir: Path) -> FitInputs:
        """Strong rank-3 data whose per-cell signal matches the 50 x 50
        criterion-6 instance, written to CSV like a user's input files.

        Covariates are standard normal: with the acceptance suite's
        Bernoulli columns about one initial draw in two hundred leaves every
        rectifier score negative, which kills a single-restart candidate.
        """
        seed = input_seed(seed, k)
        rng = np.random.default_rng(seed)
        n, p, q = self.n, self.p, self.q
        side = _normal_side(n, p, q, rng)
        strength = np.sqrt(n * p / 2500.0)
        truth = np.zeros((n, p))
        for s in (25.0, 20.0, 15.0):
            u = v = np.zeros(1)
            while not (np.any(u) and np.any(v)):  # redraw a factor the rectifier zeroes out
                u = np.maximum(side.x @ rng.standard_normal(q + 1), 0.0) * rng.standard_normal(n)
                v = np.maximum(side.w @ rng.standard_normal(q + 1), 0.0) * rng.standard_normal(p)
            truth += strength * s * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
        values = truth + 0.1 * rng.standard_normal((n, p))
        inputs = FitInputs(workdir / "y.csv", workdir / "x.csv", workdir / "w.csv",
                           values, truth, n, p, seed)
        xio.save_matrix(inputs.data_csv, values)
        xio.save_matrix(inputs.x_csv, side.x[:, 1:])
        xio.save_matrix(inputs.w_csv, side.w[:, 1:])
        return inputs

    def run(self, inp: FitInputs, outdir: Path) -> Outcome:
        data = xio.load_matrix(inp.data_csv)
        side = xio.load_side_info(inp.x_csv, inp.w_csv, inp.n, inp.p)
        hp = self.hp.with_seed(inp.seed)
        result = optimizer.fit(data, side, hp)
        xio.save_model(outdir, result, side, data.transform, hp.eps_frelu)
        xio.write_fit_outputs(outdir, result, side, data.transform, hp.eps_frelu)
        return Outcome(result=result, data=data, side=side)

    def operations(self, inp) -> int:
        return 1

    def failures(self, inp: FitInputs, out: Outcome, outdir: Path) -> int:
        """Rank 3, a non-decreasing trace, exact CSV round trips of the
        input and of the saved fitted values."""
        result = out.result
        pred = optimizer.predict_matrix(result, out.side, self.hp.eps_frelu, out.data.transform)
        saved = np.loadtxt(outdir / "fitted.csv", delimiter=",", ndmin=2)
        ok = (
            result.rank == self.rank
            and trace_is_monotone(result)
            and np.array_equal(out.data.values, inp.values)
            and np.array_equal(pred, saved)
        )
        return 0 if ok else 1

    def rmse(self, inp: FitInputs, out: Outcome) -> float:
        pred = optimizer.predict_matrix(out.result, out.side, self.hp.eps_frelu, out.data.transform)
        return float(np.sqrt(np.mean((pred - inp.truth) ** 2)))

    def fingerprint(self, out: Outcome) -> str:
        return fingerprint_fit(out.result)


@dataclass
class TruncInputs:
    data: object
    side: SideInfo
    observed_truth: np.ndarray
    seed: int


class TruncWorkload:
    """Truncated fit of a nonnegative intensity map, then the analysis exports."""

    name = "trunc-heatmap"
    zero_share = 0.6

    def __init__(self, tiny: bool):
        self.n, self.grid = (16, (3, 4)) if tiny else (100, (10, 15))
        # tol = 1e-12: every inner run spends its budget, as in simulate-50
        self.hp = HyperParams(
            a_sigma=1.0, b_sigma=0.5, a_eta=2.0, b_eta=1.0,
            shrink=ShrinkageParams(5.0, 0.0), zeta_n=0.25, zeta_p=0.25,
            max_factors=5, tol=1e-12, max_inner_iters=10 if tiny else 30,
            n_restarts=3, seed=0,
        )

    def shapes(self):
        return [(self.n, self.grid[0] * self.grid[1])]

    def setup(self, seed: int, k: int, workdir: Path) -> TruncInputs:
        """Three planted factors: nonnegative row weights times Gaussian
        blobs on the pixel grid, plus noise, shifted so that 60% of the
        cells are exact zeros after truncation."""
        seed = input_seed(seed, k)
        rng = np.random.default_rng(seed)
        rows, cols = self.grid
        n, p = self.n, rows * cols
        gy, gx = np.divmod(np.arange(p), cols)
        truth = np.zeros((n, p))
        for _ in range(3):
            cy, cx = rng.uniform(0, rows), rng.uniform(0, cols)
            width = rng.uniform(1.5, 3.0)
            blob = np.exp(-((gy - cy) ** 2 + (gx - cx) ** 2) / (2.0 * width**2))
            weights = rng.gamma(2.0, 1.0, n) * (rng.random(n) < 0.7)
            truth += 3.0 * np.outer(weights, blob)
        latent = truth + 0.3 * rng.standard_normal((n, p))
        shift = np.quantile(latent, self.zero_share)
        coords = np.column_stack([gy, gx]).astype(float)
        side = SideInfo(
            x=np.column_stack([np.ones(n), rng.standard_normal((n, 2))]),
            w=np.column_stack([np.ones(p), (coords - coords.mean(0)) / coords.std(0)]),
        )
        data = ObservedMatrix(np.maximum(latent - shift, 0.0), np.ones((n, p), dtype=bool),
                              Transform.NONNEG_TRUNCATION)
        return TruncInputs(data, side, np.maximum(truth - shift, 0.0), seed)

    def run(self, inp: TruncInputs, outdir: Path) -> Outcome:
        result = optimizer.fit(inp.data, inp.side, self.hp.with_seed(inp.seed))
        xio.export_analysis(result, inp.side, outdir, self.hp.eps_frelu, *self.grid)
        return Outcome(result=result, data=inp.data, side=inp.side)

    def operations(self, inp) -> int:
        return 1

    def failures(self, inp: TruncInputs, out: Outcome, outdir: Path) -> int:
        """Latent invariants on the final residual (positive cells pinned,
        latent <= 0 at observed zeros) and one PGM map per factor."""
        result, values = out.result, inp.data.values
        latent = result.latent_residual + materialize(result.contributions, inp.side,
                                                      self.hp.eps_frelu)
        pos, zero = values > 0, values == 0
        ok = (
            np.allclose(latent[pos], values[pos], rtol=0.0, atol=1e-9)
            and np.all(latent[zero] <= 1e-9)
            and all((outdir / f"archetype_{h}.pgm").is_file()
                    for h in range(1, result.rank + 1))
        )
        return 0 if ok else 1

    def rmse(self, inp: TruncInputs, out: Outcome) -> float:
        pred = optimizer.predict_matrix(out.result, inp.side, self.hp.eps_frelu,
                                        inp.data.transform)
        return float(np.sqrt(np.mean((pred - inp.observed_truth) ** 2)))

    def fingerprint(self, out: Outcome) -> str:
        return fingerprint_fit(out.result)


class PriorWorkload:
    """Monte Carlo of the prior rank on the six criterion-1 cases."""

    name = "prior-mc"

    def __init__(self, tiny: bool):
        self.draws = 20_000 if tiny else 100_000

    def shapes(self):
        return []

    def setup(self, seed: int, k: int, workdir: Path):
        seqs = np.random.SeedSequence(input_seed(seed, k)).spawn(len(PRIOR_CASES))
        cases = []
        for (delta, alpha), seq in zip(PRIOR_CASES, seqs):
            params = ShrinkageParams(alpha, delta)
            cases.append((params, min(shrinkage.default_truncation(params), PRIOR_H_CAP), seq))
        return cases

    def run(self, cases, outdir: Path) -> Outcome:
        samples = []
        with warnings.catch_warnings():
            # a capped truncation warns by design; the tail term keeps the mean exact
            warnings.simplefilter("ignore", RuntimeWarning)
            for params, H, seq in cases:
                samples.append(shrinkage.simulate_prior_ranks(
                    params, H, self.draws, np.random.default_rng(seq)))
        return Outcome(result=samples)

    def variates(self, cases) -> int:
        return sum(self.draws * H for _, H, _ in cases)

    def operations(self, cases) -> int:
        return len(cases)

    def failures(self, cases, out: Outcome, outdir: Path) -> int:
        """Cases whose Monte Carlo mean misses expected_rank by 2% or more."""
        bad = 0
        for (params, _, _), sample in zip(cases, out.result):
            target = shrinkage.expected_rank(params)
            bad += not abs(sample.mean - target) < PRIOR_MEAN_RTOL * target
        return bad

    def rmse(self, cases, out: Outcome) -> float:
        """RMS gap between simulated and exact activation probabilities,
        pooled over every case and factor index."""
        gaps = [
            sample.activation_freq
            - np.array([shrinkage.prob_active(h, params) for h in range(1, H + 1)])
            for (params, H, _), sample in zip(cases, out.result)
        ]
        return float(np.sqrt(np.mean(np.concatenate(gaps) ** 2)))

    def fingerprint(self, out: Outcome) -> str:
        h = hashlib.sha256()
        for sample in out.result:
            h.update(sample.k.tobytes() + sample.activation_freq.tobytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (SimulateWorkload, FitWorkload, TruncWorkload, PriorWorkload)}
