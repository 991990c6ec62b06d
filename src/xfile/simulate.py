"""Synthetic benchmark harness: data generation, hold-out RMSE, baselines.

Generates low-rank matrices whose loadings depend on covariates either
additively (Gaussian loadings centered at a linear score) or
multiplicatively (zero-mean loadings scaled by a rectified linear score),
hides a random subset of cells, fits both the stage-wise factorization and
a row/column-intercept benchmark on the rest, and scores predictions on the
hidden cells.

Conventions the scenario grid leaves open are fixed here and recorded in
the report headers: covariate columns alternate Bernoulli(0.5) and standard
normal before the intercept column is prepended, and per-factor coefficient
vectors are standard normal.
"""

import csv
import io
import json
import time
import warnings
from dataclasses import asdict, dataclass, replace
from itertools import product
from numbers import Real

import numpy as np

from .model import (HyperParams, ObservedMatrix, SideInfo, Transform, frelu,
                    hyperparams_to_dict)
from .optimizer import fit, predict_matrix
from .shrinkage import _check_numbers

__all__ = [
    "ScenarioSpec",
    "generate",
    "rmse",
    "fit_baseline",
    "baseline_predict",
    "ReplicateRecord",
    "ExperimentReport",
    "run_experiment",
    "run_grid_search",
]

DGP_ADDITIVE = "additive"
DGP_MULTIPLICATIVE = "multiplicative"

LOADING_NOISE_SD = 0.5  # additive loadings have variance 0.25 around the score
BASELINE_TOL = 1e-9
BASELINE_MAX_ITERS = 10_000


@dataclass(frozen=True)
class ScenarioSpec:
    """One synthetic scenario of the benchmark grid.

    ``q_x`` and ``q_w`` count exogenous covariate columns (the intercept is
    prepended on top of them); ``holdout_fraction`` is the share of cells
    hidden from fitting and scored by RMSE.
    """

    n: int = 100
    p: int = 100
    k_true: int = 7
    q_x: int = 5
    q_w: int = 5
    dgp: str = DGP_MULTIPLICATIVE
    holdout_fraction: float = 0.2
    sparsity_fraction: float = 0.75
    noise_sd: float = 1.0
    n_replicates: int = 25
    seed: int = 0

    def __post_init__(self):
        _check_numbers(self, ("n", "p", "k_true", "q_x", "q_w", "n_replicates", "seed"),
                       ("holdout_fraction", "sparsity_fraction", "noise_sd"))
        if min(self.n, self.p, self.k_true, self.q_x, self.q_w, self.n_replicates) < 1:
            raise ValueError("n, p, k_true, q_x, q_w and n_replicates must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.dgp not in (DGP_ADDITIVE, DGP_MULTIPLICATIVE):
            raise ValueError(f"unknown dgp {self.dgp!r}")
        if not (0.0 < self.holdout_fraction < 1.0):
            raise ValueError("holdout_fraction must lie in (0, 1)")
        if round(self.holdout_fraction * self.n * self.p) < 1:
            raise ValueError("holdout_fraction leaves no held-out cells")
        if not (0.0 <= self.sparsity_fraction < 1.0):
            raise ValueError("sparsity_fraction must lie in [0, 1)")
        if not self.noise_sd > 0:
            raise ValueError("noise_sd must be > 0")


def _covariate_block(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Columns alternate Bernoulli(0.5) (even index) and N(0,1) (odd index)."""
    block = np.empty((rows, cols))
    for c in range(cols):
        if c % 2 == 0:
            block[:, c] = rng.integers(0, 2, size=rows).astype(float)
        else:
            block[:, c] = rng.standard_normal(rows)
    return block


def _loadings(design: np.ndarray, k: int, dgp: str, rng: np.random.Generator) -> np.ndarray:
    coef = rng.standard_normal((design.shape[1], k))
    score = design @ coef
    if dgp == DGP_ADDITIVE:
        return score + LOADING_NOISE_SD * rng.standard_normal(score.shape)
    return frelu(score, 0.0) * rng.standard_normal(score.shape)


def _sparsify(loadings: np.ndarray, fraction: float, rng: np.random.Generator) -> np.ndarray:
    """Zeroes each loading entry independently with the given probability."""
    if fraction <= 0:
        return loadings
    return np.where(rng.random(loadings.shape) < fraction, 0.0, loadings)


def generate(
    spec: ScenarioSpec, rng: np.random.Generator
) -> tuple[ObservedMatrix, SideInfo, np.ndarray]:
    """Draws one synthetic data set.

    Returns the observed matrix (held-out cells masked), the side
    information with intercept columns prepended, and the full data matrix
    used as ground truth for hold-out scoring.
    """
    x = np.column_stack([np.ones(spec.n), _covariate_block(spec.n, spec.q_x, rng)])
    w = np.column_stack([np.ones(spec.p), _covariate_block(spec.p, spec.q_w, rng)])
    side = SideInfo(x=x, w=w)

    U = _sparsify(_loadings(x, spec.k_true, spec.dgp, rng), spec.sparsity_fraction, rng)
    V = _sparsify(_loadings(w, spec.k_true, spec.dgp, rng), spec.sparsity_fraction, rng)

    truth = U @ V.T + spec.noise_sd * rng.standard_normal((spec.n, spec.p))

    n_holdout = int(round(spec.holdout_fraction * spec.n * spec.p))
    hidden = rng.choice(spec.n * spec.p, size=n_holdout, replace=False)
    mask = np.ones(spec.n * spec.p, dtype=bool)
    mask[hidden] = False
    observed = ObservedMatrix(
        values=truth, mask=mask.reshape(spec.n, spec.p), transform=Transform.IDENTITY
    )
    return observed, side, truth


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared difference over matching cell collections."""
    predictions = np.asarray(predictions, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if predictions.shape != truth.shape:
        raise ValueError(f"shape mismatch {predictions.shape} vs {truth.shape}")
    if predictions.size == 0:
        raise ValueError("rmse over an empty cell set is undefined")
    return float(np.sqrt(np.mean((predictions - truth) ** 2)))


def fit_baseline(data: ObservedMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares row and column effects y_ij ~ b_u[i] + b_v[j].

    Alternates row/column mean updates over observed cells until the largest
    effect change is below ``BASELINE_TOL``, under the identifiability
    constraint mean(b_v) = 0.  Rows or columns with no observed cells keep
    effect 0.
    """
    values = np.where(data.mask, data.values, 0.0)
    mask = data.mask
    row_cnt = mask.sum(axis=1)
    col_cnt = mask.sum(axis=0)
    row_ok = row_cnt > 0
    col_ok = col_cnt > 0
    b_u = np.zeros(data.shape[0])
    b_v = np.zeros(data.shape[1])
    for _ in range(BASELINE_MAX_ITERS):
        b_u_new = np.where(
            row_ok,
            (values - mask * b_v[None, :]).sum(axis=1) / np.maximum(row_cnt, 1),
            0.0,
        )
        b_v_new = np.where(
            col_ok,
            (values - mask * b_u_new[:, None]).sum(axis=0) / np.maximum(col_cnt, 1),
            0.0,
        )
        shift = b_v_new.mean()
        b_v_new -= shift
        b_u_new = np.where(row_ok, b_u_new + shift, 0.0)
        delta = max(np.abs(b_u_new - b_u).max(), np.abs(b_v_new - b_v).max())
        b_u, b_v = b_u_new, b_v_new
        if delta < BASELINE_TOL:
            break
    return b_u, b_v


def baseline_predict(b_u: np.ndarray, b_v: np.ndarray) -> np.ndarray:
    return b_u[:, None] + b_v[None, :]


@dataclass(frozen=True)
class ReplicateRecord:
    replicate: int
    model: str
    rmse: float
    rank_selected: int
    wall_time_ms: float


@dataclass(frozen=True)
class ExperimentReport:
    spec: ScenarioSpec
    hyper: HyperParams
    records: tuple
    errors: tuple

    def rmses(self, model: str) -> np.ndarray:
        return np.array([r.rmse for r in self.records if r.model == model])

    def summary(self) -> dict:
        out = {}
        for model in ("xfile", "baseline"):
            vals = self.rmses(model)
            if vals.size:
                out[model] = {
                    "median": float(np.median(vals)),
                    "q25": float(np.quantile(vals, 0.25)),
                    "q75": float(np.quantile(vals, 0.75)),
                    "n": int(vals.size),
                }
        return out

    def to_csv(self) -> str:
        buf = io.StringIO()
        for line in self.header_lines():
            buf.write(line + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["replicate", "model", "rmse", "rank_selected", "wall_time_ms"])
        for r in self.records:
            writer.writerow([r.replicate, r.model, f"{r.rmse:.17g}",
                             r.rank_selected, f"{r.wall_time_ms:.3f}"])
        return buf.getvalue()

    def header_lines(self) -> list[str]:
        meta = {
            "scenario": asdict(self.spec),
            "hyper": hyperparams_to_dict(self.hyper),
            "conventions": "covariate columns alternate Bernoulli(0.5)/N(0,1); "
                           "intercept prepended; factor coefficients N(0,1)",
            "errors": list(self.errors),
        }
        return ["# " + json.dumps(meta, sort_keys=True)]


def _draw_replicate(spec: ScenarioSpec, seq: np.random.SeedSequence) -> tuple:
    """``(observed, side, truth, fit_seed)``: data from ``default_rng(seq)``, fit seed from ``seq``."""
    observed, side, truth = generate(spec, np.random.default_rng(seq))
    return observed, side, truth, int(seq.generate_state(1)[0])


def _fit_and_score(replicate: tuple, hp: HyperParams) -> tuple[float, int, float]:
    """Held-out RMSE, rank and fit-and-predict wall ms of ``hp`` under the replicate's fit seed."""
    observed, side, truth, fit_seed = replicate
    heldout = ~observed.mask
    t0 = time.perf_counter()
    result = fit(observed, side, hp.with_seed(fit_seed))
    pred = predict_matrix(result, side, hp.eps_frelu, observed.transform)
    ms = (time.perf_counter() - t0) * 1000.0
    return rmse(pred[heldout], truth[heldout]), result.rank, ms


def run_experiment(spec: ScenarioSpec, hp: HyperParams) -> ExperimentReport:
    """Fits both models on every replicate and scores held-out RMSE.

    Replicates draw independent seed streams from the scenario seed and run
    in order, so reports are reproducible bit for bit; a failing replicate
    is recorded and skipped rather than aborting the run.
    """
    records: list[ReplicateRecord] = []
    errors: list[str] = []
    for idx, seq in enumerate(np.random.SeedSequence(spec.seed).spawn(spec.n_replicates)):
        replicate = _draw_replicate(spec, seq)
        try:
            score, rank, ms = _fit_and_score(replicate, hp)
        except Exception as exc:  # noqa: BLE001 - a failed replicate must not kill the run
            err = f"replicate {idx}: xfile failed: {exc!r}"
            warnings.warn(err, RuntimeWarning)
            errors.append(err)
            continue
        records.append(ReplicateRecord(idx, "xfile", score, rank, ms))
        observed, _, truth, _ = replicate
        heldout = ~observed.mask
        t0 = time.perf_counter()
        b_u, b_v = fit_baseline(observed)
        pred_b = baseline_predict(b_u, b_v)
        ms = (time.perf_counter() - t0) * 1000.0
        records.append(ReplicateRecord(
            idx, "baseline", rmse(pred_b[heldout], truth[heldout]), 0, ms))
    return ExperimentReport(spec=spec, hyper=hp, records=tuple(records), errors=tuple(errors))


def run_grid_search(
    spec: ScenarioSpec,
    hp: HyperParams,
    grid: dict,
) -> tuple[HyperParams, list[dict]]:
    """Selects (alpha, b_sigma, b_eta) by validation RMSE on one extra replicate.

    ``grid`` maps any of "alpha", "b_sigma", "b_eta" to non-empty lists of
    numbers in the parameter's range, or raises ValueError before fitting;
    missing keys keep the incumbent value.  The validation replicate uses a seed stream disjoint
    from the experiment replicates.
    """
    for key, values in grid.items():
        if key not in ("alpha", "b_sigma", "b_eta"):
            raise ValueError(f"unknown grid key {key!r}")
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"grid {key!r} must be a non-empty list, got {values!r}")
        for value in values:
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"grid {key!r} candidates must be numbers, got {value!r}")
    alphas = grid.get("alpha", [hp.shrink.alpha])
    b_sigmas = grid.get("b_sigma", [hp.b_sigma])
    b_etas = grid.get("b_eta", [hp.b_eta])
    # fixed spawn key: keeps the validation stream disjoint from the
    # replicate streams (which use plain spawn) and reproducible
    val_seq = np.random.SeedSequence(spec.seed, spawn_key=(0x5EED,))
    # built first, so that every candidate's range checks run before any fit
    candidates = [
        (alpha, b_sigma, b_eta, replace(
            hp,
            b_sigma=float(b_sigma),
            b_eta=float(b_eta),
            shrink=replace(hp.shrink, alpha=float(alpha)),
        ))
        for alpha, b_sigma, b_eta in product(alphas, b_sigmas, b_etas)
    ]
    replicate = _draw_replicate(spec, val_seq)
    trials = []
    best_hp, best_rmse = hp, np.inf
    for alpha, b_sigma, b_eta, trial_hp in candidates:
        score, rank, _ = _fit_and_score(replicate, trial_hp)
        trials.append({"alpha": alpha, "b_sigma": b_sigma, "b_eta": b_eta,
                       "rmse": score, "rank": rank})
        if score < best_rmse:
            best_rmse, best_hp = score, trial_hp
    return best_hp, trials
