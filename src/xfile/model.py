"""Data model, link function, marginal Student-t loss, and log prior.

The observed matrix Y is a cellwise transform of a latent Gaussian matrix Z
whose mean is a sum of rank-one contributions

    c_hij = frelu(x_i' beta_h) * psi_ih * u_ih
          * frelu(w_j' gamma_h) * phi_jh * v_hj * eta_h * rho_h,

with covariates x_i attached to rows and metacovariates w_j attached to
columns.  Integrating the per-cell error variances against their Gamma prior
leaves a Student-t loss per cell, so no variance matrix is ever represented.

Scale convention: the column loadings enter the posterior through the scaled
vector ``vstar = v_tilde * eta`` with prior N(0, eta^2 I) and an inverse-gamma
prior on eta^2.  This is the parameterization under which the eta^2 update of
the optimizer is an exact conditional mode, and it keeps the coordinate
ascent monotone; it differs from a unit-normal prior on ``v_tilde`` alone by
the change-of-variables term ``-p*log(eta)``.
"""

from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from math import lgamma, log, pi as PI
import warnings

import numpy as np

from .shrinkage import ShrinkageParams, _check_numbers, prob_active

__all__ = [
    "Transform",
    "ObservedMatrix",
    "SideInfo",
    "HyperParams",
    "hyperparams_from_dict",
    "hyperparams_to_dict",
    "FactorContribution",
    "FitResult",
    "frelu",
    "cell_marginal_loglik",
    "log_prior_contribution",
    "materialize",
    "loading_matrix",
    "similarity_matrix",
]

LOG_2PI = log(2.0 * PI)


class Transform(str, Enum):
    """Cellwise observation transform linking latent values to data."""

    IDENTITY = "identity"
    NONNEG_TRUNCATION = "nonneg"


@dataclass(frozen=True)
class ObservedMatrix:
    """n x p data values with an observation mask and a transform tag.

    ``mask[i, j]`` is True for observed cells; values at masked-out cells are
    ignored (and may be NaN).  Under the nonnegative truncation transform all
    observed values must be >= 0.
    """

    values: np.ndarray
    mask: np.ndarray
    transform: Transform = Transform.IDENTITY

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-d, got shape {values.shape}")
        if mask.shape != values.shape:
            raise ValueError(f"mask shape {mask.shape} != values shape {values.shape}")
        if not mask.any():
            raise ValueError("observation mask has no observed cells")
        observed = values[mask]
        if not np.all(np.isfinite(observed)):
            raise ValueError("observed values contain non-finite entries")
        if self.transform == Transform.NONNEG_TRUNCATION and np.any(observed < 0):
            raise ValueError("nonnegative-truncation data has observed values < 0")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True)
class SideInfo:
    """Row covariates x (n x q_x) and column metacovariates w (p x q_w).

    The first column of each matrix is the all-ones intercept; use
    :meth:`intercept_only` when no side information is available.
    """

    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        w = np.asarray(self.w, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "w", w)
        for name, m in (("x", x), ("w", w)):
            if m.ndim != 2 or m.shape[1] < 1:
                raise ValueError(f"{name} must be 2-d with at least one column")
            if not np.all(m[:, 0] == 1.0):
                raise ValueError(f"first column of {name} must be identically 1")
            if not np.all(np.isfinite(m)):
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def q_x(self) -> int:
        return self.x.shape[1]

    @property
    def q_w(self) -> int:
        return self.w.shape[1]

    @staticmethod
    def intercept_only(n: int, p: int) -> "SideInfo":
        return SideInfo(x=np.ones((n, 1)), w=np.ones((p, 1)))


@dataclass(frozen=True)
class HyperParams:
    """Fixed prior constants and algorithm controls.

    ``a_sigma, b_sigma`` shape the per-cell error-precision Gamma prior (the
    induced cell loss is Student-t with 2*a_sigma degrees of freedom);
    ``a_eta, b_eta`` shape the inverse-gamma prior on the squared factor
    scale; ``zeta_n, zeta_p`` are the Bernoulli activation rates of the
    row/column sparsity flags; ``eps_frelu`` is the link offset.
    """

    a_sigma: float = 1.0
    b_sigma: float = 1.0
    a_eta: float = 2.0
    b_eta: float = 1.0
    shrink: ShrinkageParams = field(default_factory=lambda: ShrinkageParams(alpha=5.0, delta=0.0))
    zeta_n: float = 0.25
    zeta_p: float = 0.25
    eps_frelu: float = 0.0
    max_factors: int = 20
    tol: float = 1e-8
    max_inner_iters: int = 500
    n_restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        _check_numbers(
            self, ("max_factors", "max_inner_iters", "n_restarts", "seed"),
            ("a_sigma", "b_sigma", "a_eta", "b_eta", "zeta_n", "zeta_p", "eps_frelu", "tol"),
        )
        for name in ("a_sigma", "b_sigma", "a_eta", "b_eta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("zeta_n", "zeta_p"):
            z = getattr(self, name)
            if not (0.0 < z < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {z}")
        if self.eps_frelu < 0:
            raise ValueError(f"eps_frelu must be >= 0, got {self.eps_frelu}")
        if self.max_factors < 1 or self.max_inner_iters < 1 or self.n_restarts < 1:
            raise ValueError("max_factors, max_inner_iters and n_restarts must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.b_eta > self.a_eta:
            warnings.warn(
                f"b_eta={self.b_eta} > a_eta={self.a_eta}: the scale prior places "
                "little mass on (0, 1), which weakens shrinkage",
                RuntimeWarning,
            )

    def with_seed(self, seed: int) -> "HyperParams":
        return replace(self, seed=seed)


def hyperparams_from_dict(raw: dict) -> HyperParams:
    """HyperParams from the flat JSON form, where 'alpha'/'delta' stand for
    the shrinkage pair."""
    raw = dict(raw)
    shrink = ShrinkageParams(alpha=raw.pop("alpha", 5.0), delta=raw.pop("delta", 0.0))
    unknown = set(raw) - {f.name for f in fields(HyperParams) if f.name != "shrink"}
    if unknown:
        raise ValueError(f"unknown hyperparameter keys: {sorted(unknown)}")
    return HyperParams(shrink=shrink, **raw)


def hyperparams_to_dict(hp: HyperParams) -> dict:
    """The flat JSON form of ``hp`` read by :func:`hyperparams_from_dict`."""
    d = asdict(hp)
    shrink = d.pop("shrink")
    d["alpha"], d["delta"] = shrink["alpha"], shrink["delta"]
    return d


@dataclass(frozen=True)
class FactorContribution:
    """Parameters of one rank-one term.

    ``psi_tilde`` / ``phi_tilde`` are 0/1 sparsity flags stored as floats;
    ``rho`` switches the whole contribution on or off (theta = rho * eta).
    """

    u_tilde: np.ndarray
    psi_tilde: np.ndarray
    beta: np.ndarray
    v_tilde: np.ndarray
    phi_tilde: np.ndarray
    gamma: np.ndarray
    eta: float
    rho: int = 1

    def __post_init__(self):
        for name in ("u_tilde", "psi_tilde", "beta", "v_tilde", "phi_tilde", "gamma"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not self.eta > 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.rho not in (0, 1):
            raise ValueError(f"rho must be 0 or 1, got {self.rho}")
        for name in ("psi_tilde", "phi_tilde"):
            flags = getattr(self, name)
            if not np.all((flags == 0.0) | (flags == 1.0)):
                raise ValueError(f"{name} entries must be 0 or 1")
        if self.u_tilde.shape != self.psi_tilde.shape or self.v_tilde.shape != self.phi_tilde.shape:
            raise ValueError("loading and flag vectors must have matching shapes")

    def row_factor(self, side: SideInfo, eps: float) -> np.ndarray:
        """Effective row-side factor frelu(x'beta) * psi * u, shape (n,)."""
        return frelu(side.x @ self.beta, eps) * self.psi_tilde * self.u_tilde

    def col_factor(self, side: SideInfo, eps: float) -> np.ndarray:
        """Effective column-side factor frelu(w'gamma) * phi * v, shape (p,)."""
        return frelu(side.w @ self.gamma, eps) * self.phi_tilde * self.v_tilde

    def cells(self, side: SideInfo, eps: float) -> np.ndarray:
        """Materialized n x p contribution (zero matrix when rho = 0)."""
        scale = self.rho * self.eta
        rows, cols = self.row_factor(side, eps), self.col_factor(side, eps)
        return scale * (rows[:, None] * cols[None, :])

    def flip_signs(self) -> "FactorContribution":
        return replace(self, u_tilde=-self.u_tilde, v_tilde=-self.v_tilde)


@dataclass(frozen=True)
class FitResult:
    """Accepted contributions in fitting order plus diagnostics.

    ``logpost_trace`` concatenates the per-sub-iteration log-posterior of
    the winning restart of each accepted factor; ``trace_factors`` gives the
    1-based factor index of each entry.  ``latent_residual`` is the final
    Gaussian residual (zero at unobserved cells), or None for a loaded model
    whose directory holds none.
    """

    contributions: tuple
    logpost_trace: np.ndarray
    trace_factors: np.ndarray
    latent_residual: np.ndarray

    @property
    def rank(self) -> int:
        return len(self.contributions)


def frelu(t, eps: float = 0.0):
    """Shifted rectifier ``max(t, 0) + eps``; accepts scalars or arrays."""
    return np.maximum(t, 0.0) + eps


def cell_marginal_loglik(residual, a_sigma: float, b_sigma: float):
    """Per-cell data loss after integrating out the error variance.

    ``-(a_sigma + 1/2) * log(1 + residual^2 / (2 b_sigma))``; zero at a
    perfect fit and strictly decreasing in |residual|.  Vectorized.
    """
    if a_sigma <= 0 or b_sigma <= 0:
        raise ValueError("a_sigma and b_sigma must be > 0")
    r = np.array(residual, dtype=float)
    out = -(a_sigma + 0.5) * _log1p_sq(r, 2.0 * b_sigma, out=r)
    return float(out) if np.isscalar(residual) else out


def _log1p_sq(r: np.ndarray, two_b: float, out=None) -> np.ndarray:
    """log1p(r * r / 2 b_sigma), the cell loss over -(a_sigma + 1/2), into ``out``."""
    out = np.multiply(r, r, out=out)
    return np.log1p(np.divide(out, two_b, out=out), out=out)


def _log_invgamma(x: float, shape: float, rate: float) -> float:
    # density of eta^2 when 1/eta^2 ~ Gamma(shape, rate)
    if x <= 0:
        raise ValueError(f"inverse-gamma argument must be > 0, got {x}")
    return shape * log(rate) - lgamma(shape) - (shape + 1.0) * log(x) - rate / x


def _log_normal_quad(x: np.ndarray, mean: np.ndarray | float, var: float) -> float:
    d = x - mean
    return float(-0.5 * d.size * (LOG_2PI + log(var)) - 0.5 * (d * d).sum() / var)


def _log_bernoulli(flags: np.ndarray, rate: float) -> float:
    n_on = float(flags.sum())
    return n_on * log(rate) + (flags.size - n_on) * log(1.0 - rate)


def beta_prior_mean(q: int, eps: float) -> np.ndarray:
    """Prior mean (1 - eps, 0, ..., 0) of a coefficient vector of length q."""
    mu = np.zeros(q)
    mu[0] = 1.0 - eps
    return mu


def log_prior_contribution(
    c: FactorContribution,
    side: SideInfo,
    hp: HyperParams,
    h: int,
) -> float:
    """Log prior density of one contribution's parameters (factor index h).

    Sums unit-normal terms on the row loadings, Bernoulli masses on both
    flag vectors, normal terms on beta and gamma around (1 - eps, 0, ...),
    the N(0, eta^2) density of the scaled column loadings vstar = v * eta,
    and the inverse-gamma density of eta^2, plus the log prior activation
    mass of rho.
    """
    total = _log_prior(
        c.u_tilde, c.psi_tilde, c.beta, c.v_tilde, c.phi_tilde, c.gamma, c.eta,
        beta_prior_mean(side.q_x, hp.eps_frelu), beta_prior_mean(side.q_w, hp.eps_frelu), hp,
    )
    q_h = prob_active(h, hp.shrink)
    return total + (log(q_h) if c.rho == 1 else log(1.0 - q_h))


def _log_prior(u, psi, beta, v, phi, gamma, eta: float, mu_b, mu_g, hp: HyperParams) -> float:
    """Log prior of one contribution's parameter arrays, activation excluded;
    ``mu_b``/``mu_g`` are the coefficient prior means."""
    eta2 = eta**2
    return (
        _log_normal_quad(u, 0.0, 1.0)
        + _log_bernoulli(psi, hp.zeta_n)
        + _log_normal_quad(v * eta, 0.0, eta2)
        + _log_bernoulli(phi, hp.zeta_p)
        + _log_normal_quad(beta, mu_b, 1.0)
        + _log_normal_quad(gamma, mu_g, 1.0)
        + _log_invgamma(eta2, hp.a_eta, hp.b_eta)
    )


def materialize(contributions, side: SideInfo, eps: float = 0.0) -> np.ndarray:
    """Sum of the materialized contributions; empty input gives zeros."""
    n, p = side.x.shape[0], side.w.shape[0]
    total = np.zeros((n, p))
    for c in contributions:
        total += c.cells(side, eps)
    return total


def loading_matrix(fit: FitResult, side: SideInfo, eps: float = 0.0) -> np.ndarray:
    """n x k matrix of effective row loadings frelu(x'beta_h) * psi_ih * u_ih."""
    if fit.rank == 0:
        return np.zeros((side.x.shape[0], 0))
    return np.column_stack([c.row_factor(side, eps) for c in fit.contributions])


def similarity_matrix(
    fit: FitResult, side: SideInfo, eps: float = 0.0, squared_scale: bool = False
) -> np.ndarray:
    """Full n x n Gaussian kernel similarity matrix of the row loadings.

    Entry (i, l) is ``exp(-0.5 * sum_h (U_ih - U_lh)^2 / s_h)`` with U the
    :func:`loading_matrix` and s_h = theta_h by default, or theta_h^2 with
    ``squared_scale``.  Every factor must be active (rho_h = 1), since an
    inactive one has theta_h = 0.
    """
    if fit.rank < 1:
        raise ValueError("similarity matrix requires at least one fitted factor")
    for h, c in enumerate(fit.contributions, 1):
        if c.rho == 0:
            raise ValueError(f"similarity matrix: factor {h} is inactive (rho = 0)")
    U = loading_matrix(fit, side, eps)
    theta = np.array([c.eta for c in fit.contributions])
    scale = theta**2 if squared_scale else theta
    Us = U / np.sqrt(scale)
    sq = np.sum(Us * Us, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (Us @ Us.T)
    np.maximum(d2, 0.0, out=d2)
    return np.exp(-0.5 * d2)
