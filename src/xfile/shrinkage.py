"""Stick-breaking prior on the number of active rank-one factors.

The factor scales theta_h = rho_h * eta_h are switched off by Bernoulli
indicators rho_h whose deactivation probability pi_h increases with the
factor index h.  The pi_h are built by a two-parameter stick-breaking
construction (concentration ``alpha``, discount ``delta``):

    pi_h = sum_{l<=h} varpi_l,   varpi_l = omega_l * prod_{m<l} (1 - omega_m),
    omega_m ~ Beta(1 - delta, alpha + delta * m).

This module provides exact activation probabilities Pr(rho_h = 1), the
closed-form expected number of active factors, and Monte Carlo simulation
of the induced distribution of k = sum_h rho_h.
"""

from dataclasses import dataclass
from math import lgamma, log, exp, inf
from numbers import Integral, Real
import warnings

import numpy as np

__all__ = [
    "ShrinkageParams",
    "prob_active",
    "activation_tail",
    "expected_rank",
    "default_truncation",
    "PriorRankSample",
    "simulate_prior_ranks",
    "simulate_rank_pmf",
]

TRUNCATION_CAP = 10_000
TAIL_MASS_TARGET = 1e-4


def _check_numbers(obj, counts: tuple, reals: tuple) -> None:
    """Raises ValueError naming a non-integer count or non-numeric real (bools are neither)."""
    for names, kind, what in ((counts, Integral, "an integer"), (reals, Real, "a number")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ShrinkageParams:
    """Concentration/discount pair of the stick-breaking construction.

    Requires ``delta in [0, 1)`` and ``alpha > -delta``.
    """

    alpha: float
    delta: float = 0.0

    def __post_init__(self):
        _check_numbers(self, (), ("alpha", "delta"))
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if not self.alpha > -self.delta:
            raise ValueError(
                f"alpha must exceed -delta, got alpha={self.alpha}, delta={self.delta}"
            )


def prob_active(h: int, params: ShrinkageParams) -> float:
    """Exact marginal probability that factor h is active, Pr(rho_h = 1).

    Equals ``(alpha / (1 + alpha))**h`` for delta = 0 and a ratio of Gamma
    functions otherwise; the latter is evaluated through log-gamma
    differences so large h stay finite.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    a, d = params.alpha, params.delta
    if d == 0.0:
        return exp(h * (log(a) - log(1.0 + a)))
    return exp(
        lgamma(h + 1.0 + a / d)
        + lgamma((1.0 + a) / d)
        - lgamma(h + (1.0 + a) / d)
        - lgamma(1.0 + a / d)
    )


def activation_tail(params: ShrinkageParams, H: int) -> float:
    """Closed form of ``sum_{h > H} prob_active(h)``; H = 0 gives the full sum.

    For delta > 0 the partial sums telescope:

        sum_{h>H} G(h+1+a/d) / G(h+(1+a)/d)
            = G(H+2+a/d) / G(H+(1+a)/d) * d / (1-2d),

    valid for delta < 1/2.  Returns +inf for delta >= 1/2 (divergent series).
    """
    if H < 0:
        raise ValueError(f"H must be >= 0, got {H}")
    a, d = params.alpha, params.delta
    if d >= 0.5:
        return inf
    if d == 0.0:
        r = a / (1.0 + a)
        return r ** (H + 1) / (1.0 - r)
    return exp(
        lgamma((1.0 + a) / d)
        - lgamma(1.0 + a / d)
        + lgamma(H + 2.0 + a / d)
        - lgamma(H + (1.0 + a) / d)
        + log(d)
        - log(1.0 - 2.0 * d)
    )


def expected_rank(params: ShrinkageParams) -> float:
    """Expected number of active factors: (alpha + delta) / (1 - 2*delta).

    Returns +inf for delta in [1/2, 1), where the count has no finite mean.
    """
    if params.delta >= 0.5:
        return inf
    return (params.alpha + params.delta) / (1.0 - 2.0 * params.delta)


def default_truncation(params: ShrinkageParams) -> int:
    """Smallest H whose remaining activation mass is below ``TAIL_MASS_TARGET``.

    Capped at ``TRUNCATION_CAP`` so heavy-tailed settings (large delta)
    cannot demand unbounded truncations; the simulators compensate the
    remainder with an analytic tail term.
    """
    if activation_tail(params, TRUNCATION_CAP) >= TAIL_MASS_TARGET:
        return TRUNCATION_CAP
    lo, hi = 0, TRUNCATION_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if activation_tail(params, mid) < TAIL_MASS_TARGET:
            hi = mid
        else:
            lo = mid + 1
    return max(lo, 1)


@dataclass(frozen=True)
class PriorRankSample:
    """Monte Carlo draws of the number of active factors.

    ``activation_freq[h-1]`` is the empirical frequency of rho_h = 1 for
    h <= H.  ``tail_rate`` is the conditional expected number of activations
    beyond the truncation per unit of remaining stick mass (0 when the tail
    is dropped).
    """

    k: np.ndarray
    activation_freq: np.ndarray
    H: int
    tail_rate: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.k))

    def pmf(self) -> tuple[np.ndarray, np.ndarray]:
        ks = np.arange(int(self.k.max()) + 1)
        probs = np.bincount(self.k.astype(int)) / self.k.size
        return ks, probs


def simulate_prior_ranks(
    params: ShrinkageParams,
    H: int,
    n_draws: int,
    rng: np.random.Generator,
) -> PriorRankSample:
    """Samples k = sum_h rho_h with rho_h ~ Bernoulli(1 - pi_h) given sticks.

    Uses the identity 1 - pi_h = prod_{m<=h}(1 - omega_m) (remaining stick
    mass), so each draw costs H Beta variates, or H exponential ones when
    delta = 0, where the remaining mass is exp(-sum_{m<=h} E_m / alpha).
    Activations beyond H are, conditionally on the remaining mass R_H, a
    thinned point process with expected count R_H * c(H) where c(H) =
    activation_tail(H) / prob_active(H); when delta < 1/2 they are drawn
    from the matching Poisson law, which keeps the mean of k exact under
    truncation.  Warns when the activation mass beyond H is at least
    ``TAIL_MASS_TARGET``, the bound :func:`default_truncation` meets unless capped.
    """
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    if H < 1:
        raise ValueError(f"H must be >= 1, got {H}")
    q_H = prob_active(H, params)
    tail = activation_tail(params, H)
    if tail >= TAIL_MASS_TARGET:
        warnings.warn(
            f"truncation H={H} may be insufficient: activation mass beyond H = {tail:.3g} "
            f">= {TAIL_MASS_TARGET:g}"
            + ("" if params.delta < 0.5 else " and no tail correction applies"),
            RuntimeWarning,
        )
    tail_rate = 0.0
    if params.delta < 0.5 and q_H > 0.0:
        tail_rate = tail / q_H

    m = np.arange(1, H + 1, dtype=float)
    a_beta = 1.0 - params.delta
    b_beta = params.alpha + params.delta * m

    k = np.empty(n_draws, dtype=np.int64)
    act_counts = np.zeros(H, dtype=np.int64)
    chunk = max(1, min(n_draws, int(4_000_000 / H)))
    done = 0
    while done < n_draws:
        size = min(chunk, n_draws - done)
        # remaining[:, h - 1] = 1 - pi_h per draw, computed in place
        if params.delta == 0.0:
            # 1 - omega ~ Beta(alpha, 1) is exactly exp(-E / alpha), E ~ Exp(1)
            remaining = rng.standard_exponential((size, H))
            np.cumsum(remaining, axis=1, out=remaining)
            np.exp(np.divide(remaining, -params.alpha, out=remaining), out=remaining)
        else:
            remaining = rng.beta(a_beta, b_beta, size=(size, H))
            np.cumprod(np.subtract(1.0, remaining, out=remaining), axis=1, out=remaining)
        rho = rng.random((size, H)) < remaining
        act_counts += rho.sum(axis=0)
        k_chunk = rho.sum(axis=1)
        if tail_rate > 0.0:
            k_chunk = k_chunk + rng.poisson(remaining[:, -1] * tail_rate)
        k[done : done + size] = k_chunk
        done += size

    return PriorRankSample(
        k=k, activation_freq=act_counts / n_draws, H=H, tail_rate=tail_rate
    )


def simulate_rank_pmf(
    params: ShrinkageParams,
    H: int | None,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Empirical pmf of the number of active factors.

    Args:
        params: stick-breaking parameters.
        H: truncation level; ``None`` selects :func:`default_truncation`.
        n_draws: number of Monte Carlo draws.
        rng: numpy random generator.

    Returns:
        (values of k, estimated probabilities).
    """
    if H is None:
        H = default_truncation(params)
    return simulate_prior_ranks(params, H, n_draws, rng).pmf()
