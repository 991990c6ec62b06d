"""Stick-breaking prior on the number of active rank-one factors.

The factor scales theta_h = rho_h * eta_h are switched off by Bernoulli
indicators rho_h whose deactivation probability pi_h increases with the
factor index h.  The pi_h are built by a two-parameter stick-breaking
construction (concentration ``alpha``, discount ``delta``):

    pi_h = sum_{l<=h} varpi_l,   varpi_l = omega_l * prod_{m<l} (1 - omega_m),
    omega_m ~ Beta(1 - delta, alpha + delta * m).

This module provides exact activation probabilities Pr(rho_h = 1), the
closed-form expected number of active factors, and Monte Carlo simulation
of the induced distribution of k = sum_h rho_h.  The simulation draws each
remaining share 1 - omega_m as a ratio of gamma variates and runs over
chunks of ``CHUNK_CELLS`` cells held in two preallocated buffers.
"""

from dataclasses import dataclass
from math import log, exp, inf
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
# cells per pass of the Monte Carlo loop: its two float64 buffers (1 MiB) stay in cache
CHUNK_CELLS = 1 << 16
_SMALLEST_DOUBLE = np.nextafter(0.0, 1.0)


def _check_numbers(obj, counts: tuple, reals: tuple) -> None:
    """Raises ValueError naming a non-integer count or a non-numeric or
    non-finite real (bools are neither)."""
    for names, kind, what in ((counts, Integral, "an integer"), (reals, Real, "a finite number")):
        for name in names:
            value = getattr(obj, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not -inf < value < inf:
                raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ShrinkageParams:
    """Concentration/discount pair of the stick-breaking construction.

    Requires ``delta in [0, 1)``, ``alpha > -delta``, and an alpha small
    enough that Pr(rho_1 = 1) evaluates below 1 (the stopping rule takes
    log Pr(rho_h = 0)).
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
        q = prob_active(1, self)
        if not q < 1.0:
            raise ValueError(
                f"alpha={self.alpha} is too large at delta={self.delta}: "
                f"Pr(rho_1 = 1) evaluates to {q!r}, not below 1"
            )


def prob_active(h: int, params: ShrinkageParams) -> float:
    """Exact marginal probability that factor h is active, Pr(rho_h = 1).

    Equals ``(alpha / (1 + alpha))**h`` for delta = 0.  For delta > 0 it is
    the ratio of Gamma functions

        prod_{m=1..h} (alpha + delta m) / (1 + alpha + delta (m - 1)),

    evaluated as exp of one sum of log1p(-(1 - delta) / (1 + alpha + delta
    (m - 1))), O(h).  Each factor enters through its distance from 1, so
    the result keeps full precision however close to 1 the factors are (the
    log-gamma differences this replaces were 6.1% off at h = 1 for delta =
    0.3, alpha = 5e12), and large h stay finite.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    a, d = params.alpha, params.delta
    if d == 0.0:
        return exp(h * (log(a) - log(1.0 + a)))
    return exp(float(np.sum(np.log1p((d - 1.0) / (1.0 + a + d * np.arange(h))))))


def activation_tail(params: ShrinkageParams, H: int) -> float:
    """Closed form of ``sum_{h > H} prob_active(h)``; H = 0 gives the full sum.

    For delta > 0 the partial sums telescope:

        sum_{h>H} G(h+1+a/d) / G(h+(1+a)/d)
            = G(H+2+a/d) / G(H+(1+a)/d) * d / (1-2d),

    valid for delta < 1/2, which is prob_active(H + 1) * (1 + a + d H) /
    (1 - 2d).  Returns +inf for delta >= 1/2 (divergent series).
    """
    if H < 0:
        raise ValueError(f"H must be >= 0, got {H}")
    a, d = params.alpha, params.delta
    if d >= 0.5:
        return inf
    if d == 0.0:
        r = a / (1.0 + a)
        return r ** (H + 1) / (1.0 - r)
    return prob_active(H + 1, params) * (1.0 + a + d * H) / (1.0 - 2.0 * d)


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


def _stick_remainders(rng: np.random.Generator, a: float, b: np.ndarray,
                      out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Fills ``out`` (rows, H) with 1 - omega_m ~ Beta(b[m-1], a), a = 1 - delta.

    Draws each as the gamma ratio G_b / (G_b + G_a).  G_a ~ Gamma(a) comes
    from the shape boost G_a = G_{a+1} * exp(-E / a), E ~ Exp(1) (Marsaglia
    and Tsang 2000), so numpy's slower rejection sampler for shapes below
    one is never called.  G_a is floored at the smallest positive double:
    for delta near 1 exp(-E / a) can underflow, and 0 / 0 would be NaN if
    G_b did too.
    ``scratch`` has the shape of ``out`` and is overwritten.
    """
    rng.standard_exponential(out=out)
    np.exp(np.multiply(out, -1.0 / a, out=out), out=out)
    np.multiply(out, rng.standard_gamma(a + 1.0, out=scratch), out=out)
    np.maximum(out, _SMALLEST_DOUBLE, out=out)  # G_a
    np.add(out, rng.standard_gamma(b, out=scratch), out=out)  # G_a + G_b
    return np.divide(scratch, out, out=out)


def simulate_prior_ranks(
    params: ShrinkageParams,
    H: int,
    n_draws: int,
    rng: np.random.Generator,
) -> PriorRankSample:
    """Samples k = sum_h rho_h with rho_h ~ Bernoulli(1 - pi_h) given sticks.

    Uses the identity 1 - pi_h = prod_{m<=h}(1 - omega_m) (remaining stick
    mass).  For delta > 0 each draw costs H gamma ratios 1 - omega_m =
    G_b / (G_b + G_a) with b = alpha + delta * m and a = 1 - delta (see
    :func:`_stick_remainders`); for delta = 0 it costs H exponential
    variates, as the remaining mass is exp(-sum_{m<=h} E_m / alpha).
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

    a = 1.0 - params.delta
    b = params.alpha + params.delta * np.arange(1, H + 1)

    k = np.empty(n_draws, dtype=np.int64)
    act_counts = np.zeros(H)
    rows = max(1, min(n_draws, CHUNK_CELLS // H))
    remaining_buf = np.empty((rows, H))
    scratch_buf = np.empty((rows, H))
    done = 0
    while done < n_draws:
        size = min(rows, n_draws - done)
        remaining, scratch = remaining_buf[:size], scratch_buf[:size]
        # remaining[:, h - 1] = 1 - pi_h per draw, computed in place
        if params.delta == 0.0:
            # 1 - omega ~ Beta(alpha, 1) is exactly exp(-E / alpha), E ~ Exp(1)
            rng.standard_exponential(out=remaining)
            np.cumsum(remaining, axis=1, out=remaining)
            np.exp(np.divide(remaining, -params.alpha, out=remaining), out=remaining)
        else:
            _stick_remainders(rng, a, b, remaining, scratch)
            np.cumprod(remaining, axis=1, out=remaining)
        rho = np.less(rng.random(out=scratch), remaining, out=scratch)  # 0/1 per factor
        act_counts += rho.sum(axis=0)
        k[done : done + size] = rho.sum(axis=1)
        if tail_rate > 0.0:
            k[done : done + size] += rng.poisson(remaining[:, -1] * tail_rate)
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
