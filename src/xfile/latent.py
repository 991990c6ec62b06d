"""Nonnegative-truncation observation transform and latent residual update.

Heatmap-style data with exact zeros is modeled as y = z * 1{z > 0}: a zero
is observed whenever the latent Gaussian value is non-positive.  During the
stage-wise fit the latent residual at observed zeros is treated as an extra
parameter and refreshed once per inner iteration (after the scale update)
with the mode of its truncated Student-t full conditional.  Only those
cells (:func:`observed_zeros`) are refreshed: the latent value is pinned to
y at observed y > 0, and unobserved cells carry no data.
"""

import numpy as np

from .model import ObservedMatrix, Transform

__all__ = ["observed_zeros", "update_latent", "apply_transform", "initial_latent"]


def observed_zeros(data: ObservedMatrix) -> np.ndarray:
    """Flat indices of the observed zeros; empty under the identity transform."""
    if data.transform != Transform.NONNEG_TRUNCATION:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero(data.mask & (data.values == 0))


def update_latent(fitted_prev: np.ndarray, cells: np.ndarray, out=None) -> np.ndarray:
    """Latent residual z_tilde at observed zeros, set to the mode of its full
    conditional, into ``out``.

    ``fitted_prev`` is the accepted factors' fit and ``cells`` the current
    candidate's at those zeros.  The latent value there is fitted_prev +
    z_tilde and must be non-positive, and the candidate's mean for the
    residual z_tilde is ``cells``: the full conditional of z_tilde is a
    Student-t centred at ``cells`` and truncated to (-inf, -fitted_prev], so
    its mode is min(cells, -fitted_prev).
    """
    bound = np.negative(fitted_prev, out=out)
    return np.minimum(cells, bound, out=bound)


def apply_transform(latent: np.ndarray, transform: Transform) -> np.ndarray:
    """Maps latent values to the observation scale (used for predictions)."""
    latent = np.asarray(latent, dtype=float)
    if transform == Transform.IDENTITY:
        return latent.copy()
    if transform == Transform.NONNEG_TRUNCATION:
        return np.maximum(latent, 0.0)
    raise ValueError(f"unknown transform {transform!r}")


def initial_latent(data: ObservedMatrix) -> np.ndarray:
    """Starting latent matrix: observed values, zeros elsewhere.

    Under the truncation transform observed zeros start at latent 0, the
    boundary of their feasible range before any factor is fitted.
    """
    return np.where(data.mask, data.values, 0.0)
