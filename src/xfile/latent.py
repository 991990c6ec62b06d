"""Nonnegative-truncation observation transform and latent residual update.

Heatmap-style data with exact zeros is modeled as y = z * 1{z > 0}: a zero
is observed whenever the latent Gaussian value is non-positive.  During the
stage-wise fit the latent residual at observed zeros is treated as an extra
parameter and refreshed once per inner iteration (after the scale update)
with the mode of its truncated Student-t full conditional.
"""

import numpy as np

from .model import ObservedMatrix, Transform

__all__ = ["update_latent", "apply_transform", "initial_latent"]


def update_latent(
    z_tilde: np.ndarray,
    fitted_prev: np.ndarray,
    fitted_curr: np.ndarray,
    data: ObservedMatrix,
) -> np.ndarray:
    """Returns the latent residual set to the mode of its full conditional.

    ``z_tilde`` is the residual of the latent matrix after subtracting the
    previously accepted factors (``fitted_prev``); ``fitted_curr`` adds the
    current candidate.  At observed y > 0 the latent value is pinned, so
    z_tilde = y - fitted_prev.  At observed y = 0 the full conditional of
    z_tilde is a Student-t truncated to (-inf, -fitted_prev); its mode is
    taken as fitted_curr when fitted_curr < -fitted_prev and as the boundary
    -fitted_prev otherwise, so fitted_prev + z_tilde <= 0 there.  Returns
    ``z_tilde`` itself under the identity transform.
    """
    if data.transform != Transform.NONNEG_TRUNCATION:
        return z_tilde
    z = z_tilde.copy()
    pos = data.mask & (data.values > 0)
    zero = data.mask & (data.values == 0)
    z[pos] = data.values[pos] - fitted_prev[pos]
    z[zero] = np.minimum(fitted_curr[zero], -fitted_prev[zero])
    return z


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
    latent = np.where(data.mask, data.values, 0.0)
    return np.asarray(latent, dtype=float)
