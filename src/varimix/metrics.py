"""Evaluation metrics: element RMSE and the endmember angle score.

Angles are evaluated as 2*atan2(||u - v||, ||u + v||) on unit vectors,
which equals arccos of the normalized inner product but stays accurate
near 0 and pi (a clamped arccos loses ~1e-8 rad to rounding there, which
would break the scale-invariance contracts).
"""

from __future__ import annotations

import numpy as np

from .types import DegenerateSignatureError, DimensionError, EndmemberField


def rmse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """Root mean squared error over all elements, sqrt(||X - Xhat||_F^2 / N)."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return float(np.sqrt(np.mean((x - x_hat) ** 2)))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateSignatureError("zero-norm signature in angle computation")
    return x / norms


def spectral_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two spectra; scale-invariant."""
    u = _unit_rows(np.asarray(a, dtype=np.float64)[None, :])[0]
    v = _unit_rows(np.asarray(b, dtype=np.float64)[None, :])[0]
    return float(2.0 * np.arctan2(np.linalg.norm(u - v), np.linalg.norm(u + v)))


def pairwise_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between all rows of ``a`` (m, L) and all rows of ``b`` (k, L)."""
    u = _unit_rows(np.atleast_2d(np.asarray(a, dtype=np.float64)))
    v = _unit_rows(np.atleast_2d(np.asarray(b, dtype=np.float64)))
    diff = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1)
    summ = np.linalg.norm(u[:, None, :] + v[None, :, :], axis=-1)
    return 2.0 * np.arctan2(diff, summ)


def sam_field(m_true: EndmemberField, m_hat: EndmemberField) -> float:
    """Mean angle between matching per-pixel endmember columns.

    The angle sum over all (pixel, class) pairs is divided by L*P*N,
    which shrinks the score by the band count relative to a plain
    per-pair mean; the bench reports SAM_M on this scale.
    """
    if m_true.data.shape != m_hat.data.shape:
        raise DimensionError("endmember fields differ in shape")
    n, l, p = m_true.data.shape
    nt = np.linalg.norm(m_true.data, axis=1, keepdims=True)
    nh = np.linalg.norm(m_hat.data, axis=1, keepdims=True)
    if np.any(nt == 0.0) or np.any(nh == 0.0):
        raise DegenerateSignatureError("zero-norm endmember column")
    u = m_true.data / nt
    v = m_hat.data / nh
    diff = np.linalg.norm(u - v, axis=1)
    summ = np.linalg.norm(u + v, axis=1)
    angles = 2.0 * np.arctan2(diff, summ)
    total = float(np.sum(angles))
    return total / (l * p * n)
