"""Evaluation metrics: element RMSE and the endmember angle score.

Angles are evaluated as 2*atan2(||u - v||, ||u + v||) on unit vectors,
which equals arccos of the normalized inner product but stays accurate
near 0 and pi (a clamped arccos loses ~1e-8 rad to rounding there, which
would break the scale-invariance contracts).

``rmse`` and ``field_scores`` (RMSE_M and SAM_M from one walk over a
field pair) run over chunks of pixels, so their temporaries stay near
``_CHUNK_BYTES``; chunk sums are added exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .types import DegenerateSignatureError, DimensionError, EndmemberField


_CHUNK_BYTES = 1 << 20      # scoring temporaries per chunk of pixels


def _chunks(shape, rows, hat, perm):
    """Copies of matching row chunks lo:hi, ``rows(lo, hi)`` and ``hat(lo,
    hi)``, of two arrays of ``shape``, the last axis of the second reordered
    by ``perm``; a chunk is sized so that the four arrays a scorer holds of
    its size fill ``_CHUNK_BYTES``."""
    step = max(1, _CHUNK_BYTES // (32 * math.prod(shape[1:]) or 1))
    cols = np.arange(shape[-1])
    for i in range(0, shape[0], step):
        yield rows(i, i + step)[..., cols], hat(i, i + step)[..., cols if perm is None else perm]


def rmse(x: np.ndarray, x_hat: np.ndarray, perm=None) -> float:
    """Root mean squared error over all elements, sqrt(||X - Xhat||_F^2 / N);
    ``perm`` reorders the last axis of ``x_hat`` (a class alignment)."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    x_hat = np.atleast_1d(np.asarray(x_hat, dtype=np.float64))
    if x.shape != x_hat.shape:
        raise DimensionError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    if x.ndim == 1:                     # scored as one column, chunked by rows
        x, x_hat = x[:, None], x_hat[:, None]
    sums = [np.sum(np.square(np.subtract(t, h, out=t), out=t)) for t, h in _chunks(
        x.shape, lambda lo, hi: x[lo:hi], lambda lo, hi: x_hat[lo:hi], perm)]
    return float(np.sqrt(np.float64(math.fsum(sums)) / x.size))   # nan when empty


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateSignatureError("zero-norm signature in angle computation")
    return x / norms


def spectral_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Angle in radians between two spectra; scale-invariant."""
    return float(pairwise_angles(a, b)[0, 0])


def pairwise_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Angles between all rows of ``a`` (m, L) and all rows of ``b`` (k, L)."""
    u = _unit_rows(np.atleast_2d(np.asarray(a, dtype=np.float64)))
    v = _unit_rows(np.atleast_2d(np.asarray(b, dtype=np.float64)))
    diff = np.linalg.norm(u[:, None, :] - v[None, :, :], axis=-1)
    summ = np.linalg.norm(u[:, None, :] + v[None, :, :], axis=-1)
    return 2.0 * np.arctan2(diff, summ)


def _column_norms(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("nlp,nlp->np", w, w))


def _normalize_columns(w: np.ndarray):
    """Scale each column of an (n, L, P) field chunk to unit norm, in place."""
    norms = _column_norms(w)
    if np.any(norms == 0.0):
        raise DegenerateSignatureError("zero-norm endmember column")
    w /= norms[:, None, :]


def field_scores(m_true: EndmemberField, m_hat: EndmemberField, perm=None) -> tuple:
    """(RMSE_M, SAM_M) from one walk over the field pair; ``perm`` reorders
    the classes of ``m_hat`` (a class alignment). RMSE_M is ``rmse`` of the
    arrays. SAM_M divides the angle sum over all (pixel, class) column pairs
    by L*P*N, which shrinks the score by the band count relative to a plain
    per-pair mean; the bench reports SAM_M on this scale. Fields are read
    by ``rows``, a chunk at a time.
    """
    if m_true.shape != m_hat.shape:
        raise DimensionError("endmember fields differ in shape")
    size = math.prod(m_true.shape)
    squares, angles = [], []
    for u, v in _chunks(m_true.shape, m_true.rows, m_hat.rows, perm):     # u, v, u - v, u + v
        d = np.subtract(u, v)
        squares.append(np.sum(np.square(d, out=d)))
        _normalize_columns(u)
        _normalize_columns(v)
        diff = _column_norms(np.subtract(u, v, out=d))
        u += v
        angles.append(np.sum(2.0 * np.arctan2(diff, _column_norms(u))))
    return float(np.sqrt(np.float64(math.fsum(squares)) / size)), math.fsum(angles) / size
