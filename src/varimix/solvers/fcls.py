"""Fully constrained least squares with a single shared endmember matrix."""

from __future__ import annotations

import warnings

import numpy as np

from ..types import DimensionError, SpectralImage
from .base import QPCounts, UnmixingResult, _result, _row_product, fcls_core


def fcls(image: SpectralImage, matrix: np.ndarray) -> UnmixingResult:
    """Simplex-constrained inversion of the plain linear mixing model.

    ``matrix`` is (L, P). Under the sum-to-one constraint the abundances
    are unique when [M; 1'] has rank P, so L = P - 1 bands can suffice;
    below that rank a warning is raised. The result carries no endmember
    field: the baseline does not estimate per-pixel signatures. Its result
    is built by ``_result``, so it holds no whole-image residual.
    """
    counts = QPCounts()
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != image.n_bands:
        raise DimensionError("matrix must be (L, P) matching the image bands")
    p = m.shape[1]
    if np.linalg.matrix_rank(np.vstack([m, np.ones(p)])) < p:
        warnings.warn(f"[M; 1'] has rank below P = {p}: abundances are not unique")
    y = image.pixels
    counts.phase("gram")
    a, rounds = fcls_core(y, m, counts)
    return _result(y, a, lambda lo, hi, out: np.copyto(out, _row_product(a[lo:hi], m.T)), None,
                   counts, rounds)
