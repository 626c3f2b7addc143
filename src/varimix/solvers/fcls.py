"""Fully constrained least squares with a single shared endmember matrix."""

from __future__ import annotations

import time
import warnings

import numpy as np

from ..types import AbundanceMap, DimensionError, SpectralImage
from .base import (QPCounts, SolverOptions, SolverLog, UnmixingResult, fcls_core,
                   per_pixel_rms, reconstruct)


def fcls(
    image: SpectralImage,
    matrix: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    class_names=None,
) -> UnmixingResult:
    """Simplex-constrained inversion of the plain linear mixing model.

    ``matrix`` is (L, P). The result carries no endmember field: the
    baseline does not estimate per-pixel signatures.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != image.n_bands:
        raise DimensionError("matrix must be (L, P) matching the image bands")
    l, p = m.shape
    if p > l:
        warnings.warn(f"more classes ({p}) than bands ({l}); problem is underdetermined")
    if np.linalg.matrix_rank(m) < p:
        warnings.warn("endmember matrix is rank deficient")
    start = time.perf_counter()
    y = image.pixels
    counts = QPCounts()
    a, rounds = fcls_core(y, m, counts)
    recon = reconstruct(m, a)
    cost = float(np.sum((y - recon) ** 2))
    log = SolverLog(
        iterations=rounds,
        final_cost=cost,
        converged=counts.unsettled_rows == 0,
        wall_time_s=time.perf_counter() - start,
        cost_history=(cost,),
        flags=counts.flags(),
    )
    return UnmixingResult(
        abundances=AbundanceMap(a, sum_to_one=True, class_names=class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
    )
