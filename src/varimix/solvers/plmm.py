"""Perturbed-model solver: additive per-pixel deviations from a reference.

Block coordinate descent on

    J(A, {dM_n}) = sum_n ||y_n - (M0 + dM_n) a_n||^2 + gamma * sum_n ||dM_n||_F^2

with simplex abundances. The perturbation step has the rank-one closed
form dM_n = r_n a_n^T / (gamma + ||a_n||^2) with r_n the reference-model
residual.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..types import AbundanceMap, DimensionError, EndmemberField, SpectralImage
from .base import (
    QPCounts,
    SolverLog,
    SolverOptions,
    UnmixingResult,
    fcls_core,
    monotone_loop,
    per_pixel_rms,
    reconstruct,
)


def _plmm_cost(y, m0, gamma, state):
    a, dm = state
    fit = y - np.einsum("nlp,np->nl", m0[None, :, :] + dm, a)
    return float(np.sum(fit**2) + gamma * np.sum(dm**2))


def plmm_unmix(
    image: SpectralImage,
    ref_matrix: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    init_abundances: Optional[np.ndarray] = None,
    init_perturbation: Optional[np.ndarray] = None,
    class_names=None,
) -> UnmixingResult:
    """Unmix under the additively perturbed endmember model.

    The emitted field M0 + dM_n is clamped to be nonnegative; the solver
    state keeps the unclamped perturbations.
    """
    m0 = np.asarray(ref_matrix, dtype=np.float64)
    if m0.ndim != 2 or m0.shape[0] != image.n_bands:
        raise DimensionError("ref_matrix must be (L, P) matching the image")
    start = time.perf_counter()
    y = image.pixels
    n = y.shape[0]
    l, p = m0.shape
    gamma = opts.gamma_plmm

    counts = QPCounts()
    if init_abundances is None:
        a0, _ = fcls_core(y, m0, counts)
    else:
        a0 = np.array(init_abundances, dtype=np.float64)
    dm0 = np.zeros((n, l, p)) if init_perturbation is None else np.array(init_perturbation)

    def step(state):
        a, dm = state
        a_new, _ = fcls_core(y, m0[None, :, :] + dm, counts)
        residual = y - a_new @ m0.T
        denom = gamma + np.sum(a_new**2, axis=1)
        dm_new = np.einsum("nl,np->nlp", residual, a_new) / denom[:, None, None]
        return a_new, dm_new

    def blend(prev, cand, f):
        return tuple(pv + f * (cv - pv) for pv, cv in zip(prev, cand))

    cost_fn = lambda s: _plmm_cost(y, m0, gamma, s)
    (a, dm), history, converged = monotone_loop(
        (a0, dm0), step, cost_fn, blend, opts.max_iters, opts.tol
    )

    emitted = np.clip(m0[None, :, :] + dm, 0.0, None)
    recon = reconstruct(emitted, a)
    log = SolverLog(
        iterations=len(history) - 1,
        final_cost=history[-1],
        converged=converged and counts.unsettled_rows == 0,
        wall_time_s=time.perf_counter() - start,
        cost_history=tuple(history),
        flags={"gamma": gamma, **counts.flags()},
    )
    return UnmixingResult(
        abundances=AbundanceMap(a, sum_to_one=True, class_names=class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(emitted),
        extras={"perturbation": dm},
    )
