"""Extended-model solver: per-pixel, per-class scaling of a reference
matrix, with a spatially smooth scaling field.

Block coordinate descent on

    J(A, Psi, {M_n}) = sum_n ||y_n - M_n a_n||^2
                     + lambda_m * sum_n ||M_n - M0 diag(psi_n)||_F^2
                     + lambda_psi * sum_{4-neighbors} ||psi_n - psi_n'||^2

with simplex abundances and positive scalings (clamped at 1e-6). The
abundance step is a per-pixel constrained least squares, the endmember
step a closed-form ridge solve, and the scaling step a sparse linear
solve on the image grid.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix, diags, identity
from scipy.sparse.linalg import splu

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

_PSI_FLOOR = 1e-6


def grid_laplacian(height: int, width: int):
    """Combinatorial Laplacian of the 4-neighbor grid graph."""
    idx = np.arange(height * width).reshape(height, width)
    pairs = [
        (idx[:, :-1].ravel(), idx[:, 1:].ravel()),
        (idx[:-1, :].ravel(), idx[1:, :].ravel()),
    ]
    r = np.concatenate([p[0] for p in pairs])
    c = np.concatenate([p[1] for p in pairs])
    n = height * width
    adj = coo_matrix((np.ones(r.size), (r, c)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (diags(deg) - adj).tocsc()


def _elmm_cost(y, m0, lap, lam_m, lam_psi, state):
    a, psi, m = state
    fit = y - np.einsum("nlp,np->nl", m, a)
    tie = m - m0[None, :, :] * psi[:, None, :]
    spatial = sum(float(psi[:, p] @ (lap @ psi[:, p])) for p in range(psi.shape[1]))
    return float(np.sum(fit**2) + lam_m * np.sum(tie**2) + lam_psi * spatial)


def elmm_unmix(
    image: SpectralImage,
    ref_matrix: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    init_abundances: Optional[np.ndarray] = None,
    init_psi: Optional[np.ndarray] = None,
    init_endmembers: Optional[np.ndarray] = None,
    class_names=None,
) -> UnmixingResult:
    """Unmix under the scaled-reference endmember model.

    ``ref_matrix`` is the (L, P) reference. The emitted endmember field is
    clamped to be nonnegative; the solver state is not.
    """
    m0 = np.asarray(ref_matrix, dtype=np.float64)
    if m0.ndim != 2 or m0.shape[0] != image.n_bands:
        raise DimensionError("ref_matrix must be (L, P) matching the image")
    if np.any(np.linalg.norm(m0, axis=0) == 0):
        raise ValueError("ref_matrix has a zero column")
    start = time.perf_counter()
    y = image.pixels
    n = y.shape[0]
    l, p = m0.shape
    lam_m, lam_psi = opts.lambda_m, opts.lambda_psi
    lap = grid_laplacian(image.height, image.width)
    col_sq = np.sum(m0**2, axis=0)                       # (P,)
    psi_solvers = [
        splu((lam_m * col_sq[j] * identity(n, format="csc") + lam_psi * lap).tocsc())
        for j in range(p)
    ]
    eye_p = np.eye(p)

    counts = QPCounts()
    if init_abundances is None:
        a0, _ = fcls_core(y, m0, counts)
    else:
        a0 = np.array(init_abundances, dtype=np.float64)
    psi0 = np.ones((n, p)) if init_psi is None else np.array(init_psi, dtype=np.float64)
    if init_endmembers is None:
        m_init = m0[None, :, :] * psi0[:, None, :]
    else:
        m_init = np.array(init_endmembers, dtype=np.float64)

    def step(state):
        a, psi, m = state
        a_new, _ = fcls_core(y, m, counts)
        rhs = np.einsum("nl,np->nlp", y, a_new) + lam_m * (m0[None, :, :] * psi[:, None, :])
        sys = np.einsum("np,nq->npq", a_new, a_new) + lam_m * eye_p
        m_new = np.linalg.solve(sys, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
        psi_new = np.empty_like(psi)
        for j in range(p):
            b = lam_m * (m_new[:, :, j] @ m0[:, j])
            psi_new[:, j] = psi_solvers[j].solve(b)
        np.clip(psi_new, _PSI_FLOOR, None, out=psi_new)
        return a_new, psi_new, m_new

    def blend(prev, cand, f):
        return tuple(pv + f * (cv - pv) for pv, cv in zip(prev, cand))

    cost_fn = lambda s: _elmm_cost(y, m0, lap, lam_m, lam_psi, s)
    (a, psi, m), history, converged = monotone_loop(
        (a0, psi0, m_init), step, cost_fn, blend, opts.max_iters, opts.tol
    )

    emitted = np.clip(m, 0.0, None)
    recon = reconstruct(emitted, a)
    log = SolverLog(
        iterations=len(history) - 1,
        final_cost=history[-1],
        converged=converged and counts.unsettled_rows == 0,
        wall_time_s=time.perf_counter() - start,
        cost_history=tuple(history),
        flags={"lambda_m": lam_m, "lambda_psi": lam_psi, **counts.flags()},
    )
    return UnmixingResult(
        abundances=AbundanceMap(a, sum_to_one=True, class_names=class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(emitted),
        extras={"psi": psi},
    )
