"""Extended-model solver: per-pixel, per-class scaling of a reference
matrix, with a spatially smooth scaling field.

Block coordinate descent on

    J(A, Psi, {M_n}) = sum_n ||y_n - M_n a_n||^2
                     + lambda_m * sum_n ||M_n - M0 diag(psi_n)||_F^2
                     + lambda_psi * sum_{4-neighbors} ||psi_n - psi_n'||^2

with simplex abundances and positive scalings (clamped at 1e-6). The
abundance step is a per-pixel constrained least squares, the endmember
step the closed-form rank-one update M_n = M0 diag(psi_n) + u_n a_n',
and the scaling step a sparse linear solve on the image grid.

The loop runs on the factored state of ``rankone``: O(N(L+P)) memory,
no (N, L, P) array per iteration. The endmember field is built once,
for the result.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np
from scipy.sparse import coo_matrix, diags, identity
from scipy.sparse.linalg import splu

from ..types import AbundanceMap, DimensionError, EndmemberField, SpectralImage
from .base import (
    SolverOptions,
    UnmixingResult,
    fcls_core,
    monotone_loop,
    per_pixel_rms,
    reconstruct,
    timed,
)
from .rankone import RankOneModel, RankOneState

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


def _spatial(lap, psi):
    return sum(float(psi[:, p] @ (lap @ psi[:, p])) for p in range(psi.shape[1]))


def _elmm_cost(y, m0, lap, lam_m, lam_psi, state):
    """The cost on a dense (a, psi, M) state."""
    a, psi, m = state
    fit = y - np.einsum("nlp,np->nl", m, a)
    tie = m - m0[None, :, :] * psi[:, None, :]
    return float(np.sum(fit**2) + lam_m * np.sum(tie**2) + lam_psi * _spatial(lap, psi))


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

    ``ref_matrix`` is the (L, P) reference. A dense ``init_endmembers``
    field is used by the first abundance step and the initial cost only.
    The emitted endmember field is clamped to be nonnegative; the solver
    state is not.
    """
    m0 = np.asarray(ref_matrix, dtype=np.float64)
    if m0.ndim != 2 or m0.shape[0] != image.n_bands:
        raise DimensionError("ref_matrix must be (L, P) matching the image")
    if np.any(np.linalg.norm(m0, axis=0) == 0):
        raise ValueError("ref_matrix has a zero column")
    start = time.perf_counter()
    y = image.pixels
    n = y.shape[0]
    p = m0.shape[1]
    lam_m, lam_psi = opts.lambda_m, opts.lambda_psi
    lap = grid_laplacian(image.height, image.width)
    core = RankOneModel(y, m0, lam_m)
    psi_solvers = [
        splu((lam_m * core.col_sq[j] * identity(n, format="csc") + lam_psi * lap).tocsc())
        for j in range(p)
    ]

    if init_abundances is None:
        with timed(core.phases, "qp"):
            a0, _ = fcls_core(y, m0, core.counts)
    else:
        a0 = np.array(init_abundances, dtype=np.float64)
    psi0 = np.ones((n, p)) if init_psi is None else np.array(init_psi, dtype=np.float64)
    dense0 = None if init_endmembers is None else np.array(init_endmembers, dtype=np.float64)

    def step(s):
        a, u, w = core.step(s, s.psi)
        with timed(core.phases, "psi"):
            rhs = lam_m * (s.psi * core.col_sq + a * w)
            psi = np.column_stack([psi_solvers[j].solve(rhs[:, j]) for j in range(p)])
            np.clip(psi, _PSI_FLOOR, None, out=psi)
        return RankOneState(a, psi, s.psi, u, w)

    def cost(s):
        with timed(core.phases, "cost"):
            if s.dense is not None:
                return _elmm_cost(y, m0, lap, lam_m, lam_psi, (s.a, s.psi, s.dense))
            return core.cost(s) + lam_psi * _spatial(lap, s.psi)

    state, log = monotone_loop(core.start(a0, psi0, dense0), step, cost,
                               opts.max_iters, opts.tol)
    core.finish(log, start, {"lambda_m": lam_m, "lambda_psi": lam_psi})

    emitted = core.field(state)
    np.clip(emitted, 0.0, None, out=emitted)
    recon = reconstruct(emitted, state.a)
    return UnmixingResult(
        abundances=AbundanceMap(state.a, sum_to_one=True, class_names=class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(emitted),
        extras={"psi": state.psi},
    )
