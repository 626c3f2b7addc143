"""Extended-model solver: per-pixel, per-class scaling of a reference
matrix, with a spatially smooth scaling field.

Block coordinate descent on

    J(A, Psi, {M_n}) = sum_n ||y_n - M_n a_n||^2
                     + lambda_m * sum_n ||M_n - M0 diag(psi_n)||_F^2
                     + lambda_psi * sum_{4-neighbors} ||psi_n - psi_n'||^2

with simplex abundances and positive scalings (clamped at 1e-6). The
abundance step is a per-pixel constrained least squares, the endmember
step the closed-form rank-one update M_n = M0 diag(psi_n) + u_n a_n',
and the scaling step one grid system per class, solved for all classes
at once in the DCT-II basis, where the grid Laplacian is diagonal. The
cost takes the smoothness term from the neighbor differences themselves.

The loop runs on the per-pixel statistics of ``rankone``, from its FCLS
start on them to the last cost: O(N P) memory, and the (N, L) image is
read only for rows the model fits to rounding. The endmember field is
emitted as its factors, built in chunks of pixels when read.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.fft import dctn, idctn

from ..types import SpectralImage
from .base import SolverOptions, UnmixingResult, fcls_gram, monotone_loop
from .rankone import RankOneModel

_PSI_FLOOR = 1e-6


def _grid_solve(rhs: np.ndarray, diag: np.ndarray, lam_psi: float) -> np.ndarray:
    """Solve (diag_j I + lam_psi L) psi_j = rhs_j for every class j of an
    (H, W, P) right-hand side, with L the Laplacian of the 4-neighbor grid
    graph. L is diagonal in the 2-D DCT-II basis, with eigenvalues the
    sums of the path spectra 2 - 2 cos(pi k / n) of both axes."""
    h, w = rhs.shape[:2]
    eig_h = 2.0 - 2.0 * np.cos(np.pi * np.arange(h) / h)
    eig_w = 2.0 - 2.0 * np.cos(np.pi * np.arange(w) / w)
    coef = dctn(rhs, axes=(0, 1), norm="ortho")
    coef /= diag + lam_psi * (eig_h[:, None] + eig_w[None, :])[:, :, None]
    return idctn(coef, axes=(0, 1), norm="ortho")


def _grid_spatial(psi: np.ndarray, height: int, width: int) -> float:
    """sum over 4-neighbor pairs of ||psi_n - psi_n'||^2 for (N, P) scalings
    on the H x W grid, from the differences along both grid axes."""
    g = psi.reshape(height, width, -1)
    return float(np.sum(np.diff(g, axis=0) ** 2) + np.sum(np.diff(g, axis=1) ** 2))


def elmm_unmix(
    image: SpectralImage,
    ref_matrix: np.ndarray,
    opts: SolverOptions = SolverOptions(),
) -> UnmixingResult:
    """Unmix under the scaled-reference endmember model.

    ``ref_matrix`` is the (L, P) reference, finite and with no zero
    column (else ``ValueError``). The loop starts from FCLS abundances on
    it with unit scalings, i.e. every M_n = M0. The emitted endmember
    field is clamped to be nonnegative; the solver state is not.
    ``extras["psi"]`` holds the scalings; the log times the whole call.
    """
    y = image.pixels
    lam_m, lam_psi = opts.lambda_m, opts.lambda_psi
    core = RankOneModel(y, ref_matrix, lam_m)
    if np.any(core.col_sq == 0):
        raise ValueError("ref_matrix has a zero column")
    n, p = y.shape[0], core.m0.shape[1]
    grid = (image.height, image.width, p)
    a0, _ = fcls_gram(core.g0, core.ym0, core.counts)

    def step(s):
        new = core.step(s)
        core.counts.phase("psi")
        rhs = lam_m * (s.psi * core.col_sq + new.a * new.w)
        psi = _grid_solve(rhs.reshape(grid), lam_m * core.col_sq, lam_psi).reshape(n, p)
        np.clip(psi, _PSI_FLOOR, None, out=psi)
        return replace(new, psi=psi)

    def cost(s):
        return core.cost(s) + lam_psi * _grid_spatial(s.psi, image.height, image.width)

    state, *loop = monotone_loop(core.start(a0, np.ones((n, p))), step, cost,
                                 opts.max_iters, opts.tol)
    return core.result(state, loop, {"lambda_m": lam_m, "lambda_psi": lam_psi},
                       {"psi": state.psi})
