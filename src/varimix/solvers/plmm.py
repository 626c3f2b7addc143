"""Perturbed-model solver: additive per-pixel deviations from a reference.

Block coordinate descent on

    J(A, {dM_n}) = sum_n ||y_n - (M0 + dM_n) a_n||^2 + gamma * sum_n ||dM_n||_F^2

with simplex abundances. The perturbation step has the rank-one closed
form dM_n = u_n a_n^T with u_n = r_n / (gamma + ||a_n||^2) and r_n the
reference-model residual, so the loop runs on the factored state of
``rankone`` (scalings fixed at one): O(N(L+P)) memory, no (N, L, P)
array per iteration. The perturbation field is built once, for the
result.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

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


def _plmm_cost(y, m0, gamma, state):
    """The cost on a dense (a, dM) state."""
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

    A dense ``init_perturbation`` is used by the first abundance step and
    the initial cost only. The emitted field M0 + dM_n is clamped to be
    nonnegative; ``extras["perturbation"]`` keeps the unclamped dM_n.
    """
    m0 = np.asarray(ref_matrix, dtype=np.float64)
    if m0.ndim != 2 or m0.shape[0] != image.n_bands:
        raise DimensionError("ref_matrix must be (L, P) matching the image")
    start = time.perf_counter()
    y = image.pixels
    n = y.shape[0]
    p = m0.shape[1]
    gamma = opts.gamma_plmm
    core = RankOneModel(y, m0, gamma)
    ones = np.ones((n, p))

    if init_abundances is None:
        with timed(core.phases, "qp"):
            a0, _ = fcls_core(y, m0, core.counts)
    else:
        a0 = np.array(init_abundances, dtype=np.float64)
    dm0 = None if init_perturbation is None else np.array(init_perturbation, dtype=np.float64)

    def step(s):
        a, u, w = core.step(s, ones)
        return RankOneState(a, ones, ones, u, w)

    def cost(s):
        with timed(core.phases, "cost"):
            if s.dense is not None:
                return _plmm_cost(y, m0, gamma, (s.a, dm0))
            return core.cost(s)

    initial = core.start(a0, ones, None if dm0 is None else m0[None, :, :] + dm0)
    state, log = monotone_loop(initial, step, cost, opts.max_iters, opts.tol)
    core.finish(log, start, {"gamma": gamma})

    dm = dm0 if state.dense is not None else state.u[:, :, None] * state.a[:, None, :]
    emitted = m0[None, :, :] + dm
    np.clip(emitted, 0.0, None, out=emitted)
    recon = reconstruct(emitted, state.a)
    return UnmixingResult(
        abundances=AbundanceMap(state.a, sum_to_one=True, class_names=class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(emitted),
        extras={"perturbation": dm},
    )
