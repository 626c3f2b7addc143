"""Perturbed-model solver: additive per-pixel deviations from a reference.

Block coordinate descent on

    J(A, {dM_n}) = sum_n ||y_n - (M0 + dM_n) a_n||^2 + gamma * sum_n ||dM_n||_F^2

with simplex abundances. The perturbation step has the rank-one closed
form dM_n = u_n a_n^T with u_n = r_n / (gamma + ||a_n||^2) and r_n the
reference-model residual, so the loop runs on the per-pixel statistics
of ``rankone`` (scalings fixed at one): O(N P) memory, no pass over the
(N, L) image per iteration. The perturbation field is built once, for
the result.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..types import SpectralImage
from .base import SolverOptions, UnmixingResult, fcls_core, monotone_loop, timed
from .rankone import RankOneModel


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
    start = time.perf_counter()
    y = image.pixels
    gamma = opts.gamma_plmm
    core = RankOneModel(y, ref_matrix, gamma)
    m0 = core.m0
    ones = np.ones((y.shape[0], m0.shape[1]))

    if init_abundances is None:
        with timed(core.phases, "qp"):
            a0, _ = fcls_core(y, m0, core.counts)
    else:
        a0 = np.array(init_abundances, dtype=np.float64)
    dm0 = None if init_perturbation is None else np.array(init_perturbation, dtype=np.float64)

    def cost(s):
        with timed(core.phases, "cost"):
            return core.cost(s, dm0)

    initial = core.start(a0, ones, None if dm0 is None else m0[None, :, :] + dm0)
    state, log = monotone_loop(initial, lambda s: core.step(s, ones), cost,
                               opts.max_iters, opts.tol)
    core.finish(log, start, {"gamma": gamma})

    dm = dm0 if state.dense is not None else core.direction(state)[:, :, None] * state.a[:, None, :]
    return core.result(state.a, m0[None, :, :] + dm, log, class_names, {"perturbation": dm})
