"""Perturbed-model solver: additive per-pixel deviations from a reference.

Block coordinate descent on

    J(A, {dM_n}) = sum_n ||y_n - (M0 + dM_n) a_n||^2 + gamma * sum_n ||dM_n||_F^2

with simplex abundances. The perturbation step has the rank-one closed
form dM_n = u_n a_n^T with u_n = r_n / (gamma + ||a_n||^2) and r_n the
reference-model residual, so the loop runs on the per-pixel statistics
of ``rankone`` (scalings fixed at one), from its FCLS start on them to
the last cost: O(N P) memory, and the (N, L) image is read only for rows
the model fits to rounding. The field M0 + dM_n is emitted as its
factors and built in chunks of pixels when read; dM is not kept.
"""

from __future__ import annotations

import numpy as np

from ..types import SpectralImage
from .base import SolverOptions, UnmixingResult, fcls_gram, monotone_loop
from .rankone import RankOneModel


def plmm_unmix(
    image: SpectralImage,
    ref_matrix: np.ndarray,
    opts: SolverOptions = SolverOptions(),
) -> UnmixingResult:
    """Unmix under the additively perturbed endmember model.

    The loop starts from FCLS abundances on ``ref_matrix``, which must be
    finite (else ``ValueError``), with a zero perturbation. The emitted
    field M0 + dM_n is clamped to be nonnegative; the result has no
    extras, and the log times the whole call.
    """
    y = image.pixels
    gamma = opts.gamma_plmm
    core = RankOneModel(y, ref_matrix, gamma)
    a0, _ = fcls_gram(core.g0, core.ym0, core.counts)
    state, *loop = monotone_loop(core.start(a0, np.ones_like(a0)), core.step, core.cost,
                                 opts.max_iters, opts.tol)
    return core.result(state, loop, {"gamma": gamma}, {})
