"""Per-pixel exhaustive search over library model combinations."""

from __future__ import annotations

import itertools
import math
import time
from typing import Optional

import numpy as np

from ..types import AbundanceMap, BudgetError, DimensionError, EndmemberField, SpectralImage, SpectralLibrary
from .base import (QPCounts, SolverOptions, SolverLog, UnmixingResult, fcls_core,
                   per_pixel_rms, reconstruct)

DEFAULT_MODEL_BUDGET = 10**6


def mesma(
    image: SpectralImage,
    library: SpectralLibrary,
    opts: SolverOptions = SolverOptions(),
    re_threshold: Optional[float] = None,
    model_budget: int = DEFAULT_MODEL_BUDGET,
) -> UnmixingResult:
    """Enumerate every one-signature-per-class endmember matrix, solve the
    constrained least squares for each, and keep the per-pixel model with
    the smallest reconstruction error.

    Ties are broken toward the lexicographically smallest index tuple.
    With ``re_threshold`` set, a pixel is frozen at the first enumerated
    model whose RMS residual falls below the threshold (early stop);
    pixels that never hit the threshold keep their best model.
    """
    if library.n_bands != image.n_bands:
        raise DimensionError("library band count does not match the image")
    sizes = library.sizes
    n_models = math.prod(sizes)
    if n_models > model_budget:
        raise BudgetError(
            f"{n_models} model combinations exceed the budget of {model_budget}; "
            "prune the library first"
        )
    start = time.perf_counter()
    y = image.pixels
    n = y.shape[0]
    p = library.n_classes
    l = image.n_bands

    best_re = np.full(n, np.inf)
    best_a = np.zeros((n, p))
    best_model = np.zeros((n, p), dtype=np.intp)
    frozen = np.zeros(n, dtype=bool)
    sqrt_l = np.sqrt(l)
    sigs = [c.signatures for c in library.classes]

    models_tried = 0
    counts = QPCounts()
    for combo in itertools.product(*(range(s) for s in sizes)):
        if frozen.all():
            break
        models_tried += 1
        m = np.stack([sigs[cls][i] for cls, i in enumerate(combo)], axis=1)   # (L, P)
        active = np.flatnonzero(~frozen)
        a, _ = fcls_core(y[active], m, counts)
        re = np.linalg.norm(y[active] - a @ m.T, axis=1) / sqrt_l
        better = re < best_re[active]
        rows = active[better]
        best_re[rows] = re[better]
        best_a[rows] = a[better]
        best_model[rows] = combo
        if re_threshold is not None:
            frozen[active[re <= re_threshold]] = True

    fields = np.empty((n, l, p))
    for cls in range(p):
        fields[:, :, cls] = sigs[cls][best_model[:, cls]]
    # emitted field is clamped (transformed libraries can dip negative);
    # model selection above used the unclamped signatures
    fields = np.clip(fields, 0.0, None)
    recon = reconstruct(fields, best_a)
    cost = float(np.sum((y - recon) ** 2))
    log = SolverLog(
        iterations=models_tried,
        final_cost=cost,
        converged=counts.unsettled_rows == 0,
        wall_time_s=time.perf_counter() - start,
        cost_history=(cost,),
        flags={"models_enumerated": models_tried, "early_stop": re_threshold is not None,
               **counts.flags()},
    )
    return UnmixingResult(
        abundances=AbundanceMap(best_a, sum_to_one=True, class_names=library.class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(fields),
        selected_model=best_model,
    )
