"""Per-pixel exhaustive search over library model combinations, in Gram
space over each class's distinct signatures (``search``): each model is
a (P, P) block of the statistics, and runs of models go to the kernel
as one stack of shared Grams per call. The result, by ``base._result``,
reports the fit of the selected models' matrices as searched, gathered a
chunk of pixels at a time and multiplied by the abundances, and emits
them, clamped at zero, as the field.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional

import numpy as np

from ..types import BudgetError, SpectralImage, SpectralLibrary
from .base import QPCounts, UnmixingResult, _result, reconstruct
from .search import distinct_rows, library_stats, subset_search

MODEL_BUDGET = 10**6


def check_mesma(re_threshold: Optional[float] = None):
    """MESMA's parameter value, checked before any data: ``re_threshold`` is None or >= 0."""
    if re_threshold is not None and not re_threshold >= 0:
        raise ValueError("re_threshold must be >= 0")


def mesma(
    image: SpectralImage,
    library: SpectralLibrary,
    re_threshold: Optional[float] = None,
) -> UnmixingResult:
    """Enumerate every one-signature-per-class endmember matrix, solve the
    constrained least squares for each, and keep the per-pixel model with
    the smallest reconstruction error.

    Ties, fits whose squared residuals differ by at most 1e-13 ||y||^2
    (about the rounding of the search statistics), are broken toward the
    lexicographically smallest index tuple; a later copy of a signature
    is never tried, so a tie between copies goes to the first one. With
    ``re_threshold`` set (checked by ``check_mesma``), a pixel is frozen
    at the first enumerated model whose RMS residual is at most the
    threshold (early stop), tested on the residual computed from the pixel
    wherever the search statistics (precise to about 1e-8 ||y||) put it
    near the threshold; pixels that never hit the threshold keep their
    best model. ``models_enumerated`` counts the distinct models a search
    of one model at a time solves (models are solved in blocks, for the
    pixels open at a block's start, with the same selections; with
    ``re_threshold`` the blocks start at one model and double),
    ``qp_rounds`` the kernel rounds of the block calls, and ``duplicates``
    the signatures collapsed; ``MODEL_BUDGET`` applies to the library as
    given. The result is built by ``_result``: the reconstruction,
    ``per_pixel_re`` and the logged cost are the selected models' own fit.
    """
    counts = QPCounts()
    check_mesma(re_threshold)
    sizes = library.sizes
    n_models = math.prod(sizes)
    if n_models > MODEL_BUDGET:
        raise BudgetError(f"{n_models} model combinations exceed the budget of "
                          f"{MODEL_BUDGET}; prune the library first")
    y = image.pixels
    l = y.shape[1]
    p = library.n_classes
    sigs = [c.signatures for c in library.classes]

    counts.phase("stats")
    keep = [distinct_rows(s) for s in sigs]             # original index per distinct row
    offsets = np.cumsum([0] + [k.size for k in keep[:-1]])
    distinct = np.concatenate([s[k] for s, k in zip(sigs, keep)])
    gram, ys, yy = library_stats(y, distinct)
    counts.phase("search")
    models = (offsets + np.array(pos) for pos in itertools.product(*(range(k.size) for k in keep)))
    stop = None if re_threshold is None else re_threshold**2 * l
    cols, best_a, models_tried = subset_search(gram, ys, yy, models, p, counts, stop, y, distinct)
    best_model = np.stack([keep[cls][cols[:, cls] - offsets[cls]] for cls in range(p)], axis=1)

    # each selected model's (L, P) matrix (index tuples in mixed radix)
    _, first, which = np.unique(np.ravel_multi_index(best_model.T, sizes), return_index=True,
                                return_inverse=True)
    table = np.stack([s[best_model[first, j]] for j, s in enumerate(sigs)], axis=2)

    def fit(lo, hi, out):
        out[:] = reconstruct(table[which[lo:hi]], best_a[lo:hi])

    def fill(lo, hi, f):
        np.take(table, which[lo:hi], axis=0, out=f, mode="wrap")    # "raise" buffers

    return _result(y, best_a, fit, fill, counts, models_tried, flags={
        "models_enumerated": models_tried, "early_stop": re_threshold is not None,
        "duplicates": sum(sizes) - sum(k.size for k in keep)},
        class_names=library.class_names, selected_model=best_model)
