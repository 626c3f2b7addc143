"""Library search in Gram space, shared by MESMA and L0-exhaustive;
sparse L1 and greedy L0 use its statistics too.

Every subset's simplex fit needs only S S', Y S' and ||y||^2 (S holds
the signatures as rows), computed once per call: its problem is a
(P, P) block of S S' with P columns of Y S', and its squared residual
is r^2 = ||y||^2 - 2 a'h + a'Ga, with no per-subset work over bands.
r^2 cancels at about machine epsilon times ||y||^2, so an RMS error read
from it is exact to roughly 1e-8 ||y||. Two fits whose r^2 differ by no
more than ``_R2_TIE`` ||y||^2 are a tie, which the earlier subset wins:
rounding never picks between exact fits (with fewer bands than classes,
every model fits an interior pixel exactly). An early-stop test within
``_R2_SLACK`` ||y||^2 of its threshold is made on the residual
recomputed from the pixel. Exact duplicate signatures are dropped first (``distinct_rows``):
a copy fits no better than its first occurrence, so ties go to the
smallest original index exactly.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from .base import QPCounts, _gram, fcls_gram

# r^2 from the statistics is trusted to this fraction of ||y||^2 by the
# early stop, which then recomputes it from the pixel
_R2_SLACK = 1e-10
# r^2 from the statistics rounds to a few eps ||y||^2: fits closer than
# this fraction of ||y||^2 are a tie
_R2_TIE = 1e-13


def distinct_rows(signatures: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row;
    rows are the same when their bytes are (0.0 and -0.0 differ)."""
    first = {}
    for i, row in enumerate(signatures):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def library_stats(y: np.ndarray, signatures: np.ndarray):
    """(S S', Y S', ||y||^2) for signatures S as rows and pixels Y."""
    gram, ys = _gram(y, signatures.T)
    return gram, ys, np.einsum("nl,nl->n", y, y)


def subset_search(
    gram: np.ndarray,
    ys: np.ndarray,
    yy: np.ndarray,
    subsets: Iterable,
    width: int,
    counts: Optional[QPCounts] = None,
    stop_r2: Optional[float] = None,
    y: Optional[np.ndarray] = None,
    signatures: Optional[np.ndarray] = None,
):
    """Best simplex fit per pixel over column subsets, in enumeration order.

    ``subsets`` yields column tuples into the statistics; a later subset
    replaces a pixel's kept one only if it lowers r^2 by more than
    ``_R2_TIE`` ||y||^2, so earlier subsets win ties and the kept r^2 is
    within that of the smallest. With ``stop_r2`` a pixel stops at the
    first subset with r^2 <= stop_r2 and keeps it; later subsets are
    solved for open pixels only, and the search ends once none is open.
    The stop needs the pixels ``y`` and the ``signatures`` the statistics
    came from: where r^2 lies within rounding of ``stop_r2``, the
    residual is recomputed from them.

    Returns (columns, abundances, subsets solved): (N, ``width``) arrays
    of each pixel's best subset and its abundances, padded with column
    -1 and abundance 0.
    """
    n = ys.shape[0]
    best_r2 = np.full(n, np.inf)
    best_cols = np.full((n, width), -1, dtype=np.intp)
    best_a = np.zeros((n, width))
    rows = np.arange(n)
    solved = 0
    for cols in subsets:
        if rows.size == 0:
            break
        solved += 1
        cols = np.asarray(cols, dtype=np.intp)
        g = gram[np.ix_(cols, cols)]
        h = ys[np.ix_(rows, cols)]
        a, _ = fcls_gram(g, h, counts)
        r2 = yy[rows] - 2.0 * np.einsum("np,np->n", a, h) + np.einsum("np,np->n", a @ g, a)
        better = r2 < best_r2[rows] - _R2_TIE * yy[rows]
        if stop_r2 is not None:
            hit = r2 <= stop_r2 + _R2_SLACK * yy[rows]
            near = np.flatnonzero(hit)
            res = y[rows[near]] - a[near] @ signatures[cols]
            hit[near] = np.einsum("nl,nl->n", res, res) <= stop_r2
            better |= hit                       # a frozen pixel keeps its first hit
        upd = rows[better]
        best_r2[upd] = r2[better]
        best_cols[upd] = -1
        best_cols[upd, :cols.size] = cols
        best_a[upd] = 0.0
        best_a[upd, :cols.size] = a[better]
        if stop_r2 is not None:
            rows = rows[~hit]
    return best_cols, best_a, solved
