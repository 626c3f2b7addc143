"""Library search in Gram space, shared by MESMA and L0-exhaustive;
sparse L1 and greedy L0 use its statistics too.

Every subset's simplex fit needs only S S', Y S' and ||y||^2 (S holds
the signatures as rows), computed once per call: its problem is a
(P, P) block of S S' with P columns of Y S', and its squared residual
is r^2 = ||y||^2 - 2 a'h + a'Ga, with no per-subset work over bands.
Blocks of subsets of one size go to the kernel as one stack of Grams.
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

import itertools
from typing import Iterable, Optional

import numpy as np

from ..types import DimensionError
from .base import QPCounts, _gram, _row_product, fcls_gram

# r^2 from the statistics is trusted to this fraction of ||y||^2 by the
# early stop, which then recomputes it from the pixel
_R2_SLACK = 1e-10
# r^2 from the statistics rounds to a few eps ||y||^2: fits closer than
# this fraction of ||y||^2 are a tie
_R2_TIE = 1e-13
# subset x open-pixel pairs per kernel call: enough to spread a call's
# fixed numpy cost over many subsets, while a large image's call keeps its
# arrays small (1.5 MB per (pairs, 3) array)
_BLOCK_PAIRS = 65536


def distinct_rows(signatures: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row;
    rows are the same when their bytes are (0.0 and -0.0 differ)."""
    first = {}
    for i, row in enumerate(signatures):
        first.setdefault(row.tobytes(), i)
    return np.fromiter(first.values(), dtype=np.intp, count=len(first))


def library_stats(y: np.ndarray, signatures: np.ndarray):
    """(S S', Y S', ||y||^2) for signatures S as rows and pixels Y, after
    the library solvers' one band check."""
    if signatures.shape[1] != y.shape[1]:
        raise DimensionError("library band count does not match the image")
    gram, ys = _gram(y, signatures.T)
    return gram, ys, np.einsum("nl,nl->n", y, y)


def subset_search(
    gram: np.ndarray,
    ys: np.ndarray,
    yy: np.ndarray,
    subsets: Iterable,
    width: int,
    counts: QPCounts,
    stop_r2: Optional[float] = None,
    y: Optional[np.ndarray] = None,
    signatures: Optional[np.ndarray] = None,
):
    """Best simplex fit per pixel over column subsets, in enumeration order.

    ``subsets`` yields column tuples into the statistics, and ``counts``
    books every kernel call; a later subset replaces a pixel's kept one
    only if it lowers r^2 by more than ``_R2_TIE`` ||y||^2, so earlier
    subsets win ties and the kept r^2 is within that of the smallest.
    With ``stop_r2`` a pixel stops at the first subset with r^2 <= stop_r2
    and keeps it; later subsets are solved for open pixels only, and the
    search ends once none is open. The stop needs the pixels ``y`` and the
    ``signatures`` the statistics came from: where r^2 lies within
    rounding of ``stop_r2``, the residual is recomputed from them.

    Consecutive subsets of one size go to the kernel in blocks, one call
    per block on the stack of their Grams, for the pixels open when the
    block starts, with at most ``_BLOCK_PAIRS`` subset-pixel pairs per
    call (and at least one subset). With ``stop_r2`` the blocks grow from
    one subset, doubling each time, so a pixel that stops inside a block
    costs at most about twice the subsets a search of one subset at a
    time solves for it. Each block is then scanned subset by subset as
    above, so a pixel that stops inside a block ignores the rest of it.
    Every row's bits, from the kernel and from the r^2 and residual
    products, are those it gets alone, so the results do not depend on
    the blocking, and the subsets counted as solved are those a search of
    one subset at a time solves.

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
    grow = 1                                        # subsets in the next early-stop block
    for _, group in itertools.groupby(subsets, key=len):
        while rows.size:
            take = max(1, _BLOCK_PAIRS // rows.size)
            if stop_r2 is not None:
                take, grow = min(take, grow), 2 * grow
            block = list(itertools.islice(group, take))
            if not block:
                break
            block = np.array(block, dtype=np.intp)
            g = gram[block[:, :, None], block[:, None, :]]
            h = ys[rows[None, :, None], block[:, None, :]]
            a, _ = fcls_gram(g, h, counts)
            live = slice(None)                      # block positions of the open rows
            for cols, g_s, a_s, h_s in zip(block, g, a, h):
                if rows.size == 0:
                    break
                solved += 1
                a_s, h_s = a_s[live], h_s[live]
                r2 = (yy[rows] - 2.0 * np.einsum("np,np->n", a_s, h_s)
                      + np.einsum("np,np->n", _row_product(a_s, g_s), a_s))
                better = r2 < best_r2[rows] - _R2_TIE * yy[rows]
                if stop_r2 is not None:
                    hit = r2 <= stop_r2 + _R2_SLACK * yy[rows]
                    near = np.flatnonzero(hit)
                    res = y[rows[near]] - _row_product(a_s[near], signatures[cols])
                    hit[near] = np.einsum("nl,nl->n", res, res) <= stop_r2
                    better |= hit                   # a frozen pixel keeps its first hit
                upd = rows[better]
                best_r2[upd] = r2[better]
                best_cols[upd] = -1
                best_cols[upd, :cols.size] = cols
                best_a[upd] = 0.0
                best_a[upd, :cols.size] = a_s[better]
                if stop_r2 is not None:
                    rows, live = rows[~hit], np.arange(h.shape[1])[live][~hit]
        if rows.size == 0:
            break
    return best_cols, best_a, solved
