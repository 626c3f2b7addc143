"""Sparse regression unmixing over a flattened library.

The L1 variant solves, per pixel and without a sum-to-one constraint,

    min 0.5 ||y - M_lib a||^2 + lam * sum(a)   s.t.  a >= 0

(under nonnegativity the L1 norm is the plain sum, so the penalty is
linear). The L0 variant limits the support size instead, either greedily
or by exhaustive support enumeration; the exhaustive mode doubles as the
oracle for the greedy one.

L1 and both L0 modes work on the library's distinct signatures in Gram
space (``search``): exact duplicates collapse to their first occurrence,
which gets the raw mass, and the exhaustive mode's residuals, read from the
statistics, are precise to about 1e-8 ||y|| on the RMS error. The greedy
mode is orthogonal matching pursuit batched over pixels (Batch-OMP,
Rubinstein, Zibulevsky & Elad 2008) with nonnegative refits. Both fit
raw S, the raw abundances times the flattened library, and emit each
class's abundance-weighted mean signature per pixel, factored; with the
class abundances it gives S a / sum(a), L0's fit but not L1's.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Optional

import numpy as np

from ..types import AbundanceMap, BudgetError, SpectralImage, SpectralLibrary
from .base import (_KKT_TOL, QPCounts, SolverOptions, UnmixingResult, _result, _row_product,
                   fcls_gram, nnls_gram)
from .search import distinct_rows, library_stats, subset_search

_MASS_TOL = 1e-9
L0_SUPPORT_BUDGET = 10**4


def _class_result(y, raw, flat, library, counts, iterations, flags, cost=None,
                  raw_sum_to_one=False) -> UnmixingResult:
    """The result of raw library abundances, by ``_result``, columns named
    class:index: each class's mass, normalized over the classes (rows with
    no mass become uniform, counted before ``flags`` in the log), and the
    field of each class's abundance-weighted mean signature (the class mean
    where it has no mass), kept as factors that read ``raw`` (the caller's
    own). Its fit is raw S, with S = ``flat`` the flattened library (a
    massless row reports ||y|| / sqrt(L)); its summed squared residual is
    the logged cost when ``cost`` is None. The work before it is booked in
    the caller's phase."""
    bounds = np.cumsum([0, *library.sizes])
    classes = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    mass = np.stack([raw[:, cols].sum(axis=1) for cols in classes], axis=1)
    total = mass.sum(axis=1, keepdims=True)
    collapsed = np.divide(mass, total, out=np.full_like(mass, 1.0 / library.n_classes),
                          where=total > _MASS_TOL)
    means = [cls.signatures.mean(axis=0) for cls in library.classes]

    def fill(lo, hi, f):
        for j, (cols, cls) in enumerate(zip(classes, library.classes)):
            safe = mass[lo:hi, j, None] > _MASS_TOL
            np.divide(_row_product(raw[lo:hi, cols], cls.signatures), mass[lo:hi, j, None],
                      out=f[:, :, j], where=safe)
            np.copyto(f[:, :, j], means[j], where=~safe)

    def fit(lo, hi, out):
        out[:] = _row_product(raw[lo:hi], flat)

    names = tuple(f"{cls.name}:{i}" for cls in library.classes for i in range(cls.size))
    return _result(y, collapsed, fit, fill, counts, iterations, cost,
                   {"uniform_rows": int(np.sum(total <= _MASS_TOL)), **flags},
                   class_names=library.class_names,
                   raw_abundances=AbundanceMap(raw, sum_to_one=raw_sum_to_one, class_names=names))


def kkt_residual_l1(y: np.ndarray, m: np.ndarray, a: np.ndarray, lam: float):
    """Worst KKT violations of the nonnegative L1 problem.

    Returns (active violation, inactive violation, scale): active columns
    should satisfy gradient + lam = 0, inactive ones gradient + lam >= 0,
    with gradient = M^T(Ma - y).
    """
    grad = a @ (m.T @ m) - y @ m + lam
    active = a > _MASS_TOL
    act = np.max(np.abs(grad[active])) if active.any() else 0.0
    inact = np.max(np.maximum(0.0, -grad[~active])) if (~active).any() else 0.0
    scale = float(np.max(np.maximum(1.0, np.max(np.abs(y @ m), axis=1) + lam)))
    return float(act), float(inact), scale


def kkt_residual_simplex(y: np.ndarray, m: np.ndarray, a: np.ndarray):
    """Worst KKT violations of min ||y - M a||^2 s.t. a >= 0, sum(a) = 1,
    for a shared (L, P) or per-pixel (N, L, P) matrix.

    Returns (active violation, inactive violation, scale): with gradient
    g = M^T(Ma - y) and nu the per-row mean of g over the active columns,
    active columns should satisfy g = nu and inactive ones g >= nu.
    """
    if m.ndim == 2:
        grad = (a @ m.T - y) @ m
        h = y @ m
    else:
        grad = np.einsum("nlp,nl->np", m, np.einsum("nlp,np->nl", m, a) - y)
        h = np.einsum("nlp,nl->np", m, y)
    active = a > _MASS_TOL
    nu = np.where(active, grad, 0.0).sum(axis=1) / np.maximum(active.sum(axis=1), 1)
    dev = grad - nu[:, None]
    act = np.max(np.abs(dev[active])) if active.any() else 0.0
    inact = np.max(np.maximum(0.0, -dev[~active])) if (~active).any() else 0.0
    scale = float(np.max(np.maximum(1.0, np.max(np.abs(h), axis=1))))
    return float(act), float(inact), scale


def sparse_su_l1(
    image: SpectralImage,
    library: SpectralLibrary,
    opts: SolverOptions = SolverOptions(),
) -> UnmixingResult:
    """Nonnegative L1-penalized regression on the flattened library.

    Copies of a signature are solved once, and the first occurrence gets
    the raw mass (``duplicates`` counts the copies). Raw column
    abundances are kept without the sum-to-one flag; the
    class-collapsed map sums each class and normalizes rows with
    nonnegligible mass (empty rows turn uniform and are counted in the
    solver log). The reconstruction, ``per_pixel_re`` and logged cost are
    the L1 problem's; the emitted endmembers, the within-class abundance-
    weighted mean signatures, times the class abundances give S a / sum(a).
    """
    counts = QPCounts()
    flat, _ = library.flatten()
    y = image.pixels
    lam = opts.lambda_sparse
    counts.phase("stats")
    keep = distinct_rows(flat)                  # original column per distinct one
    distinct = flat[keep]
    gram, ys, yy = library_stats(y, distinct)
    a, rounds = nnls_gram(gram, ys - lam, counts)
    raw = np.zeros((y.shape[0], flat.shape[0]))
    raw[:, keep] = a
    r2 = yy + np.einsum("np,np->n", _row_product(a, gram) - 2.0 * ys, a)   # from the statistics
    cost = float(0.5 * np.maximum(r2, 0.0).sum() + lam * a.sum())
    return _class_result(y, raw, flat, library, counts, rounds,
                         {"lambda": lam, "duplicates": flat.shape[0] - keep.size}, cost=cost)


def _greedy_supports(gram: np.ndarray, ys: np.ndarray, k: int, counts: QPCounts):
    """Forward selection with nonnegative refits, all pixels at once.

    Each step scores every unselected column by its correlation with the
    pixel's residual over its norm, (Y S' - C G) / ||s||, with C the
    current NNLS coefficients, and adds the best one. A pixel stops when
    no score exceeds the kernel's pricing tolerance, relative to
    max(1, |S y|_inf); its first column is taken regardless.

    Returns the (N, min(k, Q)) selected columns, sorted ascending in each
    row and padded with -1.
    """
    n, q = ys.shape
    steps = min(k, q)
    norms = np.sqrt(np.diagonal(gram)).copy()
    norms[norms == 0] = 1.0
    tol = _KKT_TOL * np.maximum(1.0, np.abs(ys).max(axis=1))
    sel = np.full((n, steps), q)                # q marks an empty slot
    coef = np.zeros((n, q))
    rows = np.arange(n)
    for t in range(steps):
        idx = np.arange(rows.size)[:, None]
        scores = (ys[rows] - coef[rows] @ gram) / norms
        scores[idx, sel[rows, :t]] = -np.inf
        best = np.argmax(scores, axis=1)
        go = scores[idx[:, 0], best] > tol[rows]
        take = go | (t == 0)
        sel[rows[take], t] = best[take]
        rows = rows[go]
        if t + 1 == steps or rows.size == 0:
            break
        s = sel[rows, :t + 1]
        c, _ = nnls_gram(gram[s[:, :, None], s[:, None, :]], ys[rows[:, None], s], counts)
        coef[rows] = 0.0
        coef[rows[:, None], s] = c
    sel.sort(axis=1)
    sel[sel == q] = -1
    return sel


def check_l0(k: Optional[int] = None, mode: str = "greedy"):
    """Sparse L0's parameter values, checked before any data: ``k`` is None
    or an integer >= 1 (not a bool), ``mode`` greedy or exhaustive."""
    if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k is not None and k < 1:
        raise ValueError("k must lie in [1, the library's signature count]")
    if mode not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")


def sparse_su_l0(
    image: SpectralImage,
    library: SpectralLibrary,
    k: Optional[int] = None,
    mode: str = "greedy",
) -> UnmixingResult:
    """Support-limited unmixing: at most ``k`` active library columns per
    pixel (default: one per class), with a simplex-constrained fit on the
    chosen support.

    ``greedy`` runs matching-pursuit-style forward selection for all
    pixels at once; ``exhaustive`` enumerates every support of size <= k
    (sizes ascending, lexicographic within a size; a later support must
    lower the squared residual by more than 1e-13 ||y||^2, so smaller
    supports win ties; supports of one size go to the kernel in blocks,
    one stacked call each). Both search the distinct signatures;
    ``L0_SUPPORT_BUDGET`` applies to the library as given.
    """
    counts = QPCounts()
    check_l0(k, mode)
    flat, _ = library.flatten()
    q = flat.shape[0]
    k = library.n_classes if k is None else int(k)
    if k > q:
        raise ValueError(f"k must lie in [1, {q}]")
    if mode == "exhaustive":
        n_supports = sum(math.comb(q, j) for j in range(1, k + 1))
        if n_supports > L0_SUPPORT_BUDGET:
            raise BudgetError(f"{n_supports} supports exceed the enumeration budget of "
                              f"{L0_SUPPORT_BUDGET}")
    y = image.pixels
    n = y.shape[0]
    counts.phase("stats")
    keep = distinct_rows(flat)                  # original column per distinct one
    gram, ys, yy = library_stats(y, flat[keep])
    counts.phase("select" if mode == "greedy" else "search")
    width = min(k, keep.size)
    if mode == "greedy":
        cols = _greedy_supports(gram, ys, k, counts)
        sizes = (cols >= 0).sum(axis=1)
        a = np.zeros((n, width))
        for i in range(1, width + 1):
            r = np.flatnonzero(sizes == i)
            s = cols[r, :i]
            a[r, :i], _ = fcls_gram(gram[s[:, :, None], s[:, None, :]], ys[r[:, None], s], counts)
    else:
        supports = itertools.chain.from_iterable(
            itertools.combinations(range(keep.size), i) for i in range(1, width + 1))
        cols, a, _ = subset_search(gram, ys, yy, supports, width, counts)
    raw = np.zeros((n, q))
    r, slot = np.nonzero(cols >= 0)
    raw[r, keep[cols[r, slot]]] = a[r, slot]
    return _class_result(y, raw, flat, library, counts, 1,
                         {"mode": mode, "k": k, "duplicates": q - keep.size}, raw_sum_to_one=True)
