"""Sparse regression unmixing over a flattened library.

The L1 variant solves, per pixel and without a sum-to-one constraint,

    min 0.5 ||y - M_lib a||^2 + lam * sum(a)   s.t.  a >= 0

(under nonnegativity the L1 norm is the plain sum, so the penalty is
linear). The L0 variant limits the support size instead, either greedily
or by exhaustive support enumeration; the exhaustive mode doubles as the
oracle for the greedy one.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
from scipy.optimize import nnls as scipy_nnls

from ..types import (
    AbundanceMap,
    BudgetError,
    DimensionError,
    EndmemberField,
    SpectralImage,
    SpectralLibrary,
)
from .base import (
    QPCounts,
    SolverLog,
    SolverOptions,
    UnmixingResult,
    fcls_core,
    nnls_core,
    per_pixel_rms,
)

_MASS_TOL = 1e-9
L0_SUPPORT_BUDGET = 10**4


def _column_names(library: SpectralLibrary) -> tuple:
    names = []
    for cls in library.classes:
        names.extend(f"{cls.name}:{i}" for i in range(cls.size))
    return tuple(names)


def _collapse_and_proxy(raw: np.ndarray, library: SpectralLibrary):
    """Class-collapsed abundances plus the per-pixel weighted-mean
    endmember proxy. Rows with no mass become uniform (flagged)."""
    n = raw.shape[0]
    p = library.n_classes
    l = library.n_bands
    collapsed = np.empty((n, p))
    proxy = np.empty((n, l, p))
    offset = 0
    for j, cls in enumerate(library.classes):
        cols = slice(offset, offset + cls.size)
        offset += cls.size
        mass = raw[:, cols].sum(axis=1)
        collapsed[:, j] = mass
        weighted = raw[:, cols] @ cls.signatures            # (N, L)
        safe = mass > _MASS_TOL
        proxy[safe, :, j] = weighted[safe] / mass[safe, None]
        proxy[~safe, :, j] = cls.signatures.mean(axis=0)
    total = collapsed.sum(axis=1)
    empty = total <= _MASS_TOL
    out = np.empty_like(collapsed)
    out[~empty] = collapsed[~empty] / total[~empty, None]
    out[empty] = 1.0 / p
    return out, proxy, int(empty.sum())


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

    Raw column abundances are kept without the sum-to-one flag; the
    class-collapsed map sums each class and normalizes rows with
    nonnegligible mass (empty rows turn uniform and are counted in the
    solver log). The emitted endmembers are the within-class
    abundance-weighted mean signatures, and the reconstruction is taken
    from that collapsed model.
    """
    if library.n_bands != image.n_bands:
        raise DimensionError("library band count does not match the image")
    start = time.perf_counter()
    flat, _ = library.flatten()
    m = flat.T                                   # (L, Q)
    y = image.pixels
    lam = opts.lambda_sparse
    counts = QPCounts()
    raw, rounds = nnls_core(y, m, lam, counts)
    collapsed, proxy, n_uniform = _collapse_and_proxy(raw, library)
    recon = np.einsum("nlp,np->nl", proxy, collapsed)
    cost = float(0.5 * np.sum((y - raw @ m.T) ** 2) + lam * raw.sum())
    log = SolverLog(
        iterations=rounds,
        final_cost=cost,
        converged=counts.unsettled_rows == 0,
        wall_time_s=time.perf_counter() - start,
        cost_history=(cost,),
        flags={"uniform_rows": n_uniform, "lambda": lam, **counts.flags()},
    )
    return UnmixingResult(
        abundances=AbundanceMap(collapsed, sum_to_one=True, class_names=library.class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(np.clip(proxy, 0.0, None)),
        raw_abundances=AbundanceMap(raw, sum_to_one=False, class_names=_column_names(library)),
    )


def _greedy_l0_pixel(y: np.ndarray, m: np.ndarray, k: int) -> tuple:
    """Forward selection with nonnegative refits; returns the sorted
    support."""
    q = m.shape[1]
    norms = np.linalg.norm(m, axis=0)
    norms[norms == 0] = 1.0
    support: list[int] = []
    residual = y.copy()
    for _ in range(min(k, q)):
        scores = (m.T @ residual) / norms
        scores[support] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= 0:
            break
        support.append(best)
        coef, _ = scipy_nnls(m[:, support], y)
        residual = y - m[:, support] @ coef
    if not support:
        support = [int(np.argmax((m.T @ y) / norms))]
    return tuple(sorted(support))


def sparse_su_l0(
    image: SpectralImage,
    library: SpectralLibrary,
    k: int,
    mode: str = "greedy",
    opts: SolverOptions = SolverOptions(),
    support_budget: int = L0_SUPPORT_BUDGET,
) -> UnmixingResult:
    """Support-limited unmixing: at most ``k`` active library columns per
    pixel, with a simplex-constrained fit on the chosen support.

    ``greedy`` runs matching-pursuit-style forward selection per pixel;
    ``exhaustive`` enumerates every support of size <= k (sizes ascending,
    lexicographic within a size, strict-improvement updates, so smaller
    supports win ties).
    """
    if library.n_bands != image.n_bands:
        raise DimensionError("library band count does not match the image")
    flat, _ = library.flatten()
    m = flat.T
    q = m.shape[1]
    if not (1 <= k <= q):
        raise ValueError(f"k must lie in [1, {q}]")
    if mode not in ("greedy", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    start = time.perf_counter()
    y = image.pixels
    n = y.shape[0]
    raw = np.zeros((n, q))
    sqrt_l = math.sqrt(image.n_bands)

    counts = QPCounts()
    if mode == "greedy":
        # one simplex refit per distinct support, over all its pixels
        by_support: dict = {}
        for i in range(n):
            by_support.setdefault(_greedy_l0_pixel(y[i], m, k), []).append(i)
        for support, rows in by_support.items():
            cols = np.array(support, dtype=np.intp)
            a, _ = fcls_core(y[rows], m[:, cols], counts)
            raw[np.ix_(rows, cols)] = a
    else:
        n_supports = sum(math.comb(q, j) for j in range(1, k + 1))
        if n_supports > support_budget:
            raise BudgetError(
                f"{n_supports} supports exceed the enumeration budget of {support_budget}"
            )
        best_re = np.full(n, np.inf)
        for size in range(1, k + 1):
            for support in itertools.combinations(range(q), size):
                cols = np.array(support, dtype=np.intp)
                a, _ = fcls_core(y, m[:, cols], counts)
                re = np.linalg.norm(y - a @ m[:, cols].T, axis=1) / sqrt_l
                better = re < best_re
                best_re[better] = re[better]
                raw[better] = 0.0
                raw[np.ix_(np.flatnonzero(better), cols)] = a[better]

    collapsed, proxy, n_uniform = _collapse_and_proxy(raw, library)
    recon = np.einsum("nlp,np->nl", proxy, collapsed)
    cost = float(np.sum((y - raw @ m.T) ** 2))
    log = SolverLog(
        iterations=1,
        final_cost=cost,
        converged=counts.unsettled_rows == 0,
        wall_time_s=time.perf_counter() - start,
        cost_history=(cost,),
        flags={"mode": mode, "k": k, "uniform_rows": n_uniform, **counts.flags()},
    )
    return UnmixingResult(
        abundances=AbundanceMap(collapsed, sum_to_one=True, class_names=library.class_names),
        per_pixel_re=per_pixel_rms(y, recon),
        reconstruction=recon,
        solver_log=log,
        endmembers=EndmemberField(np.clip(proxy, 0.0, None)),
        raw_abundances=AbundanceMap(raw, sum_to_one=True, class_names=_column_names(library)),
        extras={"support": raw > _MASS_TOL},
    )
