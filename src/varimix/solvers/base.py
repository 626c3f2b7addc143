"""Shared solver machinery.

Every solver reduces to per-pixel constrained least squares in Gram
form, with G = M'M and h = M'y per pixel:

    simplex:  min 0.5 a'Ga - h'a   s.t.  a >= 0,  sum(a) = 1
    NNLS:     min 0.5 a'Ga - h'a   s.t.  a >= 0

(the L1-penalized problem is the NNLS one with h = M'y - lam). One exact
kernel, ``_active_set``, solves both: a primal active-set method with the
Lawson-Hanson step, batched over pixels: each round stacks the face
systems of all open rows and solves those of one size together.
``fcls_core`` wraps it for a shared (L, P) or per-pixel (N, L, P)
endmember matrix; ``fcls_gram`` and ``nnls_gram`` take G and h directly,
for solvers that build them in factored form or from library statistics,
and also take a stack of shared Grams, each with its own rows, in one
call; both run ``_kernel``, which books each call in the caller's ``QPCounts``.
``monotone_loop`` drives the alternating solvers, ``QPCounts`` records a
solver call phase by phase and builds its log, and ``_result`` builds
every solver's result: the reconstruction and per-pixel error of the
model it solved, from the fit the solver passes, a block of pixels at a
time, and the emitted endmember field, factored, clamped at zero when read.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..types import _CHUNK_ROWS, AbundanceMap, EndmemberField, _all_finite

_KKT_TOL = 1e-10            # pricing tolerance, relative to max(1, |h|_inf)
_RIDGE = 1e-10              # relative ridge for a singular face system
# rank test of the full face: columns m_i, m_j with |m_i - m_j|^2 <= _KKT_TOL (|m_i|^2 + |m_j|^2)
# meet at an angle whose sin^2, a bound on the later one's relative pivot, is below 2 _KKT_TOL
_PIVOT_TOL = 2.0 * _KKT_TOL


@dataclass(frozen=True)
class SolverOptions:
    """The ``opts`` of sparse L1 (``lambda_sparse``), ELMM (``max_iters``,
    ``tol``, ``lambda_m``, ``lambda_psi``) and PLMM (``max_iters``, ``tol``,
    ``gamma_plmm``), the only solvers that take one. The record stays, and
    each of them takes all of it, because ``perfbench/workloads.py`` passes
    it to them by position. Option files load by ``io.load_config``: an
    unknown key or a value of the wrong type raises ``FormatError``.
    """

    max_iters: int = 200            # outer iterations (alternating solvers)
    tol: float = 1e-6               # relative cost change stopping rule (alternating solvers)
    lambda_sparse: float = 1e-3     # L1 penalty weight
    lambda_m: float = 1.0           # endmember tie penalty (scaled model)
    lambda_psi: float = 0.1         # spatial smoothness of scaling factors
    gamma_plmm: float = 1.0         # perturbation Frobenius penalty

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        for name in ("tol", "lambda_m", "lambda_psi", "gamma_plmm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.lambda_sparse < 0:
            raise ValueError("lambda_sparse must be nonnegative")


@dataclass
class SolverLog:
    iterations: int = 0
    final_cost: float = 0.0
    converged: bool = True
    wall_time_s: float = 0.0
    cost_history: tuple = ()
    flags: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)      # seconds per solver phase


@dataclass
class UnmixingResult:
    """Everything a solver emits for one image."""

    abundances: AbundanceMap
    per_pixel_re: np.ndarray                    # (N,) RMS residual per pixel
    reconstruction: np.ndarray                  # (N, L) fitted pixels
    solver_log: SolverLog
    endmembers: Optional[EndmemberField] = None
    selected_model: Optional[np.ndarray] = None  # (N, P) per-class variant index
    raw_abundances: Optional[AbundanceMap] = None
    extras: dict = field(default_factory=dict)


def residual_stats(y: np.ndarray, reconstruction: np.ndarray) -> tuple[float, np.ndarray]:
    """Sum of squared residuals and root mean square residual per pixel,
    ||y_n - yhat_n|| / sqrt(L), from one residual array squared in place."""
    r = y - reconstruction
    np.square(r, out=r)
    return float(r.sum()), np.sqrt(r.sum(axis=1)) / np.sqrt(y.shape[1])


def _round_bound(p: int) -> int:
    """Rounds after which the kernel stops and reports the rows still
    open as unsettled. An exact run enters each column about once and
    drops it at most once, one round each."""
    return 3 * p + 10


@dataclass
class QPCounts:
    """One solver call's record, made first in the call: kernel rounds and
    unsettled rows summed over its kernel calls, and its phase clock. The
    call is in one phase at a time, ``input`` first; ``phase`` switches,
    and the seconds of each phase sum over its stretches, so the phases
    partition the call: the kernel books its calls as ``qp``, ``_result``
    switches to ``result`` and closes the log, a solver to its own."""

    rounds: int = 0
    unsettled_rows: int = 0
    phases: dict = field(default_factory=dict)
    current: str = "input"
    since: float = field(default_factory=time.perf_counter)

    def phase(self, name: str) -> str:
        """End the current phase now and start ``name``; returns the ended phase's name."""
        now, ended = time.perf_counter(), self.current
        self.phases[ended] = self.phases.get(ended, 0.0) + (now - self.since)
        self.current, self.since = name, now
        return ended

    def log(self, iterations: int, cost: float, flags=(), history=None,
            converged=True) -> SolverLog:
        """Every solver's log, its open phase closed, so ``wall_time_s`` is
        the sum of the phases: ``flags`` then the counts, ``history``
        (default: ``cost`` alone), and converged when ``converged`` holds
        and no kernel row is left unsettled."""
        self.phase(self.current)
        return SolverLog(iterations, cost, converged and self.unsettled_rows == 0,
                         sum(self.phases.values()), (cost,) if history is None else history,
                         dict(flags, qp_rounds=self.rounds, unsettled_rows=self.unsettled_rows),
                         self.phases)


def _gram(y, m):
    """Gram matrix and linear term for a shared (L, P) or per-pixel
    (N, L, P) matrix."""
    y = np.asarray(y, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if not (_all_finite(y) and _all_finite(m)):
        raise ValueError("non-finite solver inputs")
    if m.ndim == 2:
        return m.T @ m, _row_product(y, m)
    return np.einsum("nlp,nlq->npq", m, m), np.einsum("nlp,nl->np", m, y)


def _border(sub, rhs):
    """The bordered simplex systems [G -1; 1' 0][s; nu] = [h; 1] of face
    Grams ``sub`` (..., k, k) and linear terms ``rhs`` (..., R, k)."""
    k = rhs.shape[-1]
    border = np.zeros(sub.shape[:-2] + (k + 1, k + 1))
    border[..., :k, :k] = sub
    border[..., :k, k] = -1.0
    border[..., k, :k] = 1.0
    return border, np.concatenate([rhs, np.ones(rhs.shape[:-1] + (1,))], axis=-1)


def _solve_faces(gram, h, rows, passive, entering, simplex):
    """(R, P) minimizers of ``rows`` on their ``passive`` faces (dropping
    the sign constraints, keeping sum-to-one when ``simplex``), zero off
    the face, of a shared (P, P) Gram or of per-row (C, P, P) Grams. Each
    face size's systems are gathered once and go to one stacked LU solve.
    A row whose face is singular up to rounding, from collinear or zero
    columns, is solved again from the systems gathered, with a small
    ridge: a row whose system LAPACK's LU rejects (zero ``slogdet`` sign),
    and a row whose ``entering`` column (-1: none), positive at the
    minimizer of a regular face, is not. So a row's bits do not depend on
    the other rows."""
    def solve(a, b):
        return np.linalg.solve(a, b[..., None])[..., 0]

    s = np.zeros(passive.shape)
    sizes = passive.sum(axis=1)
    for k in np.unique(sizes):
        pos = np.flatnonzero(sizes == k)
        cols = np.nonzero(passive[pos])[1].reshape(pos.size, k)
        face = (cols[:, :, None], cols[:, None, :])
        sub = gram[face] if gram.ndim == 2 else gram[(rows[pos, None, None],) + face]
        rhs = h[rows[pos, None], cols]
        if simplex:
            sub, rhs = _border(sub, rhs)
        try:
            x, bad = solve(sub, rhs), np.zeros(pos.size, dtype=bool)
        except np.linalg.LinAlgError:
            x, bad = np.zeros(rhs.shape), np.linalg.slogdet(sub)[0] == 0
            x[~bad] = solve(sub[~bad], rhs[~bad])
        s[pos[:, None], cols] = x[:, :k]
        new = entering[pos]
        bad |= (new >= 0) & (s[pos, np.maximum(new, 0)] <= 0.0)
        if bad.any():
            sub = sub[bad]
            tr = np.trace(sub[:, :k, :k], axis1=1, axis2=2) / k
            sub[:, :k, :k] += (_RIDGE * np.where(tr > 0, tr, 1.0))[:, None, None] * np.eye(k)
            s[pos[bad, None], cols[bad]] = solve(sub, rhs[bad])[:, :k]
    return s


def _cholesky_pivots(gram):
    """Squared pivots of the Cholesky factor of a (P, P) Gram or of each
    in an (M, P, P) stack, zero for a Gram that LAPACK rejects. A stack
    with one such Gram is factored again one Gram at a time."""
    try:
        return np.diagonal(np.linalg.cholesky(gram), axis1=-2, axis2=-1) ** 2
    except np.linalg.LinAlgError:
        if gram.ndim == 2:
            return np.zeros(gram.shape[0])
        return np.stack([_cholesky_pivots(g) for g in gram])


def _full_face(gram, h, simplex):
    """Minimizers of every row on the full face, NaN on the rows whose
    Gram fails the rank test: some pivot d_j of its Cholesky
    factorization, the squared distance of column j to the span of the
    columns before it, is at most ``_PIVOT_TOL`` G_jj.

    ``gram`` is a stack of M shared (P, P) Grams with their rows' (M, N, P)
    linear terms ``h``, or per-pixel (N, P, P) Grams with (N, P). A stack
    is tested by one batched LAPACK Cholesky, and the Grams that pass are
    solved in one batched solve, each once with its N right-hand sides (the
    bordered system when ``simplex``). One right-hand side takes another
    LAPACK path than several, which rounds otherwise, so a lone row is
    solved twice over: a row's bits do not depend on how many rows share
    its Gram. Per-pixel Grams are factored column by column across all
    rows at once, with elementwise operations on (N,) columns, so the
    number of numpy calls grows with P^2, not with N, and each row's bits
    do not depend on the other rows. G [x t] = [h 1] follows by
    substitution: the NNLS minimizer is x, the simplex one x + nu t with
    nu = (1 - 1'x) / 1't."""
    n, p = h.shape[-2:]
    if gram.ndim == h.ndim:
        ok = np.all(_cholesky_pivots(gram) > _PIVOT_TOL * np.diagonal(gram, axis1=1, axis2=2),
                    axis=1)
        if not ok.all():
            s = np.full(h.shape, np.nan)
            if ok.any():
                s[ok] = _full_face(gram[ok], h[ok], simplex)
            return s
        sub, rhs = _border(gram, h) if simplex else (gram, h)
        rhs = np.repeat(rhs, 2, axis=1) if n == 1 else rhs
        return np.linalg.solve(sub, rhs.swapaxes(1, 2))[:, :p, :n].swapaxes(1, 2)
    g = gram.transpose(1, 2, 0)                  # (P, P, N) view: G_ij is an (N,) column
    low = np.empty((p, p, n))
    singular = np.zeros(n, dtype=bool)
    unit = np.zeros((p, 1))
    unit[0] = 1.0
    for j in range(p):
        col = g[j:, j].copy()                    # Schur complement column j, pivot first
        for k in range(j):
            col -= low[j:, k] * low[j, k]
        singular |= col[0] <= _PIVOT_TOL * g[j, j]
        col = np.where(singular, unit[:p - j], col)     # a singular row factors on as I
        low[j, j] = np.sqrt(col[0])
        low[j + 1:, j] = col[1:] / low[j, j]
    z = np.empty((p, 1 + simplex, n))           # right-hand sides h and 1, then solutions
    z[:, 0] = h.T
    if simplex:
        z[:, 1] = 1.0
    for k in range(p):                           # L z = b
        z[k] /= low[k, k]
        z[k + 1:] -= low[k + 1:, k, None] * z[k]
    for k in reversed(range(p)):                 # L' w = z
        z[k] /= low[k, k]
        z[:k] -= low[k, :k, None] * z[k]
    x = z[:, 0]
    if simplex:
        total = z[0].copy()                      # 1'x and 1't, summed in column order
        for k in range(1, p):
            total += z[k]
        x += ((1.0 - total[0]) / total[1]) * z[:, 1]
    s = x.T
    s[singular] = np.nan
    return s


def _active_set(gram, h, simplex):
    """Exact minimizer of 0.5 a'Ga - h'a per row over a >= 0, plus
    sum(a) = 1 when ``simplex``.

    ``gram`` is a stack of M shared (P, P) Grams, each with its own rows'
    linear terms, ``h`` (M, N, P), or per-pixel (N, P, P) with ``h`` (N, P);
    ``_kernel`` runs a lone (P, P) Gram as the stack M = 1.
    Round 1 solves every row on the full face (``_full_face``), factoring
    each Gram once; a row whose minimizer there is positive in every entry
    is settled, as no column is left to price. The other rows go cold:
    their linear terms and tolerances, and their own Grams from a stack of
    several or from per-pixel Grams, are gathered once into compact
    per-row arrays. A stack of one Gram is not copied per row: its cold
    rows are priced by one matrix product with it. A cold row whose Gram
    passed the rank test starts round 2 on the face of its round-1
    minimizer's positive entries, if the minimizer of that face is
    positive; otherwise it starts at its best vertex (simplex) or at zero
    (NNLS). So does a row whose Gram fails the rank test (duplicate,
    near-duplicate, collinear or zero columns, more columns than bands):
    its full-face minimizer need not be unique, and settling there could
    share abundance among dependent columns, while a ridged answer would
    leave an O(ridge^2) excess cost on a pixel the face fits exactly. A
    cold row alternates two phases. Pricing: at the minimizer of its
    passive face, the row is settled when no inactive column lowers the
    cost (KKT holds to ``_KKT_TOL``); otherwise the most violating column
    enters. Solving: the face minimizer of the enlarged set is accepted
    when it is positive; otherwise the iterate moves toward it until the
    first passive entry reaches zero, which is dropped (Lawson-Hanson),
    and the smaller face is solved again. Each round gathers the open
    rows' face systems and makes one stacked solve per face size
    (``_solve_faces``), so a row's bits do not depend on the other rows. A
    column identical to a passive one prices at zero and never enters.

    Returns (a shaped as ``h``, rounds, flat indices of the rows still
    open after ``_round_bound(P)`` rounds); open rows keep their current
    feasible iterate.
    """
    p = h.shape[-1]
    rounds = int(h.size > 0 and _round_bound(p) > 0)     # the full-face solve is round 1
    s = _full_face(gram, h, simplex) if rounds else np.full(h.shape, np.nan)
    cold = np.flatnonzero(~np.all(s > 0.0, axis=-1))
    a = np.ascontiguousarray(s).reshape(-1, p)
    if cold.size == 0:
        return a.reshape(h.shape), rounds, cold
    if gram.ndim > h.ndim:
        grams = gram[cold]
    else:
        grams = gram[0] if gram.shape[0] == 1 else gram[cold // h.shape[1]]
    a[cold], rounds, open_rows = _climb(grams, h.reshape(-1, p)[cold], a[cold], simplex, rounds)
    return a.reshape(h.shape), rounds, cold[open_rows]


def _climb(gram, h, s, simplex, rounds):
    """``_active_set`` from round 2 on for the cold rows' (C, P) linear
    terms, with their shared (P, P) Gram or their own (C, P, P) Grams,
    given their round-1 minimizers ``s`` (NaN: the rank test failed) and
    the rounds taken so far. A shared Gram's rows are priced by one
    matrix product, other rows by a product per row; the two can round
    otherwise, which can change the entering column only between prices
    equal to rounding. Returns (a, rounds, rows still open)."""
    c, p = h.shape
    a = np.zeros((c, p))
    passive = s > 0.0
    # the face start; a simplex face of one column is its own minimizer's vertex
    start = np.flatnonzero(passive.sum(axis=1) > simplex)
    if start.size and rounds < _round_bound(p):
        rounds += 1
        x = _solve_faces(gram, h, start, passive[start], np.full(start.size, -1), simplex)
        ok = np.all((x > 0.0) == passive[start], axis=1)
        a[start[ok]] = x[ok]
        start = start[~ok]
    passive[start] = False
    if simplex:
        rest = np.flatnonzero(~passive.any(axis=1))
        diag = np.diagonal(gram, axis1=-2, axis2=-1)
        vertex = np.argmin(0.5 * (diag if gram.ndim == 2 else diag[rest]) - h[rest], axis=1)
        passive[rest, vertex] = True
        one = passive.sum(axis=1) == 1
        a[one] = passive[one]
    tol = _KKT_TOL * np.maximum(1.0, np.abs(h).max(axis=1, initial=0.0))
    entering = np.full(c, -1)
    pricing, solving = np.arange(c), np.arange(0)
    while True:
        if pricing.size:
            pas = passive[pricing]
            if gram.ndim == 2:
                g = a[pricing] @ gram - h[pricing]
            else:
                g = np.einsum("npq,nq->np", gram[pricing], a[pricing]) - h[pricing]
            if simplex:
                g -= (np.where(pas, g, 0.0).sum(axis=1) / pas.sum(axis=1))[:, None]
            g[pas] = np.inf
            col = np.argmin(g, axis=1)
            enter = g[np.arange(pricing.size), col] < -tol[pricing]
            passive[pricing[enter], col[enter]] = True
            entering[pricing[enter]] = col[enter]
            solving = np.concatenate([solving, pricing[enter]])
        if solving.size == 0 or rounds == _round_bound(p):
            return a, rounds, solving
        rounds += 1
        s = _solve_faces(gram, h, solving, passive[solving], entering[solving], simplex)
        entering[solving] = -1
        blocked = passive[solving] & (s <= 0.0)
        done = ~blocked.any(axis=1)
        a[solving[done]] = s[done]
        if not done.all():
            r, s, blocked = solving[~done], s[~done], blocked[~done]
            x = a[r]
            ratio = np.where(blocked, np.divide(x, x - s, out=np.zeros_like(x), where=x > s),
                             np.inf)
            first = np.argmin(ratio, axis=1)
            x += ratio[np.arange(r.size), first][:, None] * (s - x)
            x[np.arange(r.size), first] = 0.0
            keep = passive[r] & (x > 0.0)
            passive[r] = keep
            a[r] = np.where(keep, x, 0.0)
        pricing, solving = solving[done], solving[~done]


def fcls_core(y: np.ndarray, m: np.ndarray, counts: QPCounts):
    """Simplex-constrained least squares for all pixels,
    min ||y - M a||^2 s.t. a >= 0, sum(a) = 1.

    ``y`` is (N, L); ``m`` a shared (L, P) or per-pixel (N, L, P) matrix.
    Returns (abundances, kernel rounds); ``counts`` accumulates the rounds,
    the unsettled rows and the kernel's seconds.
    """
    return fcls_gram(*_gram(y, m), counts)


def _kernel(gram, h, counts, simplex):
    """The one body of ``fcls_gram`` and ``nnls_gram``: a lone (P, P) Gram
    with its (N, P) linear terms runs as the stack M = 1, simplex rows are
    normalised, and ``counts`` books the call, as phase ``qp``."""
    caller = counts.phase("qp")
    lone = gram.ndim == 2
    if lone:
        gram, h = gram[None], h[None]
    a, rounds, open_rows = _active_set(gram, h, simplex)
    if simplex:
        a /= a.sum(axis=-1, keepdims=True)
    counts.rounds += rounds
    counts.unsettled_rows += open_rows.size
    counts.phase(caller)
    return (a[0] if lone else a), rounds


def fcls_gram(gram: np.ndarray, h: np.ndarray, counts: QPCounts):
    """``fcls_core`` in Gram form: ``gram`` is a shared (P, P) or
    per-pixel (N, P, P) M'M and ``h`` the (N, P) M'y. A stack of M shared
    Grams (M, P, P) with (M, N, P) linear terms, each solved for its own
    rows, is one call: each Gram is factored once, and every row gets the
    bits that a call on its Gram alone gives it, barring prices equal to
    rounding (``_climb``)."""
    return _kernel(gram, h, counts, simplex=True)


def reconstruct(m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Fitted pixels for shared (L, P) or per-pixel (N, L, P) matrices.
    Per-pixel matrices take one stacked product, which numpy runs as one
    BLAS matrix-vector product per pixel, so a row's bits depend neither
    on how many rows share the call nor on the BLAS thread count; a
    shared matrix takes ``_row_product``."""
    if m.ndim == 2:
        return _row_product(a, m.T)
    return np.matmul(m, a[:, :, None])[:, :, 0]


def _result(y, a, fit, fill, counts: QPCounts, iterations: int, cost=None, flags=(),
            history=None, converged=True, class_names=None, **fields) -> UnmixingResult:
    """Every solver's result for simplex abundances ``a``. Its reconstruction,
    ``per_pixel_re`` and summed squared residual (exactly rounded sum of the
    chunk sums; the logged cost when ``cost`` is None) are the solved model's
    own, built ``_CHUNK_ROWS`` pixels at a time in phase ``result`` by ``fit(lo,
    hi, out)``, which writes the model's fitted pixels lo:hi (a row's bits do
    not depend on the chunk size when its products keep them). Its field, the
    one place an emitted field is clamped, is what ``fill(lo, hi, out)``
    writes, clamped at zero when read; none if ``fill`` is None (FCLS)."""
    (n, l), p = y.shape, a.shape[1]
    recon, re = np.empty((n, l)), np.empty(n)
    sums = []
    counts.phase("result")
    for lo in range(0, n, _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, n)
        fit(lo, hi, recon[lo:hi])
        total, re[lo:hi] = residual_stats(y[lo:hi], recon[lo:hi])
        sums.append(total)

    def clamped(lo, hi, out):
        fill(lo, hi, out)
        np.clip(out, 0.0, None, out=out)

    abundances = AbundanceMap(a, sum_to_one=True, class_names=class_names)
    log = counts.log(iterations, math.fsum(sums) if cost is None else cost, flags, history,
                     converged)
    field = None if fill is None else EndmemberField.factored((n, l, p), clamped)
    return UnmixingResult(abundances, re, recon, log, field, **fields)


def _row_product(b: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b @ m for a 2-D ``m``. numpy sends a one-row product to gemv, which
    rounds otherwise than gemm, so a lone row is multiplied twice over: a
    row's bits do not depend on how many rows share its product."""
    if b.shape[0] == 1:
        return (np.repeat(b, 2, axis=0) @ m)[:1]
    return b @ m


def nnls_gram(gram: np.ndarray, h: np.ndarray, counts: QPCounts):
    """Nonnegative least squares with a linear sparsity term,

        min 0.5 ||y - M a||^2 + lam * sum(a)   s.t.  a >= 0

    for all pixels, in Gram form with ``h`` = M'y - lam; shapes, return
    value and ``counts`` as in ``fcls_gram``."""
    return _kernel(gram, h, counts, simplex=False)


_ZERO_COST_FLOOR = 1e-24


def monotone_loop(initial_state, step_fn, cost_fn, max_iters, tol):
    """Alternating-minimization driver with a nonincreasing cost history.

    Each step is one sweep of exact block updates, so the cost can only
    rise through clamping or rounding. A step that raises it is not
    taken: the loop ends at the previous state, unconverged, and the rise
    is counted in ``flags["cost_rises"]``. ``converged`` means the
    relative cost change fell below ``tol``; ``flags["cap_hit"]`` is 1
    when the loop took ``max_iters`` steps and neither ended it; ``flags["last_rel_change"]``
    is the relative cost change of the last step taken (None if none was). Costs at the
    floating-point floor count as zero, so exact-data fixtures stop at the initialization.

    Returns (state, cost history, converged, flags); ``QPCounts.log``
    makes the log.
    """
    state = initial_state
    c = cost_fn(state)
    history = [c]
    converged = c <= _ZERO_COST_FLOOR
    rises, rel = 0, None
    for _ in range(0 if converged else max_iters):
        cand = step_fn(state)
        c_new = cost_fn(cand)
        if c_new > c:
            rises = 1
            break
        rel = (c - c_new) / max(c, 1e-300)
        state, c = cand, c_new
        history.append(c)
        if rel < tol or c <= _ZERO_COST_FLOOR:
            converged = True
            break
    return state, tuple(history), converged, {"cost_rises": rises,
                                              "cap_hit": int(not (converged or rises)),
                                              "last_rel_change": rel}
