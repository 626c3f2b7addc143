"""Rank-one factored endmember state shared by the ELMM and PLMM solvers.

Both models' endmember steps have the same closed form,

    M_n = M0 diag(psi_n) + u_n a_n',   u_n = (y_n - M0 b_n) / c_n,
    b_n = psi_n * a_n,   c_n = lam + ||a_n||^2

(PLMM: psi = 1 and lam = gamma). The loop keeps, instead of u, O(N P)
statistics found in O(P^2) per pixel from Y M0, ||y||^2 and G0 = M0'M0:
w = M0'u = (Y M0 - b G0) / c, u'y = (||y||^2 - b'M0'y) / c and ||u||^2 =
||y - M0 b||^2 / c^2, the last taken from the pixel where the statistics
put it within ``_RECOMPUTE`` ||y||^2 of zero (they cancel to about
eps ||y||^2). The residual y_n - M_n a_n is lam u_n, so the fit is
lam^2 ||u||^2 and the cost, like the Gram matrix and linear term, follows
from the statistics.

Both solvers start from the plain linear-mixing solution: FCLS
abundances on M0, solved from G0 and Y M0, unit scalings and u = 0
(``start``), so every M_n is M0, the tie is zero and the fit
||y - M0 b||^2 comes from the statistics by the same rule. Each
abundance step is one kernel call on the per-pixel Gram matrices, which
settles most pixels in its first round, on the full face.

The image is thus read only by ``__init__``, for the rows fitted to within
``_RECOMPUTE``, and by ``result``, which takes u from the pixels for the fit
M_n a_n = M0 b_n + ||a_n||^2 u_n, filling no field, and for each read of the
emitted field. Products of pixel rows with M0 or G0 are taken by
``_row_product``, so a lone pixel's PLMM result has the bits that pixel gets
in a larger image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..types import DimensionError, _all_finite, _freeze
from .base import QPCounts, UnmixingResult, _result, _row_product, fcls_gram

_RECOMPUTE = 1e-10


@dataclass(frozen=True)
class RankOneState:
    """Per-pixel factors of M_n = M0 diag(psi_m_n) + u_n a_n', u_n kept as
    statistics; ``start`` marks a start state, whose u is zero."""

    a: np.ndarray       # (N, P) abundances (and the field's rank-one factor)
    psi: np.ndarray     # (N, P) scaling factors (ones for PLMM)
    psi_m: np.ndarray   # (N, P) scaling inside the field
    w: np.ndarray       # (N, P) M0' u_n
    uu: np.ndarray      # (N,) ||u_n||^2
    uy: np.ndarray      # (N,) u_n' y_n
    fit: np.ndarray     # (N,) ||y_n - M_n a_n||^2
    start: bool = False


class RankOneModel:
    """Factored algebra of sum_n ||y_n - M_n a_n||^2 + lam ||M_n - M0 diag(psi_n)||_F^2,
    with the record (``QPCounts``, made first, so its clock starts with
    the model) and recomputed rows of one solver call. Its methods switch
    the record's phase: ``stats`` for the statistics, then ``endmember``,
    ``gram``, ``cost`` and ``result`` (``qp`` is the kernel's own)."""

    def __init__(self, y: np.ndarray, ref_matrix, lam: float):
        self.counts = QPCounts()
        m0 = np.array(ref_matrix, dtype=np.float64)     # private: the result's field reads it
        if m0.ndim != 2 or m0.shape[0] != y.shape[1]:
            raise DimensionError("ref_matrix must be (L, P) matching the image")
        if not _all_finite(m0):
            raise ValueError("non-finite solver inputs")
        self.y, self.m0, self.lam = y, m0, lam
        self.counts.phase("stats")
        self.g0 = m0.T @ m0
        self.ym0 = _row_product(y, m0)
        self.yy = np.einsum("nl,nl->n", y, y)
        self.col_sq = np.sum(m0**2, axis=0)
        self.recomputed_rows = 0

    def start(self, a, psi) -> RankOneState:
        """State with field M0 diag(psi) and abundances ``a``; its fit comes
        from the statistics by the rule of ``update`` and, like that step,
        is booked as phase ``endmember``."""
        self.counts.phase("endmember")
        fit = self._residual(psi * a)[2]
        zero = np.zeros(psi.shape[0])
        return RankOneState(a, psi, psi, np.zeros_like(psi), zero, zero, fit, start=True)

    def update(self, a: np.ndarray, psi: np.ndarray) -> RankOneState:
        """Endmember step for abundances ``a`` and scalings ``psi``."""
        b = psi * a
        c = self.lam + np.einsum("np,np->n", a, a)
        bg, bh, rr = self._residual(b)
        uu = rr / c**2
        return RankOneState(a, psi, psi, (self.ym0 - bg) / c[:, None], uu, (self.yy - bh) / c,
                            self.lam**2 * uu)

    def _residual(self, b: np.ndarray):
        """b G0, b'M0'y and ||y - M0 b||^2 per pixel, from the statistics;
        rows within ``_RECOMPUTE`` ||y||^2 of zero take the last from the
        pixel and are counted in ``recomputed_rows``."""
        bg = _row_product(b, self.g0)
        bh = np.einsum("np,np->n", b, self.ym0)
        rr = self.yy - 2.0 * bh + np.einsum("np,np->n", bg, b)
        rows = np.flatnonzero(rr <= _RECOMPUTE * self.yy)
        if rows.size:
            r = self.y[rows] - _row_product(b[rows], self.m0.T)
            rr[rows] = np.einsum("nl,nl->n", r, r)
            self.recomputed_rows += rows.size
        return bg, bh, rr

    def gram(self, s: RankOneState):
        """Per-pixel M_n'M_n (N, P, P) and M_n'y_n (N, P):
        G = D G0 D + D w a' + a w' D + ||u||^2 a a',  h = psi_m * (M0'y) + a (u'y).
        G is filled entry by entry, each an (N,) row of a (P, P, N) array,
        and returned as that array's (N, P, P) view; the kernel factors it
        column by column across the pixels."""
        psi, a = np.ascontiguousarray(s.psi_m.T), np.ascontiguousarray(s.a.T)
        dw = np.ascontiguousarray((s.psi_m * s.w).T)
        p = a.shape[0]
        g = np.empty((p, p, a.shape[1]))
        for i in range(p):
            for j in range(i, p):
                e = g[i, j]
                np.multiply(psi[i], psi[j], out=e)
                e *= self.g0[i, j]
                e += dw[i] * a[j] + a[i] * dw[j]
                e += s.uu * (a[i] * a[j])
                g[j, i] = e
        return g.transpose(2, 0, 1), s.psi_m * self.ym0 + s.a * s.uy[:, None]

    def step(self, s: RankOneState) -> RankOneState:
        """Abundance step against each pixel's current M_n, its Gram build
        in phase ``gram``, then the endmember step at the state's scalings."""
        self.counts.phase("gram")
        a, _ = fcls_gram(*self.gram(s), self.counts)
        self.counts.phase("endmember")
        return self.update(a, s.psi)

    def cost(self, s: RankOneState) -> float:
        """Fit plus ``lam`` times the tie ||M_n - M0 diag(psi_n)||_F^2, both
        from the statistics and the column norms of M0, in phase ``cost``."""
        self.counts.phase("cost")
        d = s.psi_m - s.psi
        tie = (np.sum(d**2 * self.col_sq) + 2.0 * np.sum(d * s.a * s.w)
               + s.uu @ np.einsum("np,np->n", s.a, s.a))
        return float(np.sum(s.fit) + self.lam * tie)

    def result(self, s: RankOneState, loop: tuple, flags: dict,
               extras: dict) -> UnmixingResult:
        """The solver's output by ``_result``. Its fit, the closed form M_n a_n =
        M0 (psi_m * a) + ||a||^2 u with residual lam u, fills no field; the
        field's fill writes psi_m_j m0_j + u a_j when read. Both take u (zero in
        a start state) from the pixels (a, psi_m: read-only copies). Its log
        holds ``loop``, the cost history, converged and flags ``monotone_loop``
        returns, after ``flags`` and the recomputed rows."""
        a, psi_m, start = _freeze(s.a), _freeze(s.psi_m), s.start
        aa = np.einsum("np,np->n", a, a)

        def direction(lo, hi, u):
            """M0 (psi_m * a) of pixels lo:hi; their u is written to ``u``."""
            m0b = _row_product(psi_m[lo:hi] * a[lo:hi], self.m0.T)
            np.subtract(m0b if start else self.y[lo:hi], m0b, out=u)      # start: u = 0
            u /= self.lam + aa[lo:hi, None]
            return m0b

        def fit(lo, hi, out):
            m0b = direction(lo, hi, out)
            out *= aa[lo:hi, None]
            out += m0b

        def fill(lo, hi, f):
            u = np.empty(f.shape[:2])
            direction(lo, hi, u)
            for j in range(a.shape[1]):
                np.multiply(psi_m[lo:hi, j, None], self.m0[:, j], out=f[:, :, j])
                f[:, :, j] += u * a[lo:hi, j, None]

        history, converged, loop_flags = loop
        return _result(self.y, a, fit, fill, self.counts, len(history) - 1, history[-1],
                       {**flags, "recomputed_rows": self.recomputed_rows, **loop_flags},
                       history, converged, extras=extras)
