"""Rank-one factored endmember state shared by the ELMM and PLMM solvers.

Both models' endmember steps have the same closed form,

    M_n = M0 diag(psi_n) + u_n a_n',   u_n = (y_n - M0 diag(psi_n) a_n) / (lam + ||a_n||^2)

(PLMM: psi = 1 and lam = gamma). The alternating loop therefore keeps
only per-pixel factors, O(N(L+P)) memory: abundances a_n, scalings
psi_n, the scalings psi^M_n the field was built with, the direction u_n
and w_n = M0'u_n. The abundance step's Gram matrix and linear term, the
endmember step and the cost all follow from G0 = M0'M0, Y M0 and U M0;
the (N, L, P) field is built once, for output.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .base import QPCounts, SolverLog, _gram, fcls_gram, timed


@dataclass(frozen=True)
class RankOneState:
    """Per-pixel factors of M_n = M0 diag(psi_m_n) + u_n a_n'."""

    a: np.ndarray       # (N, P) abundances (and the field's rank-one factor)
    psi: np.ndarray     # (N, P) scaling factors (ones for PLMM)
    psi_m: np.ndarray   # (N, P) scaling inside the field
    u: np.ndarray       # (N, L) rank-one direction
    w: np.ndarray       # (N, P) M0' u_n
    dense: Optional[np.ndarray] = None  # (N, L, P) dense initial field, used by the first step only


class RankOneModel:
    """Factored algebra of sum_n ||y_n - M_n a_n||^2 + lam ||M_n - M0 diag(psi_n)||_F^2,
    with the kernel counts and per-phase seconds of one solver call."""

    def __init__(self, y: np.ndarray, m0: np.ndarray, lam: float):
        self.y, self.m0, self.lam = y, m0, lam
        self.g0 = m0.T @ m0
        self.ym0 = y @ m0
        self.col_sq = np.sum(m0**2, axis=0)
        self.counts = QPCounts()
        self.phases = {}

    def start(self, a, psi, dense=None) -> RankOneState:
        """State with field M0 diag(psi), or the given dense field."""
        n, l = self.y.shape
        return RankOneState(a, psi, psi, np.zeros((n, l)), np.zeros_like(psi), dense)

    def gram(self, s: RankOneState):
        """Per-pixel M_n'M_n (N, P, P) and M_n'y_n (N, P):
        G = D G0 D + D w a' + a w' D + ||u||^2 a a',  h = psi_m * (M0'y) + a (u'y)."""
        dw = s.psi_m * s.w
        cross = dw[:, :, None] * s.a[:, None, :]
        uu = np.einsum("nl,nl->n", s.u, s.u)
        g = (s.psi_m[:, :, None] * s.psi_m[:, None, :]) * self.g0
        g += cross + cross.transpose(0, 2, 1)
        g += uu[:, None, None] * (s.a[:, :, None] * s.a[:, None, :])
        h = s.psi_m * self.ym0 + s.a * np.einsum("nl,nl->n", s.u, self.y)[:, None]
        return g, h

    def step(self, s: RankOneState, psi: np.ndarray):
        """Abundance step against each pixel's current M_n, then the
        endmember step for scalings ``psi``. Returns (a, u, w)."""
        with timed(self.phases, "qp"):
            g, h = _gram(self.y, s.dense) if s.dense is not None else self.gram(s)
            a, _ = fcls_gram(g, h, self.counts)
        with timed(self.phases, "endmember"):
            r = self.y - (psi * a) @ self.m0.T
            u = r / (self.lam + np.einsum("np,np->n", a, a))[:, None]
        return a, u, u @ self.m0

    def cost(self, s: RankOneState) -> float:
        """Fit plus ``lam`` times the tie ||M0 diag(psi_m - psi) + u a'||_F^2,
        the latter from the column norms of M0 and w."""
        aa = np.einsum("np,np->n", s.a, s.a)
        fit = self.y - (s.psi_m * s.a) @ self.m0.T - s.u * aa[:, None]
        d = s.psi_m - s.psi
        tie = (np.sum(d**2 * self.col_sq) + 2.0 * np.sum(d * s.a * s.w)
               + np.einsum("nl,nl->n", s.u, s.u) @ aa)
        return float(np.sum(fit**2) + self.lam * tie)

    def field(self, s: RankOneState) -> np.ndarray:
        """The (N, L, P) endmember field; a new array."""
        if s.dense is not None:
            return s.dense.copy()
        return self.m0[None, :, :] * s.psi_m[:, None, :] + s.u[:, :, None] * s.a[:, None, :]

    def finish(self, log: SolverLog, start: float, flags: dict):
        """Complete the loop's log: kernel outcome, wall time, phases."""
        log.converged = log.converged and self.counts.unsettled_rows == 0
        log.wall_time_s = time.perf_counter() - start
        log.flags = {**flags, **self.counts.flags(), **log.flags}
        log.phases = self.phases
