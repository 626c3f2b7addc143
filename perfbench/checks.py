"""Output checks the benchmark applies to every solver result.

These are computed here, independently of the solver code, so a change
to a solver cannot weaken them; only the sparse-L1 check uses varimix's
own ``kkt_residual_l1``. A check returns a list of problems; an empty
list means it passed.
"""

from __future__ import annotations

import numpy as np

from varimix.solvers import kkt_residual_l1

SUM_TOL = 1e-6          # row-sum tolerance, the same as AbundanceMap's
SUPPORT_TOL = 1e-9      # entries above this count as active
KKT_TOL = 1e-6          # scaled stationarity residual allowed per row


def simplex(a: np.ndarray, what: str) -> list[str]:
    """Abundances must be finite, nonnegative and sum to one per row."""
    a = np.asarray(a)
    if not np.isfinite(a).all():
        return [f"{what}: non-finite abundances"]
    problems = []
    if (a < 0).any():
        problems.append(f"{what}: {int((a < 0).any(axis=1).sum())} rows with negative entries")
    bad = np.abs(a.sum(axis=1) - 1.0) > SUM_TOL
    if bad.any():
        problems.append(f"{what}: {int(bad.sum())} rows do not sum to one")
    return problems


def simplex_kkt_residual(y: np.ndarray, m: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Scaled KKT residual per row of min ||y - M a||^2 s.t. a >= 0, 1'a = 1.

    ``m`` is a shared (L, P) matrix or per-pixel (N, L, P) matrices. At an
    optimum the gradient g = 2 M'(M a - y) equals a common multiplier nu on
    the support and is >= nu off it. nu is taken as the support mean of g;
    the residual is the worst deviation, divided by max(1, |2 M'y|_inf).
    """
    if m.ndim == 2:
        g = 2.0 * ((a @ m.T - y) @ m)
        h = 2.0 * (y @ m)
    else:
        r = np.einsum("nlp,np->nl", m, a) - y
        g = 2.0 * np.einsum("nlp,nl->np", m, r)
        h = 2.0 * np.einsum("nlp,nl->np", m, y)
    support = a > SUPPORT_TOL
    count = np.maximum(support.sum(axis=1), 1)
    nu = np.where(support, g, 0.0).sum(axis=1) / count
    active = np.where(support, np.abs(g - nu[:, None]), 0.0).max(axis=1)
    inactive = np.where(support, 0.0, np.maximum(nu[:, None] - g, 0.0)).max(axis=1)
    scale = np.maximum(1.0, np.abs(h).max(axis=1))
    return np.maximum(active, inactive) / scale


def simplex_kkt(y, m, a, what: str) -> list[str]:
    res = simplex_kkt_residual(np.asarray(y), np.asarray(m), np.asarray(a))
    bad = int((res > KKT_TOL).sum())
    if bad:
        return [f"{what}: {bad} rows fail the simplex KKT certificate "
                f"(worst {float(res.max()):.3g} > {KKT_TOL})"]
    return []


def model_matrices(signatures, selected: np.ndarray) -> np.ndarray:
    """Per-pixel (N, L, P) matrices of the library models in ``selected``
    (N, P), one signature index per class; ``signatures`` holds each
    class's (K_c, L) signatures."""
    return np.stack([sig[selected[:, c]] for c, sig in enumerate(signatures)], axis=2)


def match_models(field: np.ndarray, signatures) -> tuple[np.ndarray, int]:
    """Recover the per-pixel model behind a written endmember field.

    A written MESMA field holds each pixel's selected signatures clamped
    at zero. Returns the selected indices (N, P) and the number of
    (pixel, class) entries that match no clamped library signature.
    """
    n, _, p = field.shape
    selected = np.zeros((n, p), dtype=np.intp)
    unmatched = 0
    for c, sig in enumerate(signatures):
        dist = np.abs(field[:, None, :, c] - np.clip(sig, 0.0, None)[None]).max(axis=2)
        selected[:, c] = dist.argmin(axis=1)
        unmatched += int((dist.min(axis=1) > 1e-12).sum())
    return selected, unmatched


def l1_kkt(y, m, raw, lam, what: str) -> list[str]:
    """Nonnegative-L1 optimality of sparse-L1's raw column abundances,
    using varimix's own certificate (worst active and inactive violation)."""
    act, inact, scale = kkt_residual_l1(y, m, raw, lam)
    worst = max(act, inact) / scale
    if not np.isfinite(worst) or worst > KKT_TOL:
        return [f"{what}: L1 KKT residual {worst:.3g} > {KKT_TOL}"]
    return []


def support_size(raw: np.ndarray, k: int, what: str) -> list[str]:
    over = int(((raw > SUPPORT_TOL).sum(axis=1) > k).sum())
    return [f"{what}: {over} rows use more than {k} library columns"] if over else []
