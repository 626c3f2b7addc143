"""Independent brute-force oracles used to validate the solvers.

These deliberately avoid the package's solver code paths: the simplex QP
enumerates active sets directly, the model search is a plain double loop,
the sparse oracle is cyclic coordinate descent on the objective, and the
simplex projection backs a projected-gradient optimality check.
"""

import itertools

import numpy as np


def project_simplex(v):
    """Euclidean projection of each row onto the probability simplex
    (sort-based algorithm)."""
    v = np.atleast_2d(v)
    n, p = v.shape
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    denom = np.arange(1, p + 1)
    cond = u > css / denom
    rho = p - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1.0)
    return np.maximum(v - theta[:, None], 0.0)


def qp_fcls_oracle(y, m):
    """Exact minimizer of ||y - M a||^2 on the simplex by enumerating all
    supports and keeping the best feasible equality-constrained solution."""
    p = m.shape[1]
    best_cost, best_a = np.inf, None
    for r in range(1, p + 1):
        for support in itertools.combinations(range(p), r):
            ms = m[:, support]
            k = len(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2 * ms.T @ ms
            kkt[:k, k] = -1.0
            kkt[k, :k] = 1.0
            rhs = np.concatenate([2 * ms.T @ y, [1.0]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            a_s = sol[:k]
            if np.any(a_s < -1e-12):
                continue
            a = np.zeros(p)
            a[list(support)] = np.maximum(a_s, 0.0)
            a /= a.sum()
            cost = float(np.sum((y - m @ a) ** 2))
            if cost < best_cost - 1e-15:
                best_cost, best_a = cost, a
    return best_a, best_cost


def mesma_oracle(y, library):
    """Per-pixel exhaustive model enumeration with the QP oracle; ties go
    to the lexicographically smallest index tuple."""
    sigs = [c.signatures for c in library.classes]
    sizes = [s.shape[0] for s in sigs]
    l = y.shape[0]
    best = None
    for combo in itertools.product(*(range(s) for s in sizes)):
        m = np.stack([sigs[cls][i] for cls, i in enumerate(combo)], axis=1)
        a, cost = qp_fcls_oracle(y, m)
        re = np.sqrt(cost / l)
        if best is None or re < best[0]:
            best = (re, combo, a)
    return best


def mesma_oracle_batch(y_pixels, library):
    """Vectorized variant of the model-enumeration oracle: for every
    (model, support) pair the equality-constrained system is factored once
    and solved for all pixels, then feasibility and optimality are checked
    per pixel. Independent of the package solver (no splitting, no
    projection, no active sets)."""
    sigs = [c.signatures for c in library.classes]
    sizes = [s.shape[0] for s in sigs]
    n, l = y_pixels.shape
    p = len(sigs)
    best_cost = np.full(n, np.inf)
    best_a = np.zeros((n, p))
    best_combo = np.zeros((n, p), dtype=int)
    supports = [s for r in range(1, p + 1) for s in itertools.combinations(range(p), r)]
    for combo in itertools.product(*(range(s) for s in sizes)):
        m = np.stack([sigs[cls][i] for cls, i in enumerate(combo)], axis=1)
        model_cost = np.full(n, np.inf)
        model_a = np.zeros((n, p))
        for support in supports:
            ms = m[:, support]
            k = len(support)
            kkt = np.zeros((k + 1, k + 1))
            kkt[:k, :k] = 2 * ms.T @ ms
            kkt[:k, k] = -1.0
            kkt[k, :k] = 1.0
            rhs = np.vstack([2 * ms.T @ y_pixels.T, np.ones((1, n))])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            a_s = sol[:k].T
            feasible = np.all(a_s >= -1e-12, axis=1)
            if not feasible.any():
                continue
            a_full = np.zeros((n, p))
            a_full[:, support] = np.maximum(a_s, 0.0)
            a_full /= a_full.sum(axis=1, keepdims=True)
            cost = np.sum((y_pixels - a_full @ m.T) ** 2, axis=1)
            upd = feasible & (cost < model_cost - 1e-15)
            model_cost[upd] = cost[upd]
            model_a[upd] = a_full[upd]
        upd = model_cost < best_cost            # strict: lexicographic ties
        best_cost[upd] = model_cost[upd]
        best_a[upd] = model_a[upd]
        best_combo[upd] = combo
    return best_a, best_combo, np.sqrt(best_cost / l)


def cd_l1_oracle(y, m, lam, iters=20000, tol=1e-14):
    """Cyclic coordinate descent on 0.5||y - Ma||^2 + lam*sum(a), a >= 0."""
    q = m.shape[1]
    col_sq = np.sum(m**2, axis=0)
    a = np.zeros(q)
    residual = y.copy()
    for _ in range(iters):
        delta = 0.0
        for i in range(q):
            if col_sq[i] == 0:
                continue
            old = a[i]
            rho = m[:, i] @ residual + col_sq[i] * old
            new = max(0.0, (rho - lam) / col_sq[i])
            if new != old:
                residual += m[:, i] * (old - new)
                a[i] = new
                delta = max(delta, abs(new - old))
        if delta < tol:
            break
    return a
