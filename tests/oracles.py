"""Independent brute-force oracles used to validate the solvers.

These deliberately avoid the package's solver code paths: the simplex QP
enumerates active sets directly, the model search is a plain double loop,
the sparse oracle is cyclic coordinate descent on the objective, the
greedy L0 oracle is a per-pixel forward selection with scipy's NNLS, the
MUSIC residuals come from a thin SVD of the pixel matrix, VCA takes its
subspaces from SVDs rather than partial eigendecompositions, and the simplex
projection backs a projected-gradient optimality check. The
dense alternating references keep one (L, P) matrix per pixel, solve
the endmember step as a batched ridge system and the scaling step on
the sparse grid Laplacian; they share only the QP kernel with the
package. The dense ELMM and PLMM costs evaluate the objectives on such
per-pixel matrices.
"""

import itertools

import numpy as np
from scipy.optimize import nnls as scipy_nnls
from scipy.sparse import coo_matrix, diags

from varimix.solvers import QPCounts, fcls_core


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


def greedy_l0_oracle(y, m, k, rel_tol=1e-10):
    """Forward selection for one pixel with nonnegative refits. The
    column with the largest residual correlation over its norm enters
    while that score exceeds ``rel_tol * max(1, |M'y|_inf)``, the
    kernel's pricing tolerance; the first column enters regardless.
    Returns the sorted support."""
    q = m.shape[1]
    norms = np.linalg.norm(m, axis=0)
    norms[norms == 0] = 1.0
    tol = rel_tol * max(1.0, float(np.max(np.abs(m.T @ y))))
    support = []
    residual = y.copy()
    for _ in range(min(k, q)):
        scores = (m.T @ residual) / norms
        scores[support] = -np.inf
        best = int(np.argmax(scores))
        if scores[best] <= tol:
            break
        support.append(best)
        coef, _ = scipy_nnls(m[:, support], y)
        residual = y - m[:, support] @ coef
    return tuple(sorted(support or [int(np.argmax((m.T @ y) / norms))]))


def music_residual_oracle(signatures, pixels, k):
    """Residual of each (M, L) signature against the image's signal
    subspace: the top-k left singular vectors of the mean-removed (L, N)
    pixel matrix, without the directions whose squared singular value is
    not above 100 * L * eps * s_max^2 or 100 * N * (eps * ||mean||)^2.
    Residuals are the norm of the
    mean-removed signature minus its projection, over the norm of the
    mean-removed signature (0 where that norm is 0)."""
    l = pixels.shape[1]
    mean = pixels.mean(axis=0)
    u, s, _ = np.linalg.svd((pixels - mean).T, full_matrices=False)
    s2 = s[:k] ** 2
    eps = np.finfo(float).eps
    cut = max(100 * l * eps * s2[0], 100 * pixels.shape[0] * (eps * np.linalg.norm(mean)) ** 2)
    u = u[:, :k][:, s2 > cut]
    shifted = signatures - mean
    norms = np.linalg.norm(shifted, axis=1)
    rest = np.linalg.norm(shifted - (shifted @ u) @ u.T, axis=1)
    return np.divide(rest, norms, out=np.zeros_like(norms), where=norms > 0)


def vca_svd_oracle(pixels, p, seed):
    """Pixel indices VCA selects from the (N, L) ``pixels``, computed the
    SVD way: the projective subspace from a full SVD of the (L, L)
    correlation matrix, the affine one from the covariance matrix, the
    P = 1 direction from a thin SVD of the mean-removed (L, N) data. Each
    singular vector is signed so that its entry of largest magnitude is
    positive. Random directions are drawn as the package draws them."""

    def signed(u):
        top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
        return u * np.sign(top)

    y = pixels.T
    l, n = y.shape
    rng = np.random.default_rng(seed)
    y_mean = y.mean(axis=1, keepdims=True)
    y0 = y - y_mean
    if p == 1:
        u, _, _ = np.linalg.svd(y0, full_matrices=False)
        return np.array([int(np.argmax(np.abs(u[:, 0] @ y0)))])

    ud = signed(np.linalg.svd(y @ y.T / n)[0][:, :p])
    x0 = ud.T @ y0
    p_y = float(np.sum(y**2)) / n
    p_x = float(np.sum(x0**2)) / n + float(np.sum(y_mean**2))
    if p_y - p_x <= 0:
        snr_db = np.inf
    elif p_x - p / l * p_y <= 0:
        snr_db = 0.0
    else:
        snr_db = 10.0 * np.log10((p_x - p / l * p_y) / (p_y - p_x))

    use_affine = snr_db < 15.0 + 10.0 * np.log10(p)
    if not use_affine:
        x = ud.T @ y
        denom = x.T @ x.mean(axis=1)
        if np.min(np.abs(denom)) <= 1e-12 * max(1.0, float(np.abs(denom).max())):
            use_affine = True
        else:
            work = x / denom[None, :]
    if use_affine:
        u_aff = signed(np.linalg.svd(y0 @ y0.T / n)[0][:, : p - 1])
        x = u_aff.T @ y0
        c = float(np.sqrt(np.max(np.sum(x**2, axis=0)))) or 1.0
        work = np.vstack([x, np.full((1, n), c)])

    indices = np.zeros(p, dtype=np.intp)
    basis = np.zeros((p, p))
    basis[-1, 0] = 1.0
    for i in range(p):
        w = rng.standard_normal((p, 1))
        f = w - basis @ (np.linalg.pinv(basis) @ w)
        if np.linalg.norm(f) < 1e-12:
            f = w
        f = f / np.linalg.norm(f)
        indices[i] = int(np.argmax(np.abs(f.T @ work)))
        basis[:, i] = work[:, indices[i]]
    return indices


def grid_laplacian(height: int, width: int):
    """Combinatorial Laplacian of the 4-neighbor grid graph."""
    idx = np.arange(height * width).reshape(height, width)
    pairs = [
        (idx[:, :-1].ravel(), idx[:, 1:].ravel()),
        (idx[:-1, :].ravel(), idx[1:, :].ravel()),
    ]
    r = np.concatenate([p[0] for p in pairs])
    c = np.concatenate([p[1] for p in pairs])
    n = height * width
    adj = coo_matrix((np.ones(r.size), (r, c)), shape=(n, n))
    adj = (adj + adj.T).tocsr()
    deg = np.asarray(adj.sum(axis=1)).ravel()
    return (diags(deg) - adj).tocsc()


def _spatial(lap, psi):
    return sum(float(psi[:, p] @ (lap @ psi[:, p])) for p in range(psi.shape[1]))


def _elmm_cost(y, m0, lap, lam_m, lam_psi, state):
    """The ELMM cost on a dense (a, psi, M) state."""
    a, psi, m = state
    fit = y - np.einsum("nlp,np->nl", m, a)
    tie = m - m0[None, :, :] * psi[:, None, :]
    return float(np.sum(fit**2) + lam_m * np.sum(tie**2) + lam_psi * _spatial(lap, psi))


def _plmm_cost(y, m0, gamma, state):
    """The PLMM cost on a dense (a, dM) state."""
    a, dm = state
    fit = y - np.einsum("nlp,np->nl", m0[None, :, :] + dm, a)
    return float(np.sum(fit**2) + gamma * np.sum(dm**2))


def _dense_loop(cost, step, state, max_iters, tol, floor=1e-24):
    """Alternating descent that stops at a cost rise, the relative-change
    rule ``tol`` or a cost at the floating-point floor."""
    c = cost(state)
    history = [c]
    if c <= floor:
        return state, history
    for _ in range(max_iters):
        cand = step(state)
        c_new = cost(cand)
        if c_new > c:
            break
        rel = (c - c_new) / max(c, 1e-300)
        state, c = cand, c_new
        history.append(c)
        if rel < tol or c <= floor:
            break
    return state, history


def elmm_dense_reference(y, m0, lap, lam_m, lam_psi, max_iters, tol, psi_floor=1e-6):
    """Scaled-model block coordinate descent on dense per-pixel matrices
    M_n, from a0 = FCLS(y, M0), psi = 1, M_n = M0. Returns (a, psi, M,
    cost history)."""
    n, p = y.shape[0], m0.shape[1]
    col_sq = np.sum(m0**2, axis=0)
    lap_dense = lap.toarray()

    def cost(state):
        a, psi, m = state
        fit = y - np.einsum("nlp,np->nl", m, a)
        tie = m - m0[None] * psi[:, None, :]
        spatial = sum(float(psi[:, j] @ (lap @ psi[:, j])) for j in range(p))
        return float(np.sum(fit**2) + lam_m * np.sum(tie**2) + lam_psi * spatial)

    def step(state):
        a, psi, m = state
        a_new, _ = fcls_core(y, m, QPCounts())
        rhs = np.einsum("nl,np->npl", y, a_new) + lam_m * (m0[None] * psi[:, None, :]).transpose(0, 2, 1)
        sys = np.einsum("np,nq->npq", a_new, a_new) + lam_m * np.eye(p)
        m_new = np.linalg.solve(sys, rhs).transpose(0, 2, 1)
        psi_new = np.empty_like(psi)
        for j in range(p):
            op = lam_m * col_sq[j] * np.eye(n) + lam_psi * lap_dense
            psi_new[:, j] = np.linalg.solve(op, lam_m * (m_new[:, :, j] @ m0[:, j]))
        return a_new, np.maximum(psi_new, psi_floor), m_new

    a0, _ = fcls_core(y, m0, QPCounts())
    init = (a0, np.ones((n, p)), np.repeat(m0[None], n, axis=0))
    (a, psi, m), history = _dense_loop(cost, step, init, max_iters, tol)
    return a, psi, m, history


def plmm_dense_reference(y, m0, gamma, max_iters, tol):
    """Perturbed-model block coordinate descent on dense per-pixel
    perturbations dM_n, from a0 = FCLS(y, M0), dM = 0, with the ridge
    endmember step of the scaled model at psi = 1. Returns (a, dM, cost
    history)."""
    n, l = y.shape
    p = m0.shape[1]

    def cost(state):
        a, dm = state
        fit = y - np.einsum("nlp,np->nl", m0[None] + dm, a)
        return float(np.sum(fit**2) + gamma * np.sum(dm**2))

    def step(state):
        a, dm = state
        a_new, _ = fcls_core(y, m0[None] + dm, QPCounts())
        # min_dM ||y - (M0 + dM) a||^2 + gamma ||dM||^2, row by row of dM
        rhs = np.einsum("nl,np->npl", y - a_new @ m0.T, a_new)
        sys = np.einsum("np,nq->npq", a_new, a_new) + gamma * np.eye(p)
        return a_new, np.linalg.solve(sys, rhs).transpose(0, 2, 1)

    a0, _ = fcls_core(y, m0, QPCounts())
    (a, dm), history = _dense_loop(cost, step, (a0, np.zeros((n, l, p))), max_iters, tol)
    return a, dm, history
