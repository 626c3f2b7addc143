"""Property tests of the constrained least-squares kernel on the
degenerate inputs real pipelines produce: duplicate and collinear
signatures, zero columns, more classes than bands, constant images.

Each case runs with a shared (L, P) matrix and with per-pixel (N, L, P)
matrices, and is checked three ways: the cost against an independent
oracle, the KKT certificate, and no unsettled rows. The last test pins
what the solver logs report about the kernel.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varimix.solvers import (
    QPCounts,
    SolverOptions,
    base,
    elmm_unmix,
    fcls,
    fcls_core,
    kkt_residual_l1,
    kkt_residual_simplex,
    mesma,
    nnls_core,
    plmm_unmix,
    sparse_su_l0,
    sparse_su_l1,
)
from varimix.types import SpectralImage, SpectralLibrary

from oracles import cd_l1_oracle, qp_fcls_oracle

KINDS = ("duplicate", "collinear", "zero", "wide", "constant")
COST_RTOL = 1e-12
KKT_RTOL = 1e-9


def _matrix(rng, kind, l, p, scaled):
    """(L, P) matrix with the named degeneracy in its last column (or,
    for ``wide``, more columns than bands)."""
    if kind == "wide":
        return rng.uniform(0.05, 1.0, size=(min(l, 4), min(l, 4) + p))
    m = rng.uniform(0.05, 1.0, size=(l, p))
    if kind == "duplicate":
        m[:, -1] = m[:, 0]
    elif kind == "collinear" and scaled:
        m[:, -1] = rng.uniform(0.2, 3.0) * m[:, 0]
    elif kind == "collinear":
        t = rng.uniform(0.1, 0.9)
        m[:, -1] = t * m[:, 0] + (1.0 - t) * m[:, 1]
    elif kind == "zero":
        m[:, -1] = 0.0
    return m


def _problem(kind, seed, n, l, p, per_pixel, scaled):
    """Pixels (N, L') and a shared or per-pixel matrix with the degeneracy."""
    rng = np.random.default_rng(seed)
    mats = [_matrix(rng, kind, l, p, scaled) for _ in range(n if per_pixel else 1)]
    bands = mats[0].shape[0]
    if kind == "constant":
        y = np.full((n, bands), rng.uniform(0.0, 1.0))
    else:
        mix = np.stack([mats[i % len(mats)] @ rng.dirichlet(np.ones(mats[0].shape[1]))
                        for i in range(n)])
        y = mix + rng.normal(0.0, 0.3, size=(n, bands))
    m = np.stack(mats) if per_pixel else mats[0]
    return y, m


def _pixel_matrix(m, i):
    return m[i] if m.ndim == 3 else m


def _cost_tol(cost, oracle_cost, y_row):
    """COST_RTOL relative to the oracle's cost, plus the rounding of
    ||r||^2 itself: residual entries carry errors of a few ulps of ||y||,
    which only matter for near-exact fits."""
    delta = 1e-14 * (1.0 + float(np.linalg.norm(y_row)))
    return COST_RTOL * oracle_cost + 2.0 * delta * np.sqrt(max(cost, oracle_cost)) + delta**2


problems = dict(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    l=st.integers(3, 9),
    p=st.integers(2, 5),
    per_pixel=st.booleans(),
    scaled=st.booleans(),
)


@given(**problems)
@settings(max_examples=150, deadline=None)
def test_simplex_kernel_on_degenerate_inputs(kind, seed, n, l, p, per_pixel, scaled):
    y, m = _problem(kind, seed, n, l, p, per_pixel, scaled)
    counts = QPCounts()
    a, rounds = fcls_core(y, m, counts)
    assert counts.unsettled_rows == 0 and counts.rounds == rounds
    assert np.all(a >= 0) and np.allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    act, inact, scale = kkt_residual_simplex(y, m, a)
    assert max(act, inact) <= KKT_RTOL * scale
    for i in range(n):
        mi = _pixel_matrix(m, i)
        _, oracle_cost = qp_fcls_oracle(y[i], mi)
        cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
        assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])


@given(**problems, lam=st.sampled_from([0.0, 1e-3, 0.05]))
@settings(max_examples=60, deadline=None)
def test_nnls_kernel_on_degenerate_inputs(kind, seed, n, l, p, per_pixel, scaled, lam):
    y, m = _problem(kind, seed, n, l, p, per_pixel, scaled)
    counts = QPCounts()
    a, _ = nnls_core(y, m, lam, counts)
    assert counts.unsettled_rows == 0
    assert np.all(a >= 0)
    for i in range(n):
        mi = _pixel_matrix(m, i)
        act, inact, scale = kkt_residual_l1(y[i:i + 1], mi, a[i:i + 1], lam)
        assert max(act, inact) <= KKT_RTOL * scale

        def cost(x):
            return float(0.5 * np.sum((y[i] - mi @ x) ** 2) + lam * x.sum())

        # coordinate descent stalls short of the optimum on collinear
        # columns, so its cost is an upper bound; the certificate above
        # proves optimality
        oracle_cost = cost(cd_l1_oracle(y[i], mi, lam))
        assert cost(a[i]) - oracle_cost <= _cost_tol(cost(a[i]), oracle_cost, y[i])


STARTS = ("vertex", "interior", "degenerate")


def _start(rng, how, kind, n, p):
    """Feasible simplex starts (N, P): a vertex, a Dirichlet interior
    point, or a point whose support holds the degenerate last column and
    the columns it repeats (for ``wide``, every column)."""
    if how == "vertex":
        return np.eye(p)[rng.integers(0, p, size=n)]
    support = np.arange(p)
    if how == "degenerate" and kind in ("duplicate", "collinear", "zero", "constant"):
        support = np.array([0, 1, p - 1]) if p > 2 else np.array([0, p - 1])
    a = np.zeros((n, p))
    a[:, support] = rng.dirichlet(np.ones(support.size), size=n)
    return a


@given(**problems, how=st.sampled_from(STARTS))
@settings(max_examples=200, deadline=None)
# singular start faces that fit some pixel exactly: a ridged solve would
# leave an excess cost of order ridge^2 there
@example(kind="wide", seed=3368061810, n=4, l=4, p=4, per_pixel=True, scaled=True,
         how="interior")
@example(kind="duplicate", seed=2210492399, n=2, l=3, p=5, per_pixel=True, scaled=True,
         how="degenerate")
def test_simplex_kernel_from_a_start(kind, seed, n, l, p, per_pixel, scaled, how):
    # a warm start changes the path, not the minimizer: same oracle cost,
    # KKT certificate and no unsettled rows as from the cold start
    y, m = _problem(kind, seed, n, l, p, per_pixel, scaled)
    gram, h = base._gram(y, m)
    start = _start(np.random.default_rng(seed + 1), how, kind, n, gram.shape[-1])
    counts = QPCounts()
    a, rounds = base.fcls_gram(gram, h, counts, start=start)
    assert counts.unsettled_rows == 0 and counts.rounds == rounds
    assert np.all(a >= 0) and np.allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    act, inact, scale = kkt_residual_simplex(y, m, a)
    assert max(act, inact) <= KKT_RTOL * scale
    for i in range(n):
        mi = _pixel_matrix(m, i)
        _, oracle_cost = qp_fcls_oracle(y[i], mi)
        cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
        assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])


@pytest.mark.parametrize("per_pixel", [False, True])
def test_start_at_the_minimizer_settles_in_one_round(per_pixel):
    # per-pixel faces are solved row by row, so the same face gives the
    # same bits; a shared face is solved for a group of right-hand sides
    # whose make-up depends on the path, which can move the last ulp
    y, m = _problem("duplicate", 6, 30, 10, 4, per_pixel, False)
    gram, h = base._gram(y, m)
    a, _ = base.fcls_gram(gram, h)
    warm, rounds = base.fcls_gram(gram, h, start=a)
    assert rounds == 1
    if per_pixel:
        assert np.array_equal(warm, a)
    else:
        np.testing.assert_allclose(warm, a, rtol=0, atol=1e-14)


@pytest.mark.parametrize("start, match", [
    (np.array([[1.5, -0.5, 0.0]]), "negative"),
    (np.array([[0.5, np.nan, 0.5]]), "non-finite"),
    (np.array([[0.5, 0.5, 1e-9]]), "sum to 1"),
    (np.zeros((1, 3)), "sum to 1"),
    (np.array([[1.0, 0.0]]), "shape"),
    (np.full((2, 3), 1.0 / 3.0), "shape"),
])
def test_infeasible_start_is_rejected(start, match):
    y, m = _problem("collinear", 3, 1, 6, 3, False, False)
    with pytest.raises(ValueError, match=match):
        base.fcls_gram(*base._gram(y, m), start=start)


@pytest.mark.parametrize("kind", KINDS)
def test_nnls_kernel_from_a_start(kind):
    # the kernel takes a start in NNLS mode too: any nonnegative point
    y, m = _problem(kind, 8, 20, 6, 4, True, False)
    gram, h = base._gram(y, m, 1e-3)
    start = np.random.default_rng(2).uniform(0.0, 2.0, size=h.shape)
    start[::3] = 0.0
    a, _, open_rows = base._active_set(gram, h, simplex=False, start=start)
    assert open_rows.size == 0 and np.all(a >= 0)
    for i in range(y.shape[0]):
        act, inact, scale = kkt_residual_l1(y[i:i + 1], m[i], a[i:i + 1], 1e-3)
        assert max(act, inact) <= KKT_RTOL * scale
    with pytest.raises(ValueError, match="negative"):
        base._active_set(gram, h, simplex=False, start=-start)


@pytest.mark.parametrize("per_pixel", [False, True])
def test_duplicate_column_never_enters(per_pixel):
    # the twin of a passive column prices at exactly zero
    y, m = _problem("duplicate", 5, 40, 12, 4, per_pixel, False)
    a, _ = fcls_core(y, m)
    assert not np.any((a[:, 0] > 0) & (a[:, -1] > 0))
    raw, _ = nnls_core(y, m, 1e-3)
    assert not np.any((raw[:, 0] > 0) & (raw[:, -1] > 0))


@pytest.mark.parametrize("per_pixel", [False, True])
def test_nnls_dependent_entering_column(per_pixel):
    # with more columns than bands and lam > 0, a column in the span of
    # the passive ones can still enter; the face it makes is singular up
    # to rounding, and the kernel must step across it rather than cycle
    lam = 1e-3
    y, m = _problem("wide", 4, 40, 4, 4, per_pixel, False)
    counts = QPCounts()
    a, _ = nnls_core(y, m, lam, counts)
    assert counts.unsettled_rows == 0
    for i in range(y.shape[0]):
        act, inact, scale = kkt_residual_l1(y[i:i + 1], _pixel_matrix(m, i), a[i:i + 1], lam)
        assert max(act, inact) <= KKT_RTOL * scale


def _library_case(rng):
    lib = SpectralLibrary.from_arrays(
        ["a", "b", "c"], [rng.uniform(0.05, 1.0, size=(2, 20)) for _ in range(3)])
    mix = rng.dirichlet(np.ones(6), size=30) @ lib.flatten()[0]
    return SpectralImage(mix.reshape(5, 6, 20)), lib


SOLVERS = {
    "fcls": lambda img, lib: fcls(img, lib.class_means().T),
    "mesma": mesma,
    "sparse-l1": sparse_su_l1,
    "sparse-l0": lambda img, lib: sparse_su_l0(img, lib, k=2),
    "elmm": lambda img, lib: elmm_unmix(img, lib.class_means().T, SolverOptions(max_iters=3)),
    "plmm": lambda img, lib: plmm_unmix(img, lib.class_means().T, SolverOptions(max_iters=3)),
}


@pytest.mark.parametrize("algo", SOLVERS)
def test_solver_log_reports_kernel_outcome(algo, rng, monkeypatch):
    img, lib = _library_case(rng)
    log = SOLVERS[algo](img, lib).solver_log
    assert log.flags["qp_rounds"] > 0 and log.flags["unsettled_rows"] == 0
    if algo not in ("elmm", "plmm"):           # those also need their outer loop to stop
        assert log.converged
    # with no rounds allowed every row that needs one stays open: it is
    # counted, the log says so, and the row keeps its feasible start
    monkeypatch.setattr(base, "_round_bound", lambda p: 0)
    res = SOLVERS[algo](img, lib)
    assert res.solver_log.flags["unsettled_rows"] > 0
    assert not res.solver_log.converged
    assert np.all(np.isfinite(res.abundances.data))
