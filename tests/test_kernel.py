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


def _l1_gram(y, m, lam):
    """Gram matrix and linear term h - lam of the l1-penalized problem."""
    gram, h = base._gram(y, m)
    return gram, h - lam


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
# singular full faces that fit some pixel exactly: a ridged solve would
# leave an excess cost of order ridge^2 there
@example(kind="wide", seed=3368061810, n=4, l=4, p=4, per_pixel=True, scaled=True)
@example(kind="duplicate", seed=2210492399, n=2, l=3, p=5, per_pixel=True, scaled=True)
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
    a, _ = base.nnls_gram(*_l1_gram(y, m, lam), counts)
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


def _interior_problem(n, l, p, per_pixel, seed):
    """Pixels near interior mixtures of well-conditioned columns, so every
    row's full-face minimizer is positive."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(0.05, 1.0, size=(n, l, p) if per_pixel else (l, p))
    a = rng.dirichlet(np.full(p, 5.0), size=n)
    y = np.einsum("nlp,np->nl", m, a) if per_pixel else a @ m.T
    return y + rng.normal(0.0, 1e-3, size=y.shape), m


def _with_interior_rows(y, m, seed):
    """The batch (y, m) followed by as many pixels near interior mixtures,
    of the shared matrix or of fresh uniform per-pixel matrices."""
    rng = np.random.default_rng(seed)
    n, (l, p) = y.shape[0], m.shape[-2:]
    a = rng.dirichlet(np.full(p, 5.0), size=n)
    if m.ndim == 2:
        yi = a @ m.T
    else:
        mi = rng.uniform(0.05, 1.0, size=(n, l, p))
        yi, m = np.einsum("nlp,np->nl", mi, a), np.concatenate([m, mi])
    return np.concatenate([y, yi + rng.normal(0.0, 1e-3, size=yi.shape)]), m


def _stacked(gram, h):
    """The kernel internals' operands: a shared (P, P) Gram with its (N, P)
    linear terms as the stack of one Gram; per-pixel Grams as they are."""
    return (gram[None], h[None]) if gram.ndim == 2 else (gram, h)


def _full_face_start(gram, h, simplex):
    """Full-face minimizer of every row and which rows settle on it."""
    s = base._full_face(*_stacked(gram, h), simplex).reshape(h.shape)
    return s, np.all(s > 0, axis=1)


@given(**problems)
@settings(max_examples=100, deadline=None)
def test_simplex_kernel_from_a_start(kind, seed, n, l, p, per_pixel, scaled):
    # every row starts on the full face: the degenerate rows start cold,
    # rows positive there keep the full-face bits, and all reach the
    # oracle's cost, the KKT certificate and no unsettled rows
    y, m = _with_interior_rows(*_problem(kind, seed, n, l, p, per_pixel, scaled), seed + 1)
    gram, h = base._gram(y, m)
    s, settled = _full_face_start(gram, h, True)
    raw = base._active_set(*_stacked(gram, h), simplex=True)[0].reshape(h.shape)
    assert raw[settled].tobytes() == s[settled].tobytes()
    counts = QPCounts()
    a, rounds = base.fcls_gram(gram, h, counts)
    assert counts.unsettled_rows == 0 and counts.rounds == rounds
    assert np.all(a >= 0) and np.allclose(a.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    act, inact, scale = kkt_residual_simplex(y, m, a)
    assert max(act, inact) <= KKT_RTOL * scale
    for i in range(y.shape[0]):
        mi = _pixel_matrix(m, i)
        _, oracle_cost = qp_fcls_oracle(y[i], mi)
        cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
        assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])


@pytest.mark.parametrize("per_pixel", [False, True])
def test_start_at_the_minimizer_settles_in_one_round(per_pixel):
    # the kernel starts on the full face, which here holds every row's
    # minimizer, so round 1 settles them all
    y, m = _interior_problem(40, 12, 4, per_pixel, 6)
    gram, h = base._gram(y, m)
    assert np.all(base._full_face(*_stacked(gram, h), True) > 0)
    counts = QPCounts()
    a, rounds = fcls_core(y, m, counts)
    assert rounds == 1 and counts.unsettled_rows == 0
    for i in range(y.shape[0]):
        mi = _pixel_matrix(m, i)
        x, oracle_cost = qp_fcls_oracle(y[i], mi)
        cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
        assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])
        np.testing.assert_allclose(a[i], x, rtol=0, atol=1e-12)


def test_singular_pixel_does_not_move_its_batch():
    # row 0's per-pixel system has a duplicate column, so it fails the
    # rank test; row 1 must still settle on the full face, with the bits
    # it gets alone, and row 0 must still reach its exact minimizer
    y, m = _interior_problem(2, 6, 3, True, 11)
    m[0, :, -1] = m[0, :, 0]
    gram, h = base._gram(y, m)
    s = base._full_face(gram, h, True)
    assert np.isnan(s[0]).all() and np.all(s[1] > 0)
    counts = QPCounts()
    a, rounds = base.fcls_gram(gram, h, counts)
    alone, alone_rounds = base.fcls_gram(gram[1:], h[1:], QPCounts())
    assert alone_rounds == 1 and a[1].tobytes() == alone[0].tobytes()
    assert counts.unsettled_rows == 0
    x, oracle_cost = qp_fcls_oracle(y[0], m[0])
    cost = float(np.sum((y[0] - m[0] @ a[0]) ** 2))
    assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[0])


def _singular_face_batch(seed, n=8):
    """Per-pixel NNLS rows, lam = 1/4, in 3 bands with 4 columns. Row 0 is
    exact in binary: columns 0, 1 and 2 enter it in rounds 2 to 4, and
    its face {0, 1, 2} is singular (m_2 = 3/4 (m_0 + m_1)), so LU rejects
    that system exactly. The other rows are random."""
    rng = np.random.default_rng(seed)
    m0 = np.zeros((3, 4))
    m0[0, 0] = m0[1, 1] = 1.0
    m0[:2, 2] = 0.75
    m = np.concatenate([m0[None], rng.uniform(0.05, 1.0, size=(n - 1, 3, 4))])
    y = np.concatenate([[[4.0, 1.0, 0.0]], rng.uniform(0.0, 1.0, size=(n - 1, 3))])
    return y, m


@pytest.mark.parametrize("simplex", [True, False])
def test_stacked_face_solve_keeps_each_rows_bits(simplex, monkeypatch):
    # each round solves the faces of all open rows, one stacked solve per
    # face size. In the simplex batch (collinear columns) one round holds
    # faces of several sizes; in the NNLS batch row 0's singular face
    # shares its stack with other rows, so LU rejects the whole stack and
    # only row 0 may take the ridge. Every row gets the bytes it gets
    # alone, and all reach the oracle or the KKT certificate with no
    # unsettled rows
    if simplex:
        lam, (y, m) = 0.0, _problem("collinear", 5, 8, 8, 5, True, False)
    else:
        lam, (y, m) = 0.25, _singular_face_batch(10)
    gram, h = _l1_gram(y, m, lam)
    kernel = base.fcls_gram if simplex else base.nnls_gram
    stacks = []
    solve_faces = base._solve_faces

    def spy(gram, h, rows, passive, entering, simplex):
        stacks.append((rows, passive.sum(axis=1)))
        return solve_faces(gram, h, rows, passive, entering, simplex)

    monkeypatch.setattr(base, "_solve_faces", spy)
    counts = QPCounts()
    a, _ = kernel(gram, h, counts)
    monkeypatch.undo()
    assert counts.unsettled_rows == 0
    assert any(np.unique(sizes).size > 1 for _, sizes in stacks)
    if not simplex:
        assert np.linalg.slogdet(gram[0, :3, :3])[0] == 0
        assert any(np.all(sizes[rows == 0] == 3) and np.sum(sizes == 3) > 1
                   for rows, sizes in stacks if 0 in rows)
    for i in range(y.shape[0]):
        alone, _ = kernel(gram[i:i + 1], h[i:i + 1], QPCounts())
        assert a[i].tobytes() == alone[0].tobytes()
        if simplex:
            act, inact, scale = kkt_residual_simplex(y[i:i + 1], m[i], a[i:i + 1])
            _, oracle_cost = qp_fcls_oracle(y[i], m[i])
            cost = float(np.sum((y[i] - m[i] @ a[i]) ** 2))
            assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])
        else:
            act, inact, scale = kkt_residual_l1(y[i:i + 1], m[i], a[i:i + 1], lam)
        assert max(act, inact) <= KKT_RTOL * scale


@pytest.mark.parametrize("kind", KINDS)
def test_nnls_kernel_from_a_start(kind):
    # NNLS rows start on the full face too: next to per-pixel rows with
    # the degeneracy, which start at zero, the interior rows settle there
    # (with more columns than bands, no row can), and every row reaches
    # its KKT certificate
    y, m = _with_interior_rows(*_problem(kind, 8, 20, 6, 4, True, False), 9)
    gram, h = _l1_gram(y, m, 1e-3)
    s, settled = _full_face_start(gram, h, False)
    assert settled[20:].any() != (kind == "wide")
    a, _, open_rows = base._active_set(gram, h, simplex=False)
    assert open_rows.size == 0 and np.all(a >= 0)
    assert a[settled].tobytes() == s[settled].tobytes()
    for i in range(y.shape[0]):
        act, inact, scale = kkt_residual_l1(y[i:i + 1], m[i], a[i:i + 1], 1e-3)
        assert max(act, inact) <= KKT_RTOL * scale


@pytest.mark.parametrize("per_pixel", [False, True])
def test_duplicate_column_never_enters(per_pixel):
    # the twin of a passive column prices at exactly zero
    y, m = _problem("duplicate", 5, 40, 12, 4, per_pixel, False)
    a, _ = fcls_core(y, m, QPCounts())
    assert not np.any((a[:, 0] > 0) & (a[:, -1] > 0))
    raw, _ = base.nnls_gram(*_l1_gram(y, m, 1e-3), QPCounts())
    assert not np.any((raw[:, 0] > 0) & (raw[:, -1] > 0))


@pytest.mark.parametrize("per_pixel", [False, True])
def test_collinear_columns_never_all_enter(per_pixel):
    # the last column is a convex combination of the first two, so their
    # full face is singular even where LU passes it by rounding; the rank
    # test starts such rows cold, and pricing keeps at most two of the
    # three, at the oracle's cost
    for seed in range(300):
        y, m = _problem("collinear", seed, 4, 8, 4, per_pixel, False)
        a, _ = fcls_core(y, m, QPCounts())
        assert not np.any(np.all(a[:, [0, 1, 3]] > 0, axis=1))
        for i in range(y.shape[0]):
            mi = _pixel_matrix(m, i)
            _, oracle_cost = qp_fcls_oracle(y[i], mi)
            cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
            assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])


@pytest.mark.parametrize("per_pixel", [False, True])
def test_nnls_dependent_entering_column(per_pixel, monkeypatch):
    # with more columns than bands and lam > 0, a column in the span of
    # the passive ones can still enter; the face it makes is singular up
    # to rounding, yet LU passes it and the entering column comes out
    # non-positive, so the row is solved again with the ridge. The kernel
    # must step across it rather than cycle, and every row keeps the
    # bytes it gets alone
    lam = 1e-3
    y, m = _problem("wide", 4, 40, 4, 4, per_pixel, False)
    gram, h = _l1_gram(y, m, lam)
    ridged = []
    solve_faces = base._solve_faces

    def spy(g, lin, rows, passive, entering, simplex):
        for r, face, new in zip(rows, passive, entering):
            cols = np.flatnonzero(face)
            sub = (g if g.ndim == 2 else g[r])[np.ix_(cols, cols)]
            if new >= 0 and np.linalg.slogdet(sub)[0] != 0:
                ridged.append(np.linalg.solve(sub, lin[r, cols])[cols == new][0] <= 0.0)
        return solve_faces(g, lin, rows, passive, entering, simplex)

    monkeypatch.setattr(base, "_solve_faces", spy)
    counts = QPCounts()
    a, _ = base.nnls_gram(gram, h, counts)
    monkeypatch.undo()
    assert counts.unsettled_rows == 0 and any(ridged)
    for i in range(y.shape[0]):
        alone, _ = base.nnls_gram(gram[i:i + 1] if per_pixel else gram, h[i:i + 1], QPCounts())
        assert a[i].tobytes() == alone[0].tobytes()
        act, inact, scale = kkt_residual_l1(y[i:i + 1], _pixel_matrix(m, i), a[i:i + 1], lam)
        assert max(act, inact) <= KKT_RTOL * scale


def _stack(kind, seed, m=4, n=6, l=6, p=4):
    """M shared matrices with the degeneracy (M, L, P), each with N of its
    own pixels (M, N, L), half of them near interior mixtures."""
    mats, ys = [], []
    for i in range(m):
        y, mat = _with_interior_rows(*_problem(kind, seed + i, n // 2, l, p, False, False),
                                     seed + 100 + i)
        mats.append(mat)
        ys.append(y)
    return np.stack(ys), np.stack(mats)


def _stack_gram(y, m, lam=0.0):
    """Grams (M, P, P) and linear terms (M, N, P) of a stack."""
    return (np.einsum("mlp,mlq->mpq", m, m),
            np.einsum("mnl,mlp->mnp", y, m) - lam)


@pytest.mark.parametrize("simplex", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_grams_give_each_row_its_own_bits(kind, simplex):
    # one call on a stack of shared Grams: every row gets the bytes of a
    # call on its Gram alone, and of a call on that row alone
    y, m = _stack(kind, 30)
    gram, h = _stack_gram(y, m, 0.0 if simplex else 1e-3)
    kernel = base.fcls_gram if simplex else base.nnls_gram
    counts = QPCounts()
    a, _ = kernel(gram, h, counts)
    assert a.shape == h.shape and counts.unsettled_rows == 0
    for g_i, h_i, a_i in zip(gram, h, a):
        assert kernel(g_i, h_i, QPCounts())[0].tobytes() == a_i.tobytes()
        for j in range(h_i.shape[0]):
            assert kernel(g_i, h_i[j:j + 1], QPCounts())[0].tobytes() == a_i[j:j + 1].tobytes()


@pytest.mark.parametrize("kind", ["duplicate", "zero"])
def test_stacked_gram_that_fails_the_rank_test_moves_no_other(kind):
    # Gram 1 of the stack has a duplicate (or zero) column: its rows fail
    # the rank test and start cold, and reach the oracle; the rows of the
    # other Grams keep the bits of calls on their Grams alone
    y, m = _stack(kind, 40)
    m[[0, 2, 3], :, -1] = np.random.default_rng(4).uniform(0.05, 1.0, size=(3, m.shape[1]))
    gram, h = _stack_gram(y, m)
    s = base._full_face(gram, h, True)
    assert np.isnan(s[1]).all() and not np.isnan(s[[0, 2, 3]]).any()
    counts = QPCounts()
    a, _ = base.fcls_gram(gram, h, counts)
    assert counts.unsettled_rows == 0
    for i in (0, 2, 3):
        assert base.fcls_gram(gram[i], h[i], QPCounts())[0].tobytes() == a[i].tobytes()
    for j in range(y.shape[1]):
        _, oracle_cost = qp_fcls_oracle(y[1, j], m[1])
        cost = float(np.sum((y[1, j] - m[1] @ a[1, j]) ** 2))
        assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[1, j])


def _off_face_rows(n, l, p, per_pixel, seed):
    """Pixels y = M a with orthonormal columns and a = (b, -0.2), b > 0
    summing to 1.2: the full-face minimizer is a, so every row starts
    cold, and the minimizers on the face of its positive entries (b, and
    b - 0.2/(P - 1) under the simplex constraint) are positive and
    optimal."""
    rng = np.random.default_rng(seed)
    m = np.linalg.qr(rng.normal(size=(n if per_pixel else 1, l, p)))[0]
    m = m if per_pixel else m[0]
    b = 1.2 * rng.dirichlet(np.full(p - 1, 20.0), size=n)
    a = np.concatenate([b, np.full((n, 1), -0.2)], axis=1)
    y = np.einsum("nlp,np->nl", m, a) if per_pixel else a @ m.T
    return y, m


@pytest.mark.parametrize("simplex", [True, False])
@pytest.mark.parametrize("per_pixel", [False, True])
def test_cold_rows_start_on_their_positive_face(per_pixel, simplex):
    # round 2 starts each cold row on the face of its round-1 minimizer's
    # positive entries, which here holds its minimizer: every row settles
    # in 2 rounds (a start at a vertex or at zero takes P - 1 or P more)
    y, m = _off_face_rows(12, 8, 4, per_pixel, 3)
    gram, h = base._gram(y, m)
    assert np.all(base._full_face(*_stacked(gram, h), simplex)[..., -1] < 0)
    counts = QPCounts()
    a, rounds = (base.fcls_gram if simplex else base.nnls_gram)(gram, h, counts)
    assert rounds == 2 and counts.unsettled_rows == 0
    assert np.all(a[:, -1] == 0) and np.all(a[:, :-1] > 0)
    for i in range(y.shape[0]):
        mi = _pixel_matrix(m, i)
        if simplex:
            _, oracle_cost = qp_fcls_oracle(y[i], mi)
            cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
            assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])
        else:
            act, inact, scale = kkt_residual_l1(y[i:i + 1], mi, a[i:i + 1], 0.0)
            assert max(act, inact) <= KKT_RTOL * scale


def _face_start_fails(gram, h, simplex):
    """Rows whose round-1 minimizer passes the rank test, has a
    nonpositive entry, and whose positive face has a minimizer with a
    nonpositive entry: the face start does not apply to them."""
    s = base._full_face(*_stacked(gram, h), simplex).reshape(h.shape)
    face = s > 0
    rows = np.flatnonzero(~np.isnan(s).any(axis=1) & ~face.all(axis=1)
                          & (face.sum(axis=1) > simplex))
    if gram.ndim == 2:
        gram = np.broadcast_to(gram, (h.shape[0],) + gram.shape)
    x = base._solve_faces(gram, h, rows, face[rows], np.full(rows.size, -1), simplex)
    return rows[np.any(face[rows] & (x <= 0), axis=1)]


@pytest.mark.parametrize("simplex", [True, False])
@pytest.mark.parametrize("per_pixel", [False, True])
def test_cold_row_whose_positive_face_fails_starts_at_its_vertex(per_pixel, simplex):
    # correlated columns: for some rows, dropping the negative entries
    # of the full-face minimizer makes another entry nonpositive; those
    # rows start at their best vertex (at zero for NNLS), as the rows
    # failing the rank test do, and still reach the oracle
    lam = 0.0 if simplex else 1e-2
    rng = np.random.default_rng(21)
    base_m = rng.uniform(0.05, 1.0, size=(6, 4))
    base_m[:, 1] = base_m[:, 0] + rng.normal(0.0, 0.05, size=6)
    m = base_m + (rng.normal(0.0, 0.02, size=(200, 6, 4)) if per_pixel else 0.0)
    y = rng.dirichlet(np.ones(4), size=200) @ base_m.T + rng.normal(0.0, 0.05, size=(200, 6))
    gram, h = _l1_gram(y, m, lam)
    assert _face_start_fails(gram, h, simplex).size > 0
    counts = QPCounts()
    a, _ = (base.fcls_gram if simplex else base.nnls_gram)(gram, h, counts)
    assert counts.unsettled_rows == 0
    for i in _face_start_fails(gram, h, simplex):
        mi = _pixel_matrix(m, i)
        if simplex:
            _, oracle_cost = qp_fcls_oracle(y[i], mi)
            cost = float(np.sum((y[i] - mi @ a[i]) ** 2))
            assert abs(cost - oracle_cost) <= _cost_tol(cost, oracle_cost, y[i])
        else:
            act, inact, scale = kkt_residual_l1(y[i:i + 1], mi, a[i:i + 1], lam)
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
