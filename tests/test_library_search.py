"""Library search in Gram space: duplicate signatures, tie and
early-stop rules, and the batched greedy L0 against its per-pixel oracle.

MESMA and both L0 modes collapse exact duplicate signatures to their
first occurrence, so a tie between copies goes to the first one exactly
and the results equal those for the library without the later copies.
"""

import itertools

import numpy as np
import pytest

from varimix.libops import apply_transform, fda_transform
from varimix.solvers import (QPCounts, kkt_residual_simplex, mesma, search, sparse_su_l0,
                             sparse_su_l1)
from varimix.solvers.base import fcls_gram
from varimix.solvers.search import distinct_rows, library_stats, subset_search
from varimix.solvers.sparse import _greedy_supports
from varimix.synth import truth_variant_library
from varimix.types import DimensionError, SpectralImage, SpectralLibrary

from conftest import make_scene
from oracles import greedy_l0_oracle, mesma_oracle, qp_fcls_oracle


def _image(y):
    n, l = y.shape
    return SpectralImage(y.reshape(1, n, l))


def _first_index(sigs, i):
    """Index of the first row of ``sigs`` equal to row ``i``."""
    return int(np.flatnonzero(np.all(sigs == sigs[i], axis=1))[0])


def _duplicated_library(rng, l=20):
    """Two classes with exact copies placed after and before other rows:
    class 0 is [u, v, u, w, v], class 1 is [x, z, x, z]."""
    u, v, w, x, z = rng.uniform(0.05, 1.0, size=(5, l))
    return SpectralLibrary.from_arrays(["c0", "c1"], [np.stack([u, v, u, w, v]),
                                                      np.stack([x, z, x, z])])


def _pixels(rng, lib, n_mixed=12, n_noisy=12):
    """Exact mixtures of random models (copies included) plus noisy pixels."""
    s0, s1 = (c.signatures for c in lib.classes)
    t = rng.uniform(0.1, 0.9, size=n_mixed)[:, None]
    mixed = t * s0[rng.integers(0, len(s0), n_mixed)] + (1 - t) * s1[rng.integers(0, len(s1), n_mixed)]
    noisy = rng.uniform(0.0, 1.0, size=(n_noisy, lib.n_bands))
    return np.concatenate([mixed, noisy])


def test_distinct_rows_are_first_occurrences(rng):
    base = rng.uniform(size=(6, 8))
    s = base[rng.integers(0, 6, size=30)]
    assert np.array_equal(distinct_rows(s), np.sort(np.unique(s, axis=0, return_index=True)[1]))
    assert distinct_rows(np.zeros((0, 8))).size == 0


@pytest.mark.parametrize("solver", [mesma, sparse_su_l1, sparse_su_l0])
def test_library_of_other_bands_is_refused(rng, solver):
    """The library solvers share one band check, in ``library_stats``."""
    lib = _duplicated_library(rng)
    y = rng.uniform(0.0, 1.0, size=(4, lib.n_bands + 1))
    with pytest.raises(DimensionError, match="^library band count does not match the image$"):
        solver(_image(y), lib)


def test_mesma_duplicates_select_first_occurrence(rng):
    lib = _duplicated_library(rng)
    y = _pixels(rng, lib)
    res = mesma(_image(y), lib)
    flags = res.solver_log.flags
    assert flags["models_enumerated"] == 3 * 2
    assert flags["duplicates"] == 4
    for i in range(y.shape[0]):
        sel = tuple(int(j) for j in res.selected_model[i])
        assert sel == tuple(_first_index(c.signatures, j) for c, j in zip(lib.classes, sel))
        re_o, combo_o, a_o = mesma_oracle(y[i], lib)
        assert sel == combo_o
        assert np.max(np.abs(res.abundances.data[i] - a_o)) < 1e-8
        assert res.per_pixel_re[i] == pytest.approx(re_o, abs=1e-9)


@pytest.mark.parametrize("mode", ["greedy", "exhaustive"])
def test_l0_duplicate_columns_match_deduplicated_library(rng, mode):
    u, v, w, x, z = rng.uniform(0.05, 1.0, size=(5, 20))
    # flattened columns: u v u w | x u z x; copies at 2, 5 and 7
    lib = SpectralLibrary.from_arrays(["c0", "c1"], [np.stack([u, v, u, w]),
                                                     np.stack([x, u, z, x])])
    dedup = SpectralLibrary.from_arrays(["c0", "c1"], [np.stack([u, v, w]),
                                                       np.stack([x, z])])
    y = _pixels(rng, dedup)
    res = sparse_su_l0(_image(y), lib, k=2, mode=mode)
    ref = sparse_su_l0(_image(y), dedup, k=2, mode=mode)
    raw = res.raw_abundances.data
    assert res.solver_log.flags["duplicates"] == 3
    assert np.all(raw[:, [2, 5, 7]] == 0.0)
    assert np.array_equal(raw[:, [0, 1, 3, 4, 6]], ref.raw_abundances.data)
    assert np.array_equal(res.abundances.data, ref.abundances.data)


def _early_stop_reference(y, lib, threshold):
    """First model in enumeration order with RMS error <= threshold, else
    the best one, per pixel, from the QP oracle."""
    sigs = [c.signatures for c in lib.classes]
    l = y.shape[0]
    best = None
    for combo in itertools.product(*(range(len(s)) for s in sigs)):
        m = np.stack([sigs[c][i] for c, i in enumerate(combo)], axis=1)
        a, cost = qp_fcls_oracle(y, m)
        re = np.sqrt(cost / l)
        if best is None or re < best[0]:
            best = (re, combo, a)
        if re <= threshold:
            return combo, a, True
    return best[1], best[2], False


def test_mesma_early_stop_matches_per_pixel_reference(rng):
    lib = SpectralLibrary.from_arrays(
        ["c0", "c1", "c2"], [rng.uniform(0.05, 1.0, size=(3, 12)) for _ in range(3)])
    y = rng.uniform(0.2, 0.8, size=(40, 12))
    res_all = mesma(_image(y), lib)
    # a threshold in the widest gap between per-pixel errors near their
    # median, so no error lies within rounding of it
    errs = []
    for combo in itertools.product(range(3), repeat=3):
        m = np.stack([lib.classes[c].signatures[i] for c, i in enumerate(combo)], axis=1)
        errs.extend(np.sqrt(qp_fcls_oracle(yi, m)[1] / 12) for yi in y)
    errs = np.sort(errs)
    mid = errs.size // 2
    window = slice(mid - errs.size // 8, mid + errs.size // 8)
    gap = int(np.argmax(np.diff(errs[window])))
    threshold = 0.5 * (errs[window][gap] + errs[window][gap + 1])

    res = mesma(_image(y), lib, re_threshold=threshold)
    froze = 0
    for i in range(y.shape[0]):
        combo, a, hit = _early_stop_reference(y[i], lib, threshold)
        froze += hit
        assert tuple(res.selected_model[i]) == combo
        assert np.max(np.abs(res.abundances.data[i] - a)) < 1e-8
    # the threshold freezes some pixels, some of them away from their best model
    assert 0 < froze < y.shape[0]
    assert np.any(res.selected_model != res_all.selected_model)
    assert res.solver_log.flags["early_stop"]
    assert res.solver_log.flags["models_enumerated"] <= 27


def test_mesma_early_stop_below_the_statistics_floor(rng):
    """A threshold far below the ~1e-8 ||y|| that r^2 from the statistics
    resolves: pixels that two models fit exactly freeze at the first."""
    w, u, x1 = rng.uniform(0.05, 1.0, size=(3, 20))
    x2 = x1 + 0.5 * (u - x1)
    lib = SpectralLibrary.from_arrays(["c0", "c1"], [np.stack([w, u]), np.stack([x1, x2])])
    # mixtures of u and x1 with t > 0.5 are also mixtures of u and x2
    t = rng.uniform(0.55, 0.95, size=40)[:, None]
    y = t * u + (1 - t) * x1
    res = mesma(_image(y), lib, re_threshold=1e-12)
    for i in range(y.shape[0]):
        combo, a, hit = _early_stop_reference(y[i], lib, 1e-12)
        assert hit and combo == (1, 0)
        assert tuple(res.selected_model[i]) == combo
        assert np.max(np.abs(res.abundances.data[i] - a)) < 1e-8
    assert res.solver_log.flags["models_enumerated"] == 3


def test_early_stop_recompute_does_not_depend_on_the_batch():
    """Near the threshold the residual is recomputed from the pixel by a
    product whose rows keep their bits alone (numpy sends a one-row
    product to gemv, which rounds otherwise than gemm): a pixel whose
    model-0 residual lies between the two roundings, with the threshold
    at the gemm one, freezes at model 0 alone as alongside copies."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = rng.uniform(0.05, 1.0, size=(4, 30))
        y = np.array([0.3, 0.7]) @ s[2:] + rng.normal(0.0, 0.01, size=30)   # model (2, 3) fits best
        y = np.repeat(y[None], 3, axis=0)
        gram, ys, yy = library_stats(y, s)
        a = fcls_gram(gram[:2, :2], ys[:, :2], QPCounts())[0][:1]
        batch, alone = (float(np.einsum("nl,nl->n", r, r)[0])
                        for r in (y[:1] - (np.repeat(a, 2, axis=0) @ s[:2])[:1], y[:1] - a @ s[:2]))
        if alone > batch:
            break
    assert alone > batch
    for copies in (1, 3):
        cols, _, solved = subset_search(gram, ys[:copies], yy[:copies], [(0, 1), (2, 3)], 2,
                                        QPCounts(), stop_r2=batch, y=y[:copies], signatures=s)
        assert np.all(cols == [0, 1]) and solved == 1


def _search_one_at_a_time(monkeypatch, *args, **kwargs):
    """``subset_search`` with one subset per kernel call."""
    with monkeypatch.context() as m:
        m.setattr(search, "_BLOCK_PAIRS", 1)
        return subset_search(*args, **kwargs)


def _assert_same_search(one, blocked):
    (cols1, a1, solved1), (cols2, a2, solved2) = one, blocked
    assert solved1 == solved2
    assert np.array_equal(cols1, cols2) and a1.tobytes() == a2.tobytes()


def test_blocked_search_stops_where_one_at_a_time_does(rng, monkeypatch):
    """A threshold every pixel meets: the last open pixel freezes inside
    a block, and the search counts the subsets a search of one subset per
    kernel call solves, with the same columns and abundance bytes."""
    lib = SpectralLibrary.from_arrays(
        ["c0", "c1", "c2"], [rng.uniform(0.05, 1.0, size=(3, 12)) for _ in range(3)])
    y = rng.uniform(0.2, 0.8, size=(40, 12))
    flat, _ = lib.flatten()
    stats = library_stats(y, flat)
    models = list(itertools.product(range(0, 3), range(3, 6), range(6, 9)))
    r2 = np.array([[qp_fcls_oracle(yi, flat[list(mod)].T)[1] for mod in models] for yi in y])
    stop = 1.0001 * float(np.max(np.min(r2[:, :20], axis=1)))
    blocked = subset_search(*stats, models, 3, QPCounts(), stop_r2=stop, y=y, signatures=flat)
    _assert_same_search(_search_one_at_a_time(monkeypatch, *stats, models, 3, QPCounts(),
                                              stop_r2=stop, y=y, signatures=flat), blocked)
    first_hit = np.argmax(r2 <= stop, axis=1)
    assert blocked[2] == first_hit.max() + 1 < len(models)
    res = mesma(_image(y), lib, re_threshold=float(np.sqrt(stop / 12)))
    assert res.solver_log.flags["models_enumerated"] == blocked[2]
    assert res.solver_log.flags["qp_rounds"] < blocked[2]


def test_early_stop_blocks_start_at_one_subset_and_double(rng, monkeypatch):
    """With a threshold the blocks hold 1, 2, 4, ... subsets: pixels that
    all stop at the first subset cost one subset's kernel call, and a
    threshold no pixel meets gives the selections of the search without
    one."""
    flat = rng.uniform(0.05, 1.0, size=(9, 12))
    y = rng.uniform(0.2, 0.8, size=(40, 12))
    stats = library_stats(y, flat)
    models = list(itertools.product(range(0, 3), range(3, 6), range(6, 9)))
    stacks = []

    def spy(g, h, counts):
        stacks.append(g.shape[0])
        return fcls_gram(g, h, counts)

    monkeypatch.setattr(search, "fcls_gram", spy)
    cols, _, solved = subset_search(*stats, models, 3, QPCounts(), stop_r2=1e6, y=y,
                                    signatures=flat)
    assert stacks == [1] and solved == 1 and np.all(cols == [0, 3, 6])
    stacks.clear()
    stopped = subset_search(*stats, models, 3, QPCounts(), stop_r2=0.0, y=y, signatures=flat)
    assert stacks == [1, 2, 4, 8, 12]
    _assert_same_search(subset_search(*stats, models, 3, QPCounts()), stopped)


@pytest.mark.parametrize("k", [2, 3])
def test_blocked_exhaustive_l0_mixes_support_sizes(rng, monkeypatch, k):
    """Exhaustive L0 enumerates supports of sizes 1 to k; blocks never mix
    sizes, and the results are those of one support per kernel call."""
    lib = _duplicated_library(rng)
    y = _pixels(rng, lib)
    blocked = sparse_su_l0(_image(y), lib, k=k, mode="exhaustive")
    with monkeypatch.context() as m:
        m.setattr(search, "_BLOCK_PAIRS", 1)
        one = sparse_su_l0(_image(y), lib, k=k, mode="exhaustive")
    assert blocked.raw_abundances.data.tobytes() == one.raw_abundances.data.tobytes()
    assert blocked.abundances.data.tobytes() == one.abundances.data.tobytes()
    flat, _ = lib.flatten()
    q = distinct_rows(flat).size
    supports = list(itertools.chain.from_iterable(
        itertools.combinations(range(q), i) for i in range(1, k + 1)))
    stats = library_stats(y, flat[distinct_rows(flat)])
    _assert_same_search(_search_one_at_a_time(monkeypatch, *stats, supports, k, QPCounts()),
                        subset_search(*stats, supports, k, QPCounts()))


def _planar_library(rng, per_class=3):
    """Three classes in two bands, class c's signatures scattered around
    vertex c of a large triangle, and pixels near its centroid, inside
    every model's triangle: every model fits every pixel exactly."""
    vertices = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.9]])
    sigs = [v + rng.uniform(-0.03, 0.03, size=(per_class, 2)) for v in vertices]
    y = vertices.mean(axis=0) + rng.uniform(-0.05, 0.05, size=(60, 2))
    return SpectralLibrary.from_arrays(["c0", "c1", "c2"], sigs), y


def test_first_exact_model_wins_with_fewer_bands_than_classes(rng, monkeypatch):
    """Exact fits are a tie whatever their rounding: the first model in
    enumeration order is kept, also when the search statistics move by
    one ulp."""
    lib, y = _planar_library(rng)
    res = mesma(_image(y), lib)
    assert np.all(res.selected_model == 0)
    assert np.max(res.per_pixel_re) < 1e-12

    flat, _ = lib.flatten()
    gram, ys, yy = library_stats(y, flat)
    models = list(itertools.product(range(0, 3), range(3, 6), range(6, 9)))
    for g, h in ((gram, ys), (np.nextafter(gram, np.inf), ys), (gram, np.nextafter(ys, -np.inf)),
                 (np.nextafter(gram, -np.inf), np.nextafter(ys, np.inf))):
        cols, a, solved = subset_search(g, h, yy, models, 3, QPCounts())
        assert solved == 27
        assert np.all(cols == [0, 3, 6])
        assert np.max(np.abs(a - res.abundances.data)) < 1e-12
        _assert_same_search(_search_one_at_a_time(monkeypatch, g, h, yy, models, 3, QPCounts()),
                            (cols, a, solved))


def _assert_kkt_on_support(y, m, a):
    """Each row of ``a`` solves the simplex problem on its own support."""
    for i in range(y.shape[0]):
        sup = np.flatnonzero(a[i])
        act, inact, scale = kkt_residual_simplex(y[i:i + 1], m[:, sup], a[i:i + 1, sup])
        assert max(act, inact) <= 1e-9 * scale


@pytest.mark.parametrize("solver", ["mesma", "exhaustive", "greedy"])
def test_searches_solve_the_selected_problem(rng, solver):
    """KKT certificate of every pixel's fit on the model or support it was
    given, with duplicate signatures in the library."""
    lib = _duplicated_library(rng)
    y = _pixels(rng, lib)
    if solver == "mesma":
        res = mesma(_image(y), lib)
        act, inact, scale = kkt_residual_simplex(y, res.endmembers.data, res.abundances.data)
        assert max(act, inact) <= 1e-9 * scale
    else:
        res = sparse_su_l0(_image(y), lib, k=2, mode=solver)
        _assert_kkt_on_support(y, lib.flatten()[0].T, res.raw_abundances.data)
    assert res.solver_log.flags["unsettled_rows"] == 0
    assert res.solver_log.converged


@pytest.mark.parametrize("l,q", [(12, 6), (5, 9), (3, 10)])
def test_greedy_supports_match_oracle(l, q):
    rng = np.random.default_rng(100 * l + q)
    m = rng.uniform(0.05, 1.0, size=(l, q))
    # pixels outside and inside the cone of the columns
    y = np.concatenate([rng.uniform(0.0, 1.0, size=(20, l)),
                        rng.dirichlet(np.ones(q), size=20) @ m.T])
    for k in sorted({1, 2, l, q} & set(range(1, q + 1))):
        counts = QPCounts()
        sel = _greedy_supports(m.T @ m, y @ m, k, counts)
        assert counts.unsettled_rows == 0
        for i in range(y.shape[0]):
            assert tuple(int(c) for c in sel[i] if c >= 0) == greedy_l0_oracle(y[i], m, k)


def test_greedy_l0_fits_the_oracle_support(rng):
    lib = SpectralLibrary.from_arrays(
        ["c0", "c1"], [rng.uniform(0.05, 1.0, size=(4, 5)) for _ in range(2)])
    m = lib.flatten()[0].T
    y = rng.uniform(0.0, 1.0, size=(15, 5))
    res = sparse_su_l0(_image(y), lib, k=3, mode="greedy")
    raw = res.raw_abundances.data
    for i in range(y.shape[0]):
        support = list(greedy_l0_oracle(y[i], m, 3))
        off = np.setdiff1d(np.arange(m.shape[1]), support)
        assert np.all(raw[i, off] == 0.0)
        _, cost = qp_fcls_oracle(y[i], m[:, support])
        assert np.sum((y[i] - m @ raw[i]) ** 2) == pytest.approx(cost, rel=1e-10, abs=1e-14)


def test_mesma_reports_the_fit_of_the_selected_model():
    """On an FDA-transformed library, whose signatures go negative, the
    reconstruction, ``per_pixel_re`` and cost are those of each pixel's
    selected model as searched; only the emitted field is clamped."""
    truth = make_scene(n_bands=20, height=10, width=12, snr_db=10.0, seed=4)
    lib = truth_variant_library(truth)
    image, lib = apply_transform(fda_transform(lib, 2), truth.image_noisy, lib)
    assert min(c.signatures.min() for c in lib.classes) < 0.0
    y = image.pixels
    sigs = [c.signatures for c in lib.classes]

    def selected_fit(res):
        """Per pixel: the oracle RE of the selected model, and the squared
        residual of the returned abundances on it."""
        re, r2 = np.empty(y.shape[0]), np.empty(y.shape[0])
        for i, sel in enumerate(res.selected_model):
            m = np.stack([s[j] for s, j in zip(sigs, sel)], axis=1)
            re[i] = np.sqrt(qp_fcls_oracle(y[i], m)[1] / y.shape[1])
            r2[i] = np.sum((y[i] - m @ res.abundances.data[i]) ** 2)
        return re, r2

    res = mesma(image, lib)
    re, r2 = selected_fit(res)
    assert np.max(np.abs(res.per_pixel_re - re)) <= 1e-12
    assert res.solver_log.final_cost == pytest.approx(r2.sum(), rel=1e-12, abs=1e-24)
    assert res.endmembers.data.min() >= 0.0
    threshold = float(np.median(re[re > 1e-6]))
    stopped = mesma(image, lib, re_threshold=threshold)
    re, _ = selected_fit(stopped)
    fits = re <= threshold
    assert 0 < fits.sum() < y.shape[0]
    assert np.all(stopped.per_pixel_re[fits] <= threshold)
