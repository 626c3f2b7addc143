import numpy as np
import pytest
from scipy.optimize import nnls as scipy_nnls

from varimix.solvers import (
    SolverOptions,
    fcls,
    kkt_residual_l1,
    sparse_su_l0,
    sparse_su_l1,
)
from varimix.solvers.base import _row_product, residual_stats
from varimix.synth import truth_variant_library
from varimix.types import BudgetError, SpectralImage, SpectralLibrary

from conftest import bench_scene, make_scene
from oracles import cd_l1_oracle


def _image(y):
    n, l = y.shape
    return SpectralImage(y.reshape(1, n, l))


def _library(rng, sizes=(3, 3, 2), l=24):
    return SpectralLibrary.from_arrays(
        [f"c{i}" for i in range(len(sizes))],
        [rng.uniform(0.05, 1.0, size=(s, l)) for s in sizes],
    )


class TestSparseL1:
    def test_lambda_zero_matches_nnls(self, rng):
        lib = _library(rng)
        m, _ = lib.flatten()
        y = rng.uniform(0, 1, size=(30, 24))
        res = sparse_su_l1(_image(y), lib, SolverOptions(lambda_sparse=0.0))
        for i in range(30):
            ref, _ = scipy_nnls(m.T, y[i])
            assert np.max(np.abs(res.raw_abundances.data[i] - ref)) < 1e-6

    def test_large_lambda_zeroes_output(self, rng):
        lib = _library(rng)
        m, _ = lib.flatten()
        y = rng.uniform(0, 1, size=(10, 24))
        lam = float(np.max(y @ m.T)) * 1.0001
        res = sparse_su_l1(_image(y), lib, SolverOptions(lambda_sparse=lam))
        assert np.max(res.raw_abundances.data) == 0.0
        # empty rows are reported uniform and flagged
        assert res.solver_log.flags["uniform_rows"] == 10
        assert np.allclose(res.abundances.data, 1 / 3)

    def test_matches_coordinate_descent_oracle(self, rng):
        lib = _library(rng)
        m, _ = lib.flatten()
        y = rng.uniform(0, 1, size=(12, 24))
        lam = 0.02
        res = sparse_su_l1(_image(y), lib, SolverOptions(lambda_sparse=lam))
        for i in range(12):
            oracle = cd_l1_oracle(y[i], m.T, lam)
            assert np.max(np.abs(res.raw_abundances.data[i] - oracle)) < 1e-6

    def test_single_column_pixel_mass(self, rng):
        lib = _library(rng)
        y = lib.classes[1].signatures[0].copy()
        lam = 1e-4 * float(y @ y)
        res = sparse_su_l1(_image(y[None, :]), lib, SolverOptions(lambda_sparse=lam))
        assert res.abundances.data[0, 1] >= 0.95

    def test_kkt_residuals(self, rng):
        lib = _library(rng)
        m, _ = lib.flatten()
        y = rng.uniform(0, 1, size=(40, 24))
        lam = 0.01
        res = sparse_su_l1(_image(y), lib, SolverOptions(lambda_sparse=lam))
        act, inact, scale = kkt_residual_l1(y, m.T, res.raw_abundances.data, lam)
        assert act <= 1e-5 * scale
        assert inact <= 1e-5 * scale

    def test_raw_flag_and_collapse(self, rng):
        lib = _library(rng)
        y = rng.uniform(0, 1, size=(5, 24))
        res = sparse_su_l1(_image(y), lib, SolverOptions(lambda_sparse=1e-3))
        assert not res.raw_abundances.sum_to_one
        assert res.abundances.sum_to_one
        assert np.max(np.abs(res.abundances.data.sum(axis=1) - 1)) < 1e-9
        assert res.endmembers is not None

    def test_duplicate_signatures_collapse_to_first_occurrence(self, rng):
        # copies of a signature leave the fit unchanged: the raw mass goes
        # to the first occurrence, and the result is the distinct library's
        lib = _library(rng)
        copies = [[0, 1, 2, 0, 1], [0, 0, 1, 2], [0, 1, 1]]
        dup = SpectralLibrary.from_arrays(
            lib.class_names, [c.signatures[i] for c, i in zip(lib.classes, copies)])
        later = np.array([0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1], dtype=bool)
        m, _ = dup.flatten()
        y = rng.dirichlet(np.ones(12), size=40) @ m + rng.normal(0, 0.02, size=(40, 24))
        lam = 0.01
        opts = SolverOptions(lambda_sparse=lam)
        res = sparse_su_l1(_image(y), dup, opts)
        ref = sparse_su_l1(_image(y), lib, opts)
        raw = res.raw_abundances.data
        assert res.solver_log.flags["duplicates"] == 4
        assert raw[:, ~later].any(axis=0).all() and not raw[:, later].any()
        np.testing.assert_allclose(res.abundances.data, ref.abundances.data, rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.reconstruction, ref.reconstruction, rtol=0, atol=1e-12)
        act, inact, scale = kkt_residual_l1(y, m.T, raw, lam)
        assert max(act, inact) <= 1e-9 * scale

    def test_result_reports_the_l1_problem_it_solved(self, rng):
        # pixels of raw mass far from 1 and one massless row: the reconstruction
        # is raw S (by _row_product, as a lone row's bits need), per_pixel_re its
        # residual, and the logged cost the L1 objective at that fit
        lib = _library(rng)
        s, _ = lib.flatten()
        scale = np.repeat([0.4, 2.5], 10)[:, None]
        y = scale * (rng.dirichlet(np.ones(8), size=20) @ s) + rng.normal(0, 0.01, size=(20, 24))
        y = np.vstack([y, np.full(24, 1e-6)])       # below lam on every column: no mass
        lam = 0.01
        res = sparse_su_l1(_image(y), lib, SolverOptions(lambda_sparse=lam))
        raw = res.raw_abundances.data
        mass = raw.sum(axis=1)
        assert np.all(np.abs(mass[:20] - 1.0) > 0.3) and mass[20] == 0.0
        assert res.reconstruction.tobytes() == _row_product(raw, s).tobytes()
        assert res.per_pixel_re.tobytes() == residual_stats(y, res.reconstruction)[1].tobytes()
        assert res.per_pixel_re[20] == pytest.approx(np.linalg.norm(y[20]) / np.sqrt(24))
        cost = 0.5 * 24 * np.sum(res.per_pixel_re ** 2) + lam * raw.sum()
        assert abs(cost - res.solver_log.final_cost) <= 1e-9 * res.solver_log.final_cost


class TestSparseL0:
    def test_full_support_equals_fcls(self, rng):
        lib = _library(rng, sizes=(2, 2), l=15)
        m, _ = lib.flatten()
        y = rng.uniform(0, 1, size=(10, 15))
        res = sparse_su_l0(_image(y), lib, k=4, mode="exhaustive")
        r_f = fcls(_image(y), m.T)
        re_f = np.linalg.norm(y - r_f.abundances.data @ m, axis=1) / np.sqrt(15)
        re_0 = np.linalg.norm(y - res.raw_abundances.data @ m, axis=1) / np.sqrt(15)
        assert np.max(re_0 - re_f) < 1e-8

    def test_single_column_pixel(self, rng):
        lib = _library(rng)
        y = lib.classes[2].signatures[1][None, :].copy()
        res = sparse_su_l0(_image(y), lib, k=1, mode="greedy")
        col = 3 + 3 + 1     # flattened index of class 2, signature 1
        assert res.raw_abundances.data[0, col] == pytest.approx(1.0, abs=1e-9)

    def test_greedy_close_to_exhaustive(self, rng):
        lib = SpectralLibrary.from_arrays(
            [f"c{i}" for i in range(8)],
            [rng.uniform(0.05, 1.0, size=(1, 30)) for _ in range(8)],
        )
        y = rng.uniform(0, 1, size=(50, 30))
        greedy = sparse_su_l0(_image(y), lib, k=2, mode="greedy")
        exact = sparse_su_l0(_image(y), lib, k=2, mode="exhaustive")
        ok = greedy.per_pixel_re <= 1.05 * exact.per_pixel_re + 1e-12
        assert ok.mean() >= 0.8
        # exhaustive is a lower bound everywhere
        assert np.all(exact.per_pixel_re <= greedy.per_pixel_re + 1e-10)

    def test_support_budget(self, rng):
        # 40 + 780 + 9880 supports of size <= 3 exceed the budget of 10**4;
        # it is checked before any work
        lib = _library(rng, sizes=(14, 13, 13))
        with pytest.raises(BudgetError, match="^10700 supports exceed the enumeration budget "
                                              "of 10000$"):
            sparse_su_l0(_image(rng.uniform(0, 1, (2, 24))), lib, k=3, mode="exhaustive")

    def test_k_validation(self, rng):
        lib = _library(rng)
        with pytest.raises(ValueError):
            sparse_su_l0(_image(rng.uniform(0, 1, (2, 24))), lib, k=0)
        with pytest.raises(ValueError):
            sparse_su_l0(_image(rng.uniform(0, 1, (2, 24))), lib, k=99)

    @pytest.mark.parametrize("k", [2.7, 2.0, True, "2"])
    def test_non_integer_k_is_refused_before_any_work(self, rng, k):
        # a k that is not an integer is not truncated; the band mismatch
        # shows that the check comes first
        lib = _library(rng)
        with pytest.raises(ValueError, match="^k must be an integer, got "):
            sparse_su_l0(_image(rng.uniform(0, 1, (2, 5))), lib, k=k)


def test_logged_costs_are_the_objectives_at_the_pixels():
    """L1 logs its objective from the library statistics, L0 the summed
    squared residual of its result; both must equal the objective
    computed from the pixels."""
    truth = bench_scene(24, 24, bands=100)
    image, lib = truth.image_noisy, truth_variant_library(truth)
    y, d = image.pixels, lib.flatten()[0]
    lam = 1e-3
    l1 = sparse_su_l1(image, lib, SolverOptions(lambda_sparse=lam))
    a = l1.raw_abundances.data
    ref = 0.5 * np.sum((y - a @ d) ** 2) + lam * a.sum()
    assert abs(l1.solver_log.final_cost - ref) <= 1e-12 * ref
    for mode, k in (("greedy", 3), ("exhaustive", 2)):
        l0 = sparse_su_l0(image, lib, k=k, mode=mode)
        ref = np.sum((y - l0.raw_abundances.data @ d) ** 2)
        assert abs(l0.solver_log.final_cost - ref) <= 1e-12 * ref, mode


def test_logged_costs_are_nonnegative_on_an_exact_fit():
    # noiseless, one variant per class: the library fits every pixel
    # exactly, and L1's squared residuals from the statistics sum below
    # zero unless each is clamped
    truth = make_scene(n_bands=30, n_variants=1)
    image, lib = truth.image_noisy, truth_variant_library(truth)
    scale = np.sum(image.pixels ** 2)
    for res in (sparse_su_l1(image, lib, SolverOptions(lambda_sparse=0.0)),
                sparse_su_l0(image, lib, k=3, mode="exhaustive")):
        assert 0.0 <= res.solver_log.final_cost <= 1e-12 * scale
