import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varimix.solvers import QPCounts, fcls, fcls_core, reconstruct, residual_stats
from varimix.types import SpectralImage

from oracles import project_simplex, qp_fcls_oracle


def _image(y):
    n, l = y.shape
    return SpectralImage(y.reshape(1, n, l))


class TestProjectSimplex:
    @given(arrays(np.float64, (6,), elements=st.floats(-10, 10)))
    @settings(max_examples=100, deadline=None)
    def test_output_on_simplex(self, v):
        z = project_simplex(v[None, :])[0]
        assert np.all(z >= 0)
        assert z.sum() == pytest.approx(1.0, abs=1e-9)

    @given(arrays(np.float64, (5,), elements=st.floats(-5, 5)))
    @settings(max_examples=100, deadline=None)
    def test_projection_optimality(self, v):
        # the projection must be at least as close as a few random
        # simplex points
        z = project_simplex(v[None, :])[0]
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.dirichlet(np.ones(5))
            assert np.sum((v - z) ** 2) <= np.sum((v - w) ** 2) + 1e-9

    def test_idempotent_on_simplex(self, rng):
        a = rng.dirichlet(np.ones(4), size=100)
        assert np.max(np.abs(project_simplex(a) - a)) < 1e-12


class TestFcls:
    def test_pure_pixel(self, rng):
        m = rng.uniform(0.05, 1.0, size=(30, 4))
        res = fcls(_image(m.T[1][None, :].copy()), m)
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.max(np.abs(res.abundances.data[0] - expected)) < 1e-10

    def test_two_member_mixture_against_oracle(self, rng):
        m = rng.uniform(0.05, 1.0, size=(25, 4))
        y = 0.5 * m[:, 0] + 0.5 * m[:, 1]
        res = fcls(_image(y[None, :]), m)
        oracle, _ = qp_fcls_oracle(y, m)
        assert np.max(np.abs(res.abundances.data[0] - oracle)) < 1e-9
        assert res.abundances.data[0] == pytest.approx([0.5, 0.5, 0, 0], abs=1e-9)

    def test_random_pixels_match_oracle(self, rng):
        m = rng.uniform(0.05, 1.0, size=(20, 5))
        y = rng.uniform(0, 1.2, size=(40, 20))
        res = fcls(_image(y), m)
        for i in range(40):
            a_o, _ = qp_fcls_oracle(y[i], m)
            assert np.max(np.abs(res.abundances.data[i] - a_o)) < 1e-8

    def test_outside_cone_beats_vertices(self, rng):
        m = rng.uniform(0.05, 0.5, size=(15, 3))
        y = -np.ones(15) * 3.0      # far outside the nonnegative cone
        res = fcls(_image(y[None, :]), m)
        a = res.abundances.data[0]
        assert np.all(a >= 0) and a.sum() == pytest.approx(1.0, abs=1e-9)
        res_norm = np.sum((y - m @ a) ** 2)
        for p in range(3):
            assert res_norm <= np.sum((y - m[:, p]) ** 2) + 1e-12

    def test_joint_rescaling_invariance(self, rng):
        m = rng.uniform(0.05, 1.0, size=(20, 3))
        y = rng.uniform(0, 1, size=(10, 20))
        a1, _ = fcls_core(y, m, QPCounts())
        a2, _ = fcls_core(3.7 * y, 3.7 * m, QPCounts())
        assert np.max(np.abs(a1 - a2)) < 1e-10

    def test_kkt_residual(self, rng):
        # fixed-point residual of the projected solution
        m = rng.uniform(0.05, 1.0, size=(30, 4))
        y = rng.uniform(0, 1, size=(50, 30))
        a, _ = fcls_core(y, m, QPCounts())
        grad = 2 * (a @ (m.T @ m) - y @ m)
        step = 1.0 / np.linalg.norm(2 * m.T @ m, 2)
        fp = project_simplex(a - step * grad)
        assert np.max(np.abs(fp - a)) < 1e-8

    def test_warns_underdetermined(self, rng):
        m = rng.uniform(0.1, 1.0, size=(3, 5))
        with pytest.warns(UserWarning):
            fcls(_image(rng.uniform(0, 1, size=(4, 3))), m)

    def test_one_class_more_than_bands_is_determined(self, rng):
        # [M; 1'] has full rank P with L = P - 1: no warning, exact recovery
        m = rng.uniform(0.1, 1.0, size=(2, 3))
        a = rng.dirichlet(np.ones(3), size=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fcls(_image(a @ m.T), m)
        assert np.max(np.abs(res.abundances.data - a)) <= 1e-12

    def test_warns_on_duplicate_columns(self, rng):
        m = rng.uniform(0.1, 1.0, size=(6, 3))
        m[:, 2] = m[:, 0]
        with pytest.warns(UserWarning, match="rank below P"):
            fcls(_image(rng.uniform(0, 1, size=(4, 6))), m)

    def test_rejects_nonfinite(self, rng):
        m = rng.uniform(0.1, 1.0, size=(5, 2))
        y = rng.uniform(0, 1, size=(3, 5))
        y[0, 0] = np.nan
        with pytest.raises(ValueError):
            fcls_core(y, m, QPCounts())

    def test_batched_matches_shared(self, rng):
        m = rng.uniform(0.05, 1.0, size=(12, 3))
        y = rng.uniform(0, 1, size=(25, 12))
        a1, _ = fcls_core(y, m, QPCounts())
        a2, _ = fcls_core(y, np.repeat(m[None], 25, axis=0), QPCounts())
        assert np.max(np.abs(a1 - a2)) < 1e-9

    def test_solver_log_and_re(self, rng):
        m = rng.uniform(0.05, 1.0, size=(10, 3))
        y = rng.uniform(0, 1, size=(8, 10))
        res = fcls(_image(y), m)
        recon = res.abundances.data @ m.T
        re = np.linalg.norm(y - recon, axis=1) / np.sqrt(10)
        assert np.max(np.abs(re - res.per_pixel_re)) < 1e-12
        assert res.solver_log.final_cost >= 0


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 1), (37, 200), (200, 3)])
def test_residual_stats_match_the_two_pass_formulas_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    y, recon = rng.normal(size=shape), rng.normal(size=shape)
    cost, rms = residual_stats(y, recon)
    assert cost == float(np.sum((y - recon) ** 2))
    assert rms.tobytes() == (np.linalg.norm(y - recon, axis=1) / np.sqrt(shape[1])).tobytes()


@pytest.mark.parametrize("n", [1, 255, 256, 257, 513])
def test_result_matches_the_whole_image_bit_for_bit(n):
    # ``_result`` builds FCLS's result 256 pixels at a time; each row keeps the bits
    # of the whole-image reconstruction and residual
    rng = np.random.default_rng(n)
    m = rng.uniform(0.05, 1.0, size=(40, 3))
    y = rng.dirichlet(np.ones(3), size=n) @ m.T + rng.normal(0.0, 0.01, size=(n, 40))
    res = fcls(_image(y), m)
    recon = reconstruct(m, res.abundances.data)
    _, re = residual_stats(y, recon)
    assert res.reconstruction.tobytes() == recon.tobytes()
    assert res.per_pixel_re.tobytes() == re.tobytes()
    exact = math.fsum(((y - recon) ** 2).ravel())
    assert res.solver_log.final_cost == pytest.approx(exact, rel=1e-12, abs=0.0)
