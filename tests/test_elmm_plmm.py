import numpy as np
import pytest

from varimix.solvers import QPCounts, SolverOptions, elmm_unmix, fcls, fcls_core, plmm_unmix
from varimix.types import SpectralImage

from conftest import make_scene
from oracles import _elmm_cost, _plmm_cost, grid_laplacian


def _grid_image(y, h, w):
    return SpectralImage(y.reshape(h, w, y.shape[1]))


def _lmm_data(rng, h=6, w=8, l=20, p=3):
    m0 = rng.uniform(0.05, 1.0, size=(l, p))
    a = rng.dirichlet(np.ones(p), size=h * w)
    y = a @ m0.T
    return m0, a, y


class TestElmm:
    def test_truth_init_is_stationary(self, rng):
        # on y = A M0' the FCLS start with unit scalings is the truth, at the cost floor
        h, w = 6, 8
        m0, a, y = _lmm_data(rng, h, w)
        res = elmm_unmix(_grid_image(y, h, w), m0, SolverOptions(max_iters=30))
        assert res.solver_log.cost_history[0] <= 1e-24
        assert res.solver_log.iterations == 0
        assert np.max(np.abs(res.abundances.data - a)) <= 1e-12
        assert res.solver_log.converged

    def test_cost_nonincreasing_random_scenes(self):
        for seed in range(5):
            truth = make_scene(n_bands=20, height=5, width=6, snr_db=25.0, seed=seed)
            m0 = truth.endmembers.class_means().T
            res = elmm_unmix(truth.image_noisy, m0, SolverOptions(max_iters=15))
            diffs = np.diff(res.solver_log.cost_history)
            assert np.all(diffs <= 0.0)

    def test_beats_cost_at_generating_truth(self, rng):
        # data generated exactly as y = M0 diag(psi) a with smooth psi
        h, w, l, p = 8, 8, 16, 3
        m0 = rng.uniform(0.1, 1.0, size=(l, p))
        base = rng.uniform(0.8, 1.2, size=p)
        gx = np.linspace(0, 1, h)[:, None] * np.ones((1, w))
        psi = np.stack([base[j] + 0.1 * np.sin(2 * np.pi * (gx + j / p)).ravel()
                        for j in range(p)], axis=1)
        a = rng.dirichlet(np.ones(p), size=h * w)
        m_n = m0[None, :, :] * psi[:, None, :]
        y = np.einsum("nlp,np->nl", m_n, a)
        opts = SolverOptions(max_iters=400, tol=1e-9, lambda_m=1.0, lambda_psi=0.05)
        res = elmm_unmix(_grid_image(y, h, w), m0, opts)
        lap = grid_laplacian(h, w)
        truth_cost = _elmm_cost(y, m0, lap, opts.lambda_m, opts.lambda_psi, (a, psi, m_n))
        assert res.solver_log.final_cost <= truth_cost

    def test_emits_psi_and_field(self):
        truth = make_scene(n_bands=18, height=4, width=5, snr_db=30.0)
        m0 = truth.endmembers.class_means().T
        res = elmm_unmix(truth.image_noisy, m0, SolverOptions(max_iters=5))
        assert res.extras["psi"].shape == (20, 3)
        assert res.endmembers.data.shape == (20, 18, 3)
        assert np.all(res.endmembers.data >= 0)
        re = np.linalg.norm(
            truth.image_noisy.pixels
            - np.einsum("nlp,np->nl", res.endmembers.data, res.abundances.data),
            axis=1,
        ) / np.sqrt(18)
        assert np.max(np.abs(re - res.per_pixel_re)) < 1e-9

    def test_rejects_zero_column(self, rng):
        m0 = rng.uniform(0.1, 1, size=(10, 3))
        m0[:, 1] = 0.0
        with pytest.raises(ValueError):
            elmm_unmix(_grid_image(rng.uniform(0, 1, (12, 10)), 3, 4), m0)


class TestPlmm:
    def test_noiseless_reference_data_stays_put(self, rng):
        h, w = 5, 8
        m0, a, y = _lmm_data(rng, h, w)
        res = plmm_unmix(_grid_image(y, h, w), m0, SolverOptions(max_iters=20))
        assert np.max(np.abs(res.endmembers.data - m0)) < 1e-8
        a_ref, _ = fcls_core(y, m0, QPCounts())
        assert np.max(np.abs(res.abundances.data - a_ref)) < 1e-8
        assert res.solver_log.converged

    def test_huge_gamma_matches_fcls(self):
        truth = make_scene(n_bands=20, height=5, width=8, snr_db=25.0, seed=3)
        m0 = truth.endmembers.class_means().T
        res = plmm_unmix(truth.image_noisy, m0,
                         SolverOptions(max_iters=30, gamma_plmm=1e9))
        ref = fcls(truth.image_noisy, m0)
        assert np.max(np.abs(res.abundances.data - ref.abundances.data)) < 1e-4

    def test_cost_nonincreasing_random_scenes(self):
        for seed in range(5):
            truth = make_scene(n_bands=16, height=4, width=6, snr_db=20.0, seed=seed + 50)
            m0 = truth.endmembers.class_means().T
            res = plmm_unmix(truth.image_noisy, m0,
                             SolverOptions(max_iters=15, gamma_plmm=2.0))
            assert np.all(np.diff(res.solver_log.cost_history) <= 0.0)

    def test_beats_random_feasible_points(self, rng):
        n, l, p = 20, 12, 3
        m0 = rng.uniform(0.1, 1.0, size=(l, p))
        y = rng.uniform(0, 1, size=(n, l))
        opts = SolverOptions(max_iters=40, gamma_plmm=1.0)
        res = plmm_unmix(_grid_image(y, 4, 5), m0, opts)
        out_cost = res.solver_log.final_cost
        for _ in range(200):
            a = rng.dirichlet(np.ones(p), size=n)
            dm = rng.normal(0, 0.1, size=(n, l, p))
            assert out_cost <= _plmm_cost(y, m0, opts.gamma_plmm, (a, dm)) + 1e-9

    def test_emitted_field_clamped(self):
        truth = make_scene(n_bands=14, height=4, width=5, snr_db=10.0, seed=9)
        m0 = truth.endmembers.class_means().T
        res = plmm_unmix(truth.image_noisy, m0,
                         SolverOptions(max_iters=10, gamma_plmm=0.1))
        assert np.all(res.endmembers.data >= 0)
