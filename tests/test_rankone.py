"""The factored rank-one state of ELMM and PLMM against the dense form.

The per-pixel Gram matrix, linear term and costs computed from the
factors must equal the ones computed from the dense (N, L, P) field; the
solvers must follow the dense alternating references in
``tests/oracles.py``; every abundance step must meet its KKT conditions
against the dense matrix it was solved for; and ``monotone_loop`` must
stop at a cost rise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varimix.solvers import (
    SolverOptions,
    elmm_unmix,
    fcls_core,
    grid_laplacian,
    kkt_residual_simplex,
    plmm_unmix,
)
from varimix.solvers import elmm as elmm_module
from varimix.solvers import plmm as plmm_module
from varimix.solvers.base import _gram, monotone_loop
from varimix.solvers.elmm import _elmm_cost, _spatial
from varimix.solvers.plmm import _plmm_cost
from varimix.solvers.rankone import RankOneModel, RankOneState

from conftest import make_scene
from oracles import elmm_dense_reference, plmm_dense_reference

RTOL = 1e-12
REF_TOL = 1e-10
KKT_RTOL = 1e-9


def _dense(m0, s):
    return m0[None] * s.psi_m[:, None, :] + s.u[:, :, None] * s.a[:, None, :]


def _rel(x, ref):
    return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300)


def _factored_case(seed, n, l, p, floor, zeros):
    """Random factored state; ``floor`` puts scalings at the 1e-6 clamp,
    ``zeros`` zeroes abundances (whole rows included)."""
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.05, 1.0, size=(l, p))
    y = rng.uniform(0.0, 1.0, size=(n, l))
    a = rng.dirichlet(np.ones(p), size=n)
    psi = rng.uniform(0.5, 1.5, size=(n, p))
    psi_m = rng.uniform(0.5, 1.5, size=(n, p))
    if floor:
        psi[rng.random((n, p)) < 0.5] = 1e-6
        psi_m[rng.random((n, p)) < 0.5] = 1e-6
    if zeros:
        a[rng.random((n, p)) < 0.5] = 0.0
        a[0] = 0.0
    u = rng.normal(0.0, 0.3, size=(n, l))
    return y, m0, RankOneState(a, psi, psi_m, u, u @ m0)


case = given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    l=st.integers(1, 8),
    p=st.integers(1, 6),                 # P > L included
    floor=st.booleans(),
    zeros=st.booleans(),
)


@settings(max_examples=60, deadline=None)
@case
def test_factored_gram_equals_dense(seed, n, l, p, floor, zeros):
    y, m0, s = _factored_case(seed, n, l, p, floor, zeros)
    g, h = RankOneModel(y, m0, 1.0).gram(s)
    g_ref, h_ref = _gram(y, _dense(m0, s))
    assert _rel(g, g_ref) <= RTOL
    assert _rel(h, h_ref) <= RTOL
    assert np.array_equal(g, g.transpose(0, 2, 1))


@settings(max_examples=60, deadline=None)
@case
def test_factored_elmm_cost_equals_dense(seed, n, l, p, floor, zeros):
    y, m0, s = _factored_case(seed, n, l, p, floor, zeros)
    lap = grid_laplacian(1, n)
    lam_m, lam_psi = 0.7, 0.3
    cost = RankOneModel(y, m0, lam_m).cost(s) + lam_psi * _spatial(lap, s.psi)
    ref = _elmm_cost(y, m0, lap, lam_m, lam_psi, (s.a, s.psi, _dense(m0, s)))
    assert abs(cost - ref) <= RTOL * ref


@settings(max_examples=60, deadline=None)
@case
def test_factored_plmm_cost_equals_dense(seed, n, l, p, floor, zeros):
    y, m0, s = _factored_case(seed, n, l, p, floor, zeros)
    ones = np.ones((n, p))
    s = RankOneState(s.a, ones, ones, s.u, s.w)
    gamma = 0.4
    cost = RankOneModel(y, m0, gamma).cost(s)
    ref = _plmm_cost(y, m0, gamma, (s.a, s.u[:, :, None] * s.a[:, None, :]))
    assert abs(cost - ref) <= RTOL * ref


def _small_scene(seed):
    truth = make_scene(n_bands=20, height=5, width=6, snr_db=25.0, seed=seed)
    return truth.image_noisy, truth.endmembers.class_means().T


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_elmm_matches_dense_reference(seed):
    image, m0 = _small_scene(seed)
    opts = SolverOptions(max_iters=15, lambda_m=1.0, lambda_psi=0.5)
    res = elmm_unmix(image, m0, opts)
    a, psi, m, history = elmm_dense_reference(
        image.pixels, m0, grid_laplacian(image.height, image.width),
        opts.lambda_m, opts.lambda_psi, opts.max_iters, opts.tol)
    assert res.solver_log.iterations == len(history) - 1
    assert np.max(np.abs(res.abundances.data - a)) <= REF_TOL
    assert np.max(np.abs(res.extras["psi"] - psi)) <= REF_TOL
    assert np.max(np.abs(res.endmembers.data - np.clip(m, 0.0, None))) <= REF_TOL
    assert _rel(np.array(res.solver_log.cost_history), np.array(history)) <= REF_TOL


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plmm_matches_dense_reference(seed):
    image, m0 = _small_scene(seed + 10)
    opts = SolverOptions(max_iters=15, gamma_plmm=0.5)
    res = plmm_unmix(image, m0, opts)
    a, dm, history = plmm_dense_reference(image.pixels, m0, opts.gamma_plmm,
                                          opts.max_iters, opts.tol)
    assert res.solver_log.iterations == len(history) - 1
    assert np.max(np.abs(res.abundances.data - a)) <= REF_TOL
    assert np.max(np.abs(res.extras["perturbation"] - dm)) <= REF_TOL
    assert _rel(np.array(res.solver_log.cost_history), np.array(history)) <= REF_TOL


@pytest.mark.parametrize("module, unmix, opts", [
    (elmm_module, elmm_unmix, SolverOptions(max_iters=8, lambda_psi=0.5)),
    (plmm_module, plmm_unmix, SolverOptions(max_iters=8, gamma_plmm=0.2)),
])
def test_every_abundance_step_meets_kkt(monkeypatch, module, unmix, opts):
    image, m0 = _small_scene(4)
    y = image.pixels
    residuals = []

    def loop(initial_state, step_fn, cost_fn, max_iters, tol):
        def step(s):
            new = step_fn(s)
            dense = s.dense if s.dense is not None else _dense(m0, s)
            residuals.append(kkt_residual_simplex(y, dense, new.a))
            return new
        return monotone_loop(initial_state, step, cost_fn, max_iters, tol)

    monkeypatch.setattr(module, "monotone_loop", loop)
    res = unmix(image, m0, opts)
    assert len(residuals) >= res.solver_log.iterations >= 2
    for act, inact, scale in residuals:
        assert max(act, inact) <= KKT_RTOL * scale


def test_dense_init_feeds_the_initial_cost_and_first_step():
    image, m0 = _small_scene(5)
    y = image.pixels
    n, l = y.shape
    p = m0.shape[1]
    rng = np.random.default_rng(3)
    dm0 = rng.normal(0.0, 0.02, size=(n, l, p))
    psi0 = rng.uniform(0.9, 1.1, size=(n, p))
    a0, _ = fcls_core(y, m0)
    lap = grid_laplacian(image.height, image.width)

    res = plmm_unmix(image, m0, SolverOptions(max_iters=1, gamma_plmm=0.5),
                     init_perturbation=dm0)
    assert res.solver_log.cost_history[0] == _plmm_cost(y, m0, 0.5, (a0, dm0))
    assert res.solver_log.iterations == 1
    assert np.array_equal(res.abundances.data, fcls_core(y, m0[None] + dm0)[0])

    m_init = m0[None] * psi0[:, None, :] + dm0
    opts = SolverOptions(max_iters=1, lambda_m=1.0, lambda_psi=0.5)
    res = elmm_unmix(image, m0, opts, init_psi=psi0, init_endmembers=m_init)
    assert res.solver_log.cost_history[0] == _elmm_cost(y, m0, lap, 1.0, 0.5, (a0, psi0, m_init))
    assert res.solver_log.iterations == 1
    assert np.array_equal(res.abundances.data, fcls_core(y, m_init)[0])


def test_monotone_loop_stops_at_a_cost_rise():
    steps = iter([9.0, 8.0, 13.0, 1.0])
    state, log = monotone_loop(10.0, lambda s: next(steps), lambda s: s, 10, 1e-9)
    assert state == 8.0
    assert log.cost_history == (10.0, 9.0, 8.0)
    assert np.all(np.diff(log.cost_history) <= 0)
    assert not log.converged
    assert log.flags == {"cost_rises": 1, "cap_hit": 0}
    assert log.iterations == 2 and log.final_cost == 8.0


def test_monotone_loop_convergence_and_cap():
    _, capped = monotone_loop(1.0, lambda s: 0.5 * s, lambda s: s, 3, 1e-9)
    assert not capped.converged and capped.iterations == 3
    _, done = monotone_loop(1.0, lambda s: s * (1 - 1e-12), lambda s: s, 3, 1e-9)
    assert done.converged and done.iterations == 1
    # the halving cost never meets the stopping rule: only the cap ends it
    assert capped.flags == {"cost_rises": 0, "cap_hit": 1}
    assert done.flags == {"cost_rises": 0, "cap_hit": 0}
    _, zero = monotone_loop(0.0, lambda s: s, lambda s: s, 3, 1e-9)
    assert zero.converged and zero.iterations == 0 and zero.flags["cap_hit"] == 0


def test_logs_report_phases_and_loop_flags():
    image, m0 = _small_scene(6)
    e = elmm_unmix(image, m0, SolverOptions(max_iters=4)).solver_log
    p = plmm_unmix(image, m0, SolverOptions(max_iters=4)).solver_log
    assert set(e.phases) == {"qp", "endmember", "psi", "cost"}
    assert set(p.phases) == {"qp", "endmember", "cost"}
    for log in (e, p):
        assert all(v >= 0.0 for v in log.phases.values())
        assert log.flags["cost_rises"] == 0
        assert log.flags["cap_hit"] == int(log.iterations == 4 and not log.converged)
        assert log.to_dict()["phases"] == log.phases
