"""The statistic-space rank-one state of ELMM and PLMM against the dense form.

The per-pixel Gram matrix, linear term and costs computed from the
statistics must equal the ones computed from the dense (N, L, P) field;
rows the statistics cannot resolve must be recomputed from the pixel;
the DCT scaling step and the stencil smoothness term must equal their
sparse-Laplacian forms; the solvers must follow the dense alternating
references in ``tests/oracles.py``; every abundance step must meet its
KKT conditions against the dense matrix it was solved for; their
reported fit must be the loop's own, and their reconstruction the
rank-one closed form, within rounding of the dense field's product,
built, as the library solvers' raw fit is, with no field filled until
the field is read; ``monotone_loop`` must stop at a cost rise; every
solver's log must time its kernel calls and result assembly, within
its wall time; and the results of every solver that emits a field,
these two and the library solvers, must not depend on the size of the
pixel chunks the field is built in.
"""

import itertools
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import identity
from scipy.sparse.linalg import spsolve

from varimix.io import save_result
from varimix.solvers import (
    ALGORITHMS,
    SOLVERS,
    QPCounts,
    SolverOptions,
    elmm_unmix,
    fcls,
    fcls_core,
    kkt_residual_simplex,
    mesma,
    plmm_unmix,
    reconstruct,
    sparse_su_l0,
    sparse_su_l1,
    unmix,
)
from varimix.solvers import base
from varimix.solvers import elmm as elmm_module
from varimix.solvers import plmm as plmm_module
from varimix.solvers import rankone as rankone_module
from varimix.solvers import sparse as sparse_module
from varimix.solvers.base import _gram, monotone_loop, residual_stats
from varimix.solvers.elmm import _grid_solve, _grid_spatial
from varimix.solvers.rankone import RankOneModel, RankOneState
from varimix.synth import truth_variant_library
from varimix.types import SpectralImage

from conftest import bench_scene, make_scene, solver_params
from oracles import (
    _elmm_cost,
    _plmm_cost,
    _spatial,
    elmm_dense_reference,
    grid_laplacian,
    plmm_dense_reference,
)

RTOL = 1e-12
REF_TOL = 1e-10
KKT_RTOL = 1e-9
EPS = np.finfo(np.float64).eps


def _m0b(m0, s):
    """M0 (psi_m * a) per pixel, taken by gemm even for one row (the rows
    twice over)."""
    b = np.concatenate([s.psi_m * s.a] * 2)
    return (b @ m0.T)[:s.a.shape[0]]


def _u(y, m0, lam, s):
    """The state's rank-one direction from the pixels: zero for a start
    state, else the endmember step's (y - M0 (psi_m * a)) / (lam + ||a||^2)."""
    if s.start:
        return np.zeros_like(y)
    return (y - _m0b(m0, s)) / (lam + np.einsum("np,np->n", s.a, s.a))[:, None]


def _dense(m0, s, u):
    return m0[None] * s.psi_m[:, None, :] + u[:, :, None] * s.a[:, None, :]


def _rel(x, ref):
    return np.max(np.abs(x - ref)) / max(np.max(np.abs(ref)), 1e-300)


def _term_scale(y, m0, s, u):
    """Gram matrix and linear term of |M0| diag(|psi_m|) + |u| |a|' and |y|:
    element by element, the sum of the absolute values of the terms that
    both the factored and the dense form add up. An entry such as
    (M0 psi_m + u a)^2 can cancel far below its terms, and either form is
    exact only to eps times them."""
    return _gram(np.abs(y), _dense(np.abs(m0), replace(s, a=np.abs(s.a), psi_m=np.abs(s.psi_m)),
                                   np.abs(u)))


def _with_fit(y, m0, s, u):
    """State ``s`` with its per-pixel fit taken from the dense field."""
    fit = np.sum((y - np.einsum("nlp,np->nl", _dense(m0, s, u), s.a)) ** 2, axis=1)
    return replace(s, fit=fit)


def _factored_case(seed, n, l, p, floor, zeros):
    """Random factored state and its direction u; ``floor`` puts scalings
    at the 1e-6 clamp, ``zeros`` zeroes abundances (whole rows included)."""
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
    s = RankOneState(a, psi, psi_m, u @ m0, np.sum(u**2, axis=1), np.sum(u * y, axis=1), None)
    return y, m0, _with_fit(y, m0, s, u), u


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
# field entry -7.2e-4 = 0.2447 - 0.2454, so g = 5.2e-7 from terms 0.0599 - 0.1201 + 0.0602
@example(seed=45941, n=1, l=1, p=1, floor=False, zeros=False)
def test_factored_gram_equals_dense(seed, n, l, p, floor, zeros):
    y, m0, s, u = _factored_case(seed, n, l, p, floor, zeros)
    g, h = RankOneModel(y, m0, 1.0).gram(s)
    g_ref, h_ref = _gram(y, _dense(m0, s, u))
    g_scale, h_scale = _term_scale(y, m0, s, u)
    assert np.all(np.abs(g - g_ref) <= RTOL * g_scale)
    assert np.all(np.abs(h - h_ref) <= RTOL * h_scale)
    assert np.array_equal(g, g.transpose(0, 2, 1))


@settings(max_examples=60, deadline=None)
@case
def test_factored_elmm_cost_equals_dense(seed, n, l, p, floor, zeros):
    y, m0, s, u = _factored_case(seed, n, l, p, floor, zeros)
    lap = grid_laplacian(1, n)
    lam_m, lam_psi = 0.7, 0.3
    cost = RankOneModel(y, m0, lam_m).cost(s) + lam_psi * _spatial(lap, s.psi)
    ref = _elmm_cost(y, m0, lap, lam_m, lam_psi, (s.a, s.psi, _dense(m0, s, u)))
    assert abs(cost - ref) <= RTOL * ref


@settings(max_examples=60, deadline=None)
@case
def test_factored_plmm_cost_equals_dense(seed, n, l, p, floor, zeros):
    y, m0, s, u = _factored_case(seed, n, l, p, floor, zeros)
    ones = np.ones((n, p))
    s = _with_fit(y, m0, replace(s, psi=ones, psi_m=ones), u)
    gamma = 0.4
    cost = RankOneModel(y, m0, gamma).cost(s)
    ref = _plmm_cost(y, m0, gamma, (s.a, u[:, :, None] * s.a[:, None, :]))
    assert abs(cost - ref) <= RTOL * ref


@settings(max_examples=60, deadline=None)
@case
def test_endmember_step_statistics_equal_the_pixel_ones(seed, n, l, p, floor, zeros):
    y, m0, s, _ = _factored_case(seed, n, l, p, floor, zeros)
    lam = 0.7
    new = RankOneModel(y, m0, lam).update(s.a, s.psi_m)
    u = _u(y, m0, lam, new)
    b = s.psi_m * s.a
    c = lam + np.sum(s.a**2, axis=1)
    # the statistics cancel to the rounding of ||y|| + ||M0 b||, not of u
    ny = np.linalg.norm(y, axis=1)
    scale = ny + np.linalg.norm(b @ m0.T, axis=1)
    assert np.all(np.abs(new.uu - np.sum(u**2, axis=1)) <= RTOL * scale**2 / c**2)
    assert np.all(np.abs(new.uy - np.sum(u * y, axis=1)) <= RTOL * ny * scale / c)
    w_scale = (y @ m0 + b @ (m0.T @ m0)) / c[:, None]
    assert np.all(np.abs(new.w - u @ m0) <= RTOL * w_scale)
    assert np.array_equal(new.fit, lam**2 * new.uu)


@settings(max_examples=60, deadline=None)
@case
def test_start_cost_from_the_statistics_equals_the_pixel_cost(seed, n, l, p, floor, zeros):
    y, m0, s, _ = _factored_case(seed, n, l, p, floor, zeros)
    model = RankOneModel(y, m0, 0.7)
    start = model.start(s.a, s.psi)
    b = s.psi * s.a
    fit = np.sum((y - b @ m0.T) ** 2, axis=1)
    # the statistics cancel to the rounding of ||y|| + ||M0 b||
    scale = (np.linalg.norm(y, axis=1) + np.linalg.norm(b @ m0.T, axis=1)) ** 2
    assert np.all(np.abs(start.fit - fit) <= RTOL * scale)
    assert abs(model.cost(start) - np.sum(fit)) <= RTOL * np.sum(scale)


@pytest.mark.parametrize("unmix", [elmm_unmix, plmm_unmix])
def test_exact_data_stop_at_the_start(unmix):
    rng = np.random.default_rng(5)
    m0 = rng.uniform(0.05, 1.0, size=(30, 3))
    a = rng.dirichlet(np.ones(3), size=40)
    res = unmix(SpectralImage((a @ m0.T).reshape(5, 8, -1)), m0, SolverOptions(max_iters=10))
    log = res.solver_log
    assert log.iterations == 0 and log.converged
    assert log.cost_history[0] <= 1e-24         # monotone_loop's zero-cost floor
    # every start row is fitted to rounding, so its fit is taken from the pixel
    assert log.flags["recomputed_rows"] == 40
    assert np.max(np.abs(res.abundances.data - a)) <= 1e-12


@pytest.mark.parametrize("module, unmix", [(elmm_module, elmm_unmix), (plmm_module, plmm_unmix)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_start_abundances_are_fcls_on_the_reference_bit_for_bit(monkeypatch, module, unmix,
                                                                 seed):
    truth = make_scene(n_bands=100, height=12, width=16, snr_db=30.0, seed=seed)
    image, m0 = truth.image_noisy, truth.endmembers.class_means().T
    starts = []

    def loop(initial_state, *args):
        starts.append(initial_state)
        return monotone_loop(initial_state, *args)

    monkeypatch.setattr(module, "monotone_loop", loop)
    unmix(image, m0, SolverOptions(max_iters=2))
    assert starts[0].a.tobytes() == fcls_core(image.pixels, m0, QPCounts())[0].tobytes()


@pytest.mark.parametrize("unmix", [elmm_unmix, plmm_unmix])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_reference_is_refused(unmix, bad):
    image, m0 = _small_scene(3)
    m0 = m0.copy()
    m0[4, 1] = bad
    with pytest.raises(ValueError, match="^non-finite solver inputs$"):
        unmix(image, m0, SolverOptions(max_iters=2))


@settings(max_examples=60, deadline=None)
@case
@example(seed=0, n=1, l=3, p=3, floor=False, zeros=False)      # a one-row product
def test_field_is_the_broadcast_field_bit_for_bit(seed, n, l, p, floor, zeros):
    y, m0, s, _ = _factored_case(seed, n, l, p, floor, zeros)
    a = _on_simplex(s.a)
    model = RankOneModel(y, m0, 0.7)
    for state in (model.start(a, s.psi_m), model.update(a, s.psi_m)):
        res = model.result(state, ((0.0,), True, {}), {}, {})
        # the emitted field is clamped; the reconstruction is the model's own
        # closed form M0 (psi_m * a) + ||a||^2 u, within rounding of the
        # field's product
        u = _u(y, m0, 0.7, state)
        dense = _dense(m0, state, u)
        assert np.array_equal(res.endmembers.data, np.clip(dense, 0.0, None))
        recon = _m0b(m0, state) + np.einsum("np,np->n", a, a)[:, None] * u
        assert np.array_equal(res.reconstruction, recon)
        assert np.all(np.abs(recon - reconstruct(dense, a)) <= _recon_bound(dense, a))
        assert np.array_equal(res.per_pixel_re, residual_stats(y, recon)[1])


def _on_simplex(a):
    """A result's abundances are on the simplex: an all-zero row becomes a vertex."""
    a = a.copy()
    a[a.sum(axis=1) == 0, 0] = 1.0
    return a / a.sum(axis=1, keepdims=True)


def _recon_bound(m, a):
    """Rounding of the product of per-pixel matrices ``m`` with ``a``, as in
    ``tests/test_reconstruct.py``: 2 P eps (|M_n| a_n) per element."""
    return 2 * a.shape[1] * EPS * np.einsum("nlp,np->nl", np.abs(m), a)


@settings(max_examples=60, deadline=None)
@case
@example(seed=3, n=1, l=5, p=3, floor=False, zeros=False)      # a one-row image
@example(seed=4, n=6, l=5, p=3, floor=True, zeros=False)       # scalings at the 1e-6 floor
@example(seed=5, n=6, l=5, p=4, floor=False, zeros=True)       # zero abundance entries
def test_closed_form_fit_is_within_rounding_of_the_field_product(seed, n, l, p, floor, zeros):
    y, m0, s, _ = _factored_case(seed, n, l, p, floor, zeros)
    a = _on_simplex(s.a)
    model = RankOneModel(y, m0, 0.7)
    for state in (model.start(a, s.psi_m), model.update(a, s.psi_m)):
        res = model.result(state, ((0.0,), True, {}), {}, {})
        dense = _dense(m0, state, _u(y, m0, 0.7, state))
        ref = reconstruct(dense, a)
        bound = _recon_bound(dense, a)
        assert np.all(np.abs(res.reconstruction - ref) <= bound)
        # per_pixel_re moves by at most the norm of the reconstruction's bound
        # plus the rounding of the residual norm: the draws' pixels are not
        # fitted, so ||y_n|| can be far below ||M_n a_n|| and does not bound it
        re_bound = (np.linalg.norm(bound, axis=1)
                    + 2 * EPS * np.linalg.norm(y - ref, axis=1)) / np.sqrt(l)
        assert np.all(np.abs(res.per_pixel_re - residual_stats(y, ref)[1]) <= re_bound)


@pytest.mark.parametrize("owner, solve, lam", [
    (rankone_module, lambda truth, m0: elmm_unmix(
        truth.image_noisy, m0, SolverOptions(max_iters=5, lambda_m=0.5, lambda_psi=0.5)), 0.5),
    (rankone_module, lambda truth, m0: plmm_unmix(
        truth.image_noisy, m0, SolverOptions(max_iters=5, gamma_plmm=0.5)), 0.5),
    (sparse_module, lambda truth, m0: sparse_su_l1(
        truth.image_noisy, truth_variant_library(truth)), None),
    (sparse_module, lambda truth, m0: sparse_su_l0(
        truth.image_noisy, truth_variant_library(truth)), None),
], ids=["elmm", "plmm", "sparse-l1", "sparse-l0"])
def test_result_takes_no_per_pixel_product_and_fills_the_field_only_when_read(
        monkeypatch, owner, solve, lam):
    # every solver hands ``_result`` its own fit; the library solvers' is raw S
    # (pinned bit for bit in tests/test_sparse.py), the rank-one solvers' the
    # closed form, within rounding of the dense field's product
    truth = make_scene(n_bands=20, height=15, width=20, snr_db=25.0, seed=3)   # two chunks
    image, m0 = truth.image_noisy, truth.endmembers.class_means().T
    y = image.pixels
    products, fills, outcomes = [], [], []
    reconstruct_, result_ = base.reconstruct, owner._result

    def recorded(m, a):
        products.append(m.ndim)
        return reconstruct_(m, a)

    def counted(y, a, fit, fill, *args, **kwargs):
        def fill_(lo, hi, out):
            fills.append((lo, hi))
            fill(lo, hi, out)
        return result_(y, a, fit, fill_, *args, **kwargs)

    def loop(*args):
        outcomes.append(monotone_loop(*args))
        return outcomes[-1]

    monkeypatch.setattr(base, "reconstruct", recorded)
    monkeypatch.setattr(owner, "_result", counted)
    for module in (elmm_module, plmm_module):
        monkeypatch.setattr(module, "monotone_loop", loop)
    res = solve(truth, m0)
    assert 3 not in products and fills == []
    # a read fills the window; a rank-one one holds the bits of the clamped field
    window = res.endmembers.rows(5, 270)
    assert fills == [(5, 270)]
    if lam is not None:
        state = outcomes[0][0]
        dense = _dense(m0, state, _u(y, m0, lam, state))
        assert window.tobytes() == np.clip(dense[5:270], 0.0, None).tobytes()
        a = res.abundances.data
        ref = reconstruct_(dense, a)
        assert np.all(np.abs(res.reconstruction - ref) <= _recon_bound(dense, a))
        re_bound = 2 * EPS * np.linalg.norm(y, axis=1) / np.sqrt(y.shape[1])
        assert np.all(np.abs(res.per_pixel_re - residual_stats(y, ref)[1]) <= re_bound)


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
    assert np.max(np.abs(res.endmembers.data - np.clip(m0 + dm, 0.0, None))) <= REF_TOL
    assert "perturbation" not in res.extras
    assert _rel(np.array(res.solver_log.cost_history), np.array(history)) <= REF_TOL


@pytest.mark.parametrize("module, unmix, opts", [
    (elmm_module, elmm_unmix, SolverOptions(max_iters=8, lambda_psi=0.5)),
    (plmm_module, plmm_unmix, SolverOptions(max_iters=8, gamma_plmm=0.2)),
])
def test_every_abundance_step_meets_kkt(monkeypatch, module, unmix, opts):
    image, m0 = _small_scene(4)
    y = image.pixels
    lam = opts.lambda_m if module is elmm_module else opts.gamma_plmm
    residuals = []

    def loop(initial_state, step_fn, cost_fn, max_iters, tol):
        def step(s):
            new = step_fn(s)
            residuals.append(kkt_residual_simplex(y, _dense(m0, s, _u(y, m0, lam, s)), new.a))
            return new
        return monotone_loop(initial_state, step, cost_fn, max_iters, tol)

    monkeypatch.setattr(module, "monotone_loop", loop)
    res = unmix(image, m0, opts)
    assert len(residuals) >= res.solver_log.iterations >= 2
    for act, inact, scale in residuals:
        assert max(act, inact) <= KKT_RTOL * scale


def test_monotone_loop_stops_at_a_cost_rise():
    steps = iter([9.0, 8.0, 13.0, 1.0])
    state, history, converged, flags = monotone_loop(10.0, lambda s: next(steps),
                                                     lambda s: s, 10, 1e-9)
    assert state == 8.0
    assert history == (10.0, 9.0, 8.0)
    assert not converged
    assert flags == {"cost_rises": 1, "cap_hit": 0, "last_rel_change": (9.0 - 8.0) / 9.0}


def test_monotone_loop_convergence_and_cap():
    _, capped, converged, flags = monotone_loop(1.0, lambda s: 0.5 * s, lambda s: s, 3, 1e-9)
    # the halving cost never meets the stopping rule: only the cap ends it
    assert not converged and len(capped) == 4
    assert flags == {"cost_rises": 0, "cap_hit": 1, "last_rel_change": 0.5}
    _, done, converged, flags = monotone_loop(1.0, lambda s: s * (1 - 1e-12), lambda s: s, 3,
                                              1e-9)
    assert converged and len(done) == 2
    assert flags == {"cost_rises": 0, "cap_hit": 0, "last_rel_change": 1.0 - done[1]}
    _, zero, converged, flags = monotone_loop(0.0, lambda s: s, lambda s: s, 3, 1e-9)
    assert converged and zero == (0.0,) and flags["cap_hit"] == 0
    assert flags["last_rel_change"] is None


@pytest.mark.parametrize("solver", [elmm_unmix, plmm_unmix])
def test_last_rel_change_is_the_last_step_of_the_history(solver):
    # a capped run ends at a step whose change is still above the rule's tol
    image, m0 = _small_scene(6)
    log = solver(image, m0, SolverOptions(max_iters=2, tol=1e-15)).solver_log
    before, last = log.cost_history[-2:]
    assert log.flags["cap_hit"] == 1 and log.iterations == 2
    assert log.flags["last_rel_change"] == (before - last) / before >= 1e-15


@pytest.mark.parametrize("solver", [elmm_unmix, plmm_unmix])
def test_log_is_the_loop_outcome(monkeypatch, solver):
    # QPCounts.log makes the alternating solvers' log from monotone_loop's
    # history, converged and flags
    module = elmm_module if solver is elmm_unmix else plmm_module
    outcomes = []

    def loop(*args):
        outcomes.append(monotone_loop(*args))
        return outcomes[-1]

    monkeypatch.setattr(module, "monotone_loop", loop)
    image, m0 = _small_scene(6)
    log = solver(image, m0, SolverOptions(max_iters=3)).solver_log
    _, history, converged, flags = outcomes[0]
    assert log.cost_history == history and log.final_cost == history[-1]
    assert log.iterations == len(history) - 1
    assert log.converged == (converged and log.flags["unsettled_rows"] == 0)
    assert flags.items() <= log.flags.items()


@pytest.mark.parametrize("module, solver, opts, lam", [
    (elmm_module, elmm_unmix, SolverOptions(max_iters=10, lambda_m=0.5, lambda_psi=0.5), 0.5),
    (plmm_module, plmm_unmix, SolverOptions(max_iters=10, gamma_plmm=0.5), 0.5),
], ids=["elmm", "plmm"])
def test_reported_fit_is_the_models_own(monkeypatch, module, solver, opts, lam):
    # per_pixel_re is the residual lam u of the solved model, whose squared
    # norm the state keeps as its fit, even where the emitted field is clamped
    rng = np.random.default_rng(2)
    m0 = rng.uniform(0.02, 1.0, size=(30, 3))
    y = rng.dirichlet(np.ones(3), size=42) @ m0.T + rng.normal(0.0, 0.05, size=(42, 30))
    outcomes = []

    def loop(*args):
        outcomes.append(monotone_loop(*args))
        return outcomes[-1]

    monkeypatch.setattr(module, "monotone_loop", loop)
    res = solver(SpectralImage(y.reshape(6, 7, 30)), m0, opts)
    state = outcomes[0][0]
    assert not state.start and np.array_equal(state.fit, lam**2 * state.uu)
    assert np.any(_dense(m0, state, _u(y, m0, lam, state)) < 0.0)
    # the statistics round to about eps ||y||^2 per pixel
    assert np.all(np.abs(30 * res.per_pixel_re**2 - state.fit)
                  <= 1e-8 * np.einsum("nl,nl->n", y, y))


SOLVER_FNS = [fcls, mesma, sparse_su_l1, sparse_su_l0, elmm_unmix, plmm_unmix]


def _unmix_small(solver, seed):
    """(name, result) of ``solver`` called through ``unmix`` on a small
    scene: matrix solvers on the class means, library solvers on the
    realized variants."""
    truth = make_scene(n_bands=20, height=5, width=6, snr_db=25.0, seed=seed)
    name = next(k for k, s in SOLVERS.items() if s.fn is solver)
    source = (truth.endmembers.class_means().T if SOLVERS[name].kind == "matrix"
              else truth_variant_library(truth))
    return name, unmix(name, truth.image_noisy, source, **solver_params(name, max_iters=4))


# every solver's phases; sparse L0 in its default greedy mode, exhaustive-l0 in the other
PHASES = {"fcls": {"input", "gram", "qp", "result"},
          "mesma": {"input", "stats", "search", "qp", "result"},
          "sparse-l1": {"input", "stats", "qp", "result"},
          "sparse-l0": {"input", "stats", "select", "qp", "result"},
          "elmm": {"input", "stats", "qp", "endmember", "gram", "psi", "cost", "result"},
          "plmm": {"input", "stats", "qp", "endmember", "gram", "cost", "result"},
          "exhaustive-l0": {"input", "stats", "search", "qp", "result"}}


def test_logs_report_phases_and_loop_flags(tmp_path):
    for solver in SOLVER_FNS:
        name, result = _unmix_small(solver, 6)
        log = result.solver_log
        assert set(log.phases) == PHASES[name], name
        assert all(v >= 0.0 for v in log.phases.values())
        assert sum(log.phases.values()) == log.wall_time_s
        if name in ("elmm", "plmm"):
            assert log.flags["cost_rises"] == 0
            assert log.flags["cap_hit"] == int(log.iterations == 4 and not log.converged)
        written = json.loads((save_result(result, tmp_path / name) / "solver_log.json").read_text())
        assert written["phases"] == log.phases and written["flags"] == log.flags


@pytest.mark.parametrize("solver", SOLVER_FNS)
def test_wall_time_covers_every_phase(tmp_path, solver):
    _, result = _unmix_small(solver, 7)
    log = result.solver_log
    assert {"qp", "result"} <= log.phases.keys()
    assert all(v >= 0.0 for v in log.phases.values())
    assert log.wall_time_s >= sum(log.phases.values())
    written = json.loads((save_result(result, tmp_path) / "solver_log.json").read_text())
    assert written["wall_time_s"] == log.wall_time_s and written["phases"] == log.phases


@pytest.mark.parametrize("name", ALGORITHMS + ("exhaustive-l0",))
def test_phases_on_a_bench_scene_add_up_to_the_wall_time(name):
    # the phases partition the call: the wall time is their sum
    truth = bench_scene(24, 24, bands=100)
    algo, params = ("sparse-l0", {"k": 2, "mode": "exhaustive"}) if name == "exhaustive-l0" \
        else (name, solver_params(name, max_iters=5))
    source = (truth.endmembers.class_means().T if SOLVERS[algo].kind == "matrix"
              else truth_variant_library(truth))
    log = unmix(algo, truth.image_noisy, source, **params).solver_log
    assert set(log.phases) == PHASES[name]
    assert all(v >= 0.0 for v in log.phases.values())
    assert math.isclose(sum(log.phases.values()), log.wall_time_s, rel_tol=1e-9)


def test_a_kernel_call_books_qp_and_returns_to_its_callers_phase(monkeypatch):
    clock = itertools.count(1)
    monkeypatch.setattr(base.time, "perf_counter", lambda: float(next(clock)))
    counts = QPCounts(since=0.0)
    assert counts.phase("stats") == "input"                 # t = 1
    _, rounds = base.fcls_gram(np.eye(2), np.array([[0.2, 0.8]]), counts)  # qp from 2 to 3
    assert counts.current == "stats" and counts.rounds == rounds
    assert counts.phases == {"input": 1.0, "stats": 1.0, "qp": 1.0}
    log = counts.log(1, 0.0)                                 # closes stats at t = 4
    assert log.phases == {"input": 1.0, "stats": 2.0, "qp": 1.0} and log.wall_time_s == 4.0
    assert log.flags == {"qp_rounds": rounds, "unsettled_rows": 0}


@pytest.mark.parametrize("solver", [elmm_unmix, plmm_unmix, mesma, sparse_su_l1, sparse_su_l0])
def test_results_do_not_depend_on_the_chunk_size(monkeypatch, solver):
    # seed 1: with one-row chunks, pixel 0's product would round otherwise
    truth = make_scene(n_bands=20, height=15, width=20, snr_db=25.0, seed=1)
    image = truth.image_noisy
    alternating = solver in (elmm_unmix, plmm_unmix)
    source = truth.endmembers.class_means().T if alternating else truth_variant_library(truth)
    params = {"opts": SolverOptions(max_iters=4)} if alternating else {}
    n = image.pixels.shape[0]
    assert n % 7 and n > base._CHUNK_ROWS       # the default size leaves a partial chunk
    outputs = []
    for rows in (base._CHUNK_ROWS, 1, 7, n + 5):
        monkeypatch.setattr(base, "_CHUNK_ROWS", rows)
        res = solver(image, source, **params)
        outputs.append([res.abundances.data, res.endmembers.data, res.reconstruction,
                        res.per_pixel_re])
    for other in outputs[1:]:
        for x, ref in zip(other, outputs[0]):
            assert x.tobytes() == ref.tobytes()


GRIDS = [(1, 1), (1, 9), (9, 1), (7, 5), (48, 48)]


@pytest.mark.parametrize("height, width", GRIDS)
def test_dct_psi_solve_equals_sparse_solve(height, width):
    rng = np.random.default_rng(height * 100 + width)
    n, p, lam_psi = height * width, 3, 2.5
    diag = rng.uniform(0.2, 2.0, size=p)
    rhs = rng.normal(size=(height, width, p))
    psi = _grid_solve(rhs, diag, lam_psi)
    lap = grid_laplacian(height, width)
    for j in range(p):
        op = (diag[j] * identity(n, format="csc") + lam_psi * lap).tocsc()
        assert _rel(psi[:, :, j].ravel(), spsolve(op, rhs[:, :, j].ravel())) <= RTOL


@pytest.mark.parametrize("height, width", GRIDS)
def test_grid_spatial_equals_laplacian_quadratic_form(height, width):
    rng = np.random.default_rng(height * 100 + width)
    psi = rng.uniform(0.5, 1.5, size=(height * width, 3))
    ref = _spatial(grid_laplacian(height, width), psi)
    assert abs(_grid_spatial(psi, height, width) - ref) <= RTOL * ref


def test_grid_spatial_is_accurate_where_the_quadratic_form_cancels():
    # psi' L psi subtracts terms of size |psi|^2 to leave a sum of size s^2 |psi|^2,
    # losing about 1e-16 / s^2 relative; differences of neighbors that close are exact
    height, width = 12, 9
    psi = 1.0 + 1e-6 * np.random.default_rng(3).normal(size=(height * width, 3))
    idx = np.arange(height * width).reshape(height, width)
    pairs = [*zip(idx[:, :-1].ravel(), idx[:, 1:].ravel()), *zip(idx[:-1].ravel(), idx[1:].ravel())]
    ref = math.fsum((psi[i, j] - psi[k, j]) ** 2 for i, k in pairs for j in range(3))
    assert abs(_grid_spatial(psi, height, width) - ref) <= RTOL * ref


def _partly_exact(seed, n=40, l=30, p=3):
    """Pixels y_n = M0 a_n on every fourth row, noisy elsewhere."""
    rng = np.random.default_rng(seed)
    m0 = rng.uniform(0.05, 1.0, size=(l, p))
    a = rng.dirichlet(np.ones(p), size=n)
    exact = np.arange(n) % 4 == 0
    y = a @ m0.T
    y[~exact] += rng.normal(0.0, 0.01, size=(int(np.sum(~exact)), l))
    return y, m0, a, exact


def test_exactly_fitted_rows_are_recomputed_from_the_pixel():
    y, m0, a, exact = _partly_exact(11)
    lam = 0.5
    model = RankOneModel(y, m0, lam)
    s = model.update(a, np.ones_like(a))
    assert model.recomputed_rows == np.sum(exact)
    c2 = (lam + np.sum(a**2, axis=1)) ** 2
    r = y[exact] - a[exact] @ m0.T
    pixel = np.sum(r**2, axis=1) / c2[exact]
    assert np.all(np.abs(s.uu[exact] - pixel) <= RTOL * pixel)
    r = y[~exact] - a[~exact] @ m0.T
    assert _rel(s.uu[~exact], np.sum(r**2, axis=1) / c2[~exact]) <= RTOL


def test_recomputed_row_keeps_its_bits_alone():
    # rows 0 and 1 fit exactly, so both are recomputed from the pixels;
    # row 1's ||u||^2 must not depend on whether row 0 is recomputed with it
    rng = np.random.default_rng(1)
    m0 = rng.uniform(0.05, 1.0, size=(30, 3))
    a = rng.dirichlet(np.ones(3), size=6)
    y = a @ m0.T
    y[2:] += rng.normal(0.0, 0.01, size=(4, 30))
    psi = np.ones_like(a)
    both = RankOneModel(y, m0, 0.5).update(a, psi)
    alone = RankOneModel(y[1:], m0, 0.5).update(a[1:], psi[1:])
    assert both.uu[1].tobytes() == alone.uu[0].tobytes()


@pytest.mark.parametrize("unmix", [elmm_unmix, plmm_unmix])
def test_logs_report_recomputed_rows(unmix):
    y, m0, _, exact = _partly_exact(12)
    image = SpectralImage(y.reshape(5, 8, -1))
    log = unmix(image, m0, SolverOptions(max_iters=3)).solver_log
    assert log.iterations >= 1
    assert log.flags["recomputed_rows"] >= np.sum(exact)
    noisy = SpectralImage(y[~exact].reshape(5, 6, -1))
    assert unmix(noisy, m0, SolverOptions(max_iters=3)).solver_log.flags["recomputed_rows"] == 0

