import numpy as np
import pytest

from varimix.metrics import rmse
from varimix.solvers import fcls, mesma
from varimix.synth import truth_variant_library
from varimix.types import BudgetError, SpectralImage, SpectralLibrary

from conftest import make_scene
from oracles import mesma_oracle


def _image(y):
    n, l = y.shape
    return SpectralImage(y.reshape(1, n, l))


def _two_class_library(rng):
    sigs1 = rng.uniform(0.05, 1.0, size=(2, 20))
    sigs2 = rng.uniform(0.05, 1.0, size=(2, 20))
    return SpectralLibrary.from_arrays(["c1", "c2"], [sigs1, sigs2])


def test_single_model_equals_fcls(rng):
    lib = SpectralLibrary.from_arrays(
        ["a", "b", "c"], [rng.uniform(0.05, 1, size=(1, 15)) for _ in range(3)]
    )
    y = rng.uniform(0, 1, size=(30, 15))
    img = _image(y)
    m = np.concatenate([c.signatures for c in lib.classes]).T
    r_m = mesma(img, lib)
    r_f = fcls(img, m)
    assert np.max(np.abs(r_m.abundances.data - r_f.abundances.data)) < 1e-10
    assert np.all(r_m.selected_model == 0)


def test_two_by_two_model_selection(rng):
    lib = _two_class_library(rng)
    # pixel built from class-1 signature #2 and class-2 signature #1
    y = 0.3 * lib.classes[0].signatures[1] + 0.7 * lib.classes[1].signatures[0]
    res = mesma(_image(y[None, :]), lib)
    assert tuple(res.selected_model[0]) == (1, 0)
    assert res.abundances.data[0] == pytest.approx([0.3, 0.7], abs=1e-9)
    assert res.per_pixel_re[0] < 1e-10
    # independent enumeration oracle agrees
    re_o, combo_o, a_o = mesma_oracle(y, lib)
    assert tuple(res.selected_model[0]) == combo_o
    assert np.max(np.abs(res.abundances.data[0] - a_o)) < 1e-9


def test_truth_library_scene_recovery():
    truth = make_scene(n_bands=30, height=5, width=20, snr_db=float("inf"),
                       n_variants=3, seed=5)
    lib = truth_variant_library(truth)
    res = mesma(truth.image_noisy, lib)
    assert rmse(res.abundances.data, truth.abundances.data) < 1e-6
    # emitted endmembers reproduce the truth field
    assert rmse(res.endmembers.data, truth.endmembers.data) < 1e-6


def test_oracle_agreement_on_noisy_pixels(rng):
    lib = _two_class_library(rng)
    y = rng.uniform(0, 1, size=(25, 20))
    res = mesma(_image(y), lib)
    for i in range(25):
        re_o, combo_o, a_o = mesma_oracle(y[i], lib)
        assert tuple(res.selected_model[i]) == combo_o
        assert np.max(np.abs(res.abundances.data[i] - a_o)) < 1e-8
        assert res.per_pixel_re[i] == pytest.approx(re_o, abs=1e-9)


def test_exhaustive_dominates_single_models(rng):
    lib = _two_class_library(rng)
    y = rng.uniform(0, 1, size=(10, 20))
    img = _image(y)
    res = mesma(img, lib)
    for i0 in range(2):
        for i1 in range(2):
            m = np.stack([lib.classes[0].signatures[i0],
                          lib.classes[1].signatures[i1]], axis=1)
            r_f = fcls(img, m)
            assert np.all(res.per_pixel_re <= r_f.per_pixel_re + 1e-10)


def test_budget_error(rng):
    # 101**3 models exceed the budget of 10**6; it is checked before any work
    lib = SpectralLibrary.from_arrays(
        ["c1", "c2", "c3"], [rng.uniform(0.05, 1.0, size=(101, 20)) for _ in range(3)])
    with pytest.raises(BudgetError, match="^1030301 model combinations exceed the budget of "
                                          "1000000; prune"):
        mesma(_image(rng.uniform(0, 1, size=(3, 20))), lib)


def test_early_stop_freezes_first_hit(rng):
    lib = _two_class_library(rng)
    # exact mixtures from a known model: threshold freezes at RE ~ 0
    y = np.stack([
        0.4 * lib.classes[0].signatures[i % 2] + 0.6 * lib.classes[1].signatures[i // 2]
        for i in range(4)
    ])
    res_exact = mesma(_image(y), lib)
    res_early = mesma(_image(y), lib, re_threshold=1e-8)
    assert np.array_equal(res_exact.selected_model, res_early.selected_model)
    assert res_early.solver_log.flags["early_stop"]


@pytest.mark.parametrize("threshold", [-0.03, float("nan")])
def test_re_threshold_must_be_nonnegative(rng, threshold):
    # the early stop compares against re_threshold**2 * L: a negative threshold
    # would act as its absolute value, and a NaN one would never stop
    lib = _two_class_library(rng)
    img = _image(rng.uniform(0, 1, size=(3, 20)))
    with pytest.raises(ValueError, match="^re_threshold must be >= 0$"):
        mesma(img, lib, re_threshold=threshold)
    assert mesma(img, lib, re_threshold=0.0).solver_log.flags["early_stop"]


def test_band_mismatch_rejected(rng):
    lib = _two_class_library(rng)
    with pytest.raises(Exception):
        mesma(_image(rng.uniform(0, 1, size=(3, 7))), lib)
