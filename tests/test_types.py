import warnings

import numpy as np
import pytest

from varimix.solvers import QPCounts, fcls_core
from varimix.types import (
    AbundanceMap,
    DimensionError,
    EndmemberField,
    LibraryClass,
    SceneTruth,
    SpectralImage,
    SpectralLibrary,
    _all_finite,
)


def test_image_shape_and_pixels():
    data = np.arange(24, dtype=float).reshape(2, 3, 4)
    img = SpectralImage(data, name="t")
    assert img.height == 2 and img.width == 3 and img.n_bands == 4
    assert img.n_pixels == 6
    # pixel n is row-major
    assert np.array_equal(img.pixels[4], data[1, 1])


def test_image_rejects_nan():
    data = np.ones((2, 2, 3))
    data[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        SpectralImage(data)


def test_image_immutable():
    img = SpectralImage(np.ones((1, 2, 3)))
    with pytest.raises(ValueError):
        img.data[0, 0, 0] = 2.0


def test_library_flatten_and_sizes():
    lib = SpectralLibrary.from_arrays(
        ["a", "b"], [np.ones((2, 5)), 2 * np.ones((3, 5))]
    )
    flat, idx = lib.flatten()
    assert flat.shape == (5, 5)
    assert list(idx) == [0, 0, 1, 1, 1]
    assert lib.sizes == (2, 3)


def test_library_empty_class_rejected():
    with pytest.raises((ValueError, DimensionError)):
        LibraryClass("empty", np.empty((0, 4)))


def test_library_band_mismatch():
    with pytest.raises(DimensionError):
        SpectralLibrary.from_arrays(["a", "b"], [np.ones((1, 4)), np.ones((1, 5))])


def test_abundance_clamps_tiny_negatives():
    a = AbundanceMap(np.array([[1.0 + 5e-10, -5e-10]]), sum_to_one=True)
    assert a.data[0, 1] == 0.0
    assert a.data[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_abundance_rejects_large_negative():
    with pytest.raises(ValueError):
        AbundanceMap(np.array([[1.01, -0.01]]), sum_to_one=True)


def test_abundance_renormalizes_near_one():
    a = AbundanceMap(np.array([[0.5 + 2e-7, 0.5]]), sum_to_one=True)
    assert a.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_abundance_rejects_bad_row_sum():
    with pytest.raises(ValueError):
        AbundanceMap(np.array([[0.7, 0.2]]), sum_to_one=True)
    # fine without the flag
    AbundanceMap(np.array([[0.7, 0.2]]), sum_to_one=False)


def test_endmember_field_nonnegative():
    with pytest.raises(ValueError):
        EndmemberField(-np.ones((2, 3, 2)))


def _poisoned(shape, value, where):
    a = np.full(shape, 0.5)
    a.reshape(-1)[{"first": 0, "middle": a.size // 2, "last": -1}[where]] = value
    return a


_FINITE_CHECKS = {
    "image": ((2, 3, 4), SpectralImage, "SpectralImage.data contains NaN/Inf values"),
    "library": ((3, 4), lambda a: LibraryClass("c", a),
                "signatures of class 'c' contains NaN/Inf values"),
    "abundance": ((4, 3), lambda a: AbundanceMap(a, sum_to_one=False),
                  "AbundanceMap.data contains NaN/Inf values"),
    "field": ((2, 3, 4), EndmemberField, "EndmemberField.data contains NaN/Inf values"),
    "fcls_core y": ((3, 4), lambda a: fcls_core(a, np.eye(4, 2), QPCounts()),
                    "non-finite solver inputs"),
    "fcls_core m": ((4, 2), lambda a: fcls_core(np.ones((3, 4)), a, QPCounts()),
                    "non-finite solver inputs"),
    "fcls_core field": ((3, 4, 2), lambda a: fcls_core(np.ones((3, 4)), a, QPCounts()),
                        "non-finite solver inputs"),
}


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("check", list(_FINITE_CHECKS))
def test_every_non_finite_entry_is_rejected(check, value, where):
    shape, build, message = _FINITE_CHECKS[check]
    with pytest.raises(ValueError) as info:
        build(_poisoned(shape, value, where))
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("values, finite", [
    ([1e308, 1e308], True),             # the sum overflows, the values are finite
    ([], True),
    ([0.5, np.nan], False),
    ([np.inf, 0.5], False),
    ([0.5, -np.inf], False),
    ([np.inf, -np.inf], False),         # the sum is NaN
])
def test_all_finite_takes_the_exact_check_when_the_sum_is_not_finite(values, finite):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _all_finite(np.array(values)) is finite


@pytest.mark.parametrize("check", ["image", "library", "abundance", "field"])
def test_values_whose_sum_overflows_pass_the_finite_checks(check):
    shape, build, _ = _FINITE_CHECKS[check]
    build(np.full(shape, 1e308))


@pytest.mark.parametrize("check", ["image", "library", "abundance", "field", "fcls_core y"])
def test_zero_size_arrays_pass_the_finite_checks(check):
    shape, build, _ = _FINITE_CHECKS[check]
    build(np.empty((shape[0], 0) if check == "library" else (0,) + shape[1:]))


def test_endmember_field_sign_check_is_exact_and_comes_after_the_finite_check():
    field = np.full((2, 3, 4), 0.5)
    field[1, 2, 3] = -0.0
    assert EndmemberField(field).data[1, 2, 3] == 0.0
    field[1, 2, 3] = -1e-300
    with pytest.raises(ValueError, match="^EndmemberField values must be nonnegative$"):
        EndmemberField(field)
    for nan_at in [(0, 0, 0), (1, 2, 3)]:
        both = np.full((2, 3, 4), 0.5)
        both[0, 1, 2] = -1.0
        both[nan_at] = np.nan
        with pytest.raises(ValueError, match="^EndmemberField.data contains NaN/Inf values$"):
            EndmemberField(both)


def test_scene_truth_consistency_check():
    n, l, p = 4, 3, 2
    m = np.abs(np.random.default_rng(0).normal(size=(n, l, p)))
    a = np.full((n, p), 0.5)
    clean = np.einsum("nlp,np->nl", m, a).reshape(1, n, l)
    truth = SceneTruth(
        image_noisy=SpectralImage(clean),
        image_clean=SpectralImage(clean),
        abundances=AbundanceMap(a),
        endmembers=EndmemberField(m),
        snr_db=float("inf"),
        seed=0,
    )
    assert truth.abundances.n_pixels == n
    with pytest.raises(ValueError):
        SceneTruth(
            image_noisy=SpectralImage(clean),
            image_clean=SpectralImage(clean + 0.1),
            abundances=AbundanceMap(a),
            endmembers=EndmemberField(m),
            snr_db=float("inf"),
            seed=0,
        )


def _truth(m, a, clean):
    image = SpectralImage(clean.reshape(1, *clean.shape))
    return SceneTruth(image_noisy=image, image_clean=image, abundances=AbundanceMap(a),
                      endmembers=EndmemberField(m), snr_db=float("inf"), seed=0)


def test_scene_truth_with_no_pixels_is_consistent():
    truth = _truth(np.empty((0, 3, 2)), np.empty((0, 2)), np.empty((0, 3)))
    assert truth.image_clean.n_pixels == 0


@pytest.mark.parametrize("pixel", [0, 299])
def test_scene_truth_check_at_block_edges(pixel):
    # 300 pixels are checked in two blocks, the last one partial; an entry
    # off by more than the tolerance is found in either block
    n, l, p = 300, 3, 2
    rng = np.random.default_rng(1)
    m = rng.uniform(0.05, 1.0, size=(n, l, p))
    a = rng.dirichlet(np.ones(p), size=n)
    clean = np.einsum("nlp,np->nl", m, a)
    _truth(m, a, clean)
    for off in (2e-9, -2e-9):
        bad = clean.copy()
        bad[pixel, 1] += off
        with pytest.raises(ValueError, match="^image_clean is not the exact mixture"):
            _truth(m, a, bad)
    near = clean.copy()
    near[pixel, 1] += 5e-10
    _truth(m, a, near)
