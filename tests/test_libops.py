import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varimix.libops import (
    SpectralTransform,
    apply_transform,
    count_based_reduce,
    fda_transform,
    instability_index,
    instability_weights,
    music_prune,
    select_stable_bands,
)
from varimix.metrics import pairwise_angles
from varimix.solvers import fcls
from varimix.synth import synthetic_base_spectra
from varimix.types import FormatError, SpectralImage, SpectralLibrary

from conftest import make_scene
from oracles import music_residual_oracle


def _var(rows):
    rows = np.asarray(rows, dtype=float)
    return np.mean((rows - rows.mean(axis=0)) ** 2, axis=0)


class TestInstabilityIndex:
    def test_hand_fixture(self):
        # 2 classes x 2 signatures x 3 bands, checked against explicit
        # population-variance arithmetic
        c1 = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 5.0]])
        c2 = np.array([[5.0, 4.0, 1.0], [7.0, 4.0, 3.0]])
        lib = SpectralLibrary.from_arrays(["a", "b"], [c1, c2])
        idx = instability_index(lib)
        intra = 0.5 * (_var(c1) + _var(c2))
        inter = _var(np.stack([c1.mean(axis=0), c2.mean(axis=0)]))
        expected = np.where(inter > 0, intra / np.where(inter > 0, inter, 1), np.inf)
        assert np.allclose(idx, expected)
        assert np.allclose(idx, [0.25, 0.0, 1.0])

    def test_all_duplicates_zero_index(self):
        sig = np.array([[0.3, 0.4, 0.5]])
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [np.repeat(sig, 3, axis=0), np.repeat(2 * sig, 3, axis=0)]
        )
        # zero numerator up to the floating-point floor of np.var
        assert np.all(instability_index(lib) < 1e-25)

    def test_identical_class_means_inf(self):
        # both classes mean 2.0 at band 0 (nonzero spread): +inf sentinel there
        c1 = np.array([[1.0, 0.2], [3.0, 0.4]])
        c2 = np.array([[0.0, 0.5], [4.0, 0.9]])
        lib = SpectralLibrary.from_arrays(["a", "b"], [c1, c2])
        idx = instability_index(lib)
        assert np.isinf(idx[0])
        assert np.isfinite(idx[1])

    def test_one_signature_per_class_warns(self):
        # no within-class spread: every band scores 0
        lib = SpectralLibrary.from_matrix(np.random.rand(4, 3))
        with pytest.warns(UserWarning, match="^one signature per class"):
            assert np.all(instability_index(lib) == 0.0)

    def test_single_class_rejected(self):
        lib = SpectralLibrary.from_arrays(["a"], [np.random.rand(3, 4)])
        with pytest.raises(ValueError):
            instability_index(lib)


# the refusal of a library whose class means agree in every band
AGREE = "^class means agree up to rounding: no between-class scatter$"


def _rotated_means(scale=1.0):
    # three classes holding the same three signatures in rotated order, the
    # third class's scaled by ``scale``: at 1 their means agree but for the
    # rounding of their sums
    s = synthetic_base_spectra(24, 3, seed=7).class_means()
    return SpectralLibrary.from_arrays("abc", [s, s[[1, 2, 0]], scale * s[[2, 0, 1]]])


def test_class_means_that_agree_up_to_rounding_are_refused_by_the_weights_transform():
    lib = _rotated_means()
    means = lib.class_means()
    assert 0.0 < np.abs(means - means[0]).max() <= 1e-15
    with pytest.raises(np.linalg.LinAlgError, match=AGREE):
        instability_index(lib)
    with pytest.raises(np.linalg.LinAlgError, match=AGREE):
        instability_weights(lib)


def test_class_means_that_agree_up_to_rounding_are_refused_by_fda():
    with pytest.raises(np.linalg.LinAlgError, match="^class means agree up to rounding"):
        fda_transform(_rotated_means(), 2)


def _swapped_pair():
    # two classes holding the same two signatures in swapped order: their
    # means agree exactly
    sigs = np.random.default_rng(0).uniform(0.1, 1.0, size=(2, 24))
    return SpectralLibrary.from_arrays("ab", [sigs, sigs[::-1]])


@pytest.mark.parametrize("library", [_rotated_means, _swapped_pair])
def test_class_means_that_agree_are_refused_by_the_mask(library):
    # every band would score +inf, and a mask by k would keep the first k
    # bands by the tie rule; by threshold, no band
    for spec in ({"k": 12}, {"threshold": 1e300}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError, match=AGREE):
                select_stable_bands(library(), **spec)


def test_class_means_that_differ_by_1e_6_relative_are_accepted():
    lib = _rotated_means(1.0 + 1e-6)
    assert np.all(np.isfinite(instability_index(lib)))
    assert select_stable_bands(lib, k=12).weights.sum() == 12
    assert np.all(instability_weights(lib).weights > 0.0)
    assert fda_transform(lib, 2).weights.shape == (2, 24)


def test_one_signature_per_class_with_distinct_means_still_gives_a_mask():
    lib = synthetic_base_spectra(24, 3, seed=7)
    with pytest.warns(UserWarning, match="^one signature per class"):
        t = select_stable_bands(lib, k=12)
    assert t.weights.sum() == 12


class TestSelectStableBands:
    def _lib(self, rng, l=12):
        return SpectralLibrary.from_arrays(
            ["a", "b", "c"],
            [rng.uniform(0.1, 1.0, size=(4, l)) for _ in range(3)],
        )

    def test_full_mask_identity(self, rng):
        lib = self._lib(rng)
        t = select_stable_bands(lib, k=12)
        assert np.all(t.weights == 1.0)

    def test_zero_variance_band_first(self, rng):
        lib = self._lib(rng)
        sigs = [np.array(c.signatures) for c in lib.classes]
        for j, s in enumerate(sigs):
            s[:, 5] = 0.2 + 0.1 * j      # duplicate within class at band 5
        lib = SpectralLibrary.from_arrays("abc", sigs)
        with pytest.warns(UserWarning):  # k below the class count
            t = select_stable_bands(lib, k=1)
        assert t.weights[5] == 1.0

    def test_threshold_median_count(self, rng):
        lib = self._lib(rng)
        idx = instability_index(lib)
        med = float(np.median(idx))
        t = select_stable_bands(lib, threshold=med)
        kept = int(t.weights.sum())
        assert kept in (len(idx) // 2, (len(idx) + 1) // 2)

    def test_nested_masks(self, rng):
        lib = self._lib(rng)
        small = select_stable_bands(lib, k=3).weights
        large = select_stable_bands(lib, k=7).weights
        assert np.all(small <= large)

    def test_underdetermined_warning(self, rng):
        lib = self._lib(rng)
        with pytest.warns(UserWarning):
            select_stable_bands(lib, k=2)

    def test_threshold_that_keeps_no_band_is_refused_without_a_warning(self, rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^mask transform has no output band$"):
                select_stable_bands(self._lib(rng), threshold=0.0)


class TestFda:
    def _gaussian_lib(self, rng, l=10, per=30):
        means = rng.uniform(0.2, 1.0, size=(3, l))
        sigs = [np.abs(m + rng.normal(0, 0.03, size=(per, l))) for m in means]
        return SpectralLibrary.from_arrays(["a", "b", "c"], sigs)

    def test_point_mass_classes(self):
        c1 = np.repeat([[1.0, 0.0, 0.2]], 3, axis=0)
        c2 = np.repeat([[0.0, 1.0, 0.4]], 3, axis=0)
        lib = SpectralLibrary.from_arrays(["a", "b"], [c1, c2])
        t = fda_transform(lib, 1)
        z1 = t.apply(c1)
        z2 = t.apply(c2)
        assert np.ptp(z1) < 1e-8 and np.ptp(z2) < 1e-8      # zero within-spread
        assert abs(z1[0, 0] - z2[0, 0]) > 1e-6              # separated means

    @pytest.mark.parametrize("spread", [0.0, 0.03])
    def test_rows_have_unit_norm(self, rng, spread):
        # scaled to the within-class scatter, rows reach norms of order
        # 1/spread (and the 1e-12 floor's inverse root at zero spread)
        means = rng.uniform(0.2, 1.0, size=(3, 10))
        lib = SpectralLibrary.from_arrays(
            ["a", "b", "c"], [m + rng.normal(0, spread, size=(30, 10)) for m in means])
        w = fda_transform(lib, 2).weights
        np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_identical_means_rank_error(self, rng):
        c = rng.uniform(0.1, 1.0, size=(5, 8))
        lib = SpectralLibrary.from_arrays(["a", "b"], [c, c.copy()])
        with pytest.raises(np.linalg.LinAlgError):
            fda_transform(lib, 1)

    def test_dim_bound(self, rng):
        lib = self._gaussian_lib(rng)
        with pytest.raises(ValueError):
            fda_transform(lib, 3)       # > P-1

    def test_beats_random_projections(self, rng):
        lib = self._gaussian_lib(rng)
        d = 2
        t = fda_transform(lib, d)
        w = t.weights
        l = lib.n_bands
        s_w = np.zeros((l, l))
        for c in lib.classes:
            cc = c.signatures - c.signatures.mean(axis=0)
            s_w += cc.T @ cc
        means = lib.class_means()
        s_b = np.cov(means.T, bias=True)
        eps = 1e-8 * np.trace(s_w) / l
        s_wr = s_w + eps * np.eye(l)

        def quotient(mat):
            # normalize rows to be s_wr-orthonormal before comparing
            c = mat @ s_wr @ mat.T
            t_chol = np.linalg.inv(np.linalg.cholesky(c))
            mat = t_chol @ mat
            return np.trace(mat @ s_b @ mat.T)

        q_fda = quotient(w)
        for _ in range(100):
            q_rand = quotient(rng.normal(size=(d, l)))
            assert q_fda >= q_rand - 1e-9


class TestApplyTransform:
    def test_identity_weights_noop(self, rng):
        truth = make_scene(n_bands=15, height=4, width=5)
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [rng.uniform(0.1, 1, (2, 15)) for _ in range(2)]
        )
        t = SpectralTransform("weights", np.ones(15))
        img2, lib2 = apply_transform(t, truth.image_noisy, lib)
        assert np.array_equal(img2.pixels, truth.image_noisy.pixels)
        assert np.array_equal(lib2.classes[0].signatures, lib.classes[0].signatures)

    def test_mask_shrinks_bands(self, rng):
        truth = make_scene(n_bands=15, height=4, width=5)
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [rng.uniform(0.1, 1, (2, 15)) for _ in range(2)]
        )
        mask = np.zeros(15)
        mask[[1, 4, 9]] = 1
        img2, lib2 = apply_transform(SpectralTransform("mask", mask), truth.image_noisy, lib)
        assert img2.n_bands == 3
        assert lib2.n_bands == 3

    def test_fcls_invariant_under_identity(self, rng):
        truth = make_scene(n_bands=12, height=4, width=6)
        m = truth.endmembers.class_means().T
        lib = SpectralLibrary.from_matrix(m)
        t = SpectralTransform("weights", np.ones(12))
        img2, lib2 = apply_transform(t, truth.image_noisy, lib)
        r1 = fcls(truth.image_noisy, m)
        r2 = fcls(img2, lib2.class_means().T)
        assert np.max(np.abs(r1.abundances.data - r2.abundances.data)) < 1e-12

    def test_commutes_with_flatten(self, rng):
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [rng.uniform(0.1, 1, (3, 10)), rng.uniform(0.1, 1, (2, 10))]
        )
        truth = make_scene(n_bands=10, height=4, width=4)
        t = SpectralTransform("weights", rng.uniform(0.1, 2.0, size=10))
        _, lib2 = apply_transform(t, truth.image_noisy, lib)
        flat_then, _ = lib2.flatten()
        then_flat = t.apply(lib.flatten()[0])
        assert np.max(np.abs(flat_then - then_flat)) < 1e-15

    def test_weights_from_instability(self, rng):
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [rng.uniform(0.1, 1, (4, 8)) for _ in range(2)]
        )
        t = instability_weights(lib)
        assert t.kind == "weights"
        assert np.all(t.weights >= 0) and np.all(t.weights <= 1)


def test_pruning_thresholds_refuse_nan(rng):
    lib = SpectralLibrary.from_arrays(["a", "b"], [rng.uniform(0.1, 1, (3, 15)) for _ in range(2)])
    with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
        count_based_reduce(lib, float("nan"), 3)
    image = make_scene(n_bands=15, height=4, width=6, snr_db=20.0, seed=33).image_noisy
    with pytest.raises(ValueError, match="^residual_threshold must be positive$"):
        music_prune(lib, image, 3, float("nan"))


class TestCountBasedReduce:
    def test_identical_signatures_collapse(self):
        sig = np.array([[0.5, 0.4, 0.3]])
        lib = SpectralLibrary.from_arrays(["a"], [np.repeat(sig, 6, axis=0)])
        red = count_based_reduce(lib, angle_threshold=0.01, target_per_class=3)
        assert red.sizes == (1,)

    def test_zero_threshold_keeps_up_to_target(self, rng):
        sigs = rng.uniform(0.1, 1.0, size=(5, 10))
        lib = SpectralLibrary.from_arrays(["a"], [sigs])
        red = count_based_reduce(lib, angle_threshold=0.0, target_per_class=4)
        assert red.sizes == (4,)

    def test_two_cluster_fixture(self):
        # 5 signatures in two tight angular clusters; threshold sits between
        # intra- and inter-cluster angles
        cluster1 = np.array([[1.0, 0.01, 0.0], [1.0, 0.02, 0.0], [1.0, 0.015, 0.0]])
        cluster2 = np.array([[0.01, 1.0, 0.0], [0.02, 1.0, 0.0]])
        sigs = np.concatenate([cluster1, cluster2])
        lib = SpectralLibrary.from_arrays(["a"], [sigs])
        red = count_based_reduce(lib, angle_threshold=0.1, target_per_class=5)
        assert red.sizes == (2,)
        kept = red.classes[0].signatures
        # one representative from each cluster (brute-force set cover says
        # minimum size is 2: no single signature covers both clusters)
        angles = pairwise_angles(kept, sigs)
        assert np.all(angles.min(axis=0) <= 0.1)
        assert pairwise_angles(kept[:1], kept[1:])[0, 0] > 0.5

    def test_subset_and_structure_preserved(self, rng):
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [rng.uniform(0.1, 1, (6, 12)) for _ in range(2)]
        )
        red = count_based_reduce(lib, 0.02, 3)
        assert red.class_names == lib.class_names
        for orig, kept in zip(lib.classes, red.classes):
            assert kept.size >= 1
            for row in kept.signatures:
                assert any(np.array_equal(row, r) for r in orig.signatures)

    def test_sqerr_metric(self, rng):
        lib = SpectralLibrary.from_arrays(["a"], [rng.uniform(0.1, 1, (5, 8))])
        red = count_based_reduce(lib, 1e-9, 5, metric="sqerr")
        assert red.sizes == (5,)


class TestMusicPrune:
    def test_true_endmembers_retained(self):
        truth = make_scene(n_bands=25, height=6, width=10, snr_db=float("inf"),
                           modes=None, n_variants=1, seed=31)
        ems = truth.endmembers.class_means()
        lib = SpectralLibrary.from_arrays(["a", "b", "c"], [e[None, :] for e in ems])
        pruned = music_prune(lib, truth.image_noisy, subspace_dim=3,
                             residual_threshold=0.01)
        assert pruned.sizes == (1, 1, 1)

    def test_orthogonal_signature_pruned(self, rng):
        truth = make_scene(n_bands=25, height=6, width=10, snr_db=float("inf"),
                           modes=None, n_variants=1, seed=32)
        pixels = truth.image_noisy.pixels
        mean = pixels.mean(axis=0)
        centered = (pixels - mean).T
        u, _, _ = np.linalg.svd(centered, full_matrices=False)
        sub = u[:, :3]
        v = rng.uniform(0.1, 1.0, size=25)
        v_perp = v - sub @ (sub.T @ v)
        # residuals are computed on the mean-removed, full-subspace side
        full_u, _, _ = np.linalg.svd(centered, full_matrices=True)
        v_perp = v - full_u[:, :3] @ (full_u[:, :3].T @ v)
        intruder = mean + v_perp
        ems = truth.endmembers.class_means()
        lib = SpectralLibrary.from_arrays(
            ["a", "b", "c"],
            [np.stack([ems[0], intruder]), ems[1][None, :], ems[2][None, :]],
        )
        pruned = music_prune(lib, truth.image_noisy, subspace_dim=3,
                             residual_threshold=0.9)
        assert pruned.sizes == (1, 1, 1)
        assert np.array_equal(pruned.classes[0].signatures[0], ems[0])

    def test_threshold_above_one_keeps_all(self, rng):
        truth = make_scene(n_bands=15, height=4, width=6, snr_db=20.0, seed=33)
        lib = SpectralLibrary.from_arrays(
            ["a", "b"], [rng.uniform(0.1, 1, (3, 15)) for _ in range(2)]
        )
        pruned = music_prune(lib, truth.image_noisy, 2, residual_threshold=1.0 + 1e-9)
        assert pruned.sizes == lib.sizes

    def test_never_empties_class(self, rng):
        truth = make_scene(n_bands=15, height=4, width=6, snr_db=float("inf"), seed=34)
        pixels = truth.image_noisy.pixels
        mean = pixels.mean(axis=0)
        u, _, _ = np.linalg.svd((pixels - mean).T, full_matrices=True)
        v = rng.uniform(0.1, 1, size=15)
        v_perp = v - u[:, :2] @ (u[:, :2].T @ v)
        lib = SpectralLibrary.from_arrays(["only"], [(mean + v_perp)[None, :]])
        with pytest.warns(UserWarning):
            pruned = music_prune(lib, truth.image_noisy, 2, residual_threshold=0.5)
        assert pruned.sizes == (1,)


def _kept(pruned, library):
    """Boolean mask over the library's rows (one class) that survived."""
    sigs = library.classes[0].signatures
    kept = pruned.classes[0].signatures
    mask = np.array([any(np.array_equal(s, k) for k in kept) for s in sigs])
    assert np.array_equal(sigs[mask], kept)
    return mask


@given(
    n=st.integers(2, 30),
    l=st.integers(2, 25),
    seed=st.integers(0, 2**32 - 1),
    full_dim=st.booleans(),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_music_residuals_match_svd_oracle(n, l, seed, full_dim, data):
    # N < L and N >= L both occur; with subspace_dim = min(L, N) and N <= L
    # the last direction lies in the null space of the centered pixels
    # (their rank is at most N - 1), so the rank cut is what keeps it out
    rng = np.random.default_rng(seed)
    k = min(l, n) if full_dim else data.draw(st.integers(1, min(l, n)))
    pixels = rng.uniform(0.0, 1.0, size=(n, l))
    image = SpectralImage(pixels.reshape(1, n, l))
    mean = pixels.mean(axis=0)
    in_span = mean + rng.normal(size=(3, n)) @ (pixels - mean) * 0.1
    sigs = np.concatenate([mean[None, :], rng.uniform(0.0, 1.0, size=(6, l)), in_span])
    library = SpectralLibrary.from_arrays(["all"], [sigs])
    expected = music_residual_oracle(sigs, pixels, k)
    assert expected[0] == 0.0       # the mean itself: always kept, class never emptied
    delta = 1e-9
    for t in np.concatenate([expected - delta, expected + delta, [1e-12, 1e-10]]):
        if t < 1e-12 or np.any(np.abs(expected - t) < min(delta, t) / 2):
            continue
        pruned = music_prune(library, image, k, residual_threshold=float(t))
        assert np.array_equal(_kept(pruned, library), expected <= t)


def _rank2_image(rng, l=20, height=6, width=10):
    ems = rng.uniform(0.1, 1.0, size=(3, l))
    ab = rng.dirichlet(np.ones(3), size=height * width)
    return SpectralImage((ab @ ems).reshape(height, width, l))


def test_music_rank2_image_ignores_extra_dimensions(rng):
    image = _rank2_image(rng)
    sigs = rng.uniform(0.0, 1.0, size=(40, 20))
    library = SpectralLibrary.from_arrays(["all"], [sigs])
    two = music_prune(library, image, 2, residual_threshold=0.9)
    five = music_prune(library, image, 5, residual_threshold=0.9)
    kept = _kept(two, library)
    assert np.array_equal(kept, _kept(five, library))
    assert 0 < kept.sum() < 40
    assert np.array_equal(kept, music_residual_oracle(sigs, image.pixels, 5) <= 0.9)


def test_music_constant_image_keeps_one_per_class(rng):
    # 0.25 is exact in binary, so the mean equals the pixels and the
    # scatter is exactly zero: the subspace is empty, every residual is 1
    # except that of the signature equal to the mean, which is 0
    image = SpectralImage(np.full((4, 5, 12), 0.25))
    flat = np.full(12, 0.25)
    library = SpectralLibrary.from_arrays(
        ["a", "b"],
        [np.stack([rng.uniform(0.1, 1.0, 12), flat]), rng.uniform(0.1, 1.0, size=(3, 12))],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pruned = music_prune(library, image, 3, residual_threshold=0.5)
    assert [str(w.message) for w in caught] == [
        "class 'b' would be emptied; keeping its best signature"
    ]
    assert pruned.sizes == (1, 1)
    assert np.array_equal(pruned.classes[0].signatures[0], flat)
    assert np.array_equal(pruned.classes[1].signatures[0], library.classes[1].signatures[0])


def test_music_constant_image_with_inexact_mean_has_an_empty_subspace(rng):
    # the mean of three 0.1s is not 0.1 in binary: the centered pixels
    # are 1.4e-17 and the scatter's top eigenvalue 6.9e-33, which only
    # the floor tied to the mean's rounding removes
    image = SpectralImage(np.full((1, 3, 12), 0.1))
    assert np.any(image.pixels - image.pixels.mean(axis=0) != 0.0)
    library = SpectralLibrary.from_arrays(
        ["a", "b"], [rng.uniform(0.1, 1.0, size=(4, 12)), rng.uniform(0.1, 1.0, size=(3, 12))])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pruned = music_prune(library, image, 2, residual_threshold=0.9)
    assert [str(w.message) for w in caught] == [
        "class 'a' would be emptied; keeping its best signature",
        "class 'b' would be emptied; keeping its best signature",
    ]
    assert pruned.sizes == (1, 1)
    for kept, c in zip(pruned.classes, library.classes):
        assert np.array_equal(kept.signatures[0], c.signatures[0])


class TestTransformFile:
    def test_round_trip(self, tmp_path, rng):
        for t in (SpectralTransform("mask", np.array([1.0, 0.0, 1.0, 1.0])),
                  SpectralTransform("weights", rng.uniform(0.1, 2.0, size=4)),
                  SpectralTransform("dense", rng.normal(size=(2, 4)))):
            back = SpectralTransform.from_json(t.to_json(tmp_path / f"{t.kind}.json"))
            assert back.kind == t.kind and np.array_equal(back.weights, t.weights)

    def test_file_with_null_offset_loads_and_applies_unchanged(self, tmp_path, rng):
        w = rng.normal(size=(2, 5))
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"kind": "dense", "weights": w.tolist(), "offset": None}) + "\n")
        x = rng.uniform(0.1, 1.0, size=(7, 5))
        t = SpectralTransform.from_json(path)
        assert np.array_equal(t.apply(x), x @ w.T)
        assert json.loads(t.to_json(tmp_path / "new.json").read_text()) == \
            {"kind": "dense", "weights": w.tolist()}

    def test_transform_with_no_output_band_is_refused(self, tmp_path):
        for kind, w in (("mask", np.zeros(4)), ("weights", np.zeros(0)),
                        ("dense", np.zeros((0, 4)))):
            with pytest.raises(ValueError, match=f"^{kind} transform has no output band$"):
                SpectralTransform(kind, w)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"kind": "mask", "weights": [0.0] * 4}) + "\n")
        with pytest.raises(FormatError, match="mask transform has no output band"):
            SpectralTransform.from_json(path)

    def test_weights_with_no_positive_weight_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="^weights transform has no positive weight$"):
            SpectralTransform("weights", np.zeros(4))
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"kind": "weights", "weights": [0.0] * 4}) + "\n")
        with pytest.raises(FormatError, match="weights transform has no positive weight"):
            SpectralTransform.from_json(path)
        # class means that agree in every band leave no band to weight: the
        # library is refused before a transform is built
        sigs = np.random.default_rng(0).uniform(0.1, 1.0, size=(2, 10))
        lib = SpectralLibrary.from_arrays("ab", [sigs, sigs[::-1]])
        with pytest.raises(np.linalg.LinAlgError, match=AGREE):
            instability_weights(lib)
