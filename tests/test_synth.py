import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varimix import synth as synth_module
from varimix.metrics import spectral_angle
from varimix.synth import (
    VARIABILITY_MODES,
    AbundanceFieldConfig,
    ClassVariability,
    VariabilityConfig,
    _class_variants,
    atmospheric_reflectance,
    hapke_reflectance,
    sample_abundances_dirichlet,
    sample_abundances_grf,
    scaling_variants,
    synthesize_scene,
    synthetic_base_spectra,
    truth_variant_library,
)
from varimix.types import AbundanceMap, EndmemberField, SceneTruth, SpectralImage

from conftest import make_scene


class TestDirichlet:
    def test_uniform_alpha_means(self):
        # Dirichlet(1,1,1): component mean 1/3, var = (1/3)(2/3)/4
        n = 10_000
        a = sample_abundances_dirichlet(n, (1.0, 1.0, 1.0), seed=0)
        sigma_mean = math.sqrt((1 / 3) * (2 / 3) / 4 / n)
        assert np.all(np.abs(a.data.mean(axis=0) - 1 / 3) < 3 * sigma_mean)

    def test_pure_fraction_exact_count(self):
        a = sample_abundances_dirichlet(100, (2.0, 1.0, 1.0), pure_fraction=0.5, seed=1)
        one_hot = np.sum((a.data == 1.0).any(axis=1))
        assert one_hot == 50

    def test_rows_on_simplex(self):
        a = sample_abundances_dirichlet(500, (0.5, 2.0, 1.0), seed=2)
        assert np.max(np.abs(a.data.sum(axis=1) - 1.0)) < 1e-12

    def test_pure_fraction_validation(self):
        with pytest.raises(ValueError):
            sample_abundances_dirichlet(10, (1.0, 1.0), pure_fraction=1.0)


class TestGrf:
    def test_rows_on_simplex(self):
        a = sample_abundances_grf(10, 12, 4, correlation_length=2, seed=3)
        assert np.max(np.abs(a.data.sum(axis=1) - 1.0)) < 1e-12

    def test_small_temperature_is_one_hot(self):
        a = sample_abundances_grf(8, 8, 3, correlation_length=2, sharpness=1e-4, seed=4)
        assert np.all(a.data.max(axis=1) > 1 - 1e-9)

    def test_neighbors_smoother_than_random_pairs(self):
        h = w = 50
        a = sample_abundances_grf(h, w, 3, correlation_length=8, sharpness=0.05, seed=5)
        grid = a.data.reshape(h, w, 3)
        neigh = 0.5 * (
            np.abs(np.diff(grid, axis=0)).mean() + np.abs(np.diff(grid, axis=1)).mean()
        )
        rng = np.random.default_rng(0)
        i = rng.integers(0, h * w, size=5000)
        j = rng.integers(0, h * w, size=5000)
        rand = np.abs(a.data[i] - a.data[j]).mean()
        assert neigh < rand

    def test_grid_preconditions(self):
        with pytest.raises(ValueError):
            sample_abundances_grf(3, 10, 2)
        with pytest.raises(ValueError):
            sample_abundances_grf(10, 10, 2, correlation_length=10)


class TestHapke:
    def test_endpoints(self):
        w = np.array([0.0, 1.0])
        y = hapke_reflectance(w, 0.5, 0.9)
        assert y[0] == 0.0
        assert y[1] == 1.0

    def test_midpoint_value(self):
        # direct evaluation: 0.5 / (1 + 2*sqrt(0.5))^2
        y = hapke_reflectance(np.array([0.5]), 1.0, 1.0)
        expected = 0.5 / (1 + 2 * math.sqrt(0.5)) ** 2
        assert y[0] == pytest.approx(expected, abs=1e-15)
        assert y[0] == pytest.approx(0.0857864, abs=1e-6)

    def test_albedo_domain(self):
        with pytest.raises(ValueError):
            hapke_reflectance(np.array([1.1]), 0.5, 0.5)
        with pytest.raises(ValueError):
            hapke_reflectance(np.array([0.5]), 0.0, 0.5)

    @given(st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_albedo(self, mu1, mu2):
        w = np.linspace(0.0, 1.0, 200)
        y = hapke_reflectance(w, mu1, mu2)
        assert np.all(np.diff(y) > 1e-12)


class TestAtmospheric:
    def test_equal_angles_identity(self, rng):
        y = rng.uniform(0, 1, size=20)
        out = atmospheric_reflectance(y, 0.7, 0.7, e_sun=1.3, e_sky=0.4)
        assert np.max(np.abs(out - y)) < 1e-15

    def test_no_sun_identity(self, rng):
        y = rng.uniform(0, 1, size=20)
        out = atmospheric_reflectance(y, 0.3, 0.9, e_sun=0.0, e_sky=0.2)
        assert np.max(np.abs(out - y)) < 1e-15

    def test_hand_value(self):
        out = atmospheric_reflectance(np.array([0.4]), 0.9, 1.0, e_sun=1.0, e_sky=0.2)
        assert out[0] == pytest.approx(0.4 * 1.1 / 1.2, abs=1e-12)
        assert out[0] == pytest.approx(0.366667, abs=1e-6)

    def test_preserves_zero(self):
        out = atmospheric_reflectance(np.zeros(5), 0.5, 1.0)
        assert np.all(out == 0.0)


class TestScalingVariants:
    def test_identity_range(self, rng):
        m0 = rng.uniform(0.1, 1, size=30)
        v = scaling_variants(m0, "elmm", (1.0, 1.0), k=4, seed=0)
        assert np.max(np.abs(v - m0[None, :])) < 1e-12

    def test_elmm_angle_zero(self, rng):
        m0 = rng.uniform(0.1, 1, size=30)
        v = scaling_variants(m0, "elmm", (0.5, 2.0), k=5, seed=1)
        for row in v:
            assert spectral_angle(row, m0) < 1e-10

    def test_glmm_constant_range_equals_elmm(self, rng):
        m0 = rng.uniform(0.1, 1, size=30)
        c = 1.37
        v = scaling_variants(m0, "glmm", (c, c), k=3, seed=2)
        assert np.max(np.abs(v - c * m0[None, :])) < 1e-12

    def test_glmm_zero_stays_zero(self, rng):
        m0 = rng.uniform(0.1, 1, size=30)
        m0[[3, 17]] = 0.0
        v = scaling_variants(m0, "glmm", (0.7, 1.4), k=6, seed=3)
        assert np.all(v[:, [3, 17]] == 0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            scaling_variants(np.ones(5), "elmm", (0.0, 1.0), k=2, seed=0)


class TestSynthesizeScene:
    def test_clean_equals_mixture(self):
        truth = make_scene(snr_db=30.0)
        mixed = np.einsum("nlp,np->nl", truth.endmembers.data, truth.abundances.data)
        assert np.max(np.abs(mixed - truth.image_clean.pixels)) < 1e-12

    def test_mode_none_reduces_to_shared_matrix(self):
        modes = tuple(ClassVariability("none") for _ in range(3))
        truth = make_scene(snr_db=float("inf"), modes=modes)
        first = truth.endmembers.data[0]
        assert np.max(np.abs(truth.endmembers.data - first[None])) == 0.0

    @pytest.mark.parametrize("generator, p, k, height, width", [
        ("grf", 1, 5, 17, 19),
        ("grf", 2, 1, 17, 19),
        ("dirichlet", 2, 5, 16, 16),
        ("dirichlet", 3, 5, 17, 19),
        ("grf", 3, 1, 9, 11),
        ("dirichlet", 5, 5, 20, 13),
        ("grf", 5, 5, 17, 19),
        ("dirichlet", 30, 5, 4, 4),         # K^P > 2^63
    ])
    def test_field_is_each_pixels_drawn_variants(self, generator, p, k, height, width):
        # the field holds, byte for byte, variant draw[n, j] of class j at
        # pixel n, with variants and draw rebuilt from the scene seed
        base = synthetic_base_spectra(12, p, seed=4)
        modes = tuple(ClassVariability(VARIABILITY_MODES[j % 5]) for j in range(p))
        var = VariabilityConfig(modes, n_variants=k)
        ab = AbundanceFieldConfig(generator=generator, correlation_length=3.0)
        truth = synthesize_scene(base, ab, var, snr_db=30.0, seed=8, height=height, width=width)
        sub = np.random.SeedSequence(8).generate_state(4)
        var_rng = np.random.default_rng(int(sub[0]))
        variants = [_class_variants(c.signatures[0], cv, k, var_rng)
                    for c, cv in zip(base.classes, modes)]
        draw = np.random.default_rng(int(sub[2])).integers(0, k, size=(height * width, p))
        ref = np.stack([variants[j][draw[:, j]] for j in range(p)], axis=2)
        assert truth.endmembers.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("p", [1, 3, 30])
    @pytest.mark.parametrize("k", [1, 5])
    def test_truth_variant_library_is_each_classes_unique_rows(self, p, k):
        # sorting only a class's distinct rows gives np.unique's bytes
        base = synthetic_base_spectra(12, p, seed=4)
        modes = tuple(ClassVariability(VARIABILITY_MODES[j % 5]) for j in range(p))
        ab = AbundanceFieldConfig(generator="grf", correlation_length=3.0)
        truth = synthesize_scene(base, ab, VariabilityConfig(modes, k),
                                 snr_db=30.0, seed=8, height=9, width=11)
        lib = truth_variant_library(truth)
        assert lib.class_names == base.class_names
        for j, cls in enumerate(lib.classes):
            want = np.unique(truth.endmembers.data[:, :, j], axis=0)
            assert cls.signatures.shape == want.shape
            assert cls.signatures.tobytes() == want.tobytes()

    def test_truth_variant_library_with_signed_zero_twins(self):
        # class 0 holds (0, .5) and (-0, .5), distinct bytes but equal values:
        # the library has np.unique's rows in value and in count
        col0 = [[-0.0, 0.5], [0.2, 0.1], [0.0, 0.5], [0.2, 0.1], [-0.0, 0.5]]
        m = np.stack([np.array(col0), np.full((5, 2), 0.3)], axis=2)      # (N, L, P)
        a = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75], [0.0, 1.0], [0.5, 0.5]])
        image = SpectralImage(np.einsum("nlp,np->nl", m, a)[None])
        truth = SceneTruth(image_noisy=image, image_clean=image, abundances=AbundanceMap(a),
                           endmembers=EndmemberField(m), snr_db=math.inf, seed=0)
        lib = truth_variant_library(truth)
        for j, cls in enumerate(lib.classes):
            want = np.unique(m[:, :, j], axis=0)
            assert cls.signatures.shape == want.shape
            assert np.array_equal(cls.signatures, want)
        assert lib.sizes == (2, 1)

    def test_bytes_do_not_depend_on_the_blas_thread_count(self):
        script = """
import hashlib
import sys
sys.path.insert(0, sys.argv[1])
from conftest import bench_scene
truth = bench_scene(23, 29, bands=60)
print(hashlib.sha256(b"".join(a.tobytes() for a in (
    truth.image_noisy.data, truth.image_clean.data, truth.abundances.data,
    truth.endmembers.data))).hexdigest())
"""
        digests = []
        for threads in (1, 2):
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            out = subprocess.run([sys.executable, "-c", script, os.path.dirname(__file__)],
                                 check=True, env=env, capture_output=True, text=True)
            digests.append(out.stdout)
        assert digests[0] == digests[1] and len(digests[0]) == 65

    def test_bit_reproducible(self):
        a = make_scene(snr_db=30.0, seed=77)
        b = make_scene(snr_db=30.0, seed=77)
        assert np.array_equal(a.image_noisy.data, b.image_noisy.data)
        assert np.array_equal(a.endmembers.data, b.endmembers.data)

    def test_full_shape_and_snr(self):
        base = synthetic_base_spectra(198, 3, seed=1)
        var = VariabilityConfig(
            class_modes=(
                ClassVariability("hapke", mu1_range=(0.7, 1.0), mu2_range=(0.7, 1.0)),
                ClassVariability("atmospheric", mu1_range=(0.5, 1.0)),
                ClassVariability("elmm_scaling", scale_range=(0.8, 1.2)),
            ),
            n_variants=5,
        )
        ab = AbundanceFieldConfig(generator="grf", correlation_length=6,
                                  sharpness=0.1, pure_pixel_fraction=0.02)
        truth = synthesize_scene(base, ab, var, snr_db=30.0, seed=9,
                                 height=50, width=50)
        assert truth.image_noisy.data.shape == (50, 50, 198)
        noise = truth.image_noisy.data - truth.image_clean.data
        snr = 10 * math.log10(np.sum(truth.image_clean.data**2) / np.sum(noise**2))
        assert abs(snr - 30.0) < 0.3

    @pytest.mark.parametrize("seed, height, width, snr", [
        (0, 1, 1, 25.0), (7, 5, 6, -3.0), (11, 20, 23, 30.0)])
    def test_noisy_image_is_clean_plus_the_noise_seeds_draw(self, seed, height, width, snr):
        truth = make_scene(height=height, width=width, snr_db=snr, seed=seed)
        clean = truth.image_clean.data
        sigma = math.sqrt(float(np.mean(clean**2)) / 10.0 ** (snr / 10.0))
        noise_seed = np.random.SeedSequence(seed).generate_state(4)[3]
        draw = np.random.default_rng(noise_seed).normal(0.0, sigma, clean.shape)
        assert truth.image_noisy.data.tobytes() == (clean + draw).tobytes()

    @pytest.mark.parametrize("snr", [math.nan, -math.inf])
    def test_bad_snr_is_refused_before_any_work(self, monkeypatch, snr):
        def sampler(*args, **kwargs):
            raise AssertionError("sampled before the input was checked")

        monkeypatch.setattr(synth_module, "_class_variants", sampler)
        monkeypatch.setattr(synth_module, "sample_abundances_dirichlet", sampler)
        with pytest.raises(ValueError, match="snr_db must be finite or"):
            make_scene(height=1, width=5, snr_db=snr)

    @pytest.mark.parametrize("height, width", [(0, 5), (4, 0), (0, 0)])
    def test_empty_grid_is_refused_by_name(self, height, width):
        with pytest.raises(ValueError, match="height and width must be >= 1"):
            make_scene(height=height, width=width, snr_db=math.inf)

    def test_abundance_rows_simplex(self):
        truth = make_scene()
        assert np.max(np.abs(truth.abundances.data.sum(axis=1) - 1)) < 1e-9
