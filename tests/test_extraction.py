import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varimix.extraction import (
    BundleExtractionConfig,
    _top_eigenvectors,
    cluster_signatures,
    extract_bundles,
    extract_endmembers,
)
from varimix.metrics import pairwise_angles
from varimix.types import DegenerateGeometryWarning, DimensionError, SpectralImage

from conftest import make_scene
from oracles import vca_svd_oracle


def _match_angles(extracted, truth):
    """Best angle to any true signature, per extracted signature."""
    return pairwise_angles(extracted, truth).min(axis=1)


class TestExtractEndmembers:
    def test_recovers_pure_pixels_noiseless(self):
        truth = make_scene(n_bands=40, height=10, width=30, snr_db=float("inf"),
                           pure_fraction=0.08, seed=21,
                           modes=None, n_variants=1)
        sigs, idx = extract_endmembers(truth.image_noisy, 3, seed=0)
        true_ems = truth.endmembers.class_means()        # single variant per class
        assert np.all(_match_angles(sigs, true_ems) < 1e-6)
        # each true class matched by some output
        assert np.all(pairwise_angles(true_ems, sigs).min(axis=1) < 1e-6)

    def test_returns_actual_pixels(self):
        truth = make_scene(pure_fraction=0.05, seed=4)
        sigs, idx = extract_endmembers(truth.image_noisy, 3, seed=1)
        assert np.array_equal(sigs, truth.image_noisy.pixels[idx])

    def test_identical_pixels_degenerate(self, rng):
        pixel = rng.uniform(0.2, 0.8, size=12)
        img = SpectralImage(np.tile(pixel, (1, 40, 1)))
        with pytest.warns(DegenerateGeometryWarning):
            sigs, idx = extract_endmembers(img, 3, seed=2)
        assert np.all(sigs == pixel[None, :])

    def test_single_class_principal_direction(self, rng):
        y = rng.uniform(0, 1, size=(1, 50, 8))
        img = SpectralImage(y)
        sigs, idx = extract_endmembers(img, 1, seed=3)
        # brute force: maximal |projection| on the first principal axis
        pix = img.pixels
        centered = pix - pix.mean(axis=0)
        u, _, _ = np.linalg.svd(centered.T, full_matrices=False)
        expected = int(np.argmax(np.abs(centered @ u[:, 0])))
        assert idx[0] == expected

    def test_deterministic_in_seed(self):
        truth = make_scene(snr_db=30.0, seed=8)
        a = extract_endmembers(truth.image_noisy, 3, seed=5)[1]
        b = extract_endmembers(truth.image_noisy, 3, seed=5)[1]
        c = extract_endmembers(truth.image_noisy, 3, seed=6)[1]
        assert np.array_equal(a, b)
        assert a.shape == c.shape

    def test_needs_enough_pixels(self, rng):
        img = SpectralImage(rng.uniform(0, 1, size=(1, 2, 5)))
        with pytest.raises(Exception):
            extract_endmembers(img, 3, seed=0)

    def test_needs_enough_bands(self, rng):
        img = SpectralImage(rng.uniform(0, 1, size=(1, 10, 2)))
        with pytest.raises(DimensionError, match="need at least 3 bands, image has 2"):
            extract_endmembers(img, 3, seed=0)

    @given(seed=st.integers(0, 2**16), p=st.sampled_from([1, 2, 3]),
           snr_db=st.sampled_from([10.0, 30.0]), n_bands=st.sampled_from([12, 40]))
    @example(seed=0, p=3, snr_db=10.0, n_bands=40)      # affine path
    @example(seed=0, p=3, snr_db=30.0, n_bands=40)      # projective path
    @settings(max_examples=40, deadline=None)
    def test_matches_svd_oracle(self, seed, p, snr_db, n_bands):
        truth = make_scene(n_bands=n_bands, snr_db=snr_db, seed=seed, pure_fraction=0.05)
        _, idx = extract_endmembers(truth.image_noisy, p, seed=seed)
        assert np.array_equal(idx, vca_svd_oracle(truth.image_noisy.pixels, p, seed))

    def test_subspace_projector_matches_svd(self):
        pixels = make_scene(n_bands=40, snr_db=30.0, seed=9).image_noisy.pixels
        u = _top_eigenvectors(pixels.T @ pixels / pixels.shape[0], 3)
        ref = np.linalg.svd(pixels.T, full_matrices=False)[0][:, :3]
        assert np.max(np.abs(u @ u.T - ref @ ref.T)) <= 1e-10
        top = u[np.argmax(np.abs(u), axis=0), np.arange(3)]
        assert np.all(top > 0)

    @pytest.mark.parametrize("case, degenerate", [
        ("constant", True),
        ("rank-1 line", True),
        ("scaled copies", True),
        ("rank-2 simplex", False),
        ("rank-2 simplex x1e6 + 1e3", False),
    ])
    def test_degenerate_geometry_warning(self, case, degenerate):
        rng = np.random.default_rng(0)
        s = rng.uniform(0.2, 0.8, size=(3, 12))
        a = rng.uniform(size=(40, 1))
        simplex = rng.dirichlet(np.ones(3), size=40) @ s
        pixels = {
            "constant": np.tile(s[0], (40, 1)),
            "rank-1 line": a * s[0] + (1 - a) * s[1],
            "scaled copies": (0.5 + a) * s[0],
            "rank-2 simplex": simplex,
            "rank-2 simplex x1e6 + 1e3": simplex * 1e6 + 1e3,
        }[case]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            extract_endmembers(SpectralImage(pixels[None]), 3, seed=1)
        fired = any(issubclass(w.category, DegenerateGeometryWarning) for w in caught)
        assert fired == degenerate


class TestClusterSignatures:
    def test_duplicated_vectors_group_perfectly(self, rng):
        protos = rng.uniform(0.1, 1.0, size=(3, 20))
        sigs = np.repeat(protos, 4, axis=0)
        labels = cluster_signatures(sigs, 3, seed=0)
        for g in range(3):
            block = labels[4 * g:4 * (g + 1)]
            assert len(set(block.tolist())) == 1

    def test_angle_metric_scale_invariant(self, rng):
        protos = rng.uniform(0.1, 1.0, size=(2, 15))
        sigs = np.concatenate([protos, protos * 3.0])
        labels = cluster_signatures(sigs, 2, metric="spectral_angle", seed=1)
        assert labels[0] == labels[2]
        assert labels[1] == labels[3]
        assert labels[0] != labels[1]

    def test_separated_blobs_match_generator(self, rng):
        centers = np.array([np.r_[np.ones(10), np.zeros(10)],
                            np.r_[np.zeros(10), np.ones(10)]]) * 5
        pts = np.concatenate([
            centers[0] + rng.normal(0, 0.05, size=(30, 20)),
            centers[1] + rng.normal(0, 0.05, size=(30, 20)),
        ])
        labels = cluster_signatures(pts, 2, metric="euclidean", seed=2)
        assert len(set(labels[:30].tolist())) == 1
        assert len(set(labels[30:].tolist())) == 1
        assert labels[0] != labels[30]

    def test_too_few_signatures(self, rng):
        with pytest.raises(ValueError):
            cluster_signatures(rng.uniform(size=(2, 5)), 3, seed=0)


class TestExtractBundles:
    def test_single_run_gives_one_per_class(self):
        truth = make_scene(snr_db=30.0, pure_fraction=0.05, seed=13)
        cfg = BundleExtractionConfig(n_classes=3, num_runs=1, subset_size=150, seed=0)
        lib = extract_bundles(truth.image_noisy, cfg)
        assert lib.n_classes == 3
        assert lib.sizes == (1, 1, 1)

    def test_five_run_bundle_library(self):
        truth = make_scene(n_bands=30, height=25, width=40, snr_db=30.0,
                           pure_fraction=0.05, seed=14)
        cfg = BundleExtractionConfig(n_classes=3, num_runs=5, subset_size=500, seed=1)
        lib = extract_bundles(truth.image_noisy, cfg)
        assert lib.n_classes == 3
        assert sum(lib.sizes) == 15

    def test_well_separated_clustering_purity(self, rng):
        # three tight angular bundles, pooled directly through clustering
        base = np.array([[1, 0.05, 0.05], [0.05, 1, 0.05], [0.05, 0.05, 1.0]])
        sigs = []
        gen_labels = []
        for j in range(3):
            for _ in range(5):
                sigs.append(base[j] * rng.uniform(0.9, 1.1))
                gen_labels.append(j)
        labels = cluster_signatures(np.array(sigs), 3, seed=3)
        gen_labels = np.array(gen_labels)
        for j in range(3):
            assert len(set(labels[gen_labels == j].tolist())) == 1

    def test_constant_image_names_both_counts(self):
        img = SpectralImage(np.full((10, 10, 20), 0.4))
        cfg = BundleExtractionConfig(n_classes=3, seed=0)
        with pytest.warns(DegenerateGeometryWarning):
            with pytest.raises(ValueError, match="hold 1 distinct spectra, fewer than the 3"):
                extract_bundles(img, cfg)

    def test_signed_zero_twins_count_as_one_spectrum(self):
        # every pixel has the same value; band 0 holds 0.0 or -0.0
        data = np.full((10, 10, 20), 0.4)
        data[..., 0] = 0.0
        data[1::2, :, 0] = -0.0
        cfg = BundleExtractionConfig(n_classes=3, seed=0)
        with pytest.warns(DegenerateGeometryWarning):
            with pytest.raises(ValueError, match="hold 1 distinct spectra, fewer than the 3"):
                extract_bundles(SpectralImage(data), cfg)

    def test_byte_identical_across_thread_counts(self):
        script = """
import hashlib
from varimix.extraction import BundleExtractionConfig, extract_bundles
from varimix.synth import (AbundanceFieldConfig, ClassVariability, VariabilityConfig,
                           synthesize_scene, synthetic_base_spectra)
modes = (ClassVariability("elmm_scaling", scale_range=(0.85, 1.15)),) * 3
truth = synthesize_scene(synthetic_base_spectra(100, 3, seed=7),
                         AbundanceFieldConfig(generator="dirichlet", alpha=(1.0,) * 3,
                                              pure_pixel_fraction=0.05, seed=3),
                         VariabilityConfig(class_modes=modes, n_variants=3, seed=11),
                         snr_db=30.0, seed=5, height=30, width=30)
lib = extract_bundles(truth.image_noisy,
                      BundleExtractionConfig(n_classes=3, num_runs=3, subset_size=600, seed=2))
print(hashlib.sha256(b"".join(c.signatures.tobytes() for c in lib.classes)).hexdigest())
"""
        digests = []
        for threads in (1, 2):
            env = dict(os.environ)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                env[var] = str(threads)
            out = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                                 capture_output=True, text=True)
            digests.append(out.stdout)
        assert digests[0] == digests[1]

    def test_determinism(self):
        truth = make_scene(snr_db=30.0, pure_fraction=0.05, seed=15)
        cfg = BundleExtractionConfig(n_classes=3, num_runs=3, subset_size=100, seed=9)
        a = extract_bundles(truth.image_noisy, cfg)
        b = extract_bundles(truth.image_noisy, cfg)
        for ca, cb in zip(a.classes, b.classes):
            assert ca.name == cb.name
            assert np.array_equal(ca.signatures, cb.signatures)

    def test_class_order_by_descending_norm(self):
        truth = make_scene(snr_db=30.0, pure_fraction=0.05, seed=16)
        cfg = BundleExtractionConfig(n_classes=3, num_runs=4, subset_size=120, seed=2)
        lib = extract_bundles(truth.image_noisy, cfg)
        norms = [np.linalg.norm(c.signatures.mean(axis=0)) for c in lib.classes]
        assert norms == sorted(norms, reverse=True)
        assert lib.class_names == ("class_0", "class_1", "class_2")

    def _recorded_seeds(self, monkeypatch, num_runs):
        """(per-run VCA seeds, first clustering seed) of one extraction."""
        import varimix.extraction as ext

        runs, clusters = [], []
        real_vca = ext._vca

        def vca(pixels, n_classes, seed=None):
            runs.append(seed)
            return real_vca(pixels, n_classes, seed=seed)

        def cluster(signatures, n_classes, metric="spectral_angle", seed=None):
            clusters.append(seed)
            return cluster_signatures(signatures, n_classes, metric, seed=seed)

        monkeypatch.setattr(ext, "_vca", vca)
        monkeypatch.setattr(ext, "cluster_signatures", cluster)
        truth = make_scene(snr_db=30.0, pure_fraction=0.05, seed=17)
        cfg = BundleExtractionConfig(n_classes=3, num_runs=num_runs, subset_size=60, seed=4)
        extract_bundles(truth.image_noisy, cfg)
        return runs, clusters[0]

    def test_seed_streams_distinct_with_many_runs(self, monkeypatch):
        runs, cluster_seed = self._recorded_seeds(monkeypatch, 12)
        assert len(runs) == 12
        assert len(set(runs + [cluster_seed])) == 13

    def test_seed_streams_unchanged_up_to_nine_runs(self, monkeypatch):
        runs, cluster_seed = self._recorded_seeds(monkeypatch, 9)
        streams = np.random.SeedSequence(4).generate_state(9 + 11)
        assert runs == [int(s) for s in streams[1:10]]
        assert cluster_seed == int(streams[10])
