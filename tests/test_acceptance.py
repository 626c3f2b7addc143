"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
the criteria complete. The ordering benchmark (criterion 5) runs a full
10-repetition Monte Carlo study and takes a couple of minutes.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from varimix.bench import BenchConfig, RosterEntry, run_bench
from varimix.extraction import BundleExtractionConfig, extract_bundles, extract_endmembers
from varimix.io import save_library
from varimix.libops import count_based_reduce, music_prune
from varimix.metrics import pairwise_angles, rmse
from varimix.solvers import (
    SolverOptions,
    elmm_unmix,
    fcls,
    kkt_residual_l1,
    mesma,
    plmm_unmix,
    sparse_su_l1,
)
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    SceneConfig,
    VariabilityConfig,
    atmospheric_reflectance,
    hapke_reflectance,
    synthesize_scene,
    synthetic_base_spectra,
    truth_variant_library,
)
from varimix.types import SpectralImage, SpectralLibrary

from conftest import make_scene
from oracles import _elmm_cost, grid_laplacian, mesma_oracle_batch

from scipy.optimize import nnls as scipy_nnls


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _bench_variability():
    return VariabilityConfig(class_modes=(
        ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.6, 1.0)),
        ClassVariability("atmospheric", mu1_range=(0.4, 1.0)),
        ClassVariability("elmm_scaling", scale_range=(0.75, 1.25))),
        n_variants=5)


def test_criterion_1_exact_inversion():
    truth = make_scene(n_bands=50, n_classes=3, height=10, width=20,
                       snr_db=float("inf"), seed=101, n_variants=1,
                       modes=tuple(ClassVariability("none") for _ in range(3)))
    matrix = truth.endmembers.data[0]           # shared truth matrix
    start = time.perf_counter()
    res = fcls(truth.image_noisy, matrix)
    wall = time.perf_counter() - start
    err = rmse(res.abundances.data, truth.abundances.data)
    _report(1, err < 1e-6 and wall < 1.0,
            f"RMSE_A={err:.2e}, runtime={wall:.3f}s on 200 noiseless pixels")


def test_criterion_2_mesma_oracle_equivalence():
    base = synthetic_base_spectra(40, 3, seed=7)
    var = VariabilityConfig(class_modes=(
        ClassVariability("hapke", mu1_range=(0.7, 1.0), mu2_range=(0.7, 1.0)),
        ClassVariability("atmospheric", mu1_range=(0.5, 1.0)),
        ClassVariability("elmm_scaling", scale_range=(0.85, 1.15))),
        n_variants=3, seed=31)
    ab = AbundanceFieldConfig(generator="dirichlet", alpha=(1.0, 1.0, 1.0), seed=32)
    truth = synthesize_scene(base, ab, var, snr_db=float("inf"), seed=33,
                             height=20, width=25)
    lib = truth_variant_library(truth)
    assert lib.sizes == (3, 3, 3)

    res = mesma(truth.image_noisy, lib)
    err = rmse(res.abundances.data, truth.abundances.data)

    # generating model per pixel, recovered against the same sorted library
    variants = np.stack([c.signatures for c in lib.classes])     # (P, K, L)
    gen = np.zeros((truth.abundances.n_pixels, 3), dtype=int)
    for p in range(3):
        diffs = np.abs(
            truth.endmembers.data[:, None, :, p] - variants[p][None, :, :]
        ).sum(axis=2)
        gen[:, p] = np.argmin(diffs, axis=1)
    match = np.mean(np.all(res.selected_model == gen, axis=1))

    a_o, combo_o, re_o = mesma_oracle_batch(truth.image_noisy.pixels, lib)
    same_model = np.array_equal(res.selected_model, combo_o)
    same_a = np.max(np.abs(res.abundances.data - a_o))
    _report(2, err < 1e-6 and match >= 0.99 and same_model and same_a < 1e-8,
            f"RMSE_A={err:.2e}, model match={match:.3f}, "
            f"oracle identical on every pixel (max |dA|={same_a:.1e})")


def test_criterion_3_sparse_reductions(rng):
    lib = SpectralLibrary.from_arrays(
        ["a", "b", "c"], [rng.uniform(0.05, 1.0, size=(4, 30)) for _ in range(3)]
    )
    m, _ = lib.flatten()
    y = rng.uniform(0, 1, size=(50, 30))
    img = SpectralImage(y.reshape(1, 50, 30))

    res0 = sparse_su_l1(img, lib, SolverOptions(lambda_sparse=0.0))
    worst_nnls = 0.0
    for i in range(50):
        ref, _ = scipy_nnls(m.T, y[i])
        worst_nnls = max(worst_nnls, float(np.max(np.abs(res0.raw_abundances.data[i] - ref))))

    lam_big = float(np.max(y @ m.T)) * 1.000001
    res_big = sparse_su_l1(img, lib, SolverOptions(lambda_sparse=lam_big))
    zero_out = float(np.max(res_big.raw_abundances.data))

    lam = 0.02
    res = sparse_su_l1(img, lib, SolverOptions(lambda_sparse=lam))
    act, inact, scale = kkt_residual_l1(y, m.T, res.raw_abundances.data, lam)
    _report(3, worst_nnls < 1e-6 and zero_out == 0.0
            and act <= 1e-5 * scale and inact <= 1e-5 * scale,
            f"NNLS match {worst_nnls:.1e}, zero at large lambda, "
            f"KKT act={act:.1e} inact={inact:.1e} (scale {scale:.2f})")


def test_criterion_4_alternating_monotonicity(rng):
    all_monotone = True
    for seed in range(20):
        truth = make_scene(n_bands=16, height=5, width=6,
                           snr_db=float(15 + (seed % 4) * 5), seed=900 + seed)
        m0 = truth.endmembers.class_means().T
        r_e = elmm_unmix(truth.image_noisy, m0, SolverOptions(max_iters=10))
        r_p = plmm_unmix(truth.image_noisy, m0,
                         SolverOptions(max_iters=10, gamma_plmm=0.5))
        all_monotone &= bool(np.all(np.diff(r_e.solver_log.cost_history) <= 0))
        all_monotone &= bool(np.all(np.diff(r_p.solver_log.cost_history) <= 0))

    # noiseless data generated exactly under the scaled-reference model
    h, w, l, p = 8, 8, 16, 3
    m0 = rng.uniform(0.1, 1.0, size=(l, p))
    gx = np.linspace(0, 1, h)[:, None] * np.ones((1, w))
    psi = np.stack([1.0 + 0.1 * np.sin(2 * np.pi * (gx + j / p)).ravel()
                    for j in range(p)], axis=1)
    a = rng.dirichlet(np.ones(p), size=h * w)
    m_n = m0[None, :, :] * psi[:, None, :]
    y = np.einsum("nlp,np->nl", m_n, a)
    opts = SolverOptions(max_iters=400, tol=1e-9, lambda_m=1.0, lambda_psi=0.05)
    res = elmm_unmix(SpectralImage(y.reshape(h, w, l)), m0, opts)
    truth_cost = _elmm_cost(y, m0, grid_laplacian(h, w),
                            opts.lambda_m, opts.lambda_psi, (a, psi, m_n))
    beats = res.solver_log.final_cost <= truth_cost
    _report(4, all_monotone and beats,
            f"20 scenes monotone, final cost {res.solver_log.final_cost:.4f} "
            f"<= truth cost {truth_cost:.4f}")


def test_criterion_5_solver_ordering(tmp_path):
    base = synthetic_base_spectra(100, 3, seed=123)
    save_library(base, tmp_path / "base.csv")
    scene = SceneConfig(
        height=50, width=50, base_library=str(tmp_path / "base.csv"),
        abundance=AbundanceFieldConfig(generator="grf", correlation_length=6,
                                       sharpness=0.08, pure_pixel_fraction=0.03),
        variability=_bench_variability(),
        snr_db=30.0)
    cfg = BenchConfig(
        scene=scene,
        extraction=BundleExtractionConfig(n_classes=3, num_runs=5, subset_size=500),
        roster=(
            RosterEntry("fcls", "fcls"),
            RosterEntry("mesma", "mesma"),
            RosterEntry("sparse-l1", "sparse-l1", options={"lambda_sparse": 1e-3}),
            RosterEntry("elmm", "elmm",
                        options={"max_iters": 30, "lambda_m": 1.0, "lambda_psi": 0.5}),
            RosterEntry("plmm", "plmm", library_source="extracted-bundles",
                        options={"max_iters": 30, "gamma_plmm": 0.1}),
        ),
        n_monte_carlo=10, master_seed=2026,
        output_dir=str(tmp_path / "bench"), keep_run_artifacts=False)
    start = time.perf_counter()
    report = run_bench(cfg)
    wall = time.perf_counter() - start
    med = {n: r.rmse_a_median for n, r in report.rows.items()}
    orderings = (
        med["mesma"] < med["fcls"]
        and med["sparse-l1"] < med["fcls"]
        and med["elmm"] < med["fcls"]
        and med["plmm"] < med["fcls"]
        and med["mesma"] < med["elmm"]
        and med["sparse-l1"] < med["elmm"]
    )
    no_failures = not report.metadata["failed_cells"]
    _report(5, orderings and no_failures and wall < 300.0,
            "median RMSE_A: " + ", ".join(f"{k}={v:.4f}" for k, v in med.items())
            + f"; wall={wall:.0f}s")


def test_criterion_6_radiative_identities(rng):
    w = np.array([0.0, 1.0])
    endpoint_err = float(np.max(np.abs(hapke_reflectance(w, 0.35, 0.8) - w)))
    mid = hapke_reflectance(np.array([0.5]), 1.0, 1.0)[0]
    y = rng.uniform(0, 1, size=64)
    id1 = float(np.max(np.abs(atmospheric_reflectance(y, 0.6, 0.6, 1.1, 0.3) - y)))
    id2 = float(np.max(np.abs(atmospheric_reflectance(y, 0.4, 0.9, 0.0, 0.2) - y)))
    _report(6, endpoint_err <= 1e-12 and id1 <= 1e-12 and id2 <= 1e-12
            and abs(mid - 0.0857864) < 1e-6,
            f"endpoints {endpoint_err:.1e}, identities {max(id1, id2):.1e}, "
            f"midpoint {mid:.7f}")


def test_criterion_7_synthesis_snr():
    base = synthetic_base_spectra(100, 3, seed=123)
    ab = AbundanceFieldConfig(generator="grf", correlation_length=6,
                              sharpness=0.08, pure_pixel_fraction=0.03)
    worst = 0.0
    for seed in range(10):
        truth = synthesize_scene(base, ab, _bench_variability(), snr_db=30.0,
                                 seed=seed, height=50, width=50)
        noise = truth.image_noisy.data - truth.image_clean.data
        snr = 10 * math.log10(np.sum(truth.image_clean.data**2) / np.sum(noise**2))
        worst = max(worst, abs(snr - 30.0))
    _report(7, worst < 0.3, f"worst |SNR - 30 dB| = {worst:.4f} over 10 runs")


def test_criterion_8_extraction_recovery():
    truth = make_scene(n_bands=40, height=20, width=25, snr_db=float("inf"),
                       pure_fraction=0.08, seed=801)
    sigs, _ = extract_endmembers(truth.image_noisy, 3, seed=0)
    realized = np.unique(
        truth.endmembers.data.transpose(0, 2, 1).reshape(-1, 40), axis=0
    )
    worst_angle = float(pairwise_angles(sigs, realized).min(axis=1).max())

    # well-separated fixture: orthogonal-ish bases, tight scaling spread
    x = np.linspace(0, 1, 40)
    bases = np.stack([
        0.05 + 0.85 * np.exp(-0.5 * ((x - c) / 0.09) ** 2) for c in (0.15, 0.5, 0.85)
    ])
    assert pairwise_angles(bases, bases)[~np.eye(3, dtype=bool)].min() > 0.3
    lib_base = SpectralLibrary.from_arrays(["a", "b", "c"], [b[None] for b in bases])
    var = VariabilityConfig(class_modes=tuple(
        ClassVariability("elmm_scaling", scale_range=(0.96, 1.04))
        for _ in range(3)), n_variants=4, seed=5)
    ab = AbundanceFieldConfig(generator="dirichlet", alpha=(1, 1, 1),
                              pure_pixel_fraction=0.1, seed=6)
    sep = synthesize_scene(lib_base, ab, var, snr_db=float("inf"), seed=7,
                           height=20, width=30)
    lib = extract_bundles(sep.image_noisy,
                          BundleExtractionConfig(3, num_runs=5, subset_size=200, seed=8))
    pure = True
    for cls in lib.classes:
        owners = pairwise_angles(cls.signatures, bases).argmin(axis=1)
        pure &= len(set(owners.tolist())) == 1
    _report(8, worst_angle < 1e-6 and pure,
            f"max extraction SAM={worst_angle:.2e} rad, clustering purity 100%: {pure}")


def test_criterion_9_pruning(rng):
    truth = make_scene(n_bands=30, height=8, width=12, snr_db=float("inf"),
                       n_variants=1, seed=901,
                       modes=tuple(ClassVariability("none") for _ in range(3)))
    ems = truth.endmembers.class_means()
    pixels = truth.image_noisy.pixels
    mean = pixels.mean(axis=0)
    u, _, _ = np.linalg.svd((pixels - mean).T, full_matrices=True)
    v = rng.uniform(0.1, 1.0, size=30)
    intruder = mean + (v - u[:, :3] @ (u[:, :3].T @ v))
    lib = SpectralLibrary.from_arrays(
        ["a", "b", "c"],
        [np.stack([ems[0], intruder]), ems[1][None], ems[2][None]],
    )
    pruned = music_prune(lib, truth.image_noisy, subspace_dim=3,
                         residual_threshold=0.9)
    music_ok = pruned.sizes == (1, 1, 1) and np.array_equal(
        pruned.classes[0].signatures[0], ems[0])

    cluster1 = np.array([[1.0, 0.01, 0.0], [1.0, 0.02, 0.0], [1.0, 0.015, 0.0]])
    cluster2 = np.array([[0.01, 1.0, 0.0], [0.02, 1.0, 0.0]])
    two = SpectralLibrary.from_arrays(["m"], [np.concatenate([cluster1, cluster2])])
    red = count_based_reduce(two, angle_threshold=0.1, target_per_class=5)
    kept = red.classes[0].signatures
    count_ok = (
        red.sizes == (2,)
        and pairwise_angles(kept, cluster1).min() < 0.1
        and pairwise_angles(kept, cluster2).min() < 0.1
    )
    _report(9, music_ok and count_ok,
            f"music pruning kept in-subspace and dropped the orthogonal intruder: "
            f"{music_ok}; count-based kept one per angular cluster: {count_ok}")


def _run_cli_pipeline(workdir, threads):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    script = f"""
import sys
from varimix.cli import main
base = r"{workdir}"
assert main(["synth", "--config", base + "/scene.json", "--out", base + "/scene_t{threads}"]) == 0
assert main(["extract", "--image", base + "/scene_t{threads}", "--classes", "3",
             "--runs", "3", "--subset", "80", "--seed", "5",
             "--out", base + "/lib_t{threads}.csv"]) == 0
assert main(["unmix", "--image", base + "/scene_t{threads}", "--algo", "mesma",
             "--library", base + "/lib_t{threads}.csv",
             "--out", base + "/out_t{threads}"]) == 0
"""
    subprocess.run([sys.executable, "-c", script], check=True, env=env,
                   capture_output=True)
    return [
        (workdir / f"scene_t{threads}" / "abundances.bin").read_bytes(),
        (workdir / f"lib_t{threads}.csv").read_bytes(),
        (workdir / f"out_t{threads}" / "abundances.csv").read_bytes(),
    ]


def test_criterion_10_cli_byte_determinism(tmp_path):
    base = synthetic_base_spectra(24, 3, seed=7)
    save_library(base, tmp_path / "base.csv")
    scene_cfg = {
        "name": "det", "height": 10, "width": 10, "snr_db": 30.0, "seed": 42,
        "base_library": str(tmp_path / "base.csv"),
        "abundance": {"generator": "dirichlet", "alpha": [1, 1, 1],
                      "pure_pixel_fraction": 0.1, "seed": None},
        "variability": {"n_variants": 3, "seed": None, "class_modes": [
            {"mode": "hapke", "mu1_range": [0.7, 1.0], "mu2_range": [0.7, 1.0]},
            {"mode": "atmospheric", "mu1_range": [0.5, 1.0]},
            {"mode": "elmm_scaling", "scale_range": [0.85, 1.15]},
        ]},
    }
    (tmp_path / "scene.json").write_text(json.dumps(scene_cfg))
    outputs_1 = _run_cli_pipeline(tmp_path, threads=1)
    outputs_4 = _run_cli_pipeline(tmp_path, threads=4)
    identical = all(a == b for a, b in zip(outputs_1, outputs_4))
    _report(10, identical,
            "scene, library, and abundance CSVs byte-identical across "
            "1-thread and 4-thread reruns")
