#!/usr/bin/env python3
"""Minimal end-to-end walkthrough: synthesize a small variable-endmember
scene on a non-square 30 x 24 grid, extract a library from the image,
unmix with the baseline and three variability-aware solvers (MESMA,
ELMM, PLMM), and print the scores."""

import numpy as np

from varimix.bench import eval_result
from varimix.extraction import BundleExtractionConfig, extract_bundles, extract_endmembers
from varimix.solvers import SolverOptions, elmm_unmix, fcls, mesma, plmm_unmix
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    VariabilityConfig,
    synthesize_scene,
    synthetic_base_spectra,
)

base = synthetic_base_spectra(n_bands=80, n_classes=3, seed=1)
variability = VariabilityConfig(
    class_modes=(
        ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.6, 1.0)),
        ClassVariability("atmospheric", mu1_range=(0.4, 1.0)),
        ClassVariability("elmm_scaling", scale_range=(0.8, 1.2)),
    ),
    n_variants=5,
)
abundances = AbundanceFieldConfig(generator="grf", correlation_length=5,
                                  sharpness=0.08, pure_pixel_fraction=0.05)
truth = synthesize_scene(base, abundances, variability, snr_db=30.0,
                         seed=7, height=30, width=24)
print(f"scene: {truth.image_noisy.data.shape}, "
      f"{truth.abundances.n_classes} materials at 30 dB")

vca_set, _ = extract_endmembers(truth.image_noisy, 3, seed=2)
library = extract_bundles(
    truth.image_noisy,
    BundleExtractionConfig(n_classes=3, num_runs=5, subset_size=300, seed=3),
)
print(f"extracted library: {library.sizes} signatures per class")

runs = [
    ("fcls", fcls(truth.image_noisy, vca_set.T), vca_set),
    ("mesma", mesma(truth.image_noisy, library), library.class_means()),
    ("elmm", elmm_unmix(truth.image_noisy, vca_set.T,
                        SolverOptions(max_iters=30, lambda_m=1.0, lambda_psi=0.5)),
     vca_set),
    ("plmm", plmm_unmix(truth.image_noisy, library.class_means().T,
                        SolverOptions(max_iters=30, gamma_plmm=0.1)),
     library.class_means()),
]
for name, result, means in runs:
    row = eval_result(truth, result, class_means=np.asarray(means))
    extra = "" if row["sam_M"] is None else f"  SAM_M={row['sam_M']:.4f}"
    print(f"{name:6s} RMSE_A={row['rmse_A']:.4f}  RMSE_Y={row['rmse_Y']:.4f}{extra}")
