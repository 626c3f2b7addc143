#!/usr/bin/env python3
"""Full benchmark study: 50x50 scene, 100 bands, 3 materials with mixed
variability modes at 30 dB, 10 Monte Carlo repetitions.

Writes everything under --out (default bench_out/): report.csv,
report.md, per-run artifact trees, and bench_config.json, the full
config, so `varimix bench --config <out>/bench_config.json` reruns the
study; then prints report.md. Rerunning with the same arguments
reproduces the CSVs byte for byte.
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from varimix.bench import BenchConfig, RosterEntry, run_bench
from varimix.extraction import BundleExtractionConfig
from varimix.io import save_library
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    SceneConfig,
    VariabilityConfig,
    synthetic_base_spectra,
)


def build_config(out_dir: Path, n_bands: int, runs: int, master_seed: int) -> BenchConfig:
    out_dir.mkdir(parents=True, exist_ok=True)
    base = synthetic_base_spectra(n_bands, 3, seed=123)
    base_path = out_dir / "base_library.csv"
    save_library(base, base_path)
    scene = SceneConfig(
        height=50,
        width=50,
        base_library=str(base_path),
        abundance=AbundanceFieldConfig(
            generator="grf", correlation_length=6, sharpness=0.08,
            pure_pixel_fraction=0.03,
        ),
        variability=VariabilityConfig(
            class_modes=(
                ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.6, 1.0)),
                ClassVariability("atmospheric", mu1_range=(0.4, 1.0)),
                ClassVariability("elmm_scaling", scale_range=(0.75, 1.25)),
            ),
            n_variants=5,
        ),
        snr_db=30.0,
        name="bench_scene",
    )
    return BenchConfig(
        scene=scene,
        extraction=BundleExtractionConfig(n_classes=3, num_runs=5, subset_size=500),
        roster=(
            RosterEntry("fcls", "fcls"),
            RosterEntry("mesma", "mesma"),
            RosterEntry("sparse-l1", "sparse-l1", options={"lambda_sparse": 1e-3}),
            RosterEntry("elmm", "elmm",
                        options={"max_iters": 30, "lambda_m": 1.0, "lambda_psi": 0.5}),
            # reference matrix for the perturbation solver comes from the
            # class means of the pooled bundle library
            RosterEntry("plmm", "plmm", library_source="extracted-bundles",
                        options={"max_iters": 30, "gamma_plmm": 0.1}),
        ),
        n_monte_carlo=runs,
        master_seed=master_seed,
        output_dir=str(out_dir),
    )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="bench_out")
    ap.add_argument("--bands", type=int, default=100,
                    help="band count (100 desk scale, 198 full)")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--paper-scale", action="store_true",
                    help="scale RMSE columns by 1e4 in report.md")
    args = ap.parse_args()

    out_dir = Path(args.out)
    cfg = build_config(out_dir, args.bands, args.runs, args.seed)
    (out_dir / "bench_config.json").write_text(json.dumps(asdict(cfg), indent=1))

    start = time.time()
    report = run_bench(cfg, paper_scale=args.paper_scale)
    print(f"finished in {time.time() - start:.0f}s")
    print((out_dir / "report.md").read_text(), end="")
    failed = report.metadata["failed_cells"]
    print(f"report: {out_dir / 'report.md'} ({len(failed)} failed cells)")
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
