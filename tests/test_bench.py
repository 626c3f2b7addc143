import json
from dataclasses import replace

import numpy as np
import pytest

from varimix.bench import (
    BenchConfig,
    RosterEntry,
    align_classes,
    eval_result,
    run_bench,
)
from varimix.extraction import BundleExtractionConfig
from varimix.io import load_config, save_library
from varimix.solvers import SolverLog, UnmixingResult, fcls
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    SceneConfig,
    VariabilityConfig,
    synthetic_base_spectra,
)
from varimix.types import AbundanceMap, EndmemberField, SpectralLibrary

from conftest import make_scene


def _result_from_truth(truth):
    recon = truth.image_clean.pixels.copy()
    return UnmixingResult(
        abundances=truth.abundances,
        per_pixel_re=np.zeros(truth.abundances.n_pixels),
        reconstruction=recon,
        solver_log=SolverLog(),
        endmembers=truth.endmembers,
    )


class TestEvalResult:
    def test_truth_repackaged_scores_zero(self):
        truth = make_scene(height=4, width=6)
        row = eval_result(truth, _result_from_truth(truth))
        assert row["rmse_A"] == 0.0
        assert row["rmse_Y"] == 0.0
        assert row["rmse_M"] == 0.0
        assert row["sam_M"] == 0.0

    def test_alignment_undoes_permutation(self):
        truth = make_scene(height=4, width=6)
        perm = np.array([2, 0, 1])
        res = UnmixingResult(
            abundances=AbundanceMap(truth.abundances.data[:, perm]),
            per_pixel_re=np.zeros(truth.abundances.n_pixels),
            reconstruction=truth.image_clean.pixels.copy(),
            solver_log=SolverLog(),
            endmembers=EndmemberField(truth.endmembers.data[:, :, perm]),
        )
        means = truth.endmembers.class_means()[perm]
        row = eval_result(truth, res, class_means=means)
        assert row["rmse_A"] < 1e-12
        assert row["rmse_M"] < 1e-12

    def test_fcls_row_has_no_endmember_metrics(self):
        truth = make_scene(height=4, width=6, snr_db=25.0)
        m = truth.endmembers.class_means().T
        res = fcls(truth.image_noisy, m)
        row = eval_result(truth, res, class_means=m.T)
        assert row["rmse_M"] is None and row["sam_M"] is None
        assert row["rmse_A"] > 0

    def test_class_count_mismatch(self):
        truth = make_scene(height=4, width=6)
        bad = UnmixingResult(
            abundances=AbundanceMap(np.full((24, 2), 0.5)),
            per_pixel_re=np.zeros(24),
            reconstruction=truth.image_clean.pixels.copy(),
            solver_log=SolverLog(),
        )
        with pytest.raises(Exception):
            eval_result(truth, bad)

    def test_align_classes_identity(self, rng):
        means = rng.uniform(0.1, 1.0, size=(3, 10))
        assert np.array_equal(align_classes(means, means), [0, 1, 2])


def _tiny_bench_cfg(tmp_path, n_mc=2, roster=None):
    base = synthetic_base_spectra(24, 3, seed=7)
    save_library(base, tmp_path / "base.csv")
    scene = SceneConfig(
        height=10, width=10, base_library=str(tmp_path / "base.csv"),
        abundance=AbundanceFieldConfig(generator="dirichlet", alpha=(1, 1, 1),
                                       pure_pixel_fraction=0.1),
        variability=VariabilityConfig(class_modes=(
            ClassVariability("elmm_scaling", scale_range=(0.9, 1.1)),
            ClassVariability("elmm_scaling", scale_range=(0.9, 1.1)),
            ClassVariability("glmm_scaling", scale_range=(0.9, 1.1))),
            n_variants=3),
        snr_db=30.0)
    if roster is None:
        roster = (
            RosterEntry("fcls", "fcls"),
            RosterEntry("mesma-true", "mesma", library_source="truth-variants"),
        )
    return BenchConfig(
        scene=scene,
        extraction=BundleExtractionConfig(n_classes=3, num_runs=2, subset_size=60),
        roster=roster,
        n_monte_carlo=n_mc,
        master_seed=100,
        output_dir=str(tmp_path / "out"),
    )


# FCLS emits no field; sparse L0 with a support larger than the library fails every run
_ROSTER_WITH_FAILURE = (
    RosterEntry("fcls", "fcls"),
    RosterEntry("mesma-true", "mesma", library_source="truth-variants"),
    RosterEntry("bad", "sparse-l0", library_source="truth-variants", options={"k": 500}),
)


class TestRunBench:
    def test_exact_inversion_row(self, tmp_path):
        base = synthetic_base_spectra(24, 3, seed=7)
        save_library(base, tmp_path / "base.csv")
        scene = SceneConfig(
            height=8, width=8, base_library=str(tmp_path / "base.csv"),
            abundance=AbundanceFieldConfig(generator="dirichlet", alpha=(1, 1, 1)),
            variability=VariabilityConfig(class_modes=tuple(
                ClassVariability("none") for _ in range(3)), n_variants=1),
            snr_db=None)
        cfg = BenchConfig(
            scene=scene,
            roster=(RosterEntry("fcls", "fcls", library_source="truth-variants"),),
            n_monte_carlo=1, master_seed=5, output_dir=str(tmp_path / "out"))
        report = run_bench(cfg)
        assert report.rows["fcls"].rmse_a_mean < 1e-6

    def test_scene_digest_follows_library_content_not_path(self, tmp_path):
        def digest(work, base_seed=7):
            work.mkdir(exist_ok=True)
            save_library(synthetic_base_spectra(12, 3, seed=base_seed), work / "base.csv")
            scene = SceneConfig(
                height=3, width=4, base_library=str(work / "base.csv"),
                abundance=AbundanceFieldConfig(generator="dirichlet", alpha=(1, 1, 1)),
                variability=VariabilityConfig(class_modes=tuple(
                    ClassVariability("none") for _ in range(3)), n_variants=1))
            cfg = BenchConfig(scene=scene, roster=(RosterEntry("fcls", "fcls"),),
                              output_dir=str(work / "out"), keep_run_artifacts=False)
            return run_bench(cfg).metadata["scene_digest"]

        first = digest(tmp_path / "a")
        assert digest(tmp_path / "b") == first
        assert digest(tmp_path / "a", base_seed=8) != first

    def test_scene_digest_same_for_integer_and_float_spelling(self, tmp_path):
        save_library(synthetic_base_spectra(12, 3, seed=7), tmp_path / "base.csv")
        scene = {"height": 6, "width": 5, "base_library": str(tmp_path / "base.csv"),
                 "abundance": {"generator": "grf", "correlation_length": 3},
                 "variability": {"n_variants": 2, "class_modes": [
                     {"mode": "elmm_scaling"}, {"mode": "none"}, {"mode": "none"}]}}

        def run(cfg):
            report = run_bench(cfg)
            return report.metadata["scene_digest"], (tmp_path / "out" / "report.csv").read_bytes()

        def loaded(length):
            doc = {"scene": {**scene, "abundance": {"generator": "grf",
                                                    "correlation_length": length}},
                   "roster": [{"name": "fcls", "algo": "fcls"}],
                   "output_dir": str(tmp_path / "out"), "keep_run_artifacts": False}
            return load_config(BenchConfig, json.loads(json.dumps(doc)))

        built = BenchConfig(scene=SceneConfig(
            6, 5, scene["base_library"], AbundanceFieldConfig("grf", correlation_length=3),
            VariabilityConfig((ClassVariability("elmm_scaling"), ClassVariability("none"),
                               ClassVariability("none")), n_variants=2)),
            roster=(RosterEntry("fcls", "fcls"),), output_dir=str(tmp_path / "out"),
            keep_run_artifacts=False)
        assert built == loaded(3) == loaded(3.0)
        assert run(loaded(3)) == run(loaded(3.0)) == run(built)

    def test_report_files_and_structure(self, tmp_path):
        cfg = _tiny_bench_cfg(tmp_path)
        report = run_bench(cfg)
        out = tmp_path / "out"
        assert (out / "report.csv").exists()
        assert (out / "report.md").exists()
        assert not (out / "plots").exists()
        assert (out / "runs" / "0" / "scene" / "truth_meta.json").exists()
        assert (out / "runs" / "1" / "mesma-true" / "abundances.csv").exists()
        assert report.metadata["seeds"] == [100, 101]
        # fcls row leaves endmember metrics empty, mesma fills them
        assert report.rows["fcls"].rmse_m_mean is None
        assert report.rows["mesma-true"].rmse_m_mean is not None

    def test_identical_rerun_is_byte_identical(self, tmp_path):
        cfg = _tiny_bench_cfg(tmp_path)
        run_bench(cfg)
        first = (tmp_path / "out" / "report.csv").read_bytes()
        abunds1 = (tmp_path / "out" / "runs" / "0" / "fcls" / "abundances.csv").read_bytes()
        run_bench(cfg)
        assert (tmp_path / "out" / "report.csv").read_bytes() == first
        assert (tmp_path / "out" / "runs" / "0" / "fcls" /
                "abundances.csv").read_bytes() == abunds1

    def test_report_csv_bytes(self, tmp_path):
        # fcls leaves the field scores empty; an entry that fails in every
        # run leaves every score empty
        report = run_bench(_tiny_bench_cfg(tmp_path, n_mc=2, roster=_ROSTER_WITH_FAILURE))
        fcls, mesma = report.rows["fcls"], report.rows["mesma-true"]

        def cells(*values):
            return ",".join("%.17g" % v for v in values)

        assert (tmp_path / "out" / "report.csv").read_text() == (
            "algorithm,rmse_a_mean,rmse_a_median,rmse_m_mean,rmse_m_median,"
            "sam_m_mean,sam_m_median,rmse_y_mean,rmse_y_median,n_failed\n"
            f"fcls,{cells(fcls.rmse_a_mean, fcls.rmse_a_median)},,,,,"
            f"{cells(fcls.rmse_y_mean, fcls.rmse_y_median)},0\n"
            f"mesma-true,{cells(mesma.rmse_a_mean, mesma.rmse_a_median, mesma.rmse_m_mean)},"
            f"{cells(mesma.rmse_m_median, mesma.sam_m_mean, mesma.sam_m_median)},"
            f"{cells(mesma.rmse_y_mean, mesma.rmse_y_median)},0\n"
            "bad,,,,,,,,,2\n")

    def test_report_md_paper_scale(self, tmp_path):
        cfg = _tiny_bench_cfg(tmp_path, n_mc=1, roster=_ROSTER_WITH_FAILURE)
        report = run_bench(cfg, paper_scale=True)
        md = (tmp_path / "out" / "report.md").read_text().splitlines()
        assert md[0] == "# Benchmark report (RMSE columns scaled by 1e4)"
        assert "| Algorithm | RMSE_A | RMSE_M | SAM_M | RMSE_Y | Time [s] |" in md
        fcls, mesma = report.rows["fcls"], report.rows["mesma-true"]
        assert (f"| fcls | {fcls.rmse_a_mean * 1e4:.4g} | -- | -- | "
                f"{fcls.rmse_y_mean * 1e4:.4g} | {fcls.runtime_mean:.2f} |") in md
        assert (f"| mesma-true | {mesma.rmse_a_mean * 1e4:.4g} | {mesma.rmse_m_mean * 1e4:.4g} | "
                f"{mesma.sam_m_mean:.4g} | {mesma.rmse_y_mean * 1e4:.4g} | "
                f"{mesma.runtime_mean:.2f} |") in md
        assert "| bad | -- | -- | -- | -- | 0.00 |" in md
        run_bench(cfg)
        md = (tmp_path / "out" / "report.md").read_text().splitlines()
        assert md[0] == "# Benchmark report"
        assert any(ln.startswith(f"| fcls | {fcls.rmse_a_mean:.4g} | -- | -- |") for ln in md)

    def test_failed_cell_continues(self, tmp_path):
        roster = (
            RosterEntry("fcls", "fcls"),
            RosterEntry("bad", "sparse-l0", library_source="truth-variants",
                        options={"k": 500}),     # invalid support size
        )
        cfg = _tiny_bench_cfg(tmp_path, n_mc=2, roster=roster)
        report = run_bench(cfg)
        assert len(report.metadata["failed_cells"]) == 2
        assert report.rows["fcls"].n_failed == 0
        assert report.rows["bad"].n_failed == 2
        # failure records carry the seed for standalone reproduction
        assert report.metadata["failed_cells"][0]["seed"] == 100

    def test_transform_with_no_output_band_fails_each_cell(self, tmp_path):
        roster = (RosterEntry("fcls", "fcls", library_source="truth-variants"),)
        cfg = replace(_tiny_bench_cfg(tmp_path, n_mc=1, roster=roster),
                      transform={"method": "mask", "threshold": 0.0})
        report = run_bench(cfg)
        assert report.metadata["failed_cells"] == [{
            "run": 0, "algorithm": "fcls", "seed": 100,
            "error": "ValueError: mask transform has no output band"}]
        assert report.rows["fcls"].n_failed == 1

    def test_weights_transform_with_no_positive_weight_fails_each_cell(self, tmp_path):
        base = synthetic_base_spectra(24, 2, seed=7)
        save_library(base, tmp_path / "base.csv")
        # two classes holding the same two signatures, so their means agree
        sigs = base.class_means()
        save_library(SpectralLibrary.from_arrays("ab", [sigs, sigs[::-1]]), tmp_path / "same.csv")
        scene = SceneConfig(
            height=4, width=4, base_library=str(tmp_path / "base.csv"),
            abundance=AbundanceFieldConfig(generator="dirichlet", alpha=(1, 1)),
            variability=VariabilityConfig(class_modes=(
                ClassVariability("none"), ClassVariability("none")), n_variants=1))
        cfg = BenchConfig(
            scene=scene, transform={"method": "weights"},
            roster=(RosterEntry("fcls", "fcls", library_source="file",
                                library_path=str(tmp_path / "same.csv")),),
            master_seed=100, output_dir=str(tmp_path / "out"))
        report = run_bench(cfg)
        assert report.metadata["failed_cells"] == [{
            "run": 0, "algorithm": "fcls", "seed": 100,
            "error": "LinAlgError: class means agree up to rounding: no between-class scatter"}]
        assert report.rows["fcls"].n_failed == 1

    def test_config_round_trip_from_json(self, tmp_path):
        cfg = _tiny_bench_cfg(tmp_path)
        doc = {
            "scene": cfg.scene.to_dict(),
            "extraction": {"n_classes": 3, "num_runs": 2, "subset_size": 60},
            "roster": [{"name": "fcls", "algo": "fcls"}],
            "n_monte_carlo": 1,
            "master_seed": 3,
            "output_dir": str(tmp_path / "out2"),
        }
        parsed = load_config(BenchConfig, json.loads(json.dumps(doc)))
        report = run_bench(parsed)
        assert "fcls" in report.rows
