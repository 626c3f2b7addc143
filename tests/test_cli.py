import json
import os
import subprocess
import sys

import numpy as np
import pytest

from varimix.cli import build_parser, main
from varimix.extraction import BundleExtractionConfig, extract_bundles
from varimix.io import load_abundances, load_library, resolve_image, save_image, save_library
from varimix.synth import synthetic_base_spectra
from varimix.types import DegenerateGeometryWarning, SpectralImage, SpectralLibrary


def _scene_config(tmp_path, height=12, width=12, bands=24):
    base = synthetic_base_spectra(bands, 3, seed=7)
    save_library(base, tmp_path / "base.csv")
    return {
        "name": "cli_scene",
        "height": height,
        "width": width,
        "snr_db": 30.0,
        "seed": 77,
        "base_library": str(tmp_path / "base.csv"),
        "abundance": {
            "generator": "dirichlet",
            "alpha": [1.0, 1.0, 1.0],
            "pure_pixel_fraction": 0.1,
            "seed": None,
        },
        "variability": {
            "n_variants": 3,
            "seed": None,
            "class_modes": [
                {"mode": "hapke", "mu1_range": [0.7, 1.0], "mu2_range": [0.7, 1.0]},
                {"mode": "atmospheric", "mu1_range": [0.5, 1.0]},
                {"mode": "elmm_scaling", "scale_range": [0.85, 1.15]},
            ],
        },
    }


@pytest.fixture
def scene_dir(tmp_path):
    cfg = _scene_config(tmp_path)
    (tmp_path / "scene.json").write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(tmp_path / "scene.json"),
                 "--out", str(tmp_path / "scene")]) == 0
    return tmp_path


def test_synth_writes_scene(scene_dir):
    assert (scene_dir / "scene" / "image_noisy.json").exists()
    assert (scene_dir / "scene" / "truth_meta.json").exists()


def test_extract_prune_transform_unmix_pipeline(scene_dir):
    scene = str(scene_dir / "scene")
    lib = str(scene_dir / "lib.csv")
    assert main(["extract", "--image", scene, "--classes", "3", "--runs", "4",
                 "--subset", "80", "--seed", "3", "--out", lib]) == 0
    library = load_library(lib)
    assert library.n_classes == 3 and sum(library.sizes) == 12

    pruned = str(scene_dir / "pruned.csv")
    assert main(["prune", "--library", lib, "--method", "count",
                 "--angle-threshold", "0.02", "--target", "2",
                 "--out", pruned]) == 0
    assert sum(load_library(pruned).sizes) <= 6

    tjson = str(scene_dir / "t.json")
    assert main(["transform", "--library", lib, "--method", "mask",
                 "--bands", "16", "--out", tjson]) == 0
    assert json.loads((scene_dir / "t.json").read_text())["kind"] == "mask"

    out = str(scene_dir / "mesma_out")
    assert main(["unmix", "--image", scene, "--algo", "mesma",
                 "--library", pruned, "--out", out]) == 0
    a = load_abundances(scene_dir / "mesma_out" / "abundances.csv")
    assert a.n_pixels == 144 and a.n_classes == 3
    assert (scene_dir / "mesma_out" / "endmembers.json").exists()
    assert (scene_dir / "mesma_out" / "solver_log.json").exists()

    out2 = str(scene_dir / "fcls_out")
    assert main(["unmix", "--image", scene, "--algo", "fcls",
                 "--library", pruned, "--transform", tjson, "--out", out2]) == 0
    assert load_abundances(scene_dir / "fcls_out" / "abundances.csv").n_classes == 3


def test_transform_with_no_output_band_exits_2_and_writes_nothing(scene_dir, capsys):
    # a threshold no band's instability index is below keeps no band
    rng = np.random.default_rng(0)
    lib = scene_dir / "lib.csv"
    save_library(SpectralLibrary.from_arrays(
        "abc", [rng.uniform(0.1, 1.0, size=(4, 24)) for _ in range(3)]), lib)
    tjson = scene_dir / "t.json"
    assert main(["transform", "--library", str(lib), "--method", "mask", "--threshold", "0",
                 "--out", str(tjson)]) == 2
    assert capsys.readouterr().err == "error: mask transform has no output band\n"
    assert not tjson.exists()
    tjson.write_text(json.dumps({"kind": "mask", "weights": [0.0] * 24}) + "\n")
    out = scene_dir / "out"
    assert main(["unmix", "--image", str(scene_dir / "scene"), "--algo", "fcls", "--library",
                 str(lib), "--transform", str(tjson), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {tjson}: not a valid transform file "
                                       "(mask transform has no output band)\n")
    assert not out.exists()


def test_weights_transform_with_equal_class_means_exits_2_and_writes_nothing(tmp_path, capsys):
    # two classes holding the same two signatures in swapped order
    sigs = np.random.default_rng(0).uniform(0.1, 1.0, size=(2, 10))
    lib = tmp_path / "lib.csv"
    save_library(SpectralLibrary.from_arrays("ab", [sigs, sigs[::-1]]), lib)
    tjson = tmp_path / "t.json"
    assert main(["transform", "--library", str(lib), "--method", "weights",
                 "--out", str(tjson)]) == 2
    assert capsys.readouterr().err == ("error: class means agree up to rounding: "
                                       "no between-class scatter\n")
    assert not tjson.exists()


def test_unmix_with_opts_json_and_fda(scene_dir):
    scene = str(scene_dir / "scene")
    lib = str(scene_dir / "lib2.csv")
    main(["extract", "--image", scene, "--classes", "3", "--runs", "3",
          "--subset", "80", "--seed", "8", "--out", lib])

    (scene_dir / "opts.json").write_text(json.dumps(
        {"lambda_sparse": 0.005, "max_iters": 50}))
    out = str(scene_dir / "sparse_out")
    assert main(["unmix", "--image", scene, "--algo", "sparse-l1",
                 "--library", lib, "--opts", str(scene_dir / "opts.json"),
                 "--out", out]) == 0
    log = json.loads((scene_dir / "sparse_out" / "solver_log.json").read_text())
    assert log["flags"]["lambda"] == 0.005

    tjson = str(scene_dir / "fda.json")
    assert main(["transform", "--library", lib, "--method", "fda",
                 "--dim", "2", "--out", tjson]) == 0
    out2 = str(scene_dir / "mesma_fda")
    assert main(["unmix", "--image", scene, "--algo", "mesma",
                 "--library", lib, "--transform", tjson, "--out", out2]) == 0
    assert load_abundances(scene_dir / "mesma_fda" / "abundances.csv").n_classes == 3


def test_opts_json_with_removed_kernel_keys(scene_dir, capsys):
    # the splitting solver's rho / inner_tol / inner_iters and the seed no
    # solver read went with them: an option file that carries one is refused
    opts, out = scene_dir / "old_opts.json", scene_dir / "elmm_out"
    for key, value in [("rho", 2.0), ("inner_tol", 1e-6), ("inner_iters", 50), ("seed", 4)]:
        opts.write_text(json.dumps({key: value, "max_iters": 3}))
        assert main(["unmix", "--image", str(scene_dir / "scene"), "--algo", "elmm",
                     "--library", str(scene_dir / "base.csv"), "--opts", str(opts),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {opts}: {key}: unknown key\n"
        assert not out.exists()


def test_opts_json_with_misspelled_key_exits_2(scene_dir, capsys):
    opts = scene_dir / "typo_opts.json"
    opts.write_text(json.dumps({"lamda_sparse": 5.0, "max_iter": 3}))
    out = scene_dir / "l1_out"
    assert main(["unmix", "--image", str(scene_dir / "scene"), "--algo", "sparse-l1",
                 "--library", str(scene_dir / "base.csv"), "--opts", str(opts),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {opts}: lamda_sparse: unknown key\n"
    opts.write_text("[5.0, 3]")
    assert main(["unmix", "--image", str(scene_dir / "scene"), "--algo", "sparse-l1",
                 "--library", str(scene_dir / "base.csv"), "--opts", str(opts),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {opts}: config: expected an object, got list\n"
    assert not out.exists()


def test_a_refused_call_leaves_the_next_call_in_the_process_unchanged(scene_dir, capsys):
    # the parser is built once per process and reused by every main call
    build_parser.cache_clear()
    unmix = ["unmix", "--image", str(scene_dir / "scene"), "--algo", "sparse-l0",
             "--library", str(scene_dir / "base.csv"), "--out"]
    assert main(unmix + [str(scene_dir / "alone")]) == 0
    assert main(unmix[:-1] + ["--k", "0", "--out", str(scene_dir / "refused")]) == 2
    assert capsys.readouterr().err.startswith("error: k must lie")
    assert main(unmix + [str(scene_dir / "after")]) == 0
    assert not (scene_dir / "refused").exists()
    alone, after = ({f.name: f.read_bytes() for f in (scene_dir / d).iterdir()
                     if f.name != "solver_log.json"} for d in ("alone", "after"))
    assert alone and alone == after


def test_unmix_refuses_the_flags_of_other_solvers(scene_dir, capsys):
    # --re-threshold is MESMA's parameter, --k and --l0-mode sparse L0's and
    # --opts the SolverOptions file of sparse L1, ELMM and PLMM; given to a
    # solver that does not take them, they are refused before any work,
    # whatever their value
    d = scene_dir
    (d / "opts.json").write_text(json.dumps({"max_iters": 1}))
    opts = ["--opts", str(d / "opts.json")]
    fcls = ["unmix", "--image", str(d / "scene"), "--algo", "fcls",
            "--library", str(d / "base.csv")]
    mesma = ["unmix", "--image", str(d / "scene"), "--algo", "mesma",
             "--library", str(d / "base.csv")]
    l0 = ["unmix", "--image", str(d / "scene"), "--algo", "sparse-l0",
          "--library", str(d / "base.csv")]
    runs = [
        (fcls + ["--k", "0", "--re-threshold", "-5"], "--re-threshold", "fcls"),
        (fcls + ["--k", "3"], "--k", "fcls"),
        (fcls + ["--l0-mode", "greedy"], "--l0-mode", "fcls"),
        (mesma + ["--k", "2"], "--k", "mesma"),
        (l0 + ["--re-threshold", "0.1"], "--re-threshold", "sparse-l0"),
        (fcls + opts, "--opts", "fcls"),
        (mesma + opts, "--opts", "mesma"),
        (l0 + ["--k", "2"] + opts, "--opts", "sparse-l0"),
    ]
    for argv, flag, algo in runs:
        assert main(argv + ["--out", str(d / "refused")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} does not apply to --algo {algo}\n"
        assert captured.out == ""
        assert not (d / "refused").exists()
    # the flags a solver takes still reach it, and omitted ones take its defaults
    assert main(l0 + ["--out", str(d / "default")]) == 0
    assert main(l0 + ["--l0-mode", "greedy", "--out", str(d / "greedy")]) == 0
    assert main(mesma + ["--re-threshold", "0.01", "--out", str(d / "stop")]) == 0
    for name in ("abundances.csv", "abundances_raw.csv", "re.bin", "endmembers.bin"):
        assert (d / "default" / name).read_bytes() == (d / "greedy" / name).read_bytes()
    logs = [json.loads((d / o / "solver_log.json").read_text()) for o in ("default", "stop")]
    assert logs[0]["flags"]["mode"] == "greedy" and logs[1]["flags"]["early_stop"]


def test_music_prune_via_cli(scene_dir):
    scene = str(scene_dir / "scene")
    lib = str(scene_dir / "lib.csv")
    main(["extract", "--image", scene, "--classes", "3", "--runs", "3",
          "--subset", "60", "--seed", "1", "--out", lib])
    out = str(scene_dir / "music.csv")
    assert main(["prune", "--library", lib, "--method", "music",
                 "--image", scene, "--subspace-dim", "3",
                 "--residual-threshold", "0.9", "--out", out]) == 0
    assert load_library(out).n_classes == 3


def test_music_prune_without_image_exits_2(tmp_path, capsys):
    save_library(synthetic_base_spectra(12, 3, seed=7), tmp_path / "lib.csv")
    out = tmp_path / "music.csv"
    assert main(["prune", "--library", str(tmp_path / "lib.csv"), "--method", "music",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --image required for --method music\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, error", [
    (["--method", "count", "--angle-threshold", "nan"], "threshold must be nonnegative"),
    (["--method", "music", "--image", "scene", "--residual-threshold", "nan"],
     "residual_threshold must be positive"),
], ids=["count", "music"])
def test_nan_pruning_threshold_exits_2_and_writes_nothing(scene_dir, flags, error, capsys):
    # argparse's float reads "nan"
    out = scene_dir / "pruned.csv"
    flags = [str(scene_dir / f) if f == "scene" else f for f in flags]
    assert main(["prune", "--library", str(scene_dir / "base.csv"), *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_extract_from_constant_image_exits_2(tmp_path, capsys):
    header = save_image(SpectralImage(np.full((10, 10, 20), 0.4)), tmp_path / "flat")
    out = tmp_path / "lib.csv"
    with pytest.warns(DegenerateGeometryWarning):
        code = main(["extract", "--image", str(header), "--classes", "3", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == ("error: the pooled signatures hold 1 distinct spectra, "
                                       "fewer than the 3 classes requested\n")
    assert not out.exists()


def test_extract_passes_the_config_the_flags_given(scene_dir, capsys):
    # a flag not given takes the config's default, but the seed is 0
    scene, out = scene_dir / "scene", scene_dir / "lib.csv"
    image = resolve_image(scene)
    runs = [
        ([], BundleExtractionConfig(n_classes=3, seed=0)),
        (["--runs", "3", "--subset", "100", "--no-replacement", "--metric", "euclidean",
          "--seed", "4"],
         BundleExtractionConfig(n_classes=3, num_runs=3, subset_size=100, with_replacement=False,
                                cluster_metric="euclidean", seed=4)),
    ]
    for flags, cfg in runs:
        assert main(["extract", "--image", str(scene), "--classes", "3", *flags,
                     "--out", str(out)]) == 0
        save_library(extract_bundles(image, cfg), scene_dir / "api.csv")
        assert out.read_bytes() == (scene_dir / "api.csv").read_bytes()
    # with replacement a subset may hold more than the 144 pixels, without it not
    argv = ["extract", "--image", str(scene), "--classes", "3", "--subset", "145",
            "--out", str(scene_dir / "sampled.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv[:-1] + [str(scene_dir / "refused2.csv"), "--no-replacement"]) == 2
    assert capsys.readouterr().err == (
        "error: subset_size exceeds the pixel count for sampling without replacement\n")
    assert not (scene_dir / "refused2.csv").exists()


def _noisy_grf_scene(tmp_path):
    """A 32x32, 100-band scene from the GRF / Hapke-atmospheric-scaling
    family of the benchmark, at 12 dB: noisy enough that extracted pixels
    go below the library files' reflectance floor."""
    save_library(synthetic_base_spectra(100, 3, seed=123), tmp_path / "base.csv")
    cfg = {
        "name": "noisy", "height": 32, "width": 32, "snr_db": 12.0, "seed": 102,
        "base_library": str(tmp_path / "base.csv"),
        "abundance": {"generator": "grf", "correlation_length": 6, "sharpness": 0.08,
                      "pure_pixel_fraction": 0.03},
        "variability": {
            "n_variants": 5,
            "class_modes": [
                {"mode": "hapke", "mu1_range": [0.6, 1.0], "mu2_range": [0.6, 1.0]},
                {"mode": "atmospheric", "mu1_range": [0.4, 1.0]},
                {"mode": "elmm_scaling", "scale_range": [0.75, 1.25]},
            ],
        },
    }
    (tmp_path / "scene.json").write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(tmp_path / "scene.json"),
                 "--out", str(tmp_path / "scene")]) == 0
    return tmp_path / "scene"


def test_extract_writes_no_library_it_could_not_read(tmp_path, capsys):
    # the extracted pixels hold values below -0.1, which load_library
    # refuses; extract must say so instead of writing the file
    scene = _noisy_grf_scene(tmp_path)
    out = tmp_path / "lib.csv"
    code = main(["extract", "--image", str(scene), "--classes", "3", "--runs", "5",
                 "--subset", "500", "--seed", "9", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: library value -") and "reflectance floor -0.1" in err
    assert not out.exists()


def test_unreadable_input_files_exit_2(tmp_path, capsys):
    lib = tmp_path / "bad.csv"
    lib.write_text("class,b0,b1,b2\nveg,0.2,-0.5,0.3\nsoil,0.4,0.4,0.5\n")
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    image = save_image(SpectralImage(np.full((2, 2, 3), 0.3)), tmp_path / "img")
    runs = [
        ["prune", "--library", lib, "--method", "count", "--out", tmp_path / "p.csv"],
        ["transform", "--library", lib, "--method", "weights", "--out", tmp_path / "t.json"],
        ["unmix", "--image", image, "--algo", "fcls", "--library", lib, "--out", tmp_path / "r1"],
        ["unmix", "--image", image, "--algo", "mesma", "--library", lib,
         "--out", tmp_path / "r2"],
        ["unmix", "--image", bad_json, "--algo", "fcls", "--library", lib,
         "--out", tmp_path / "r3"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    save_library(synthetic_base_spectra(3, 2, seed=1), tmp_path / "good.csv")
    assert main(["unmix", "--image", str(image), "--algo", "fcls", "--library",
                 str(tmp_path / "good.csv"), "--transform", str(bad_json),
                 "--out", str(tmp_path / "r4")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad_json}: not a valid transform file")
    offset = tmp_path / "offset.json"
    offset.write_text(json.dumps({"kind": "weights", "weights": [1.0] * 3, "offset": [0.0] * 3}))
    assert main(["unmix", "--image", str(image), "--algo", "fcls", "--library",
                 str(tmp_path / "good.csv"), "--transform", str(offset),
                 "--out", str(tmp_path / "r5")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {offset}: not a valid transform file")


def test_missing_input_files_exit_2(tmp_path, capsys):
    # a missing input is refused like a malformed one: "error: <path>: ...", exit 2
    cfg = _scene_config(tmp_path)
    cfg["base_library"] = str(tmp_path / "no_base.csv")
    (tmp_path / "scene.json").write_text(json.dumps(cfg))
    bench = {"scene": cfg, "roster": [{"name": "fcls", "algo": "fcls"}],
             "output_dir": str(tmp_path / "bench")}
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    nope = tmp_path / "nope"
    runs = [
        (["synth", "--config", f"{nope}.json", "--out", tmp_path / "s1"], f"{nope}.json"),
        (["synth", "--config", tmp_path / "scene.json", "--out", tmp_path / "s2"],
         cfg["base_library"]),
        (["prune", "--library", f"{nope}.csv", "--method", "count", "--out", tmp_path / "p.csv"],
         f"{nope}.csv"),
        (["unmix", "--image", nope, "--algo", "fcls", "--library", f"{nope}.csv",
          "--out", tmp_path / "r"], f"{nope}.json"),
        (["bench", "--config", tmp_path / "bench.json"], cfg["base_library"]),
    ]
    for argv, path in runs:
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: No such file or directory\n"
    assert not (tmp_path / "s2").exists()


def test_refused_paths_exit_2(scene_dir, capsys):
    # a directory where a file is read, a file where a directory is made
    d = scene_dir
    (d / "opts_dir").mkdir()
    (d / "taken").write_text("")
    unmix = ["unmix", "--image", d / "scene", "--algo", "fcls"]
    runs = [
        (unmix + ["--library", d / "scene", "--out", d / "r1"], d / "scene", "Is a directory"),
        (["unmix", "--image", d / "scene", "--algo", "elmm", "--library", d / "base.csv",
          "--opts", d / "opts_dir", "--out", d / "r2"], d / "opts_dir", "Is a directory"),
        (unmix + ["--library", d / "base.csv", "--out", d / "taken"], d / "taken", "File exists"),
    ]
    for argv, path, reason in runs:
        assert main([str(a) for a in argv]) == 2
        assert capsys.readouterr().err == f"error: {path}: {reason}\n"
    assert not (d / "r1").exists() and not (d / "r2").exists()
    assert (d / "taken").read_text() == ""


def test_synth_config_without_abundance_exits_2(tmp_path, capsys):
    cfg = _scene_config(tmp_path)
    del cfg["abundance"]
    (tmp_path / "scene.json").write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(tmp_path / "scene.json"),
                 "--out", str(tmp_path / "scene")]) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'scene.json'}: abundance: missing required key\n"
    assert not (tmp_path / "scene").exists()


def test_synth_config_with_unknown_nested_key_exits_2(tmp_path, capsys):
    cfg = _scene_config(tmp_path)
    cfg["abundance"]["corr_len"] = 4
    (tmp_path / "scene.json").write_text(json.dumps(cfg))
    assert main(["synth", "--config", str(tmp_path / "scene.json"),
                 "--out", str(tmp_path / "scene")]) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'scene.json'}: abundance.corr_len: unknown key\n"


def test_bench_config_with_misspelled_key_exits_2(tmp_path, capsys):
    bench = {"scene": _scene_config(tmp_path, height=8, width=8),
             "roster": [{"name": "fcls", "algo": "fcls"}],
             "n_montecarlo": 10, "output_dir": str(tmp_path / "bench")}
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    assert main(["bench", "--config", str(tmp_path / "bench.json")]) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'bench.json'}: n_montecarlo: unknown key\n"
    assert not (tmp_path / "bench").exists()


def test_bench_roster_with_misspelled_option_exits_2_before_any_run(tmp_path, capsys):
    bench = {"scene": _scene_config(tmp_path, height=8, width=8),
             "roster": [{"name": "fcls", "algo": "fcls"},
                        {"name": "elmm", "algo": "elmm", "options": {"max_iter": 5}}],
             "output_dir": str(tmp_path / "bench")}
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    assert main(["bench", "--config", str(tmp_path / "bench.json")]) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'bench.json'}: roster[1]: max_iter: unknown key\n"
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("algo, options, message", [
    ("mesma", {"re_threshold": -0.03}, "re_threshold must be >= 0"),
    ("mesma", {"re_threshold": float("nan")}, "re_threshold must be >= 0"),
    ("sparse-l0", {"k": 2.5}, "k must be an integer, got 2.5"),
    ("fcls", {"k": 2}, "k: unknown key"),
    ("elmm", {"rho": 2.0}, "rho: unknown key"),
    ("fcls", {"tol": 1e-3}, "tol: unknown key"),
    ("mesma", {"tol": 1e-3}, "tol: unknown key"),
    ("sparse-l0", {"lambda_sparse": 9.0, "k": 2}, "lambda_sparse: unknown key"),
], ids=["mesma-negative", "mesma-nan", "l0-fractional-k", "fcls-k", "elmm-rho", "fcls-tol",
        "mesma-tol", "l0-lambda-sparse"])
def test_bench_roster_with_refused_option_exits_2_before_any_run(
        tmp_path, capsys, algo, options, message):
    # a value is checked by its own solver's check, and only a solver that
    # reads a key takes it; a retired option is not an option
    bench = {"scene": _scene_config(tmp_path, height=8, width=8),
             "roster": [{"name": algo, "algo": algo, "library_source": "truth-variants",
                         "options": options}],
             "output_dir": str(tmp_path / "bench")}
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    assert main(["bench", "--config", str(tmp_path / "bench.json")]) == 2
    assert capsys.readouterr().err == \
        f"error: {tmp_path / 'bench.json'}: roster[0]: {message}\n"
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("block, spec, message", [
    ("prune", {"method": "count", "target": 1}, "prune: target: unknown key"),
    ("prune", {"method": "Count"}, "prune: method: unknown method 'Count'"),
    ("transform", {"method": "fda", "dims": 1}, "transform: dims: unknown key"),
    ("transform", {"method": "mask", "bands": 4}, "transform: bands: unknown key"),
    ("transform", {"method": "pca"}, "transform: method: unknown method 'pca'"),
], ids=["prune-key", "prune-method", "fda-key", "mask-key", "transform-method"])
def test_bench_prune_or_transform_with_unknown_key_exits_2_before_any_run(
        tmp_path, capsys, block, spec, message):
    bench = {"scene": _scene_config(tmp_path, height=8, width=8),
             "roster": [{"name": "fcls", "algo": "fcls"}],
             block: spec, "output_dir": str(tmp_path / "bench")}
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    assert main(["bench", "--config", str(tmp_path / "bench.json")]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'bench.json'}: config: {message}\n"
    assert not (tmp_path / "bench").exists()


def test_bench_cli_and_exit_codes(tmp_path):
    cfg = _scene_config(tmp_path, height=8, width=8)
    bench = {
        "scene": cfg,
        "extraction": {"n_classes": 3, "num_runs": 2, "subset_size": 40},
        "roster": [
            {"name": "fcls", "algo": "fcls"},
            {"name": "mesma", "algo": "mesma", "library_source": "truth-variants"},
        ],
        "n_monte_carlo": 2,
        "master_seed": 11,
        "output_dir": str(tmp_path / "bench"),
    }
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    assert main(["bench", "--config", str(tmp_path / "bench.json"),
                 "--paper-scale"]) == 0
    md = (tmp_path / "bench" / "report.md").read_text()
    assert "scaled by 1e4" in md
    assert "| fcls |" in md

    # a failing roster entry flips the exit code
    bench["roster"].append({"name": "bad", "algo": "sparse-l0",
                            "library_source": "truth-variants",
                            "options": {"k": 999}})
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    assert main(["bench", "--config", str(tmp_path / "bench.json")]) == 1


def _run_pipeline_subprocess(workdir, threads):
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(threads)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["MKL_NUM_THREADS"] = str(threads)
    script = (
        "import sys; from varimix.cli import main; "
        f"sys.exit(main(['bench', '--config', r'{workdir}/bench.json']))"
    )
    subprocess.run([sys.executable, "-c", script], check=True, env=env,
                   capture_output=True)
    return {name: (workdir / "bench" / name).read_bytes() for name in
            ("report.csv", "runs/0/fcls/abundances.csv", "runs/0/elmm/abundances.csv",
             "runs/0/elmm/endmembers.bin")}


def test_cli_byte_determinism_across_thread_counts(tmp_path):
    cfg = _scene_config(tmp_path, height=8, width=8)
    bench = {
        "scene": cfg,
        "roster": [{"name": "fcls", "algo": "fcls"},
                   {"name": "elmm", "algo": "elmm", "options": {"max_iters": 5}}],
        "n_monte_carlo": 1,
        "master_seed": 4,
        "output_dir": str(tmp_path / "bench"),
    }
    (tmp_path / "bench.json").write_text(json.dumps(bench))
    one = _run_pipeline_subprocess(tmp_path, threads=1)
    four = _run_pipeline_subprocess(tmp_path, threads=4)
    for name in one:
        assert one[name] == four[name], name


def test_music_chain_byte_determinism_across_thread_counts(tmp_path):
    # the MUSIC subspace comes from a BLAS product and a LAPACK eigensolver;
    # the pruned library and the MESMA endmembers must not depend on the
    # thread count
    (tmp_path / "scene.json").write_text(json.dumps(_scene_config(tmp_path)))
    outputs = []
    for threads in (1, 4):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        w = tmp_path / f"t{threads}"
        script = f"""
import sys
from varimix.cli import main
w = r"{w}"
assert main(["synth", "--config", r"{tmp_path}/scene.json", "--out", w + "/scene"]) == 0
assert main(["extract", "--image", w + "/scene", "--classes", "3", "--runs", "4",
             "--subset", "80", "--seed", "3", "--out", w + "/lib.csv"]) == 0
assert main(["prune", "--library", w + "/lib.csv", "--method", "music",
             "--image", w + "/scene", "--subspace-dim", "2",
             "--residual-threshold", "0.09", "--out", w + "/pruned.csv"]) == 0
assert main(["unmix", "--image", w + "/scene", "--algo", "mesma",
             "--library", w + "/pruned.csv", "--out", w + "/mesma"]) == 0
"""
        subprocess.run([sys.executable, "-c", script], check=True, env=env,
                       capture_output=True)
        outputs.append(((w / "pruned.csv").read_bytes(),
                        (w / "mesma" / "endmembers.bin").read_bytes()))
    assert outputs[0] == outputs[1]
    pruned = load_library(tmp_path / "t1" / "pruned.csv")
    assert sum(pruned.sizes) < sum(load_library(tmp_path / "t1" / "lib.csv").sizes)
