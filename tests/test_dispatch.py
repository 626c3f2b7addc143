"""One dispatch path: ``varimix unmix`` and a bench roster entry resolve
the solver input, apply a transform and write results the same way."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from varimix.bench import BenchConfig, RosterEntry
from varimix.cli import main
from varimix.io import (load_config, load_library, resolve_image, save_library, save_result,
                        save_scene)
from varimix.libops import SpectralTransform, apply_transform, build_transform, prune
from varimix.solvers import ALGORITHMS, SOLVERS, SolverOptions, sparse_su_l0, unmix
from varimix.synth import synthetic_base_spectra, truth_variant_library
from varimix.types import FormatError, LibraryClass, SpectralLibrary

from conftest import make_scene

BANDS = 24

# per solver: roster options, and the unmix flags carrying them; a solver
# that reads SolverOptions takes them from an --opts file instead
SOLVER_ARGS = {
    "fcls": ({}, []),
    "mesma": ({"re_threshold": 0.01}, ["--re-threshold", "0.01"]),
    "sparse-l1": ({"lambda_sparse": 0.002}, []),
    "sparse-l0": ({"k": 2, "mode": "exhaustive"}, ["--k", "2", "--l0-mode", "exhaustive"]),
    "elmm": ({"max_iters": 4}, []),
    "plmm": ({"max_iters": 4, "gamma_plmm": 0.5}, []),
}


@pytest.fixture
def inputs(tmp_path):
    """base.csv, a variant library lib.csv, a weights transform w.json
    built from it, and a saved scene."""
    save_library(synthetic_base_spectra(BANDS, 3, seed=7), tmp_path / "base.csv")
    truth = make_scene(n_bands=BANDS, height=4, width=5, snr_db=30.0)
    save_library(truth_variant_library(truth), tmp_path / "lib.csv")
    save_scene(truth, tmp_path / "scene")
    assert main(["transform", "--library", str(tmp_path / "lib.csv"), "--method", "weights",
                 "--out", str(tmp_path / "w.json")]) == 0
    return tmp_path


def _bench_config(d, algo, options, transform):
    return {
        "scene": {
            "name": "dispatch", "height": 6, "width": 7, "snr_db": 30.0, "seed": 5,
            "base_library": str(d / "base.csv"),
            "abundance": {"generator": "dirichlet", "alpha": [1, 1, 1],
                          "pure_pixel_fraction": 0.1, "seed": None},
            "variability": {"n_variants": 3, "seed": None, "class_modes": [
                {"mode": "elmm_scaling", "scale_range": [0.85, 1.15]}] * 3},
        },
        "roster": [{"name": algo, "algo": algo, "library_source": "file",
                    "library_path": str(d / "lib.csv"), "options": options}],
        "transform": transform,
        "output_dir": str(d / "bench"),
    }


@pytest.mark.parametrize("transform", [False, True], ids=["plain", "weights"])
@pytest.mark.parametrize("algo", ALGORITHMS)
def test_cli_and_bench_write_the_same_bytes(inputs, algo, transform):
    d = inputs
    options, flags = SOLVER_ARGS[algo]
    spec = {"method": "path", "path": str(d / "w.json")} if transform else None
    (d / "bench.json").write_text(json.dumps(_bench_config(d, algo, options, spec)))
    assert main(["bench", "--config", str(d / "bench.json")]) == 0
    run = d / "bench" / "runs" / "0"

    argv = ["unmix", "--image", str(run / "scene"), "--algo", algo,
            "--library", str(d / "lib.csv"), "--out", str(d / "cli"), *flags]
    if "opts" in SOLVERS[algo].params:
        (d / "opts.json").write_text(json.dumps(options))
        argv += ["--opts", str(d / "opts.json")]
    if transform:
        argv += ["--transform", str(d / "w.json")]
    assert main(argv) == 0

    bench_dir, cli_dir = run / algo, d / "cli"
    names = sorted(p.name for p in cli_dir.iterdir())
    assert names == sorted(p.name for p in bench_dir.iterdir())
    for name in ("abundances.csv", "abundances_raw.csv", "re.bin", "endmembers.bin"):
        if name in names:
            assert (cli_dir / name).read_bytes() == (bench_dir / name).read_bytes(), name
    logs = [json.loads((p / "solver_log.json").read_text()) for p in (cli_dir, bench_dir)]
    assert logs[0].keys() == logs[1].keys()
    for key in logs[0].keys() - {"wall_time_s", "phases"}:
        assert json.dumps(logs[0][key]) == json.dumps(logs[1][key]), key


def test_cli_and_bench_write_the_same_bytes_through_a_built_mask(inputs):
    # the bench builds a matrix solver's mask from its library, as
    # 'varimix transform' does, not from the library's class means
    d = inputs
    doc = _bench_config(d, "fcls", {}, {"method": "mask", "k": 10})
    doc["roster"].append({**doc["roster"][0], "name": "elmm", "algo": "elmm",
                          "options": {"max_iters": 4}})
    (d / "bench.json").write_text(json.dumps(doc))
    assert main(["bench", "--config", str(d / "bench.json")]) == 0
    assert main(["transform", "--library", str(d / "lib.csv"), "--method", "mask",
                 "--bands", "10", "--out", str(d / "mask.json")]) == 0
    (d / "opts.json").write_text(json.dumps({"max_iters": 4}))
    run = d / "bench" / "runs" / "0"
    for algo in ("fcls", "elmm"):
        argv = ["unmix", "--image", str(run / "scene"), "--algo", algo,
                "--library", str(d / "lib.csv"), "--transform", str(d / "mask.json"),
                "--out", str(d / algo)]
        assert main(argv + (["--opts", str(d / "opts.json")] if algo == "elmm" else [])) == 0
        for name in ("abundances.csv", "re.bin"):
            assert (d / algo / name).read_bytes() == (run / algo / name).read_bytes(), name


def test_unmix_takes_one_source_flag(inputs, capsys):
    # --library is unmix's one source flag: --m0 is no option, and a matrix
    # solver takes the class means of the transformed library
    d = inputs
    with pytest.raises(SystemExit) as help_exit:
        main(["unmix", "--help"])
    assert help_exit.value.code == 0 and "--m0" not in capsys.readouterr().out
    argv = ["unmix", "--image", str(d / "scene"), "--algo", "fcls",
            "--transform", str(d / "w.json")]
    with pytest.raises(SystemExit) as m0_exit:
        main(argv + ["--m0", str(d / "base.csv"), "--out", str(d / "m0")])
    assert m0_exit.value.code == 2 and not (d / "m0").exists()
    assert main(argv + ["--library", str(d / "base.csv"), "--out", str(d / "cli")]) == 0
    image, library = apply_transform(SpectralTransform.from_json(d / "w.json"),
                                     resolve_image(d / "scene"), load_library(d / "base.csv"))
    save_result(unmix("fcls", image, library.class_means().T), d / "api")
    for name in ("abundances.csv", "re.bin"):
        assert (d / "cli" / name).read_bytes() == (d / "api" / name).read_bytes()


@pytest.mark.parametrize("algo, extra", [
    ("fcls", []),
    ("elmm", ["--transform", "w.json"]),
    ("plmm", []),
    ("mesma", []),
    ("sparse-l1", []),
    ("sparse-l0", ["--transform", "w.json"]),
], ids=["fcls", "elmm-transform", "plmm", "mesma", "sparse-l1", "sparse-l0-transform"])
def test_unmix_without_its_input_exits_2(inputs, capsys, algo, extra):
    d = inputs
    argv = ["unmix", "--image", str(d / "scene"), "--algo", algo, "--out", str(d / "out")]
    argv += [a if a.startswith("--") else str(d / a) for a in extra]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: --library required\n"
    assert not (d / "out").exists()


def _refused(argv, out, capsys):
    """``main`` on ``argv`` with ``--out out`` exits 2 with one ``error:``
    line and writes no ``out``; returns that line."""
    assert main([str(a) for a in argv] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()
    return err


def test_prune_and_transform_refuse_the_flags_of_other_methods(inputs, capsys):
    # one rule for unmix, prune and transform: a flag only another method
    # takes is refused before any input is read, whatever its value
    d = inputs
    lib = ["--library", d / "lib.csv"]
    runs = [
        (["prune", *lib, "--method", "count", "--subspace-dim", "0",
          "--residual-threshold", "-1"], d / "pruned.csv", "--subspace-dim", "count"),
        (["prune", *lib, "--method", "count", "--image", d / "no_such_dir"], d / "pruned.csv",
         "--image", "count"),
        (["prune", *lib, "--method", "music", "--image", d / "scene", "--target", "2"],
         d / "pruned.csv", "--target", "music"),
        (["transform", *lib, "--method", "weights", "--bands", "0", "--dim", "0"],
         d / "t.json", "--bands", "weights"),
        (["transform", *lib, "--method", "mask", "--bands", "4", "--dim", "1"], d / "t.json",
         "--dim", "mask"),
        (["transform", *lib, "--method", "fda", "--threshold", "0.1"], d / "t.json",
         "--threshold", "fda"),
    ]
    for argv, out, flag, method in runs:
        err = _refused(argv, out, capsys)
        assert err == f"error: {flag} does not apply to --method {method}\n"


def test_roster_entry_takes_a_library_path_only_from_a_file_source():
    for source in ("extracted", "extracted-bundles", "truth-variants"):
        with pytest.raises(ValueError, match="^library_path goes with library_source 'file'"):
            RosterEntry("x", "mesma", library_source=source, library_path="nope.csv")
    with pytest.raises(ValueError, match="^library_path goes with library_source 'file'"):
        RosterEntry("x", "mesma", library_source="file")
    assert RosterEntry("x", "mesma", library_source="file", library_path="lib.csv")


def test_band_selection_warns_on_a_library_of_one_signature_per_class(inputs):
    # one signature per class has no within-class spread: every band scores
    # 0, so mask keeps the first bands and weights are all ones, with a warning
    d = inputs
    for flags, kept in ((["--bands", "10"], 10), ([], BANDS)):
        method = "mask" if flags else "weights"
        with pytest.warns(UserWarning, match="^one signature per class"):
            assert main(["transform", "--library", str(d / "base.csv"), "--method", method,
                         *flags, "--out", str(d / "t.json")]) == 0
        weights = SpectralTransform.from_json(d / "t.json").weights
        np.testing.assert_array_equal(weights, np.arange(BANDS) < kept)
    # a library with spread is judged by it, without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["transform", "--library", str(d / "lib.csv"), "--method", "weights",
                     "--out", str(d / "t.json")]) == 0


def test_explicit_zeros_are_passed_through(inputs, capsys):
    # the solver's or the method's own message shows the zero reached it
    d = inputs
    lib = ["--library", d / "lib.csv"]
    assert _refused(["unmix", "--image", d / "scene", "--algo", "sparse-l0", *lib, "--k", "0"],
                    d / "out", capsys).startswith("error: k must lie in [1, ")
    assert _refused(["transform", *lib, "--method", "fda", "--dim", "0"],
                    d / "fda.json", capsys).startswith("error: dim must lie in [1, ")
    assert _refused(["prune", *lib, "--method", "music", "--image", d / "scene",
                     "--subspace-dim", "0"], d / "pruned.csv", capsys).startswith(
        "error: subspace_dim must lie in [1, ")


def test_unmix_refuses_its_flags_before_reading_the_image(inputs, capsys):
    # a refused value, a bad --opts file or a missing --library is reported
    # before the image is read, so a missing image does not hide it
    d = inputs
    opts = d / "opts.json"
    opts.write_text(json.dumps({"rho": 2.0}))
    unmix = ["unmix", "--image", d / "no_such_scene", "--algo"]
    lib = ["--library", d / "lib.csv"]
    runs = [
        (["sparse-l0", *lib, "--k", "0"], "error: k must lie in [1, "),
        (["mesma", *lib, "--re-threshold", "-1"], "error: re_threshold must be >= 0\n"),
        (["elmm", *lib, "--opts", opts], f"error: {opts}: rho: unknown key\n"),
        (["plmm"], "error: --library required\n"),
    ]
    for argv, message in runs:
        assert _refused(unmix + argv, d / "out", capsys).startswith(message)
    assert _refused(unmix + ["fcls", *lib], d / "out", capsys) == (
        f"error: {d / 'no_such_scene'}.json: No such file or directory\n")


def test_refused_values_exit_2(inputs, capsys):
    d = inputs
    big = SpectralLibrary(tuple(LibraryClass(c.name, np.repeat(c.signatures[:1], 120, axis=0))
                                for c in load_library(d / "lib.csv").classes))
    save_library(big, d / "big.csv")
    unmix_argv = ["unmix", "--image", d / "scene", "--algo"]
    assert _refused(unmix_argv + ["mesma", "--library", d / "big.csv"], d / "out", capsys) == (
        "error: 1728000 model combinations exceed the budget of 1000000; "
        "prune the library first\n")
    assert _refused(unmix_argv + ["mesma", "--library", d / "lib.csv", "--re-threshold", "-0.03"],
                    d / "out", capsys) == "error: re_threshold must be >= 0\n"
    assert _refused(unmix_argv + ["sparse-l0", "--library", d / "lib.csv", "--k", "999"],
                    d / "out", capsys).startswith("error: k must lie in [1, ")


def test_sparse_l0_default_support_is_one_column_per_class():
    truth = make_scene(n_bands=BANDS, height=3, width=4, snr_db=30.0)
    library = truth_variant_library(truth)
    default = sparse_su_l0(truth.image_noisy, library)
    explicit = sparse_su_l0(truth.image_noisy, library, k=library.n_classes)
    np.testing.assert_array_equal(default.abundances.data, explicit.abundances.data)


def test_solver_options_refuse_unknown_keys():
    with pytest.raises(FormatError, match="^lamda_sparse: unknown key$"):
        load_config(SolverOptions, {"lamda_sparse": 5.0, "max_iter": 3})
    with pytest.raises(FormatError, match="^max_iters: expected int, got float$"):
        load_config(SolverOptions, {"max_iters": 2.5})
    # the retired splitting-solver keys, the retired seed and the
    # parameters of MESMA and sparse L0 are not options
    for key, value in [("rho", 2.0), ("inner_tol", 1e-6), ("inner_iters", 50), ("seed", 4),
                       ("re_threshold", 0.1), ("k", 2), ("mode", "greedy")]:
        with pytest.raises(FormatError, match=f"^{key}: unknown key$"):
            load_config(SolverOptions, {key: value, "lambda_sparse": 5.0})


def test_roster_entry_checks_its_options_when_built():
    with pytest.raises(FormatError, match="^lamda_m: unknown key$"):
        RosterEntry("elmm", "elmm", options={"lamda_m": 2.0})
    entry = RosterEntry("l0", "sparse-l0", options={"k": 2, "mode": "exhaustive"})
    assert entry.params == {"k": 2, "mode": "exhaustive"}
    entry = RosterEntry("elmm", "elmm", options={"tol": 1e-5})
    assert entry.params == {"opts": SolverOptions(tol=1e-5)}
    assert RosterEntry("fcls", "fcls").params == {}
    # a key of a parameter the solver does not take; FCLS, MESMA and sparse
    # L0 take no SolverOptions field
    for algo, options, key in [
            ("fcls", {"k": 2}, "k"),
            ("fcls", {"gamma_plmm": 0.1, "lambda_m": 3.0, "max_iters": 1}, "gamma_plmm"),
            ("mesma", {"re_threshold": 0.01, "tol": 1e-3}, "tol"),
            ("sparse-l0", {"lambda_sparse": 9.0, "k": 2}, "lambda_sparse"),
            ("sparse-l0", {"k": 2, "max_iters": 3}, "max_iters"),
            ("elmm", {"re_threshold": 0.01}, "re_threshold")]:
        with pytest.raises(FormatError, match=f"^{key}: unknown key$"):
            RosterEntry("x", algo, options=options)
    with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
        RosterEntry("l0", "sparse-l0", options={"k": 2.5})
    with pytest.raises(ValueError, match="^unknown mode 'exact'$"):
        RosterEntry("l0", "sparse-l0", options={"mode": "exact"})


def test_solver_params_are_the_keywords_of_its_signature():
    assert {name: s.params for name, s in SOLVERS.items()} == {
        "fcls": (), "mesma": ("re_threshold",), "sparse-l1": ("opts",),
        "sparse-l0": ("k", "mode"), "elmm": ("opts",), "plmm": ("opts",)}
    for s in SOLVERS.values():
        after_input = list(inspect.signature(s.fn).parameters.values())[2:]
        assert all(p.default is not p.empty for p in after_input)
        # the check takes some of them, by name
        assert set(inspect.signature(s.check).parameters) <= set(s.params)
    # the keys a roster entry takes: a SolverOptions field stands for opts
    fields = len(dataclasses.fields(SolverOptions))
    assert sum(fields if p == "opts" else 1 for s in SOLVERS.values() for p in s.params) == 21


def test_solvers_byte_identical_across_thread_counts():
    # FCLS, MESMA, sparse L1, greedy L0, ELMM and PLMM give the same bytes
    # (abundances, per-pixel RE, reconstruction, field) and final cost
    # with 1 and 2 BLAS threads; each count runs in its own process, since
    # BLAS reads the thread count once
    script = """
import hashlib
from varimix.extraction import BundleExtractionConfig, extract_bundles
from varimix.solvers import SOLVERS, SolverOptions, unmix
from varimix.synth import (AbundanceFieldConfig, ClassVariability, VariabilityConfig,
                           synthesize_scene, synthetic_base_spectra)
modes = (ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.6, 1.0)),
         ClassVariability("atmospheric", mu1_range=(0.4, 1.0)),
         ClassVariability("elmm_scaling", scale_range=(0.75, 1.25)))
truth = synthesize_scene(synthetic_base_spectra(200, 3, seed=123),
                         AbundanceFieldConfig(generator="grf", correlation_length=6,
                                              sharpness=0.08, pure_pixel_fraction=0.03),
                         VariabilityConfig(class_modes=modes, n_variants=5),
                         snr_db=30.0, seed=4, height=48, width=48)
image = truth.image_noisy
lib = extract_bundles(image, BundleExtractionConfig(n_classes=3, num_runs=3, subset_size=300,
                                                    seed=2))
m0 = lib.class_means().T
opts = SolverOptions(max_iters=5)
for algo in ("fcls", "mesma", "sparse-l1", "sparse-l0", "elmm", "plmm"):
    r = unmix(algo, image, m0 if algo in ("fcls", "elmm", "plmm") else lib,
              **({"opts": opts} if "opts" in SOLVERS[algo].params else {}))
    parts = [r.abundances.data, r.per_pixel_re, r.reconstruction]
    parts += [r.endmembers.data] if r.endmembers is not None else []
    print(algo, hashlib.sha256(b"".join(x.tobytes() for x in parts)).hexdigest(),
          repr(r.solver_log.final_cost))
"""
    outputs = []
    for threads in (1, 2):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        out = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                             capture_output=True, text=True)
        outputs.append(out.stdout)
    assert len(outputs[0].split()) == 18
    assert outputs[0] == outputs[1]


# (block, CLI flags, the bench config's spec with the same keys)
CONDITIONING = {
    "count-sam": ("prune", ["--method", "count", "--angle-threshold", "0.02", "--target", "2"],
                  {"method": "count", "angle_threshold": 0.02, "target_per_class": 2}),
    "count-sqerr": ("prune", ["--method", "count", "--coverage-metric", "sqerr",
                              "--angle-threshold", "0.03"],
                    {"method": "count", "metric": "sqerr", "angle_threshold": 0.03}),
    "music": ("prune", ["--method", "music", "--subspace-dim", "2", "--residual-threshold", "0.1"],
              {"method": "music", "subspace_dim": 2, "residual_threshold": 0.1}),
    "mask-k": ("transform", ["--method", "mask", "--bands", "10"], {"method": "mask", "k": 10}),
    "mask-threshold": ("transform", ["--method", "mask", "--threshold", "0.02"],
                       {"method": "mask", "threshold": 0.02}),
    "weights": ("transform", ["--method", "weights"], {"method": "weights"}),
    "fda": ("transform", ["--method", "fda", "--dim", "1"], {"method": "fda", "dim": 1}),
}


@pytest.mark.parametrize("case", CONDITIONING)
def test_cli_flags_and_bench_spec_write_the_same_bytes(inputs, case):
    d = inputs
    block, flags, spec = CONDITIONING[case]
    doc = {**_bench_config(d, "fcls", {}, None), block: spec}
    cfg = load_config(BenchConfig, json.loads(json.dumps(doc)))
    library = load_library(d / "lib.csv")
    argv = [block, "--library", str(d / "lib.csv"), *flags, "--out", str(d / "cli_out")]
    if block == "prune":
        argv += ["--image", str(d / "scene")] if case == "music" else []
        save_library(prune(cfg.prune, library, resolve_image(d / "scene")), d / "bench_out")
    else:
        build_transform(cfg.transform, library).to_json(d / "bench_out")
    assert main(argv) == 0
    assert (d / "cli_out").read_bytes() == (d / "bench_out").read_bytes()


def test_music_subspace_dim_defaults_to_the_class_count(tmp_path):
    truth = make_scene(n_bands=BANDS, n_classes=4, height=4, width=5)
    save_scene(truth, tmp_path / "scene")
    save_library(truth_variant_library(truth), tmp_path / "lib.csv")
    argv = ["prune", "--library", str(tmp_path / "lib.csv"), "--method", "music",
            "--image", str(tmp_path / "scene"), "--residual-threshold", "0.15"]
    out = {}
    for dim in (None, "4", "3"):
        path = tmp_path / f"music_{dim}.csv"
        assert main(argv + ([] if dim is None else ["--subspace-dim", dim])
                    + ["--out", str(path)]) == 0
        out[dim] = path.read_bytes()
    assert out[None] == out["4"]
    assert out[None] != out["3"]            # dimension 3 prunes this library differently
