"""The benchmark's workloads and the layer sites a traced run wraps.

Every workload runs scenes of one family: 3 classes with 5 signature
variants each (Hapke, atmospheric and scaling variability), GRF
abundances with correlation length 6, sharpness 0.08 and 3 % pure
pixels, 30 dB noise, and base spectra ``synthetic_base_spectra(L, 3,
seed=123)``. A scene seed fixes the synthesis, extraction and VCA seeds.

varimix is driven only through its public functions. Each call into a
layer sits in a span of the benchmark's own recorder; the outputs of
every solver are checked (``checks``) and scored against the scene
truth after Hungarian class alignment.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from varimix import cli
from varimix.bench import align_classes, eval_result
from varimix.extraction import BundleExtractionConfig, extract_bundles, extract_endmembers
from varimix.io import (
    load_abundances,
    load_endmember_field,
    load_image,
    load_library,
    load_scene,
    save_library,
)
from varimix.libops import SpectralTransform, apply_transform
from varimix.metrics import rmse
from varimix.solvers import (
    SolverOptions,
    elmm_unmix,
    fcls,
    mesma,
    plmm_unmix,
    sparse_su_l0,
    sparse_su_l1,
)
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    SceneConfig,
    VariabilityConfig,
    synthesize_scene,
    synthetic_base_spectra,
)

import checks
from spans import MB, Recorder, Site, bound_arg

N_CLASSES = 3
SNR_DB = 30.0
EXTRACTION = {"num_runs": 5, "subset_size": 500}
L1_LAMBDA = 1e-3
L0_K = 3
OUTER_ITERS = 10
ELMM_OPTS = SolverOptions(max_iters=OUTER_ITERS, lambda_m=1.0, lambda_psi=0.5)
PLMM_OPTS = SolverOptions(max_iters=OUTER_ITERS, gamma_plmm=0.1)
PRUNE_TARGET = 2
WARMUP_SIZE = 10
# the splitting-iteration cap solvers get by default; None once the
# option no longer exists
INNER_CAP = getattr(SolverOptions(), "inner_iters", None)

VARIABILITY = VariabilityConfig(
    class_modes=(
        ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.6, 1.0)),
        ClassVariability("atmospheric", mu1_range=(0.4, 1.0)),
        ClassVariability("elmm_scaling", scale_range=(0.75, 1.25)),
    ),
    n_variants=5,
)
ABUNDANCE = AbundanceFieldConfig(
    generator="grf", correlation_length=6, sharpness=0.08, pure_pixel_fraction=0.03
)


@dataclass
class SceneRun:
    """What one scene leaves behind: spans live in the recorder; this
    holds the benchmark-side facts, scores and check outcomes."""

    index: int
    seed: int
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    rmse: dict = field(default_factory=dict)
    conv: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)

    def check(self, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def merge(self, other: "SceneRun"):
        """Add another scene's check counts to this one's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def scene_seeds(seed: int, index: int) -> tuple[int, int, int]:
    """Synthesis, bundle-extraction and VCA seeds of scene ``index``."""
    s = np.random.SeedSequence([seed, index]).generate_state(3)
    return int(s[0]), int(s[1]), int(s[2])


def _extraction_cfg(seed: int) -> BundleExtractionConfig:
    return BundleExtractionConfig(N_CLASSES, seed=seed, **EXTRACTION)


def _scene_facts(run: SceneRun, truth):
    run.facts["synth.scene_mb"] = sum(
        a.nbytes for a in (truth.image_noisy.data, truth.image_clean.data,
                           truth.abundances.data, truth.endmembers.data)) / MB


def _library_facts(run: SceneRun, lib):
    flat, _ = lib.flatten()
    run.facts["extraction.pooled"] = flat.shape[0]
    run.facts["extraction.duplicates"] = flat.shape[0] - np.unique(flat, axis=0).shape[0]
    run.facts["extraction.models"] = math.prod(lib.sizes)


def _convergence(run: SceneRun, algo: str, iterations, converged, cap):
    """Iterations as returned, against the iteration cap that was passed
    (None for solvers whose count is not an iteration: MESMA counts
    models, greedy L0 reports 1)."""
    run.conv[algo] = {"iterations": int(iterations), "cap": cap,
                      "logged_converged": bool(converged)}


def _score(rec: Recorder, run: SceneRun, algo: str, truth, result, class_means):
    with rec.span("score"):
        run.rmse[algo] = eval_result(truth, result, class_means=np.asarray(class_means))["rmse_A"]


class InMemory:
    """Scenes synthesized, extracted and unmixed in one process.

    ``solvers`` names the solvers the scene runs, in order.
    """

    def __init__(self, size: tuple, solvers: tuple, vca: bool):
        self.height, self.width, self.bands = size
        self.solvers = solvers
        self.vca = vca
        self.base = None

    def setup(self, workdir: Path, rec: Recorder):
        self.base = synthetic_base_spectra(self.bands, N_CLASSES, seed=123)
        # one tiny scene through every solver: loads lazily imported
        # modules and fills caches before anything is timed
        warm = SceneRun(-1, 0)
        self._scene(rec, warm, (WARMUP_SIZE, WARMUP_SIZE))
        return warm

    def scene(self, rec: Recorder, run: SceneRun):
        self._scene(rec, run, (self.height, self.width))

    def _scene(self, rec: Recorder, run: SceneRun, hw):
        s_synth, s_ext, s_vca = scene_seeds(run.seed, max(run.index, 0))
        with rec.span("synth"):
            truth = synthesize_scene(self.base, ABUNDANCE, VARIABILITY, snr_db=SNR_DB,
                                     seed=s_synth, height=hw[0], width=hw[1])
        _scene_facts(run, truth)
        with rec.span("extract.bundles"):
            lib = extract_bundles(truth.image_noisy, _extraction_cfg(s_ext))
        _library_facts(run, lib)
        vca = None
        if self.vca:
            with rec.span("extract.endmembers"):
                vca, _ = extract_endmembers(truth.image_noisy, N_CLASSES, seed=s_vca)
        image = truth.image_noisy
        y = image.pixels
        n, l = y.shape
        for algo in self.solvers:
            with rec.span("unmix." + algo):
                result, means = self._solve(algo, image, lib, vca)
            a = result.abundances.data
            with rec.span("check"):
                problems = checks.simplex(a, algo)
                if algo == "fcls":
                    problems += checks.simplex_kkt(y, vca.T, a, algo)
                elif algo == "mesma":
                    models = checks.model_matrices([c.signatures for c in lib.classes],
                                                   result.selected_model)
                    problems += checks.simplex_kkt(y, models, a, algo)
                elif algo == "sparse-l1":
                    problems += checks.l1_kkt(y, lib.flatten()[0].T, result.raw_abundances.data,
                                              L1_LAMBDA, algo)
                elif algo == "sparse-l0":
                    problems += checks.support_size(result.raw_abundances.data, L0_K, algo)
                run.check(problems)
            cap = {"fcls": INNER_CAP, "sparse-l1": INNER_CAP,
                   "elmm": OUTER_ITERS, "plmm": OUTER_ITERS}.get(algo)
            log = result.solver_log
            _convergence(run, algo, log.iterations, log.converged, cap)
            if algo == "mesma":
                run.facts["mesma.models"] = result.solver_log.flags.get("models_enumerated", 0)
            if algo in ("elmm", "plmm"):
                run.facts[algo + ".field_mb"] = n * l * N_CLASSES * 8 / MB
            _score(rec, run, algo, truth, result, means)

    def _solve(self, algo, image, lib, vca):
        if algo == "fcls":
            return fcls(image, vca.T), vca
        if algo == "elmm":
            return elmm_unmix(image, vca.T, ELMM_OPTS), vca
        if algo == "plmm":
            return plmm_unmix(image, lib.class_means().T, PLMM_OPTS), lib.class_means()
        if algo == "mesma":
            return mesma(image, lib), lib.class_means()
        if algo == "sparse-l1":
            return sparse_su_l1(image, lib, SolverOptions(lambda_sparse=L1_LAMBDA)), lib.class_means()
        return sparse_su_l0(image, lib, k=L0_K, mode="greedy"), lib.class_means()

    def cleanup(self):
        pass


class CliRoundTrip:
    """The command line chain, run in-process through ``varimix.cli.main``:
    synth -> extract -> prune (count, then music) -> transform (mask) ->
    unmix fcls -> unmix mesma on the pruned, transformed library. Every
    artifact goes through files; each one is loaded back and checked."""

    solvers = ("fcls", "mesma")

    def __init__(self, size: tuple):
        self.height, self.width, self.bands = size
        self.work = None

    def setup(self, workdir: Path, rec: Recorder):
        self.work = workdir
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        save_library(synthetic_base_spectra(self.bands, N_CLASSES, seed=123),
                     self.work / "base.csv")
        warm = SceneRun(-1, 0)
        self._scene(rec, warm, (WARMUP_SIZE, WARMUP_SIZE))
        return warm

    def scene(self, rec: Recorder, run: SceneRun):
        self._scene(rec, run, (self.height, self.width))

    def _cli(self, rec: Recorder, run: SceneRun, *argv):
        with rec.span("cli." + argv[0]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in argv])
        run.check([] if code == 0 else [f"varimix {argv[0]} exited with {code}"])

    def _scene(self, rec: Recorder, run: SceneRun, hw):
        s_synth, s_ext, _ = scene_seeds(run.seed, max(run.index, 0))
        w = self.work / "scene"
        if w.exists():
            shutil.rmtree(w)
        w.mkdir()
        config = SceneConfig(hw[0], hw[1], str(self.work / "base.csv"), ABUNDANCE, VARIABILITY,
                             snr_db=SNR_DB, seed=s_synth, name="bench").to_dict()
        (w / "scene.json").write_text(json.dumps(config))
        scene, lib, lib_c, lib_p = w / "scene", w / "lib.csv", w / "lib_count.csv", w / "lib_pruned.csv"
        mask, out_f, out_m = w / "mask.json", w / "fcls", w / "mesma"
        self._cli(rec, run, "synth", "--config", w / "scene.json", "--out", scene)
        self._cli(rec, run, "extract", "--image", scene, "--classes", N_CLASSES,
                  "--runs", EXTRACTION["num_runs"], "--subset", EXTRACTION["subset_size"],
                  "--seed", s_ext, "--out", lib)
        self._cli(rec, run, "prune", "--library", lib, "--method", "count",
                  "--target", PRUNE_TARGET, "--out", lib_c)
        self._cli(rec, run, "prune", "--library", lib_c, "--method", "music", "--image", scene,
                  "--subspace-dim", N_CLASSES, "--out", lib_p)
        self._cli(rec, run, "transform", "--library", lib_p, "--method", "mask",
                  "--bands", self.bands // 2, "--out", mask)
        self._cli(rec, run, "unmix", "--image", scene, "--algo", "fcls",
                  "--library", lib_p, "--out", out_f)
        self._cli(rec, run, "unmix", "--image", scene, "--algo", "mesma",
                  "--library", lib_p, "--transform", mask, "--out", out_m)
        with rec.span("check"):
            self._load_back(rec, run, scene, lib, lib_p, mask, out_f, out_m)

    def _load_back(self, rec, run, scene, lib, lib_p, mask, out_f, out_m):
        """Every artifact must load; abundances are checked and scored."""
        try:
            truth = load_scene(scene)
            extracted, pruned = load_library(lib), load_library(lib_p)
            transform = SpectralTransform.from_json(mask)
            a_f = load_abundances(out_f / "abundances.csv").data
            a_m = load_abundances(out_m / "abundances.csv").data
            y_m, lib_m = apply_transform(transform, truth.image_noisy, pruned)
            field_m = load_endmember_field(out_m / "endmembers", y_m.n_bands).data
            for out in (out_f, out_m):
                load_image(out / "re")
            logs = {a: json.loads((o / "solver_log.json").read_text())
                    for a, o in (("fcls", out_f), ("mesma", out_m))}
        except (OSError, ValueError, KeyError) as exc:
            run.check([f"artifacts do not load back: {exc!r}"])
            return
        run.check([])
        _library_facts(run, extracted)
        _scene_facts(run, truth)
        run.facts["libops.kept"] = sum(pruned.sizes)
        run.facts["mesma.models"] = logs["mesma"]["flags"].get("models_enumerated", 0)
        y = truth.image_noisy.pixels
        run.check(checks.simplex(a_f, "fcls") + checks.simplex_kkt(y, pruned.class_means().T, a_f, "fcls"))
        sigs_m = [c.signatures for c in lib_m.classes]
        selected, unmatched = checks.match_models(field_m, sigs_m)
        run.check([f"mesma: {unmatched} endmember columns match no library signature"]
                  if unmatched else [])
        run.check(checks.simplex(a_m, "mesma") + checks.simplex_kkt(
            y_m.pixels, checks.model_matrices(sigs_m, selected), a_m, "mesma"))
        for algo, cap in (("fcls", INNER_CAP), ("mesma", None)):
            _convergence(run, algo, logs[algo]["iterations"], logs[algo]["converged"], cap)
        with rec.span("score"):
            perm = align_classes(truth.endmembers.class_means(), pruned.class_means())
            for algo, a in (("fcls", a_f), ("mesma", a_m)):
                run.rmse[algo] = rmse(truth.abundances.data, a[:, perm])

    def cleanup(self):
        if self.work is not None and self.work.exists():
            shutil.rmtree(self.work)


SIZES = {
    # (height, width, bands) for a full run and for the smoke mode
    "library_search": ((16, 16, 100), (12, 12, 16)),
    "alternating_large": ((48, 48, 200), (12, 12, 16)),
    "cli_roundtrip": ((100, 100, 200), (12, 12, 16)),
}


def make(name: str, smoke: bool):
    size = SIZES[name][1 if smoke else 0]
    if name == "library_search":
        return InMemory(size, ("mesma", "sparse-l1", "sparse-l0"), vca=False)
    if name == "alternating_large":
        return InMemory(size, ("fcls", "elmm", "plmm"), vca=True)
    return CliRoundTrip(size)


# ---------------------------------------------------------------- tracing

def _iters_after(rec, sp, fn, args, kwargs, result):
    """Rows, returned iterations and whether they reached the passed cap."""
    cap = bound_arg(fn, args, kwargs, "max_iters")
    sp.attrs.update(rows=int(result[0].shape[0]), iters=int(result[1]),
                    cap_hit=int(cap is not None and result[1] >= cap))


def _fcls_after(rec, sp, fn, args, kwargs, result):
    """Also counts the returned rows that fail the simplex KKT certificate."""
    _iters_after(rec, sp, fn, args, kwargs, result)
    y = np.asarray(bound_arg(fn, args, kwargs, "y"), dtype=float)
    m = np.asarray(bound_arg(fn, args, kwargs, "m"), dtype=float)
    with rec.span("check.kkt"):
        res = checks.simplex_kkt_residual(y, m, result[0])
    sp.attrs["kkt_bad"] = int((res > checks.KKT_TOL).sum())


def _loop_args(rec, fn, args, kwargs):
    """Wrap monotone_loop's step, cost and blend callbacks in spans."""
    def spanned(name, f):
        def g(*a, **k):
            with rec.span(name):
                return f(*a, **k)
        return g

    try:
        ba = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:                    # a changed signature: leave the call alone
        return args, kwargs
    for pname, span in (("step_fn", "loop.step"), ("cost_fn", "loop.cost"),
                        ("blend_fn", "loop.blend")):
        if pname in ba.arguments:
            ba.arguments[pname] = spanned(span, ba.arguments[pname])
    return ba.args, ba.kwargs


def _file_bytes(path) -> int:
    p = Path(path)
    if p.is_dir():
        return sum(f.stat().st_size for f in p.rglob("*") if f.is_file())
    total = p.stat().st_size if p.is_file() else 0
    if p.suffix == ".json" and p.with_suffix(".bin").is_file():
        total += p.with_suffix(".bin").stat().st_size
    return total


def _write_after(rec, sp, fn, args, kwargs, result):
    sp.attrs["bytes"] = _file_bytes(result)


def _read_after(rec, sp, fn, args, kwargs, result):
    data = getattr(result, "data", None)
    if data is not None:
        sp.attrs["bytes"] = int(data.nbytes)
    else:
        sp.attrs["bytes"] = _file_bytes(bound_arg(fn, args, kwargs, "path"))


def sites() -> list[Site]:
    """Every public name a traced run wraps, at the module where its caller
    looks it up."""
    out = [Site(f"varimix.solvers.{m}", "fcls_core", "qp.fcls_core", after=_fcls_after)
           for m in ("fcls", "mesma", "elmm", "plmm", "sparse")]
    out += [
        Site("varimix.solvers.sparse", "nnls_core", "qp.nnls_core", after=_iters_after),
        Site("varimix.solvers.sparse", "scipy_nnls", "l0.scipy_nnls"),
        Site("varimix.solvers.elmm", "monotone_loop", "loop", wrap_args=_loop_args),
        Site("varimix.solvers.plmm", "monotone_loop", "loop", wrap_args=_loop_args),
        Site("varimix.extraction", "extract_endmembers", "extract.endmembers"),
        Site("varimix.cli", "synthesize_from_config", "synth"),
        Site("varimix.cli", "extract_bundles", "extract.bundles"),
        Site("varimix.cli", "count_based_reduce", "libops.prune"),
        Site("varimix.cli", "music_prune", "libops.prune"),
        Site("varimix.cli", "select_stable_bands", "libops.transform"),
        Site("varimix.cli", "apply_transform", "libops.transform"),
        Site("varimix.cli", "fcls", "unmix.fcls"),
        Site("varimix.cli", "mesma", "unmix.mesma"),
        Site("varimix.cli", "resolve_image", "io.read", after=_read_after),
        Site("varimix.cli", "load_library", "io.read", after=_read_after),
    ]
    out += [Site("varimix.cli", name, "io.write", after=_write_after)
            for name in ("save_scene", "save_library", "save_abundances", "save_image",
                         "save_endmember_field")]
    return out
