"""End-to-end benchmark harness.

Per Monte Carlo run: synthesize a fresh scene, assemble the configured
libraries, run every roster algorithm, align classes, score against the
scene truth, and keep all artifacts. Seeds are derived as
``master_seed + run_index`` so any failed cell can be reproduced alone.

A roster entry runs the way ``varimix unmix`` does: its library goes
through ``run_solver``, which builds the configured transform from that
library, applies it to the image and the library and calls
``solvers.unmix`` (the matrix solvers take the transformed library's
class means), and each run directory is written by ``io.save_result``,
so it holds the same files as an ``unmix`` output directory.

Wall times are reported in the markdown table and the JSON logs only:
the CSV outputs contain nothing nondeterministic, so reruns with the
same configuration are byte-identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

from .extraction import BundleExtractionConfig, extract_bundles, extract_endmembers
from .io import load_config, load_library, save_result, save_scene
from .libops import apply_transform, build_transform, check_spec, prune
from .metrics import field_scores, pairwise_angles, rmse
from .solvers import ALGORITHMS, SOLVERS, SolverOptions, UnmixingResult, unmix
from .synth import SceneConfig, synthesize_from_config, truth_variant_library
from .types import (
    BenchReport,
    DimensionError,
    FormatError,
    MetricRow,
    SceneTruth,
    SpectralImage,
    SpectralLibrary,
)

_CSV_FMT = "%.17g"
_METRICS = ("rmse_A", "rmse_M", "sam_M", "rmse_Y")     # eval_result's scores, in report order


def solver_keywords(algo: str, options: dict) -> dict:
    """Solver ``algo``'s keywords for a roster entry's or ``varimix unmix``'s
    ``options``: an ``opts`` loaded from them (``io.load_config``), or they
    themselves, an unknown key refused (``FormatError``) and ``check`` passed."""
    solver = SOLVERS[algo]
    if "opts" in solver.params:
        return {"opts": load_config(SolverOptions, options)}
    unknown = sorted(options.keys() - set(solver.params))
    if unknown:
        raise FormatError(f"{unknown[0]}: unknown key")
    solver.check(**options)
    return dict(options)


@dataclass(frozen=True)
class RosterEntry:
    """One benchmark row.

    ``library_source`` names each run's library: ``extracted`` is the
    pooled-subset bundle library, or for matrix algorithms one VCA
    endmember per class; ``extracted-bundles`` the bundle library for
    both; ``truth-variants`` the scene's realized signatures; ``file``
    the CSV at ``library_path``, which only this source takes. The
    transform is built from that library. ``options`` holds the solver's
    ``SOLVERS[algo].params``, an ``opts`` as its ``SolverOptions`` fields;
    the entry turns it into ``params`` by ``solver_keywords`` when built, so
    a key the solver does not read, or a bad value, is refused.
    """

    name: str
    algo: str
    library_source: str = "extracted"
    library_path: Optional[str] = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.library_source not in ("extracted", "extracted-bundles",
                                       "truth-variants", "file"):
            raise ValueError(f"unknown library source {self.library_source!r}")
        if (self.library_source == "file") != bool(self.library_path):
            raise ValueError("library_path goes with library_source 'file', and only with it")
        object.__setattr__(self, "params", solver_keywords(self.algo, self.options))


@dataclass(frozen=True)
class BenchConfig:
    scene: SceneConfig
    roster: tuple[RosterEntry, ...]
    extraction: Optional[BundleExtractionConfig] = None
    prune: Optional[dict] = None
    transform: Optional[dict] = None
    n_monte_carlo: int = 1
    master_seed: int = 0
    output_dir: str = "bench_out"
    keep_run_artifacts: bool = True

    def __post_init__(self):
        roster = tuple(self.roster)
        if not roster:
            raise ValueError("roster must not be empty")
        names = [r.name for r in roster]
        if len(set(names)) != len(names):
            raise ValueError("roster names must be unique")
        object.__setattr__(self, "roster", roster)
        if self.n_monte_carlo < 1:
            raise ValueError("n_monte_carlo must be >= 1")
        for block in ("prune", "transform"):
            if getattr(self, block):
                check_spec(block, getattr(self, block))


def _sub_seed(run_seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([run_seed, stream]).generate_state(1)[0])


def run_solver(algo: str, image: SpectralImage, library: SpectralLibrary,
               transform: Optional[dict], params: dict):
    """Run solver ``algo`` on ``image`` with ``library`` and ``params``, the
    one way in for ``varimix unmix`` and a bench roster entry. A
    ``transform`` spec is built from ``library`` and applied to the image
    and the library; the matrix solvers then take the library's class
    means. Returns the result and the transform (``None`` without a spec)."""
    t = None
    if transform:
        t = build_transform(transform, library)
        image, library = apply_transform(t, image, library)
    source = library.class_means().T if SOLVERS[algo].kind == "matrix" else library
    return unmix(algo, image, source, **params), t


def align_classes(truth_means: np.ndarray, candidate_means: np.ndarray) -> np.ndarray:
    """Permutation ``perm`` such that candidate class ``perm[p]`` matches
    truth class ``p`` (Hungarian assignment on mean-signature angles)."""
    if truth_means.shape[0] != candidate_means.shape[0]:
        raise DimensionError("class count mismatch in alignment")
    cost = pairwise_angles(truth_means, candidate_means)
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(truth_means.shape[0], dtype=np.intp)
    perm[rows] = cols
    return perm


def eval_result(
    truth: SceneTruth,
    result: UnmixingResult,
    class_means: Optional[np.ndarray] = None,
    clean_pixels: Optional[np.ndarray] = None,
) -> dict:
    """Metric row for one algorithm on one scene.

    ``class_means`` (P, L) are the per-class mean signatures of the
    library the solver was given, before any transform; when given,
    classes are aligned to the truth by Hungarian assignment on
    mean-signature angles before any metric is computed.
    ``clean_pixels`` overrides the reconstruction target (used when the
    solver ran in a transformed band space).
    """
    if result.abundances.n_classes != truth.abundances.n_classes:
        raise DimensionError("class count mismatch between truth and result")
    perm = None
    if class_means is not None:
        perm = align_classes(truth.endmembers.class_means(), np.asarray(class_means))
    row = {"rmse_A": rmse(truth.abundances.data, result.abundances.data, perm),
           "rmse_M": None, "sam_M": None}
    target = truth.image_clean.pixels if clean_pixels is None else clean_pixels
    row["rmse_Y"] = rmse(target, result.reconstruction)
    if result.endmembers is not None and clean_pixels is None:
        row["rmse_M"], row["sam_M"] = field_scores(truth.endmembers, result.endmembers, perm)
    return row


class _RunLibraries:
    """Per-run library construction, cached across roster entries."""

    def __init__(self, cfg: BenchConfig, truth: SceneTruth, run_seed: int):
        self.cfg = cfg
        self.truth = truth
        self.run_seed = run_seed
        self._cache: dict[tuple, SpectralLibrary] = {}

    def library(self, entry: RosterEntry) -> SpectralLibrary:
        """The entry's library: VCA endmembers, one signature per class,
        for a matrix solver's ``extracted`` source; else the bundle,
        truth or file library, pruned by the config."""
        source = entry.library_source
        if source.startswith("extracted"):
            matrix = SOLVERS[entry.algo].kind == "matrix"
            source = "vca" if source == "extracted" and matrix else "bundles"
        key = (source, entry.library_path)
        if key not in self._cache:
            image, n_classes = self.truth.image_noisy, self.truth.abundances.n_classes
            if source == "vca":
                sigs, _ = extract_endmembers(image, n_classes, seed=_sub_seed(self.run_seed, 2))
                lib = SpectralLibrary.from_matrix(sigs.T)
            elif source == "bundles":
                ext = self.cfg.extraction or BundleExtractionConfig(n_classes=n_classes)
                lib = extract_bundles(image, dataclasses.replace(
                    ext, seed=_sub_seed(self.run_seed, 1)))
            elif source == "truth-variants":
                lib = truth_variant_library(self.truth)
            else:
                lib = load_library(entry.library_path)
            if self.cfg.prune and source != "vca":
                lib = prune(self.cfg.prune, lib, image)
            self._cache[key] = lib
        return self._cache[key]


def _run_entry(entry: RosterEntry, cfg: BenchConfig, truth: SceneTruth, libs: _RunLibraries):
    library = libs.library(entry)
    result, t = run_solver(entry.algo, truth.image_noisy, library, cfg.transform, entry.params)
    clean_pixels = None if t is None else t.apply(truth.image_clean.pixels)
    return result, eval_result(truth, result, class_means=library.class_means(),
                               clean_pixels=clean_pixels)


def run_bench(cfg: BenchConfig, paper_scale: bool = False) -> BenchReport:
    """Run the bench; write ``report.csv`` and, once, ``report.md`` (RMSE
    scaled by 1e4 with ``paper_scale``) from each ``_METRICS`` score's mean
    and median over the runs that computed it, ``None`` if none did."""
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the digest names the scene: the library enters by its bytes, float fields as floats
    scene = {**load_config(SceneConfig, cfg.scene.to_dict()).to_dict(),
             "base_library": hashlib.sha256(Path(cfg.scene.base_library).read_bytes()).hexdigest()}
    digest = hashlib.sha256(json.dumps(scene, sort_keys=True).encode()).hexdigest()

    cells: dict[str, list[dict]] = {r.name: [] for r in cfg.roster}
    failed: list[dict] = []
    seeds = [cfg.master_seed + k for k in range(cfg.n_monte_carlo)]

    for k, run_seed in enumerate(seeds):
        truth = synthesize_from_config(cfg.scene, seed=run_seed)
        run_dir = out / "runs" / str(k)
        if cfg.keep_run_artifacts:
            save_scene(truth, run_dir / "scene")
        libs = _RunLibraries(cfg, truth, run_seed)
        for entry in cfg.roster:
            try:
                result, metrics = _run_entry(entry, cfg, truth, libs)
            except Exception as exc:   # continue the bench, mark the cell
                failed.append({"run": k, "algorithm": entry.name,
                               "seed": run_seed, "error": f"{type(exc).__name__}: {exc}"})
                continue
            cells[entry.name].append({**metrics, "runtime": result.solver_log.wall_time_s})
            if cfg.keep_run_artifacts:
                save_result(result, run_dir / entry.name)

    report = BenchReport(metadata={
        "seeds": seeds,
        "scene_digest": digest,
        "failed_cells": failed,
        "class_alignment": "hungarian assignment on mean-signature angles, per run",
    })
    for entry in cfg.roster:
        rows, stats = cells[entry.name], {}
        for key in _METRICS:
            vals = [r[key] for r in rows if r[key] is not None]
            if vals:
                stats[key.lower() + "_mean"] = float(np.mean(vals))
                stats[key.lower() + "_median"] = float(np.median(vals))
        report.rows[entry.name] = MetricRow(
            **stats, runtime_mean=float(np.mean([r["runtime"] for r in rows] or [0.0])),
            n_failed=cfg.n_monte_carlo - len(rows),
        )

    _write_report_csv(report, out / "report.csv")
    _write_report_md(report, out / "report.md", paper_scale)
    return report


def _write_report_csv(report: BenchReport, path: Path):
    cols = [f"{key.lower()}_{stat}" for key in _METRICS for stat in ("mean", "median")]
    lines = [",".join(["algorithm", *cols, "n_failed"])]
    for name, row in report.rows.items():
        cells = ["" if v is None else _CSV_FMT % v for v in (getattr(row, c) for c in cols)]
        lines.append(",".join([name, *cells, str(row.n_failed)]))
    path.write_text("\n".join(lines) + "\n")


def _write_report_md(report: BenchReport, path: Path, paper_scale: bool):
    scale = 1e4 if paper_scale else 1.0
    note = " (RMSE columns scaled by 1e4)" if paper_scale else ""
    lines = [
        f"# Benchmark report{note}",
        "",
        f"Class alignment: {report.metadata.get('class_alignment', 'none')}.",
        f"Scene digest: `{report.metadata.get('scene_digest', '')}`;"
        f" seeds: {report.metadata.get('seeds', [])}.",
        "",
        f"| Algorithm | {' | '.join(_METRICS).upper()} | Time [s] |",
        "|---" * (len(_METRICS) + 2) + "|",
    ]
    for name, row in report.rows.items():
        means = {key: getattr(row, key.lower() + "_mean") for key in _METRICS}
        cells = ["--" if v is None else f"{v * (scale if key.startswith('rmse') else 1.0):.4g}"
                 for key, v in means.items()]
        lines.append(f"| {name} | {' | '.join(cells)} | {row.runtime_mean:.2f} |")
    failed = report.metadata.get("failed_cells", [])
    if failed:
        lines += ["", f"Failed cells: {len(failed)}"]
        for f in failed:
            lines.append(f"- run {f['run']}, {f['algorithm']} (seed {f['seed']}): {f['error']}")
    path.write_text("\n".join(lines) + "\n")
