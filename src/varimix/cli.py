"""Command line interface.

Subcommands: synth, extract, prune, transform, unmix, bench. All outputs
are deterministic given the configured seeds.

``unmix`` runs a solver through ``bench.run_solver``, as a bench roster
entry does: its one input is ``--library``, which ``--transform`` maps
with the image (the matrix solvers take the mapped library's class
means); ``bench.solver_keywords`` turns the flags given that name its
parameters (``--opts``: its ``opts`` file) into its keywords before any
input is read, and ``io.save_result`` writes the outputs. ``extract``'s
flags given are ``BundleExtractionConfig`` fields.
``prune`` and ``transform`` turn their flags into a bench config spec and
call ``libops.prune`` / ``libops.build_transform``, as the bench does.
A flag that only other solvers or methods take is refused, by one rule
for all three commands.
The parser is built once per process (``build_parser`` is cached) for
in-process callers of ``main``; parsing leaves it unchanged.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from .bench import BenchConfig, run_bench, run_solver, solver_keywords
from .extraction import BundleExtractionConfig, extract_bundles
from .io import load_config, load_library, resolve_image, save_library, save_result, save_scene
from .libops import METHODS, build_transform, prune
from .solvers import ALGORITHMS, SOLVERS
from .synth import SceneConfig, synthesize_from_config
from .types import BudgetError, FormatError


def _read_config(load, path):
    """``load`` applied to the JSON document in a file; errors name the file."""
    try:
        return load(json.loads(Path(path).read_text()))
    except (json.JSONDecodeError, FormatError) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _cmd_synth(args) -> int:
    cfg = _read_config(functools.partial(load_config, SceneConfig), args.config)
    truth = synthesize_from_config(cfg)
    save_scene(truth, args.out)
    print(f"scene written to {args.out}")
    return 0


def _cmd_extract(args) -> int:
    # the flags given, by the config's field names; the rest take its defaults
    cfg = BundleExtractionConfig(**{f.name: getattr(args, f.name) for f in fields(
        BundleExtractionConfig) if getattr(args, f.name) is not None})
    library = extract_bundles(resolve_image(args.image), cfg)
    save_library(library, args.out)
    print(f"library with {sum(library.sizes)} signatures in {library.n_classes} "
          f"classes written to {args.out}")
    return 0


def _refuse_other_flags(args, choice: str, takes):
    """Refuse each flag in ``args.specific`` (the arguments only some
    methods or solvers take) that was given and whose dest is not in
    ``takes``, the keys the value of ``--choice`` takes."""
    for a in args.specific:
        if a.dest not in takes and getattr(args, a.dest) is not None:
            raise ValueError(f"{a.option_strings[0]} does not apply to --{choice} "
                             f"{getattr(args, choice)}")


def _spec(block: str, args) -> dict:
    """The bench config's ``block`` spec for the method's flags given; the
    flags of its other methods are refused (``--image`` is music's)."""
    keys = METHODS[block][args.method]
    _refuse_other_flags(args, "method", {*keys, "image"} if args.method == "music" else keys)
    return {"method": args.method,
            **{k: getattr(args, k) for k in keys if getattr(args, k) is not None}}


def _cmd_prune(args) -> int:
    spec = _spec("prune", args)
    if args.method == "music" and not args.image:
        raise ValueError("--image required for --method music")
    library = load_library(args.library)
    pruned = prune(spec, library, resolve_image(args.image) if args.image else None)
    save_library(pruned, args.out)
    print(f"kept {sum(pruned.sizes)} of {sum(library.sizes)} signatures -> {args.out}")
    return 0


def _cmd_transform(args) -> int:
    t = build_transform(_spec("transform", args), load_library(args.library))
    t.to_json(args.out)
    print(f"{args.method} transform ({t.input_bands} -> {t.output_bands} bands) "
          f"written to {args.out}")
    return 0


def _cmd_unmix(args) -> int:
    solver = SOLVERS[args.algo]
    _refuse_other_flags(args, "algo", solver.params)
    options = {k: getattr(args, k) for k in solver.params if getattr(args, k) is not None}
    keywords = functools.partial(solver_keywords, args.algo)
    params = _read_config(keywords, options["opts"]) if "opts" in options else keywords(options)
    if not args.library:
        raise ValueError("--library required")
    spec = {"method": "path", "path": args.transform} if args.transform else None
    result, _ = run_solver(args.algo, resolve_image(args.image), load_library(args.library),
                           spec, params)
    out = save_result(result, args.out)
    print(f"{args.algo} finished: final cost {result.solver_log.final_cost:.6g}, "
          f"results in {out}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _read_config(functools.partial(load_config, BenchConfig), args.config)
    report = run_bench(cfg, paper_scale=args.paper_scale)
    failed = report.metadata.get("failed_cells", [])
    print(f"bench finished: {len(report.rows)} algorithms, "
          f"{len(report.metadata['seeds'])} runs, {len(failed)} failed cells")
    print(f"report: {Path(cfg.output_dir) / 'report.md'}")
    return 0 if not failed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="varimix",
                                description="spectral unmixing under endmember variability")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("synth", help="synthesize a ground-truthed scene")
    s.add_argument("--config", required=True, help="scene config JSON")
    s.add_argument("--out", required=True, help="output scene directory")
    s.set_defaults(func=_cmd_synth)

    s = sub.add_parser("extract", help="extract a spectral library from an image")
    s.add_argument("--image", required=True, help="image header path or scene directory")
    s.add_argument("--classes", type=int, required=True, dest="n_classes")
    s.add_argument("--runs", type=int, dest="num_runs")
    s.add_argument("--subset", type=int, dest="subset_size")
    s.add_argument("--seed", type=int, default=0, help="default: 0, so that a run is seeded")
    s.add_argument("--metric", choices=("spectral_angle", "euclidean"), dest="cluster_metric")
    s.add_argument("--no-replacement", action="store_false", dest="with_replacement",
                   default=None, help="sample subsets without replacement")
    s.add_argument("--out", required=True, help="output library CSV")
    s.set_defaults(func=_cmd_extract)

    # prune/transform flags are the bench config's keys; defaults in libops.METHODS
    s = sub.add_parser("prune", help="reduce or prune a spectral library")
    s.add_argument("--library", required=True)
    s.add_argument("--method", choices=tuple(METHODS["prune"]), required=True)
    s.set_defaults(func=_cmd_prune, specific=(
        s.add_argument("--angle-threshold", type=float),
        s.add_argument("--target", type=int, dest="target_per_class"),
        s.add_argument("--coverage-metric", choices=("sam", "sqerr"), dest="metric"),
        s.add_argument("--image", help="image for the subspace method"),
        s.add_argument("--subspace-dim", type=int, help="default: the library's class count"),
        s.add_argument("--residual-threshold", type=float)))
    s.add_argument("--out", required=True)

    s = sub.add_parser("transform", help="build a spectral transform from a library")
    s.add_argument("--library", required=True)
    s.add_argument("--method", choices=[m for m in METHODS["transform"] if m != "path"],
                   required=True)
    s.set_defaults(func=_cmd_transform, specific=(
        s.add_argument("--bands", type=int, dest="k", help="bands to keep (mask)"),
        s.add_argument("--threshold", type=float, help="instability threshold (mask)"),
        s.add_argument("--dim", type=int, help="output dimension (fda)")))
    s.add_argument("--out", required=True, help="output transform JSON")

    s = sub.add_parser("unmix", help="run an unmixing algorithm")
    s.add_argument("--image", required=True)
    s.add_argument("--algo", choices=ALGORITHMS, required=True)
    s.add_argument("--library", help="library CSV; fcls / elmm / plmm take its class means")
    s.add_argument("--transform", help="transform JSON from 'varimix transform'")
    s.set_defaults(func=_cmd_unmix, specific=(
        s.add_argument("--opts", help="sparse-l1 / elmm / plmm options JSON"),
        s.add_argument("--re-threshold", type=float, help="mesma early-stop threshold"),
        s.add_argument("--k", type=int, help="sparse-l0 support size"),
        s.add_argument("--l0-mode", choices=("greedy", "exhaustive"), dest="mode")))
    s.add_argument("--out", required=True, help="output directory")

    s = sub.add_parser("bench", help="run a Monte Carlo benchmark")
    s.add_argument("--config", required=True, help="bench config JSON")
    s.add_argument("--paper-scale", action="store_true",
                   help="scale RMSE columns by 1e4 in the markdown report")
    s.set_defaults(func=_cmd_bench)
    return p


def main(argv=None) -> int:
    """Run a command; a refused value (``ValueError``, ``BudgetError``) or
    path (``OSError``) ends it with ``error: ...`` and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetError, OSError) as exc:
        msg = f"{exc.filename}: {exc.strerror}" if getattr(exc, "filename", None) else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
