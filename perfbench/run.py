#!/usr/bin/env python3
"""varimix benchmark.

    python3 perfbench/run.py --workload library_search --seed 1 --seconds 30 --trace 0

Runs scenes of one workload (see ``workloads.py`` and README.md) for
``--seconds`` seconds, checks every output, and prints a summary
followed, on the last line, by one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` they are the per-layer ones, taken from scenes run
with the layer wrappers installed, each right after the same scene run
without them (the pair gives the tracing overhead). Details, and with
``--trace 1`` every span, go to ``perfbench/out/``.

The program is imported from ``src/`` of the checkout that holds this
file; the run fails when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

from spans import MB, Recorder, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("library_search", "alternating_large", "cli_roundtrip")
SETUP_REPEATS = 3
# one BLAS thread keeps timings independent of the core count and of
# other processes competing for cores
BLAS_THREADS = 1
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SOLVERS = ("fcls", "mesma", "sparse-l1", "sparse-l0", "elmm", "plmm")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure scenes until this much time has passed (at least one scene)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny scenes, for testing the benchmark itself")
    p.add_argument("--out", default=str(HERE / "out"), help="directory for details")
    return p.parse_args(argv)


class Reference:
    """A fixed numpy computation, independent of varimix, timed between
    rounds of scenes. Dividing a scene's time by the reference time taken
    around it cancels most of the drift in machine speed that a shared
    host shows from minute to minute. It has two halves: small arrays that
    stay in cache, and streaming over arrays far larger than the cache,
    because the solvers do both and a busy host slows them differently."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.random((400, 100))
        self.b = rng.random((100, 5))
        self.big = rng.random(2_000_000)          # 16 MB
        self.big_out = np.empty_like(self.big)

    def seconds(self) -> float:
        np, a, b = self.np, self.a, self.b
        t0 = time.perf_counter()
        for _ in range(1000):
            c = a @ b
            d = np.sort(c, axis=1)
            e = np.cumsum(d, axis=1) - 1.0
            np.maximum(c - e[:, -1:] / 5.0, 0.0).sum(axis=1)
        for _ in range(12):
            np.multiply(self.big, 1.0000001, out=self.big_out)
            np.add(self.big_out, self.big, out=self.big_out)
            self.big_out.sum()
        return time.perf_counter() - t0


# the reference's median time on the host the baseline was measured on
# (shared 2-core VM, Python 3.11, numpy 2.4); setup_s is reported as the
# set-up time that host would show at this reference speed
REF_NOMINAL_S = 0.16


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values) -> str:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    n = len(values)
    if n == 0:
        return "no samples"
    out = f"median {median(values):.6g}"
    if n >= 11:
        q = 100.0 * (n - 10) / n
        out += f"  p{q:.0f} {sorted(values)[n - 11]:.6g}"
    else:
        out += "  (no percentile: fewer than 11 samples)"
    return out + f"  n={n}"


def stage_times(rec, span_index) -> dict:
    """Seconds per top-level step of one scene, summed by span name."""
    out = {}
    for s in rec.spans:
        if s.parent == span_index:
            out[s.name] = out.get(s.name, 0.0) + s.duration
    return out


def scene_times(rec, span_index):
    """(scene_s, solve_s) of one scene: the chain's wall time without the
    benchmark's own checking and scoring, and the part spent unmixing."""
    stages = stage_times(rec, span_index)
    scene = rec.spans[span_index].duration - stages.get("check", 0.0) - stages.get("score", 0.0)
    solve = sum(t for name, t in stages.items()
                if name.startswith("unmix.") or name == "cli.unmix")
    return scene, solve


def layer_metrics(rec, selfs, scene_id, run):
    """Per-layer numbers of one traced scene (0 where the layer did not run)."""
    idx = [i for i, s in enumerate(rec.spans) if s.scene == scene_id]

    def pick(name, under=None):
        for i in idx:
            s = rec.spans[i]
            if s.name == name and (under is None or any(a.name == under for a in rec.ancestors(s))):
                yield i, s

    def total(name, under=None):
        return sum(s.duration for _, s in pick(name, under))

    def count(name, under=None):
        return sum(1 for _ in pick(name, under))

    def attr(name, key, under=None):
        return sum(s.attrs.get(key, 0) for _, s in pick(name, under))

    def self_s(name, under=None):
        return sum(selfs[i] for i, _ in pick(name, under))

    f = run.facts
    m = {}
    for kernel in ("fcls_core", "nnls_core"):
        k = "qp." + kernel
        m[k + ".calls"] = count(k)
        if kernel == "fcls_core":
            m[k + ".rows"] = attr(k, "rows")
        m[k + ".s"] = total(k)
        m[k + ".iters"] = attr(k, "iters")
        m[k + ".cap_hits"] = attr(k, "cap_hit")
    m["qp.kkt_bad_rows"] = attr("qp.fcls_core", "kkt_bad")
    m["mesma.models"] = f.get("mesma.models", 0)
    m["mesma.self_s"] = self_s("unmix.mesma")
    for key in ("pooled", "duplicates", "models"):
        m["extraction." + key] = f.get("extraction." + key, 0)
    m["extraction.bundles_s"] = total("extract.bundles")
    m["extraction.endmembers_s"] = total("extract.endmembers")
    m["sparse-l1.self_s"] = self_s("unmix.sparse-l1")
    m["sparse-l1.cap_hit"] = int(_at_cap(run.conv.get("sparse-l1")))
    m["sparse-l0.nnls_calls"] = count("l0.scipy_nnls")
    m["sparse-l0.nnls_s"] = total("l0.scipy_nnls")
    m["sparse-l0.self_s"] = self_s("unmix.sparse-l0")
    for algo in ("elmm", "plmm"):
        u = "unmix." + algo
        conv = run.conv.get(algo)
        m[algo + ".outer_iters"] = conv["iterations"] if conv else 0
        m[algo + ".cap_hit"] = int(_at_cap(conv) and not conv["logged_converged"])
        m[algo + ".step_s"] = total("loop.step", u)
        m[algo + ".qp_s"] = total("qp.fcls_core", u)
        m[algo + ".mstep_s"] = self_s("loop.step", u)
        m[algo + ".cost_calls"] = count("loop.cost", u)
        m[algo + ".cost_s"] = total("loop.cost", u)
        m[algo + ".backtracks"] = count("loop.blend", u)
        m[algo + ".field_mb"] = f.get(algo + ".field_mb", 0.0)
    m["log.converged_at_cap"] = sum(
        1 for c in run.conv.values() if _at_cap(c) and c["logged_converged"])
    m["synth.s"] = total("synth")
    m["synth.scene_mb"] = f.get("synth.scene_mb", 0.0)
    m["libops.prune_s"] = total("libops.prune")
    m["libops.transform_s"] = total("libops.transform")
    m["libops.kept"] = f.get("libops.kept", 0)
    for op in ("write", "read"):
        m[f"io.{op}_s"] = total("io." + op)
        m[f"io.{op}_mb"] = attr("io." + op, "bytes") / MB
    for cmd in ("synth", "extract", "prune", "transform", "unmix"):
        m[f"cli.{cmd}_s"] = total("cli." + cmd)
    m["score.s"] = total("score")
    m["score.rmse_A"] = statistics.fmean(run.rmse.values()) if run.rmse else 0.0
    for algo in SOLVERS:
        u = "unmix." + algo
        m["unmix_s." + algo] = total(u) - total("check.kkt", u)
    return m


def _at_cap(conv) -> bool:
    return bool(conv) and conv["cap"] is not None and conv["iterations"] >= conv["cap"]


def measure(wl, args, rec, tracer):
    """Set up, then run rounds of scenes for ``args.seconds``. The set-up
    is repeated after the rounds that end a third and two thirds of the
    way (or at the end, when there were too few rounds).

    Returns the set-up times with the reference time taken after each, the scenes as (SceneRun, traced, index of
    the scene span), the reference times (before the first round and
    after each round) and the operation counts.
    """
    import workloads

    ops = workloads.SceneRun(-1, args.seed)     # totals of every check
    reference = Reference()
    setups = []                     # (set-up seconds, reference seconds right after)

    def set_up():
        t0 = time.perf_counter()
        warm = wl.setup(Path(args.out) / f"work-{args.workload}-{os.getpid()}", Recorder())
        setups.append((time.perf_counter() - t0, reference.seconds()))
        ops.merge(warm)

    set_up()
    refs = [reference.seconds()]
    scenes = []
    rounds = []
    start = time.perf_counter()
    index = 0
    # a round starts only when a typical round still ends in time
    while index == 0 or time.perf_counter() - start + median(rounds) <= args.seconds:
        round_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            run = workloads.SceneRun(index, args.seed)
            rec.scene = len(scenes)
            span_index = len(rec.spans)
            with tracer.installed() if traced else nullcontext():
                with rec.span("scene", index=index, traced=traced):
                    try:
                        wl.scene(rec, run)
                    except Exception as exc:  # a failed scene is counted, not fatal
                        traceback.print_exc(file=sys.stderr)
                        run.check([f"scene {index} raised {exc!r}"])
            scenes.append((run, traced, span_index))
            ops.merge(run)
        refs.append(reference.seconds())
        rounds.append(time.perf_counter() - round_start)
        index += 1
        # the set-up is repeated spread over the run, so its median does not
        # hang on the machine's speed in the first second
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS):
            set_up()
    while len(setups) < SETUP_REPEATS:
        set_up()
    return setups, scenes, refs, ops


def print_summary(args, wl, plain, norms, refs, setup_raw, setup_s, peak_rss_mb, ops):
    scene_s = [t for _, t, _ in plain]
    solve_s = [s for _, _, s in plain]
    print(f"# varimix benchmark  workload={args.workload}  seed={args.seed}  "
          f"seconds={args.seconds:g}  trace={args.trace}  blas_threads={BLAS_THREADS}  "
          f"scenes={len(plain)}{'  smoke' if args.smoke else ''}")
    print(f"scene_s        {spread(scene_s)}  s")
    print(f"solve_s        {spread(solve_s)}  s")
    print(f"scene_norm     {spread(norms[0])}  ref")
    print(f"solve_norm     {spread(norms[1])}  ref")
    print(f"reference_s    {spread(refs)}  s")
    print(f"setup_raw_s    {spread(setup_raw)}  s")
    print(f"setup_s        {setup_s:.6g}  s at the nominal reference speed")
    print(f"peak_rss_mb    {peak_rss_mb:.6g}  MB")
    print(f"rmse_A         {spread([statistics.fmean(r.rmse.values()) for r, _, _ in plain if r.rmse])}"
          "  (mean over the workload's solvers)")
    for algo in wl.solvers:
        times = [t for r, _, _ in plain for name, t in r.stages.items() if name == "unmix." + algo]
        if times:
            print(f"unmix_s.{algo:10s} {spread(times)}  s")
        print(f"rmse_A.{algo:11s} {spread([r.rmse[algo] for r, _, _ in plain if algo in r.rmse])}")
        convs = [r.conv[algo] for r, _, _ in plain if algo in r.conv]
        if convs and convs[0]["cap"] is not None:
            print(f"converge.{algo:9s} iterations {sorted({c['iterations'] for c in convs})} "
                  f"of cap {convs[0]['cap']}: at cap in {sum(_at_cap(c) for c in convs)}/{len(convs)} "
                  f"scenes, log says converged in "
                  f"{sum(c['logged_converged'] for c in convs)}/{len(convs)}")
    print(f"fail_ratio     {ops.failed}/{ops.attempted} = {ops.failed / max(ops.attempted, 1):.6g}")
    for p in ops.problems[:20]:
        print(f"  failed: {p}")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:                     # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "varimix" / "__init__.py").is_file():
        print(f"error: varimix sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = workloads.make(args.workload, args.smoke)
    rec = Recorder()
    tracer = Tracer(rec, workloads.sites()) if args.trace else None
    try:
        setups, scenes, refs, ops = measure(wl, args, rec, tracer)
    finally:
        wl.cleanup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    for run, _, i in scenes:
        run.stages = stage_times(rec, i)
    plain = [(r, *scene_times(rec, i)) for r, traced, i in scenes if not traced]
    ref_s = [(refs[r.index] + refs[r.index + 1]) / 2 for r, _, _ in plain]
    norms = ([t / ref for (_, t, _), ref in zip(plain, ref_s)],
             [s / ref for (_, _, s), ref in zip(plain, ref_s)])
    setup_raw = [t for t, _ in setups]
    setup_s = median([t / r for t, r in setups]) * REF_NOMINAL_S
    print_summary(args, wl, plain, norms, refs, setup_raw, setup_s, peak_rss_mb, ops)

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": BLAS_THREADS, "smoke": args.smoke,
        "setup_raw_s": setup_raw, "setup_reference_s": [r for _, r in setups],
        "setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "reference_s": refs,
        "attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
        "scenes": [{"index": r.index, "traced": traced, "scene_s": scene_times(rec, i)[0],
                    "solve_s": scene_times(rec, i)[1], "stages_s": r.stages, "rmse_A": r.rmse,
                    "convergence": r.conv, "facts": r.facts}
                   for r, traced, i in scenes],
    }
    if args.trace:
        selfs = rec.self_times()
        pairs = [scenes[k:k + 2] for k in range(0, len(scenes), 2)]
        per_scene = [layer_metrics(rec, selfs, rec.spans[b[2]].scene, b[0]) for a, b in pairs]
        overhead = [scene_times(rec, b[2])[0] / scene_times(rec, a[2])[0] - 1.0
                    for a, b in pairs]
        layers = {k: median([d[k] for d in per_scene]) for k in per_scene[0]}
        layers["trace.overhead"] = median(overhead)
        absent = sorted(tracer.absent)
        print(f"trace.overhead {spread(overhead)}  (traced / untraced scene_s - 1)")
        print(f"absent spans   {', '.join(absent) if absent else 'none'}")
        print(f"hook errors    {tracer.hook_errors}  (wrapped calls whose result could not be read)")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
        details.update(absent=absent, hook_errors=tracer.hook_errors, spans=rec.to_json())
    else:
        metrics = {
            "scene_norm": {"value": median(norms[0]), "unit": "ref"},
            "solve_norm": {"value": median(norms[1]), "unit": "ref"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    details["metrics"] = metrics
    details["span_counts"] = dict(Counter(s.name for s in rec.spans))
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details) + "\n")
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or name.startswith("unmix_s."):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name == "trace.overhead":
        return "ratio"
    if name == "score.rmse_A":
        return "1"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
