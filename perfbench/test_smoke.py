"""Tests of the benchmark itself, on tiny scenes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, out: Path, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=600, cwd=root,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, tmp_path):
    proc = _run(ROOT, tmp_path, "--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    for m in SPEC["end_to_end"] if not trace else ():
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]
    assert not any(p.name.startswith("work-") for p in tmp_path.iterdir())
    details = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    # the untraced run installs no wrapper, so no span comes from inside varimix
    assert ("qp.fcls_core" in details["span_counts"]) == bool(trace)


def test_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, tmp_path / "out", "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_restores_names_and_reports_absent_ones():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import importlib

        import workloads
        from spans import Recorder, Site, Tracer

        sites = workloads.sites() + [Site("varimix.solvers.base", "no_such_kernel", "x")]
        originals = {s.qualname: getattr(importlib.import_module(s.module), s.attr, None)
                     for s in sites}
        mesma_mod = importlib.import_module("varimix.solvers.mesma")
        tracer = Tracer(Recorder(), sites)
        with pytest.raises(RuntimeError):
            with tracer.installed():
                assert hasattr(mesma_mod.fcls_core, "__wrapped__")
                raise RuntimeError("the block fails")
        for s in sites:
            assert getattr(sys.modules[s.module], s.attr, None) is originals[s.qualname]
        assert tracer.absent == {"varimix.solvers.base.no_such_kernel"}
    finally:
        del sys.path[:2]


def test_a_hook_that_cannot_read_a_result_does_not_fail_the_call():
    sys.path[:0] = [str(HERE)]
    try:
        import spans

        def broken_after(rec, sp, fn, args, kwargs, result):
            raise IndexError("result has a new shape")

        site = spans.Site("json", "dumps", "x", after=broken_after)
        rec = spans.Recorder()
        tracer = spans.Tracer(rec, [site])
        with tracer.installed():
            assert json.dumps([1]) == "[1]"
        assert tracer.hook_errors == 1
        assert "after_error" in rec.spans[0].attrs
    finally:
        del sys.path[:1]
