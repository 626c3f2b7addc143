"""The background worker that synthesis and scene saving share: its
errors reach the caller, no task outlives the call that queued it,
threads sharing it get the bytes of serial calls, and a forked child
gets a worker of its own and the parent's bytes."""

import hashlib
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from varimix import background
from varimix.io import save_image, save_scene
from varimix.types import SpectralImage

from conftest import make_scene

SCENE = dict(height=6, width=7, snr_db=30.0, seed=5)


def _scene_bytes(out):
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.fixture
def queued(monkeypatch):
    """The futures of every task queued on the worker during the test; each
    task first sleeps, so only waiting for it makes it done."""
    futures = []
    submit = background._worker.submit

    def recording(fn, *args, **kwargs):
        def slow():
            time.sleep(0.01)
            return fn(*args, **kwargs)

        futures.append(submit(slow))
        return futures[-1]

    monkeypatch.setattr(background._worker, "submit", recording)
    return futures


def test_a_draw_that_raises_on_the_worker_reaches_the_caller(monkeypatch):
    default_rng, threads = np.random.default_rng, []

    class FailingDraw:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *args, **kwargs):
            threads.append(threading.current_thread())
            raise RuntimeError("draw failed")

    want = make_scene(**SCENE)
    monkeypatch.setattr(np.random, "default_rng", FailingDraw)
    with pytest.raises(RuntimeError, match="draw failed"):
        make_scene(**SCENE)
    assert threads and threads[0] is not threading.current_thread()
    monkeypatch.undo()
    assert make_scene(**SCENE).image_noisy.data.tobytes() == want.image_noisy.data.tobytes()


def test_a_hash_that_raises_on_the_worker_reaches_the_caller(monkeypatch, tmp_path):
    truth = make_scene(**SCENE)
    save_scene(truth, tmp_path / "want")

    class FailingHash:
        def update(self, block):
            raise RuntimeError("hash failed")

        def hexdigest(self):
            return ""

    monkeypatch.setattr(hashlib, "sha256", FailingHash)
    with pytest.raises(RuntimeError, match="hash failed"):
        save_scene(truth, tmp_path / "scene")
    assert not (tmp_path / "scene" / "truth_meta.json").exists()
    monkeypatch.undo()
    save_scene(truth, tmp_path / "scene")
    assert _scene_bytes(tmp_path / "scene") == _scene_bytes(tmp_path / "want")


def test_no_task_is_pending_when_a_call_returns(queued, tmp_path):
    truth = make_scene(**SCENE)
    assert len(queued) == 1 and all(f.done() for f in queued)
    save_scene(truth, tmp_path / "scene")
    assert len(queued) > 1 and all(f.done() for f in queued)


def test_a_writer_called_alone_hashes_in_the_caller(queued, tmp_path):
    img = SpectralImage(np.arange(24.0).reshape(2, 3, 4))
    digests = {}
    header = save_image(img, tmp_path / "img", digests)
    assert queued == []
    assert digests == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in (header, header.with_suffix(".bin"))}


def test_threads_sharing_the_worker_get_the_serial_bytes(tmp_path):
    seeds = range(4)                        # more calling threads than cores
    want = {s: _scene_bytes(save_scene(make_scene(**{**SCENE, "seed": s}), tmp_path / f"w{s}"))
            for s in seeds}
    errors = []

    def run(s):
        try:
            for i in range(3):
                out = save_scene(make_scene(**{**SCENE, "seed": s}), tmp_path / f"t{s}-{i}")
                assert _scene_bytes(out) == want[s]
        except Exception as exc:            # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def _synthesize_and_save(out):
    save_scene(make_scene(**SCENE), out)


def test_a_forked_child_gets_its_own_worker_and_the_parents_bytes(tmp_path):
    save_scene(make_scene(**SCENE), tmp_path / "parent")      # the parent's worker is running
    child = multiprocessing.get_context("fork").Process(
        target=_synthesize_and_save, args=(tmp_path / "child",))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        pytest.fail("the forked child hung")
    assert child.exitcode == 0
    assert _scene_bytes(tmp_path / "child") == _scene_bytes(tmp_path / "parent")
