"""Who owns the large arrays, and what building and scoring them costs.

Scoring and synthesis make no field-sized temporaries, synthesis and
loading a scene no (N, L) ones besides their outputs, FCLS none
besides its reconstruction, and the solvers that emit a field, which
they keep as factors, none besides their reconstruction (peaks measured
with ``tracemalloc``, which sees numpy's buffers); the public
constructors copy the caller's array; every array that synthesis,
loading and the solvers hand out is read-only."""

import tracemalloc

import numpy as np
import pytest

from varimix.bench import eval_result
from varimix.io import load_image, load_library, load_scene, save_library, save_scene
from varimix.solvers import ALGORITHMS, SOLVERS, SolverOptions, plmm_unmix, unmix
from varimix.synth import truth_variant_library
from varimix.types import EndmemberField, LibraryClass, SpectralImage, SpectralLibrary

from conftest import bench_scene, make_scene, solver_params


def _traced_peak(fn):
    """``fn()`` and the peak of the bytes it held allocated at once."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _outputs(truth):
    """Bytes of a scene truth's four arrays."""
    return sum(a.nbytes for a in (truth.image_noisy.data, truth.image_clean.data,
                                  truth.abundances.data, truth.endmembers.data))


def test_eval_result_peak_is_a_fraction_of_the_field():
    truth = bench_scene(64, 64)
    means = truth.endmembers.class_means()[[2, 0, 1]]      # the result's classes permuted
    result = plmm_unmix(truth.image_noisy, means.T, SolverOptions(max_iters=2, gamma_plmm=0.1))
    row, peak = _traced_peak(lambda: eval_result(truth, result, class_means=means))
    assert row["sam_M"] > 0.0
    assert peak < result.endmembers.data.nbytes / 3


def test_synthesis_peak_is_its_outputs_plus_two_images():
    truth, peak = _traced_peak(lambda: bench_scene(64, 64))
    assert peak < _outputs(truth) + 2 * truth.image_clean.data.nbytes


def test_synthesis_peak_is_its_outputs_plus_half_an_image():
    # the field is copied from a table of the variant combinations that
    # occur, and the truth's mixture is checked in pixel blocks
    truth, peak = _traced_peak(lambda: bench_scene(64, 64))
    assert peak < _outputs(truth) + 0.5 * truth.image_clean.data.nbytes


def test_load_scene_peak_is_its_outputs_plus_half_an_image(tmp_path):
    save_scene(bench_scene(64, 64), tmp_path / "scene")
    truth, peak = _traced_peak(lambda: load_scene(tmp_path / "scene"))
    assert peak < _outputs(truth) + 0.5 * truth.image_clean.data.nbytes


def test_fcls_peak_holds_one_residual_image():
    # the reconstruction and one residual, squared in place, are the only
    # (N, L) arrays besides the image
    truth = bench_scene(64, 64)
    result, peak = _traced_peak(lambda: unmix("fcls", truth.image_noisy,
                                              truth.endmembers.class_means().T))
    assert peak < 2.5 * truth.image_noisy.data.nbytes


def test_fcls_peak_holds_its_reconstruction_and_a_residual_chunk():
    # the residuals are built 256 pixels at a time, so the reconstruction
    # is the one (N, L) array FCLS holds
    truth = bench_scene(64, 64)
    result, peak = _traced_peak(lambda: unmix("fcls", truth.image_noisy,
                                              truth.endmembers.class_means().T))
    assert peak < 1.25 * truth.image_noisy.data.nbytes


@pytest.mark.parametrize("name", ["elmm", "plmm", "mesma", "sparse-l1", "sparse-l0"])
def test_field_peaks_hold_the_field_and_two_images(name):
    # a field's size plus two images; the next test's tighter bound holds
    # the call to no field-sized array at all
    truth = bench_scene(64, 64)
    source = (truth_variant_library(truth) if SOLVERS[name].kind == "library"
              else truth.endmembers.class_means().T)
    result, peak = _traced_peak(lambda: unmix(name, truth.image_noisy, source,
                                              **solver_params(name, max_iters=10)))
    assert peak < result.endmembers.data.nbytes + 2 * truth.image_noisy.data.nbytes


@pytest.mark.parametrize("name", ["elmm", "plmm", "mesma", "sparse-l1", "sparse-l0"])
def test_field_peaks_hold_the_reconstruction_and_one_image(name):
    # the field is kept as factors and built one chunk at a time into a
    # reused buffer, so the call makes no array of the field's size
    truth = bench_scene(64, 64)
    source = (truth_variant_library(truth) if SOLVERS[name].kind == "library"
              else truth.endmembers.class_means().T)
    result, peak = _traced_peak(lambda: unmix(name, truth.image_noisy, source,
                                              **solver_params(name, max_iters=10)))
    assert peak < result.reconstruction.nbytes + truth.image_noisy.data.nbytes


@pytest.mark.parametrize("build", [
    lambda a: SpectralImage(a).data,
    lambda a: EndmemberField(a).data,
    lambda a: LibraryClass("c", a[0]).signatures,
])
def test_public_constructors_copy_the_callers_array(build):
    a = np.full((2, 3, 4), 0.5)
    kept = build(a)
    a[...] = 0.9
    assert np.all(kept == 0.5)
    assert a.flags.writeable and not kept.flags.writeable


def test_arrays_from_synthesis_loading_and_solvers_are_read_only(tmp_path):
    truth = make_scene(snr_db=30.0, height=4, width=5)
    save_scene(truth, tmp_path / "scene")
    loaded = load_scene(tmp_path / "scene")
    arrays = [load_image(tmp_path / "scene" / "image_noisy").data]
    for t in (truth, loaded):
        arrays += [t.image_noisy.data, t.image_clean.data, t.abundances.data, t.endmembers.data,
                   t.endmembers.table, t.endmembers.index]
    library = truth_variant_library(truth)
    matrix = truth.endmembers.class_means().T
    for name in ALGORITHMS:
        source = library if SOLVERS[name].kind == "library" else matrix
        result = unmix(name, truth.image_noisy, source, **solver_params(name, max_iters=3))
        arrays += [r.data for r in (result.abundances, result.raw_abundances, result.endmembers)
                   if r is not None]
    save_library(library, tmp_path / "lib.csv")
    arrays += [c.signatures for c in load_library(tmp_path / "lib.csv").classes]
    assert len(arrays) == 29
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 1.0


def test_sparse_l1_makes_no_gram_per_pixel():
    # 48 distinct signatures in 8 bands: the library Gram fails the rank
    # test, so every pixel starts cold, and the cold rows share that one
    # (Q, Q) Gram; a per-pixel copy of it would be an (N, Q, Q) array
    rng = np.random.default_rng(7)
    n, q, l = 2000, 48, 8
    sigs = rng.uniform(0.05, 1.0, size=(q, l))
    lib = SpectralLibrary.from_arrays([f"c{i}" for i in range(4)],
                                      [sigs[i::4] for i in range(4)])
    y = rng.dirichlet(np.ones(q), size=n) @ sigs + rng.normal(0.0, 0.01, size=(n, l))
    image = SpectralImage(y.reshape(40, 50, l))
    result, peak = _traced_peak(lambda: unmix("sparse-l1", image, lib))
    assert result.solver_log.flags["unsettled_rows"] == 0
    assert peak < n * q * q * 8 / 2
