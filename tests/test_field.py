"""Endmember fields kept as a solver's factors or gathered from a table:
any window of rows has the bytes of the whole array, scoring and saving read rows without building
the whole field, and nothing the caller holds can change the field
after the call."""

import numpy as np
import pytest

from varimix.bench import eval_result
from varimix.io import load_endmember_field, save_result
from varimix.solvers import SOLVERS, unmix
from varimix.synth import truth_variant_library
from varimix.types import DimensionError, EndmemberField, SpectralLibrary

from conftest import bench_scene, solver_params

FIELD_SOLVERS = ["elmm", "plmm", "mesma", "sparse-l1", "sparse-l0"]


def _unmix(name, image, source):
    return unmix(name, image, source, **solver_params(name, max_iters=5))


def _source(name, truth):
    if SOLVERS[name].kind == "library":
        return truth_variant_library(truth)
    return truth.endmembers.class_means().T


@pytest.fixture(scope="module")
def truth():
    # 600 pixels: the default 256-pixel chunks leave a partial one
    return bench_scene(20, 30)


@pytest.mark.parametrize("name", FIELD_SOLVERS)
def test_rows_of_every_window_are_the_bytes_of_data(truth, name):
    field = _unmix(name, truth.image_noisy, _source(name, truth)).endmembers
    n = field.shape[0]
    walks = {}
    for window in (1, 54, 256, 257):        # 54: the scorer's chunk at 200 bands, 3 classes
        walks[window] = np.concatenate([field.rows(lo, lo + window)
                                        for lo in range(0, n, window)])
    assert field._data is None
    data = field.data
    assert data.shape == field.shape == (n, 200, 3) and not data.flags.writeable
    for window, walked in walks.items():
        assert walked.tobytes() == data.tobytes(), window
    assert field.data is data                   # built once, then kept


def test_rows_of_a_dense_field_are_views():
    data = np.random.default_rng(0).uniform(0.0, 1.0, size=(5, 4, 2))
    field = EndmemberField(data)
    rows = field.rows(1, 3)
    assert np.shares_memory(rows, field.data) and not rows.flags.writeable
    assert rows.tobytes() == data[1:3].tobytes()
    assert field.rows(4, 9).shape == (1, 4, 2)


def _gathered_factors(n=600, c=7):
    rng = np.random.default_rng(3)
    index = np.concatenate([np.arange(c), rng.integers(0, c, size=n - c)])
    return rng.uniform(0.0, 1.0, size=(c, 5, 3)), rng.permutation(index)


def test_rows_of_a_gathered_field_are_takes_of_its_table():
    table, index = _gathered_factors()
    field = EndmemberField.gathered(table, index)
    want = table[index]
    table[...], index[...] = 0.0, 0         # the field keeps copies of the caller's arrays
    for lo, hi in ((0, 1), (7, 300), (255, 257), (0, 600)):
        rows = field.rows(lo, hi)
        assert rows.tobytes() == want[lo:hi].tobytes() and not rows.flags.writeable
    assert field._data is None
    data = field.data
    assert data.tobytes() == want.tobytes() and field.data is data
    assert not (field.table.flags.writeable or field.index.flags.writeable)
    assert field.shape == (600, 5, 3) and field.index.dtype == np.intp


@pytest.mark.parametrize("change, error, message", [
    (lambda t, i: (-t, i), ValueError, "^EndmemberField values must be nonnegative$"),
    (lambda t, i: (np.where(t > 0.5, np.inf, t), i), ValueError,
     "^EndmemberField.data contains NaN/Inf values$"),
    (lambda t, i: (t[:, :, 0], i), DimensionError, "^EndmemberField.data must be"),
    (lambda t, i: (t, i.astype(float)), DimensionError, "1-D integer array"),
    (lambda t, i: (t, i > 0), DimensionError, "1-D integer array"),
    (lambda t, i: (t, i.reshape(20, 30)), DimensionError, "1-D integer array"),
    (lambda t, i: (t, i - 1), ValueError, r"must lie in \[0, 7\)$"),
    (lambda t, i: (t, i + 1), ValueError, r"must lie in \[0, 7\)$"),
    (lambda t, i: (t, i % 6), ValueError, "leaves a table row unused$"),
    (lambda t, i: (t, i[:0]), ValueError, "leaves a table row unused$"),
], ids=["negative-table", "infinite-table", "2-D-table", "float-index", "bool-index",
        "2-D-index", "negative-index", "index-past-the-table", "unused-row", "empty-index"])
def test_gathered_field_refuses_a_bad_table_or_index(change, error, message):
    with pytest.raises(error, match=message):
        EndmemberField.gathered(*change(*_gathered_factors()))


@pytest.mark.parametrize("bad, message", [(-1e-3, "^EndmemberField values must be nonnegative$"),
                                          (np.nan, "^EndmemberField.data contains NaN/Inf values$")])
def test_factored_rows_are_checked(bad, message):
    def fill(lo, hi, out):
        out[...] = 0.5
        if lo <= 3 < hi:
            out[3 - lo, 0, 0] = bad

    field = EndmemberField.factored((6, 2, 2), fill)
    assert field.rows(0, 3).shape == (3, 2, 2)
    with pytest.raises(ValueError, match=message):
        field.rows(2, 5)
    with pytest.raises(ValueError, match=message):
        field.data


def test_class_means_are_computed_once_and_kept_read_only(truth):
    field = _unmix("mesma", truth.image_noisy, _source("mesma", truth)).endmembers
    means = field.class_means()
    assert field.class_means() is means and not means.flags.writeable
    assert means.tobytes() == field.data.mean(axis=0).T.tobytes()


@pytest.mark.parametrize("name", FIELD_SOLVERS)
def test_scoring_and_saving_leave_the_field_unbuilt(truth, tmp_path, name):
    result = _unmix(name, truth.image_noisy, _source(name, truth))
    means = truth.endmembers.class_means()
    row = eval_result(truth, result, class_means=means)
    save_result(result, tmp_path)
    assert result.endmembers._data is None
    assert (tmp_path / "endmembers.bin").read_bytes() == result.endmembers.data.tobytes()
    again = _unmix(name, truth.image_noisy, _source(name, truth))
    again.endmembers.data                       # the same scores from the dense field
    assert eval_result(truth, again, class_means=means) == row
    loaded = load_endmember_field(tmp_path / "endmembers", 200)
    assert loaded.data.tobytes() == again.endmembers.data.tobytes()


@pytest.mark.parametrize("name", ["elmm", "plmm"])
def test_the_field_does_not_follow_the_callers_reference_matrix(truth, name):
    m0 = np.array(truth.endmembers.class_means().T, order="F")     # as writable as a caller's
    expected = _unmix(name, truth.image_noisy, m0.copy(order="F")).endmembers.data
    result = _unmix(name, truth.image_noisy, m0)
    m0[...] = 7.0
    for extra in result.extras.values():        # ELMM's psi
        extra[...] = 3.0
    assert result.endmembers.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", ["mesma", "sparse-l1", "sparse-l0"])
def test_the_field_does_not_follow_the_callers_library_arrays(truth, name):
    lib = truth_variant_library(truth)
    arrays = [np.array(c.signatures) for c in lib.classes]
    mine = SpectralLibrary.from_arrays(lib.class_names, arrays)
    expected = _unmix(name, truth.image_noisy, lib).endmembers.data
    result = _unmix(name, truth.image_noisy, mine)
    for a in arrays:
        a[...] = 9.0
    if result.selected_model is not None:        # MESMA's
        result.selected_model[...] = 0
    assert result.endmembers.data.tobytes() == expected.tobytes()
