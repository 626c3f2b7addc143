import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from varimix import metrics
from varimix.metrics import field_scores, rmse, spectral_angle
from varimix.types import DegenerateSignatureError, DimensionError, EndmemberField


def test_rmse_identical_is_zero():
    x = np.random.default_rng(0).normal(size=(7, 5))
    assert rmse(x, x) == 0.0


def test_rmse_hand_value():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert rmse(x, y) == pytest.approx(1.0, abs=1e-15)


def test_rmse_scores_a_vector_as_one_column():
    # a 1-D input longer than one chunk of rows is walked as an (N, 1) column
    x = np.random.default_rng(3).normal(size=40000)
    assert rmse(np.ones(40000), np.zeros(40000)) == 1.0
    assert rmse(x, -x) == rmse(x[:, None], -x[:, None])


def test_rmse_shape_mismatch():
    with pytest.raises(DimensionError):
        rmse(np.zeros(3), np.zeros(4))


@given(
    arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)),
    arrays(np.float64, (3, 4), elements=st.floats(-1e3, 1e3)),
)
@settings(max_examples=50, deadline=None)
def test_rmse_symmetric(x, y):
    assert rmse(x, y) == rmse(y, x)


def test_sam_scaling_invariance():
    rng = np.random.default_rng(1)
    m = np.abs(rng.normal(size=(4, 6, 3))) + 0.1
    f1 = EndmemberField(m)
    f2 = EndmemberField(2.0 * m)
    assert field_scores(f1, f2)[1] == pytest.approx(0.0, abs=1e-12)


def test_sam_orthogonal_single_pair():
    # one pixel, one class, L=2 orthogonal vectors: angle pi/2, then the
    # score divides by L*P*N = 2
    t = EndmemberField(np.array([[[1.0], [0.0]]]))
    h = EndmemberField(np.array([[[0.0], [1.0]]]))
    assert field_scores(t, h)[1] == pytest.approx(math.pi / 4, abs=1e-12)


def test_sam_zero_norm_rejected():
    t = EndmemberField(np.ones((1, 3, 1)))
    z = EndmemberField(np.zeros((1, 3, 1)))
    with pytest.raises(DegenerateSignatureError):
        field_scores(t, z)


@given(
    arrays(np.float64, (5,), elements=st.floats(0.01, 10.0)),
    st.floats(0.1, 50.0),
)
@settings(max_examples=50, deadline=None)
def test_spectral_angle_positive_scaling(v, c):
    assert spectral_angle(v, c * v) == pytest.approx(0.0, abs=1e-6)


def test_spectral_angle_known():
    assert spectral_angle([1, 0], [0, 1]) == pytest.approx(math.pi / 2, abs=1e-12)


def test_sam_independent_column_rescaling():
    rng = np.random.default_rng(2)
    m = np.abs(rng.normal(size=(5, 8, 3))) + 0.1
    scales = rng.uniform(0.5, 3.0, size=(5, 1, 3))
    assert field_scores(EndmemberField(m), EndmemberField(m * scales))[1] < 1e-12


def _sam_unchunked(t, h):
    # the whole-field formula: every temporary is field-sized
    u = t / np.linalg.norm(t, axis=1, keepdims=True)
    v = h / np.linalg.norm(h, axis=1, keepdims=True)
    angles = 2.0 * np.arctan2(np.linalg.norm(u - v, axis=1), np.linalg.norm(u + v, axis=1))
    return float(np.sum(angles)) / t.size


def _rows_per_chunk(l, p):
    return metrics._CHUNK_BYTES // (4 * l * p * 8)


@pytest.mark.parametrize("chunk_rows", [None, 7])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chunked_scores_match_whole_field_formulas(monkeypatch, chunk_rows, seed):
    n, l, p = 1234, 50, 3
    if chunk_rows is not None:
        monkeypatch.setattr(metrics, "_CHUNK_BYTES", 4 * l * p * 8 * chunk_rows)
    assert n % _rows_per_chunk(l, p) != 0 and n > _rows_per_chunk(l, p)
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.05, 1.0, size=(n, l, p))
    perm = np.array([2, 0, 1])
    for h in (rng.uniform(0.05, 1.0, size=(n, l, p)),                  # unrelated
              t[:, :, np.argsort(perm)] * rng.uniform(0.9, 1.1, size=(n, l, p))):  # close
        want_sam = _sam_unchunked(t, h[:, :, perm])
        got_rmse, got_sam = field_scores(EndmemberField(t), EndmemberField(h), perm)
        assert abs(got_sam - want_sam) <= 1e-15 * want_sam
        want_rmse = float(np.sqrt(np.mean((t - h[:, :, perm]) ** 2)))
        assert abs(got_rmse - want_rmse) <= 1e-15 * want_rmse
        assert got_rmse == rmse(t, h, perm)


def test_identical_fields_score_exactly_zero_in_every_chunk(monkeypatch):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 4 * 6 * 3 * 8 * 4)   # 4 pixels per chunk
    m = np.abs(np.random.default_rng(3).normal(size=(10, 6, 3))) + 0.1
    perm = np.array([1, 2, 0])
    shuffled = m[:, :, np.argsort(perm)]
    assert field_scores(EndmemberField(m), EndmemberField(shuffled), perm) == (0.0, 0.0)
    assert rmse(m, shuffled, perm) == 0.0


def test_zero_column_in_last_partial_chunk_rejected(monkeypatch):
    monkeypatch.setattr(metrics, "_CHUNK_BYTES", 4 * 6 * 3 * 8 * 4)   # chunks of 4, 4, 2
    m = np.ones((10, 6, 3))
    z = m.copy()
    z[9, :, 1] = 0.0
    for a, b in ((m, z), (z, m)):
        with pytest.raises(DegenerateSignatureError):
            field_scores(EndmemberField(a), EndmemberField(b))
