import math

import numpy as np
import pytest

from varimix.mixing import NOISELESS, _sum_squares, add_noise, mix_forward
from varimix.types import AbundanceMap, DimensionError, EndmemberField, SpectralImage


def _field(rng, n=6, l=5, p=3):
    return EndmemberField(np.abs(rng.normal(size=(n, l, p))) + 0.05)


def test_pure_pixel_selects_column(rng):
    field = _field(rng)
    a = np.zeros((6, 3))
    a[:, 1] = 1.0
    img = mix_forward(field, AbundanceMap(a))
    assert np.allclose(img.pixels, field.data[:, :, 1], atol=0)


def test_shared_matrix_reduces_to_plain_lmm(rng):
    m = np.abs(rng.normal(size=(5, 3))) + 0.05
    field = EndmemberField(np.repeat(m[None, :, :], 6, axis=0))
    a = AbundanceMap(rng.dirichlet(np.ones(3), size=6))
    img = mix_forward(field, a)
    assert np.allclose(img.pixels, a.data @ m.T, atol=1e-15)


def test_identity_matrix_mixing():
    field = EndmemberField(np.eye(3)[None, :, :])
    a = AbundanceMap(np.array([[0.25, 0.25, 0.5]]))
    img = mix_forward(field, a)
    assert np.allclose(img.pixels[0], [0.25, 0.25, 0.5], atol=0)


def test_mixing_linear_in_abundances(rng):
    field = _field(rng)
    a = rng.dirichlet(np.ones(3), size=6)
    b = rng.dirichlet(np.ones(3), size=6)
    alpha = 0.3
    mixed = mix_forward(field, AbundanceMap(alpha * a + (1 - alpha) * b))
    lhs = alpha * mix_forward(field, AbundanceMap(a)).pixels \
        + (1 - alpha) * mix_forward(field, AbundanceMap(b)).pixels
    assert np.max(np.abs(mixed.pixels - lhs)) < 1e-12


def test_mixing_shape_errors(rng):
    field = _field(rng)
    with pytest.raises(DimensionError):
        mix_forward(field, AbundanceMap(np.full((5, 3), 1 / 3)))
    with pytest.raises(DimensionError):
        mix_forward(field, AbundanceMap(np.full((6, 3), 1 / 3)), shape=(2, 2))


def test_noiseless_sentinel_returns_input(rng):
    img = SpectralImage(rng.uniform(0, 1, size=(3, 4, 5)))
    out = add_noise(img, NOISELESS, seed=1)
    assert np.array_equal(out.data, img.data)


def test_noise_determinism(rng):
    img = SpectralImage(rng.uniform(0, 1, size=(3, 4, 5)))
    a = add_noise(img, 20.0, seed=99)
    b = add_noise(img, 20.0, seed=99)
    c = add_noise(img, 20.0, seed=100)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


@pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 5), (7, 9, 33), (7, 97, 193), (64, 64, 41)])
def test_noise_is_the_generators_normal_draw(rng, shape):
    for snr, seed in ((30.0, 3), (-5.0, 4), (12.0, 5), (60.0, 6)):
        img = SpectralImage(rng.uniform(0, 1, size=shape))
        sigma = math.sqrt(float(np.mean(img.data**2)) / 10.0 ** (snr / 10.0))
        expected = img.data + np.random.default_rng(seed).normal(0.0, sigma, shape)
        assert add_noise(img, snr, seed).data.tobytes() == expected.tobytes()


def test_sum_of_squares_in_parts_is_the_whole_arrays_sum(rng):
    # numpy's pairwise sum, split where numpy splits it: the bits of np.mean(x**2)
    for n in (1, 9, 65536, 65537, 131047, 131285, 300001, 1_000_003):
        for _ in range(3):
            v = rng.uniform(0, 1, size=n)
            assert _sum_squares(v) == np.add.reduce(v**2)


def test_noise_on_a_signed_zero_image_is_the_generators_draw():
    # sigma is 0: normal(0, 0) draws +0.0, so every -0.0 comes out as +0.0
    img = SpectralImage(np.full((3, 4, 5), -0.0))
    expected = img.data + np.random.default_rng(2).normal(0.0, 0.0, img.data.shape)
    assert add_noise(img, 30.0, 2).data.tobytes() == expected.tobytes()


def test_empirical_snr_at_30db(rng):
    # measure realized SNR on a full-size scene
    img = SpectralImage(rng.uniform(0.1, 0.9, size=(50, 50, 198)))
    noisy = add_noise(img, 30.0, seed=5)
    noise = noisy.data - img.data
    snr = 10 * math.log10(np.sum(img.data**2) / np.sum(noise**2))
    assert abs(snr - 30.0) < 0.3
