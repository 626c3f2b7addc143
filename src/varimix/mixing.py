"""Forward mixing and noise injection."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .types import AbundanceMap, DimensionError, EndmemberField, SpectralImage

NOISELESS = math.inf


def mix_forward(
    endmembers: EndmemberField,
    abundances: AbundanceMap,
    shape: Optional[tuple[int, int]] = None,
    name: str = "mixed",
) -> SpectralImage:
    """Mix per-pixel endmember matrices with abundances, y_n = M_n a_n.

    Parameters
    ----------
    endmembers : EndmemberField
        (N, L, P) per-pixel signatures.
    abundances : AbundanceMap
        (N, P) fractions with the sum-to-one flag set.
    shape : (height, width), optional
        Grid to arrange the N pixels on; defaults to a single row.
    """
    n, l, p = endmembers.data.shape
    if abundances.data.shape != (n, p):
        raise DimensionError("abundances do not match the endmember field")
    if not abundances.sum_to_one:
        raise ValueError("mix_forward expects simplex abundances (sum_to_one set)")
    if shape is None:
        shape = (1, n)
    h, w = shape
    if h * w != n:
        raise DimensionError("shape does not cover all pixels")
    pixels = np.einsum("nlp,np->nl", endmembers.data, abundances.data)
    return SpectralImage(pixels.reshape(h, w, l), name=name)


def add_noise(image: SpectralImage, snr_db: float, seed: int) -> SpectralImage:
    """Add white Gaussian noise calibrated to a target SNR in decibels.

    Signal power is the mean of squared clean values over all entries, so
    sigma^2 = mean(clean^2) / 10^(snr_db / 10). ``snr_db = math.inf`` (the
    NOISELESS sentinel) returns the input unchanged. Deterministic in
    ``seed``.
    """
    return SpectralImage(_noisy(image, snr_db, seed), name=image.name)


def _noisy(image: SpectralImage, snr_db: float, seed: int) -> np.ndarray:
    """The data of ``add_noise(image, snr_db, seed)``, not yet wrapped in
    an image (wrapping copies and scans the cube)."""
    if image.n_pixels == 0:
        raise ValueError("cannot add noise to an empty image")
    if math.isinf(snr_db) and snr_db > 0:
        return image.data
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    signal_power = float(np.mean(image.data**2))
    sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return image.data + rng.normal(0.0, sigma, size=image.data.shape)
