"""Forward mixing and noise injection."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .types import AbundanceMap, DimensionError, EndmemberField, SpectralImage, _Adopt

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
    h, w = (1, n) if shape is None else shape
    if h * w != n:
        raise DimensionError("shape does not cover all pixels")
    pixels = np.einsum("nlp,np->nl", endmembers.data, abundances.data)
    return SpectralImage(_Adopt(pixels.reshape(h, w, l)), name=name)


def add_noise(image: SpectralImage, snr_db: float, seed: int,
              name: Optional[str] = None) -> SpectralImage:
    """Add white Gaussian noise calibrated to a target SNR in decibels.

    Signal power is the mean of squared clean values over all entries, so
    sigma^2 = mean(clean^2) / 10^(snr_db / 10). ``snr_db = math.inf`` (the
    NOISELESS sentinel) returns the input's values unchanged. Deterministic
    in ``seed``. The result is named ``name``, by default as the input.
    """
    if image.n_pixels == 0:
        raise ValueError("cannot add noise to an empty image")
    name = image.name if name is None else name
    if math.isinf(snr_db) and snr_db > 0:
        return SpectralImage(_Adopt(image.data), name=name)
    if not math.isfinite(snr_db):
        raise ValueError("snr_db must be finite or +inf")
    signal_power = float(np.mean(image.data**2))
    sigma = math.sqrt(signal_power / 10.0 ** (snr_db / 10.0))
    noisy = np.random.default_rng(seed).normal(0.0, sigma, size=image.data.shape)
    noisy += image.data                 # noise + clean: the same bits as clean + noise
    return SpectralImage(_Adopt(noisy), name=name)
