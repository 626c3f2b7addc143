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

    The noise is sigma times ``default_rng(seed).standard_normal`` of the
    image's shape (the bits of its ``normal(0, sigma)``), with sigma^2 =
    mean(clean^2) / 10^(snr_db / 10) over all entries. ``snr_db = math.inf``
    (NOISELESS) returns the input's values. The result is named ``name``,
    by default as the input.
    """
    if image.n_pixels == 0:
        raise ValueError("cannot add noise to an empty image")
    shape = image.data.shape
    draw = np.random.default_rng(seed).standard_normal(shape) if _noisy(snr_db) else None
    return _add_scaled(image, snr_db, draw, image.name if name is None else name)


def _noisy(snr_db: float) -> bool:
    """False for +inf (NOISELESS); NaN and -inf are refused."""
    if not (math.isfinite(snr_db) or snr_db == math.inf):
        raise ValueError("snr_db must be finite or +inf")
    return snr_db != math.inf


def _sum_squares(v: np.ndarray):
    """``np.add.reduce(v * v)`` of a 1-D contiguous ``v``, bit for bit, with
    small temporaries: numpy sums pairwise, halving at a multiple of 8."""
    if v.size <= 1 << 16:
        return np.add.reduce(v * v)
    half = v.size // 2 - v.size // 2 % 8
    return _sum_squares(v[:half]) + _sum_squares(v[half:])


def _add_scaled(clean: SpectralImage, snr_db: float, draw, name: str) -> SpectralImage:
    """``add_noise`` given its standard-normal ``draw`` (None if noiseless), scaled in place."""
    if draw is None:
        return SpectralImage(_Adopt(clean.data), name=name)
    power = float(_sum_squares(clean.data.reshape(-1)) / clean.data.size)
    draw *= math.sqrt(power / 10.0 ** (snr_db / 10.0))
    if power == 0.0:                # normal(0, 0) draws +0.0 where sigma z keeps z's sign
        draw.fill(0.0)
    draw += clean.data              # noise + clean: the same bits as clean + noise
    return SpectralImage(_Adopt(draw), name=name)
