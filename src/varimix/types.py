"""Core data types shared by the whole toolkit.

All containers are immutable after construction, so they can be shared
freely across threads (a factored field fills a buffer per read, a
gathered one takes one from its table). The constructors copy a caller's
array and mark the copy read-only; an array the toolkit has just built
(synthesis, loading, solver results) comes wrapped in ``_Adopt``, is
checked the same way and is marked read-only in place instead of copied.
An ``EndmemberField`` is dense, factored or gathered (a table and a
per-pixel index, the form of a scene's truth field). The checks read each
array by whole-array reductions, finiteness by one ``sum``
(``_all_finite``), and build no boolean array of its size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class DimensionError(ValueError):
    """Shapes of related arrays do not match."""


class FormatError(ValueError):
    """A file on disk does not match its declared format, or data to be
    written would not."""


class DegenerateSignatureError(ValueError):
    """A spectral signature has zero norm where an angle is required."""


class BudgetError(RuntimeError):
    """A combinatorial search would exceed its configured budget."""


class DegenerateGeometryWarning(UserWarning):
    """The data simplex has lower rank than the requested endmember count."""


@dataclass(frozen=True)
class _Adopt:
    """A freshly built array that a container takes over without a copy.
    Only for arrays that nothing else can write through: making an array
    read-only does not protect other views of its memory."""

    array: np.ndarray


def _freeze(a) -> np.ndarray:
    """Read-only C-ordered float64 data: an adopted array as is if it can be, else a copy."""
    if isinstance(a, _Adopt):
        out = np.asarray(a.array, dtype=np.float64, order="C")
    else:
        out = np.array(a, dtype=np.float64, order="C")
    out.flags.writeable = False
    return out


def _all_finite(a: np.ndarray) -> bool:
    """Whether ``a`` holds no NaN and no infinity. A NaN or an infinity
    makes ``sum`` non-finite, so a finite sum decides it in one pass; a
    non-finite one, which finite values also give by overflow (no warning
    then), is decided by ``min`` and ``max``, through which NaN propagates."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()                 # 0.0 for an empty array
    return bool(np.isfinite(total) or (np.isfinite(a.min()) and np.isfinite(a.max())))


def _require_finite(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless ``_all_finite(a)``."""
    if not _all_finite(a):
        raise ValueError(f"{what} contains NaN/Inf values")


@dataclass(frozen=True)
class SpectralImage:
    """An H x W reflectance cube with L bands, indexed by band number.

    Pixels are indexed row-major: pixel n is ``data[n // W, n % W]``.
    Values are dimensionless reflectance, nominally in [0, 1.2]; negative
    values (noise, transformed images) are allowed, non-finite ones are not.
    """

    data: np.ndarray                    # (H, W, L) float64
    name: str = "image"

    def __post_init__(self):
        object.__setattr__(self, "data", _freeze(self.data))
        if self.data.ndim != 3:
            raise DimensionError("SpectralImage.data must be (H, W, L)")
        _require_finite(self.data, "SpectralImage.data")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def n_bands(self) -> int:
        return self.data.shape[2]

    @property
    def n_pixels(self) -> int:
        return self.data.shape[0] * self.data.shape[1]

    @property
    def pixels(self) -> np.ndarray:
        """Row-major (N, L) view of the cube."""
        return self.data.reshape(self.n_pixels, self.n_bands)


@dataclass(frozen=True)
class LibraryClass:
    """A named bundle of candidate signatures for one material.

    Library files hold reflectance, no value below -0.1; ``io`` checks
    that when reading and writing them, not here, so spectrally
    transformed libraries (which may go negative) stay representable in
    memory.
    """

    name: str
    signatures: np.ndarray              # (M_p, L) float64

    def __post_init__(self):
        sig = np.atleast_2d(np.asarray(self.signatures, dtype=np.float64))
        if sig.ndim != 2 or sig.shape[0] < 1:
            raise DimensionError("class signatures must be a nonempty (M_p, L) array")
        _require_finite(sig, f"signatures of class {self.name!r}")
        object.__setattr__(self, "signatures", _freeze(sig))

    @property
    def size(self) -> int:
        return self.signatures.shape[0]


@dataclass(frozen=True)
class SpectralLibrary:
    """P named classes, each holding a bundle of candidate signatures."""

    classes: tuple

    def __post_init__(self):
        classes = tuple(self.classes)
        if not classes:
            raise ValueError("library must contain at least one class")
        bands = {c.signatures.shape[1] for c in classes}
        if len(bands) != 1:
            raise DimensionError("all classes must share the same band count")
        object.__setattr__(self, "classes", classes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def n_bands(self) -> int:
        return self.classes[0].signatures.shape[1]

    @property
    def class_names(self) -> tuple:
        return tuple(c.name for c in self.classes)

    @property
    def sizes(self) -> tuple:
        return tuple(c.size for c in self.classes)

    def flatten(self) -> tuple[np.ndarray, np.ndarray]:
        """Unstructured (total, L) matrix plus per-row class indices."""
        idx = np.repeat(np.arange(self.n_classes), self.sizes)
        return np.concatenate([c.signatures for c in self.classes]), idx

    def class_means(self) -> np.ndarray:
        """(P, L) mean signature per class."""
        return np.stack([c.signatures.mean(axis=0) for c in self.classes])

    @staticmethod
    def from_arrays(names: Sequence[str], signatures: Sequence[np.ndarray]) -> "SpectralLibrary":
        return SpectralLibrary(tuple(LibraryClass(n, s) for n, s in zip(names, signatures)))

    @staticmethod
    def from_matrix(matrix: np.ndarray) -> "SpectralLibrary":
        """Single-signature classes ``class_<p>`` from the columns of an (L, P) matrix."""
        m = np.asarray(matrix, dtype=np.float64)
        return SpectralLibrary(tuple(LibraryClass(f"class_{p}", m[:, p][None, :])
                                     for p in range(m.shape[1])))


# Rows whose sum is closer to 1 than this are left untouched so that
# save/load round trips are bit-exact.
_RENORM_SKIP = 1e-12
_RENORM_MAX = 1e-6
_NEG_CLAMP = -1e-9


@dataclass(frozen=True)
class AbundanceMap:
    """N x P fractional abundances.

    With ``sum_to_one`` set, every row must sum to 1 within 1e-6; rows off
    by more than machine-level error are silently renormalized. Entries in
    [-1e-9, 0) are clamped to zero; anything more negative is an error.
    """

    data: np.ndarray                    # (N, P) float64
    sum_to_one: bool = True
    class_names: Optional[tuple] = None

    def __post_init__(self):
        a = np.array(self.data, dtype=np.float64, order="C")
        if a.ndim != 2:
            raise DimensionError("AbundanceMap.data must be (N, P)")
        _require_finite(a, "AbundanceMap.data")
        if a.min(initial=0.0) < _NEG_CLAMP:
            raise ValueError(f"abundance below {_NEG_CLAMP} (not clampable noise)")
        np.clip(a, 0.0, None, out=a)
        if self.sum_to_one:
            s = a.sum(axis=1)
            err = np.abs(s - 1.0)
            if np.any(err > _RENORM_MAX):
                raise ValueError("abundance row sum deviates from 1 by more than 1e-6")
            fix = err > _RENORM_SKIP
            if np.any(fix):
                a[fix] /= s[fix, None]
        a.flags.writeable = False
        object.__setattr__(self, "data", a)
        if self.class_names is not None:
            names = tuple(self.class_names)
            if len(names) != a.shape[1]:
                raise DimensionError("class_names length must equal P")
            object.__setattr__(self, "class_names", names)

    @property
    def n_pixels(self) -> int:
        return self.data.shape[0]

    @property
    def n_classes(self) -> int:
        return self.data.shape[1]

    def names_or_default(self) -> tuple:
        if self.class_names is not None:
            return self.class_names
        return tuple(f"class_{p}" for p in range(self.n_classes))


class EndmemberField:
    """Per-pixel L x P endmember matrices, finite and nonnegative (column p of
    pixel n: class p's signature there), in one of three forms. Dense: the
    (N, L, P) array. ``factored``: a solver's ``fill(lo, hi, out)`` writing
    pixels lo:hi from private, unchanging arrays. ``gathered``: pixel n is
    ``table[index[n]]``, a (C, L, P) table and an (N,) index, both checked
    once and read-only. ``rows(lo, hi)`` is a view, a take of the table or a
    checked buffer of the call's own; ``data`` is built on first access
    (racing threads build the same bytes) and kept."""

    table = index = None                # the gathered form's factors

    def __init__(self, data):
        self._data, self._fill, self._means = _freeze(data), None, None
        if self._data.ndim != 3:
            raise DimensionError("EndmemberField.data must be (N, L, P)")
        lo, hi = self._data.min(initial=0.0), self._data.max(initial=0.0)    # NaN propagates
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("EndmemberField.data contains NaN/Inf values")
        if lo < 0:
            raise ValueError("EndmemberField values must be nonnegative")
        self.shape = self._data.shape

    @classmethod
    def factored(cls, shape: tuple, fill) -> "EndmemberField":
        field = cls.__new__(cls)
        field._data, field._fill, field._means, field.shape = None, fill, None, tuple(shape)
        return field

    @classmethod
    def gathered(cls, table, index) -> "EndmemberField":
        """Pixel n is ``table[index[n]]``. The (C, L, P) table is checked
        as a dense field; the (N,) index must be integers in [0, C) that use
        every table row."""
        table, index = cls(table)._data, np.array(index)
        if index.ndim != 1 or not np.issubdtype(index.dtype, np.integer):
            raise DimensionError("EndmemberField index must be a 1-D integer array")
        c = table.shape[0]
        if index.size and (index.min() < 0 or index.max() >= c):
            raise ValueError(f"EndmemberField index must lie in [0, {c})")
        index = index.astype(np.intp, copy=False)
        if not np.bincount(index, minlength=c).all():
            raise ValueError("EndmemberField index leaves a table row unused")
        index.flags.writeable = False
        field = cls.factored((index.size,) + table.shape[1:], None)
        field.table, field.index = table, index
        return field

    def rows(self, lo: int, hi: int) -> np.ndarray:
        if self._data is not None:
            return self._data[lo:hi]
        if self.index is not None:
            out = np.take(self.table, self.index[lo:hi], axis=0)
        else:
            out = np.empty((min(hi, self.shape[0]) - lo,) + self.shape[1:])
            self._fill(lo, lo + len(out), out)
            out = EndmemberField(_Adopt(out))._data         # checked
        out.flags.writeable = False
        return out

    def blocks(self):
        """The field in one buffer when dense, else in ``rows`` of ``_CHUNK_ROWS`` pixels."""
        step = _CHUNK_ROWS if self._data is None else max(self.shape[0], 1)
        return (self.rows(lo, lo + step) for lo in range(0, self.shape[0], step))

    @property
    def data(self) -> np.ndarray:        # (N, L, P) float64, read-only
        if self._data is None:
            self._data = self.rows(0, self.shape[0])
        return self._data

    def class_means(self) -> np.ndarray:
        """(P, L) mean realized signature per class, computed once, read-only."""
        if self._means is None:
            self._means = _freeze(self.data.mean(axis=0)).T
        return self._means


_CLEAN_MIX_ATOL = 1e-9
_CHUNK_ROWS = 256           # pixels per block of a per-pixel product over a field


@dataclass(frozen=True)
class SceneTruth:
    """Ground truth bundle for one synthetic scene. ``image_clean`` must be
    the mixture of the field and abundances to ``_CLEAN_MIX_ATOL``,
    checked ``_CHUNK_ROWS`` pixels at a time. Synthesis and ``load_scene``
    both build it by ``mix_forward`` of those two, so a saved scene keeps
    no clean image."""

    image_noisy: SpectralImage
    image_clean: SpectralImage
    abundances: AbundanceMap
    endmembers: EndmemberField
    snr_db: float
    seed: int

    def __post_init__(self):
        n = self.image_clean.n_pixels
        l = self.image_clean.n_bands
        p = self.abundances.n_classes
        if self.image_noisy.data.shape != self.image_clean.data.shape:
            raise DimensionError("noisy/clean image shapes differ")
        if self.abundances.n_pixels != n or self.endmembers.shape != (n, l, p):
            raise DimensionError("SceneTruth member shapes are inconsistent")
        m, a, y = self.endmembers.data, self.abundances.data, self.image_clean.pixels
        for lo in range(0, n, _CHUNK_ROWS):
            diff = np.matmul(m[lo:lo + _CHUNK_ROWS], a[lo:lo + _CHUNK_ROWS, :, None])[:, :, 0]
            diff -= y[lo:lo + _CHUNK_ROWS]
            if max(diff.max(initial=0.0), -diff.min(initial=0.0)) > _CLEAN_MIX_ATOL:
                raise ValueError("image_clean is not the exact mixture of the truth factors")


@dataclass
class MetricRow:
    """Per-algorithm summary over Monte Carlo runs; a score that no run
    computed (no EndmemberField, or every run failed) stays None."""

    rmse_a_mean: Optional[float] = None
    rmse_a_median: Optional[float] = None
    rmse_y_mean: Optional[float] = None
    rmse_y_median: Optional[float] = None
    rmse_m_mean: Optional[float] = None
    rmse_m_median: Optional[float] = None
    sam_m_mean: Optional[float] = None
    sam_m_median: Optional[float] = None
    runtime_mean: float = 0.0
    n_failed: int = 0


@dataclass
class BenchReport:
    """One MetricRow per roster entry plus run metadata (seeds, scene digest)."""

    rows: dict = field(default_factory=dict)       # algorithm name -> MetricRow
    metadata: dict = field(default_factory=dict)
