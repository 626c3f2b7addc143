"""Ground-truthed scene synthesis.

A scene is built in three steps: sample an abundance field, realize a
per-pixel endmember matrix by drawing from synthetically generated
per-class signature variants, then mix and add noise. Everything is
seeded and reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.ndimage import gaussian_filter, gaussian_filter1d

from . import background
from .io import load_library
from .mixing import _add_scaled, _noisy, mix_forward
from .solvers.search import distinct_rows
from .types import (AbundanceMap, DimensionError, EndmemberField, LibraryClass, SceneTruth,
                    SpectralLibrary, _Adopt)

VARIABILITY_MODES = ("hapke", "atmospheric", "elmm_scaling", "glmm_scaling", "none")


def _check_range(r, name, high=None) -> tuple[float, float]:
    lo, hi = map(float, r)
    if not (lo <= hi):
        raise ValueError(f"{name} range is empty: {r}")
    if lo <= 0.0:
        raise ValueError(f"{name} range must stay above 0.0")
    if high is not None and hi > high:
        raise ValueError(f"{name} range must stay within (0, {high}]")
    return lo, hi


@dataclass(frozen=True)
class ClassVariability:
    """Variability generator settings for one material class.

    Only the fields of the selected ``mode`` are used: Hapke draws both
    angle cosines, the atmospheric model draws mu1 with mu2/e_sun/e_sky
    fixed, and the scaling modes draw multiplicative factors (one per
    variant, or a spectrally smoothed one per band).
    """

    mode: str
    mu1_range: tuple[float, ...] = (0.6, 1.0)
    mu2_range: tuple[float, ...] = (0.6, 1.0)
    mu2: float = 1.0
    e_sun: float = 1.0
    e_sky: float = 0.2
    scale_range: tuple[float, ...] = (0.8, 1.2)
    band_smoothing: float = 5.0

    def __post_init__(self):
        if self.mode not in VARIABILITY_MODES:
            raise ValueError(f"unknown variability mode {self.mode!r}")
        if self.mode == "hapke":
            _check_range(self.mu1_range, "mu1", high=1.0)
            _check_range(self.mu2_range, "mu2", high=1.0)
        elif self.mode == "atmospheric":
            _check_range(self.mu1_range, "mu1", high=1.0)
            if not (0.0 < self.mu2 <= 1.0):
                raise ValueError("mu2 must lie in (0, 1]")
            if self.e_sun < 0 or self.e_sky <= 0:
                raise ValueError("need e_sun >= 0 and e_sky > 0")
        elif self.mode in ("elmm_scaling", "glmm_scaling"):
            _check_range(self.scale_range, "scale")
            if self.band_smoothing <= 0:
                raise ValueError("band_smoothing must be positive")


@dataclass(frozen=True)
class VariabilityConfig:
    class_modes: tuple[ClassVariability, ...]
    n_variants: int = 5
    seed: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "class_modes", tuple(self.class_modes))
        if self.n_variants < 1:
            raise ValueError("n_variants must be >= 1")
        for cm in self.class_modes:
            if not isinstance(cm, ClassVariability):
                raise TypeError("class_modes entries must be ClassVariability")


@dataclass(frozen=True)
class AbundanceFieldConfig:
    generator: str = "dirichlet"
    alpha: Optional[tuple[float, ...]] = None   # dirichlet concentration, one per class
    correlation_length: float = 8.0             # grf kernel std, pixels
    sharpness: float = 0.05                     # grf softmax temperature
    pure_pixel_fraction: float = 0.0
    seed: Optional[int] = None

    def __post_init__(self):
        if self.generator not in ("dirichlet", "grf"):
            raise ValueError(f"unknown abundance generator {self.generator!r}")
        if self.alpha is not None:
            alpha = tuple(float(a) for a in self.alpha)
            if any(a <= 0 for a in alpha):
                raise ValueError("dirichlet concentrations must be positive")
            object.__setattr__(self, "alpha", alpha)
        if self.correlation_length < 1:
            raise ValueError("correlation_length must be >= 1 pixel")
        if self.sharpness <= 0:
            raise ValueError("sharpness must be positive")
        if not (0.0 <= self.pure_pixel_fraction < 1.0):
            raise ValueError("pure_pixel_fraction must lie in [0, 1)")


def _inject_pure_pixels(a: np.ndarray, pure_fraction: float, rng) -> np.ndarray:
    n, p = a.shape
    k = math.ceil(pure_fraction * n)
    if k == 0:
        return a
    rows = rng.choice(n, size=k, replace=False)
    classes = rng.integers(0, p, size=k)
    a[rows] = 0.0
    a[rows, classes] = 1.0
    return a


def sample_abundances_dirichlet(
    n_pixels: int,
    alpha: Sequence[float],
    pure_fraction: float = 0.0,
    seed: Optional[int] = None,
) -> AbundanceMap:
    """I.i.d. Dirichlet rows; ceil(pure_fraction * N) rows are then
    replaced by uniformly placed one-hot rows to control pure pixels."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size < 2:
        raise ValueError("need at least two classes")
    if np.any(alpha <= 0):
        raise ValueError("dirichlet concentrations must be positive")
    if pure_fraction >= 1.0:
        raise ValueError("pure_fraction must be < 1")
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(alpha, size=n_pixels)
    a = _inject_pure_pixels(a, pure_fraction, rng)
    return AbundanceMap(a, sum_to_one=True)


def sample_abundances_grf(
    height: int,
    width: int,
    n_classes: int,
    correlation_length: float = 8.0,
    sharpness: float = 0.05,
    pure_fraction: float = 0.0,
    seed: Optional[int] = None,
) -> AbundanceMap:
    """Spatially correlated abundances from smoothed Gaussian fields.

    P white-noise fields are blurred with an isotropic Gaussian kernel of
    standard deviation ``correlation_length`` (reflective boundary) and
    mapped pixel-wise through a temperature-``sharpness`` softmax; small
    temperatures approach a one-hot segmentation of the argmax field.
    """
    if height < 4 or width < 4:
        raise ValueError("grid must be at least 4x4")
    if correlation_length >= min(height, width):
        raise ValueError("correlation_length must be smaller than the grid")
    if pure_fraction >= 1.0:
        raise ValueError("pure_fraction must be < 1")
    rng = np.random.default_rng(seed)
    fields = rng.standard_normal((n_classes, height, width))
    for p in range(n_classes):
        fields[p] = gaussian_filter(fields[p], sigma=correlation_length, mode="reflect")
    z = fields.reshape(n_classes, height * width).T / sharpness
    z -= z.max(axis=1, keepdims=True)
    e = np.exp(z)
    a = e / e.sum(axis=1, keepdims=True)
    a = _inject_pure_pixels(a, pure_fraction, rng)
    return AbundanceMap(a, sum_to_one=True)


def hapke_reflectance(albedo: np.ndarray, mu1: float, mu2: float) -> np.ndarray:
    """Lambertian densely-packed-medium reflectance from single-scattering
    albedo and the incoming/outgoing angle cosines."""
    w = np.asarray(albedo, dtype=np.float64)
    if np.any(w < 0) or np.any(w > 1):
        raise ValueError("albedo must lie in [0, 1] per band")
    if not (0.0 < mu1 <= 1.0 and 0.0 < mu2 <= 1.0):
        raise ValueError("angle cosines must lie in (0, 1]")
    root = np.sqrt(1.0 - w)
    return w / ((1.0 + 2.0 * mu1 * root) * (1.0 + 2.0 * mu2 * root))


def atmospheric_reflectance(
    ground: np.ndarray,
    mu1: float,
    mu2: float,
    e_sun: float = 1.0,
    e_sky: float = 0.2,
) -> np.ndarray:
    """Flat-panel calibration model: scale ground reflectance by the ratio
    of illumination at the pixel vs at the calibration panel."""
    y = np.asarray(ground, dtype=np.float64)
    if not (0.0 < mu1 <= 1.0 and 0.0 < mu2 <= 1.0):
        raise ValueError("angle cosines must lie in (0, 1]")
    num = np.asarray(e_sun) * mu1 + np.asarray(e_sky)
    den = np.asarray(e_sun) * mu2 + np.asarray(e_sky)
    if np.any(den == 0):
        raise ZeroDivisionError("illumination denominator is zero")
    return y * (num / den)


def scaling_variants(
    base: np.ndarray,
    mode: str,
    scale_range: tuple,
    k: int,
    seed: Optional[int] = None,
    band_smoothing: float = 5.0,
) -> np.ndarray:
    """K multiplicatively scaled copies of a base signature.

    ``elmm`` applies one uniform-drawn factor per variant; ``glmm`` applies
    a per-band factor whose log is a spectrally smoothed uniform field, so
    the perturbation stays proportional to the base amplitude.
    """
    m0 = np.asarray(base, dtype=np.float64)
    if np.any(m0 < 0):
        raise ValueError("base signature must be nonnegative")
    lo, hi = _check_range(scale_range, "scale")
    rng = np.random.default_rng(seed)
    if mode == "elmm":
        psi = rng.uniform(lo, hi, size=k)
        return psi[:, None] * m0[None, :]
    if mode == "glmm":
        logs = rng.uniform(math.log(lo), math.log(hi), size=(k, m0.size))
        logs = gaussian_filter1d(logs, sigma=band_smoothing, axis=1, mode="reflect")
        return np.exp(logs) * m0[None, :]
    raise ValueError(f"unknown scaling mode {mode!r}")


def _class_variants(base: np.ndarray, cv: ClassVariability, k: int, rng) -> np.ndarray:
    if cv.mode == "none":
        return np.repeat(base[None, :], k, axis=0)
    if cv.mode == "hapke":              # per variant: mu1, then mu2
        return np.stack([hapke_reflectance(base, rng.uniform(*cv.mu1_range),
                                           rng.uniform(*cv.mu2_range)) for _ in range(k)])
    if cv.mode == "atmospheric":
        return np.stack([atmospheric_reflectance(base, rng.uniform(*cv.mu1_range), cv.mu2,
                                                 cv.e_sun, cv.e_sky) for _ in range(k)])
    sub_seed = int(rng.integers(0, 2**63 - 1))
    mode = "elmm" if cv.mode == "elmm_scaling" else "glmm"
    return scaling_variants(
        base, mode, cv.scale_range, k, seed=sub_seed, band_smoothing=cv.band_smoothing
    )


def synthesize_scene(
    base_library: SpectralLibrary,
    abund_cfg: AbundanceFieldConfig,
    var_cfg: VariabilityConfig,
    snr_db: float,
    seed: int,
    height: int,
    width: int,
    name: str = "scene",
) -> SceneTruth:
    """Generate a full ground-truthed scene.

    Per class, K signature variants are generated with the configured
    mode (Hapke interprets the base signature as single-scattering
    albedo, the other modes as reflectance). Each pixel then draws one
    variant per class uniformly to form its endmember matrix, abundances
    come from the configured field generator, and the clean mixture gets
    white Gaussian noise at ``snr_db``. The field is returned gathered:
    a table of the variant combinations that occur, checked once, and each
    pixel's row in it (``EndmemberField.gathered``); mixing reads its
    ``data``, taken once from the table.
    """
    p = base_library.n_classes
    if len(var_cfg.class_modes) != p:
        raise DimensionError("one variability mode required per class")
    if any(c.size != 1 for c in base_library.classes):
        raise ValueError("base library must hold exactly one signature per class")
    if height < 1 or width < 1:
        raise ValueError(f"height and width must be >= 1, got {height} x {width}")
    n = height * width
    l = base_library.n_bands
    k = var_cfg.n_variants

    sub = np.random.SeedSequence(seed).generate_state(4)
    var_seed = var_cfg.seed if var_cfg.seed is not None else int(sub[0])
    ab_seed = abund_cfg.seed if abund_cfg.seed is not None else int(sub[1])
    draw_seed, noise_seed = int(sub[2]), int(sub[3])

    noise = np.empty((height, width, l)) if _noisy(snr_db) else None
    with background.overlap():      # the noise draw runs while the clean mixture is built
        if noise is not None:
            background.submit(np.random.default_rng(noise_seed).standard_normal, out=noise)
        var_rng = np.random.default_rng(var_seed)
        variants = np.stack([_class_variants(cls.signatures[0], cv, k, var_rng)
                             for cls, cv in zip(base_library.classes, var_cfg.class_modes)])

        if abund_cfg.generator == "dirichlet":
            alpha = abund_cfg.alpha if abund_cfg.alpha is not None else (1.0,) * p
            if len(alpha) != p:
                raise DimensionError("dirichlet alpha length must equal the class count")
            abundances = sample_abundances_dirichlet(n, alpha, abund_cfg.pure_pixel_fraction,
                                                     ab_seed)
        else:
            abundances = sample_abundances_grf(height, width, p, abund_cfg.correlation_length,
                                               abund_cfg.sharpness,
                                               abund_cfg.pure_pixel_fraction, ab_seed)
        abundances = AbundanceMap(abundances.data, class_names=base_library.class_names)

        draw = np.random.default_rng(draw_seed).integers(0, k, size=(n, p))
        which = np.zeros(n, dtype=np.intp)  # combination index, class by class: < C <= N
        for j in range(p):
            _, first, which = np.unique(which * k + draw[:, j], return_index=True,
                                        return_inverse=True)
        table = np.empty((first.size, l, p))    # one (L, P) matrix per combination
        for j in range(p):
            table[:, :, j] = variants[j][draw[first, j]]
        endmembers = EndmemberField.gathered(_Adopt(table), which)
        clean = mix_forward(endmembers, abundances, shape=(height, width), name=f"{name}_clean")
    return SceneTruth(image_noisy=_add_scaled(clean, snr_db, noise, f"{name}_noisy"),
                      image_clean=clean, abundances=abundances, endmembers=endmembers,
                      snr_db=snr_db, seed=seed)


def truth_variant_library(truth: SceneTruth) -> SpectralLibrary:
    """Recover the distinct per-class variants realized in a scene, as
    ``np.unique(..., axis=0)`` of a class's rows, sorting only its
    byte-distinct ones (``distinct_rows``). Rows differing only in a zero's
    sign may come out with either sign, equal in value; synthesized variants
    all scale one base value, so a zero keeps its sign and the bytes hold."""
    names = truth.abundances.names_or_default()
    classes = []
    for p, cname in enumerate(names):
        sigs = truth.endmembers.data[:, :, p]
        classes.append(LibraryClass(cname, np.unique(sigs[distinct_rows(sigs)], axis=0)))
    return SpectralLibrary(tuple(classes))


@dataclass(frozen=True)
class SceneConfig:
    """JSON-facing scene description; ``base_library`` is a library CSV
    path with one signature per class. ``snr_db`` of None means noiseless."""

    height: int
    width: int
    base_library: str
    abundance: AbundanceFieldConfig
    variability: VariabilityConfig
    snr_db: Optional[float] = 30.0
    seed: int = 0
    name: str = "scene"

    def to_dict(self) -> dict:
        return asdict(self)


def synthesize_from_config(cfg: SceneConfig, seed: Optional[int] = None) -> SceneTruth:
    """Run synthesis from a scene config; ``seed`` overrides the config
    seed (used by the Monte Carlo bench)."""
    snr = math.inf if cfg.snr_db is None else cfg.snr_db
    return synthesize_scene(
        load_library(cfg.base_library),
        cfg.abundance,
        cfg.variability,
        snr_db=snr,
        seed=cfg.seed if seed is None else seed,
        height=cfg.height,
        width=cfg.width,
        name=cfg.name,
    )


def synthetic_base_spectra(
    n_bands: int, n_classes: int, seed: Optional[int] = 0
) -> SpectralLibrary:
    """Smooth, well-separated synthetic reflectance curves for demos and
    benchmarks (sums of Gaussian bumps, clipped to [0.05, 0.95])."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n_bands)
    classes = []
    for p in range(n_classes):
        centers = (p + rng.uniform(0.1, 0.9, size=3)) / n_classes
        widths = rng.uniform(0.08, 0.25, size=3)
        weights = rng.uniform(0.3, 1.0, size=3)
        curve = np.zeros(n_bands)
        for c, wdt, wgt in zip(centers, widths, weights):
            curve += wgt * np.exp(-0.5 * ((x - c) / wdt) ** 2)
        curve = 0.05 + 0.9 * curve / curve.max()
        classes.append(LibraryClass(f"material_{p}", np.clip(curve, 0.05, 0.95)[None, :]))
    return SpectralLibrary(tuple(classes))
