"""Library reduction, same-class pruning, and spectral transformations
applied before unmixing."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .metrics import pairwise_angles
from .types import (DimensionError, FormatError, LibraryClass, SpectralImage, SpectralLibrary,
                    _Adopt, _freeze)

TRANSFORM_KINDS = ("mask", "weights", "dense")


@dataclass(frozen=True)
class SpectralTransform:
    """A linear map W x applied to pixels and library signatures.

    ``mask`` keeps the bands with weight 1 (band selection), ``weights``
    scales bands in place, and ``dense`` applies a full d x L matrix. One
    with no output band (a mask that keeps none, no rows) is refused, and
    so are weights of which none is positive (they map every pixel to 0).
    """

    kind: str
    weights: np.ndarray

    def __post_init__(self):
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        w = np.asarray(self.weights, dtype=np.float64)
        if self.kind in ("mask", "weights"):
            if w.ndim != 1:
                raise DimensionError("diagonal transforms need a 1-D weight vector")
            if self.kind == "mask" and not np.all(np.isin(w, (0.0, 1.0))):
                raise ValueError("mask weights must be 0/1")
            if self.kind == "weights" and np.any(w < 0):
                raise ValueError("band weights must be nonnegative")
        else:
            if w.ndim != 2:
                raise DimensionError("dense transforms need a (d, L) matrix")
            if np.linalg.matrix_rank(w) < w.shape[0]:
                raise ValueError("dense transform must have full row rank")
        object.__setattr__(self, "weights", _freeze(w))
        if self.output_bands == 0:
            raise ValueError(f"{self.kind} transform has no output band")
        if self.kind == "weights" and not np.any(self.weights > 0):
            raise ValueError("weights transform has no positive weight")

    @property
    def input_bands(self) -> int:
        return self.weights.shape[-1]

    @property
    def output_bands(self) -> int:
        if self.kind == "mask":
            return int(np.sum(self.weights))
        return self.weights.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Map rows of (n, L) through the transform."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_bands:
            raise DimensionError("band count does not match the transform")
        if self.kind == "mask":
            return x[:, self.weights.astype(bool)]
        if self.kind == "weights":
            return x * self.weights[None, :]
        return x @ self.weights.T

    def to_json(self, path) -> Path:
        p = Path(path)
        p.write_text(json.dumps({"kind": self.kind, "weights": self.weights.tolist()}) + "\n")
        return p

    @staticmethod
    def from_json(path) -> "SpectralTransform":
        """Read a transform written by ``to_json``; a file that does not
        hold a valid transform raises ``FormatError``. Files from older
        versions carry ``"offset": null`` and load unchanged; any other
        offset is refused."""
        try:
            doc = json.loads(Path(path).read_text())
            if doc.get("offset") is not None:
                raise ValueError("transform offsets are not supported")
            return SpectralTransform(doc["kind"], np.array(doc["weights"], dtype=np.float64))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise FormatError(f"{path}: not a valid transform file ({exc})") from exc


def _between_class_variance(library: SpectralLibrary) -> tuple[np.ndarray, np.ndarray]:
    """The (P, L) class means and their population variance per band, zero
    at or below (c eps max|x|)^2, max|x| the library's largest entry and
    c = 2 (2n + P), n its largest class size. A class mean summed in order
    is within n eps max|x| of its exact value and the rounded mean of the
    means within (n + P) eps max|x|, so means that agree but for rounding
    deviate from it by at most half c eps max|x|. A library with no band
    left (one class leaves none) is refused (``np.linalg.LinAlgError``)."""
    means = library.class_means()
    inter = means.var(axis=0)
    c = 2 * (2 * max(library.sizes) + library.n_classes)
    scale = max(np.abs(cls.signatures).max() for cls in library.classes)
    inter[inter <= (c * np.finfo(np.float64).eps * scale) ** 2] = 0.0
    if not inter.any():
        raise np.linalg.LinAlgError("class means agree up to rounding: no between-class scatter")
    return means, inter


def instability_index(library: SpectralLibrary) -> np.ndarray:
    """Per-band ratio of mean within-class variance to the variance of the
    class means (population variances). Bands where the class means agree
    up to rounding get a +inf sentinel, and a library where they agree in
    every band is refused (``_between_class_variance``). A library of one
    signature per class has no within-class spread to judge a band by:
    every finite index is 0, and a warning says so."""
    means, inter = _between_class_variance(library)
    if max(library.sizes) < 2:
        warnings.warn("one signature per class: no within-class spread, every band scores 0")
    within = np.stack([c.signatures.var(axis=0) for c in library.classes])
    intra = within.mean(axis=0)
    out = np.full(library.n_bands, np.inf)
    ok = inter > 0
    out[ok] = intra[ok] / inter[ok]
    return out


def select_stable_bands(
    library: SpectralLibrary,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
) -> SpectralTransform:
    """Band-selection mask keeping the k most stable bands (lowest
    instability index, ties to the lower band index) or every band with
    index strictly below ``threshold``. A library whose class means agree
    up to rounding in every band is refused (``instability_index``), and
    so is a mask that keeps no band."""
    if (k is None) == (threshold is None):
        raise ValueError("pass exactly one of k / threshold")
    index = instability_index(library)
    l = index.size
    mask = np.zeros(l)
    if k is not None:
        if not (1 <= k <= l):
            raise ValueError(f"k must lie in [1, {l}]")
        order = np.lexsort((np.arange(l), index))
        mask[order[:k]] = 1.0
    else:
        mask[index < threshold] = 1.0
    if 0 < mask.sum() < library.n_classes:
        warnings.warn("fewer bands than classes: least squares is underdetermined")
    return SpectralTransform("mask", mask)


def instability_weights(library: SpectralLibrary) -> SpectralTransform:
    """Band-weighting transform favoring variability-robust bands,
    w_b = 1 / sqrt(1 + index_b) (zero where the index is infinite)."""
    index = instability_index(library)
    w = np.zeros_like(index)
    finite = np.isfinite(index)
    w[finite] = 1.0 / np.sqrt(1.0 + index[finite])
    return SpectralTransform("weights", w)


def fda_transform(library: SpectralLibrary, dim: int) -> SpectralTransform:
    """Discriminant transform: rows are the top generalized eigenvectors
    of (between-class scatter, within-class scatter), each scaled to unit
    norm, so transformed spectra keep the scale of the input.

    The within-class scatter is the class-size-weighted sum of the
    population covariances, ridge-loaded with eps = 1e-8 tr(S_w)/L before
    inversion (with an absolute floor when the scatter is exactly zero).
    A library with no between-class scatter, whose class means agree up to
    rounding in every band, is refused (``_between_class_variance``).
    """
    means, _ = _between_class_variance(library)
    p = library.n_classes
    if not (1 <= dim <= p - 1):
        raise ValueError(f"dim must lie in [1, {p - 1}]")
    l = library.n_bands
    s_within = np.zeros((l, l))
    for c in library.classes:
        centered = c.signatures - c.signatures.mean(axis=0)
        s_within += centered.T @ centered
    s_between = np.atleast_2d(np.cov(means.T, bias=True))
    eps = 1e-8 * np.trace(s_within) / l
    if eps == 0.0:
        eps = 1e-12 * max(1.0, np.trace(s_between) / l)
    vals, vecs = eigh(s_between, s_within + eps * np.eye(l))
    w = vecs[:, ::-1][:, :dim].T                        # top-dim rows
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    return SpectralTransform("dense", w)


def apply_transform(
    transform: SpectralTransform,
    image: SpectralImage,
    library: SpectralLibrary,
) -> tuple[SpectralImage, SpectralLibrary]:
    """Map every pixel and every library signature through the transform;
    downstream unmixers consume the returned pair unchanged. Dense
    transforms may produce negative values in both outputs."""
    if transform.input_bands != image.n_bands or transform.input_bands != library.n_bands:
        raise DimensionError("transform band count does not match the inputs")
    if transform.kind == "mask" and transform.output_bands < library.n_classes:
        warnings.warn("mask keeps fewer bands than classes: underdetermined")
    pixels = transform.apply(image.pixels)
    out_image = SpectralImage(_Adopt(pixels.reshape(image.height, image.width, -1)),
                              name=image.name)
    classes = tuple(
        LibraryClass(c.name, transform.apply(c.signatures)) for c in library.classes
    )
    return out_image, SpectralLibrary(classes)


def count_based_reduce(
    library: SpectralLibrary,
    angle_threshold: float,
    target_per_class: int,
    metric: str = "sam",
) -> SpectralLibrary:
    """Per class, greedily keep the candidates that cover the most
    not-yet-covered signatures (coverage: spectral angle <= threshold, or
    squared error with ``metric='sqerr'``); ties go to the lower index.
    Selection stops once everything is covered or the target is reached."""
    if not angle_threshold >= 0:
        raise ValueError("threshold must be nonnegative")
    if target_per_class < 1:
        raise ValueError("target_per_class must be >= 1")
    if metric not in ("sam", "sqerr"):
        raise ValueError(f"unknown coverage metric {metric!r}")
    classes = []
    for c in library.classes:
        sigs = c.signatures
        m = sigs.shape[0]
        if metric == "sam":
            dist = pairwise_angles(sigs, sigs)
        else:
            diff = sigs[:, None, :] - sigs[None, :, :]
            dist = np.sum(diff**2, axis=2)
        covers = dist <= angle_threshold
        uncovered = np.ones(m, dtype=bool)
        selected: list[int] = []
        while uncovered.any() and len(selected) < target_per_class:
            counts = covers[:, uncovered].sum(axis=1)
            pick = int(np.argmax(counts))           # argmax takes the lowest index on ties
            selected.append(pick)
            uncovered &= ~covers[pick]
        selected = sorted(set(selected))
        classes.append(LibraryClass(c.name, sigs[selected]))
    return SpectralLibrary(tuple(classes))


def music_prune(
    library: SpectralLibrary,
    image: SpectralImage,
    subspace_dim: int,
    residual_threshold: float,
) -> SpectralLibrary:
    """Drop signatures far from the image's leading signal subspace.

    The subspace is spanned by the top-k eigenvectors of the (L, L)
    scatter X'X of the mean-removed (N, L) pixel matrix X, i.e. the top-k
    left singular vectors of X', found without forming the (L, N) right
    factor of a thin SVD. Eigenvectors whose eigenvalue is not above
    100 * L * eps * lambda_max are dropped: when k exceeds the rank of X
    they would be an arbitrary basis of the null space. (The null
    eigenvalues of the formed scatter come out at up to a few
    L * eps * lambda_max, and an eigenvector within 100 times that of
    zero is resolved only to about a percent.) So are eigenvalues not
    above 100 * N * (eps * ||mean||)^2, the scatter that the rounding of
    the computed mean alone can leave: a constant image gives an empty
    subspace, every residual then 1 (0 for a signature equal to the mean).

    Each signature's residual is the mean-removed, norm-normalized
    distance ||s - U U's|| / ||s|| to the subspace (||s||^2 - ||U's||^2
    would cancel to about 1e-8 inside it). A class is never emptied (a
    warning is raised instead of dropping its last signature)."""
    if image.n_pixels == 0:
        raise ValueError("empty image")
    l = image.n_bands
    if not (1 <= subspace_dim <= min(l, image.n_pixels)):
        raise ValueError("subspace_dim must lie in [1, min(L, N)]")
    if not residual_threshold > 0:
        raise ValueError("residual_threshold must be positive")
    pixels = image.pixels
    mean = pixels.mean(axis=0)
    centered = pixels - mean                            # (N, L)
    vals, vecs = eigh(centered.T @ centered, subset_by_index=[l - subspace_dim, l - 1])
    eps = np.finfo(float).eps
    cut = max(100 * l * eps * vals[-1], 100 * image.n_pixels * (eps * np.linalg.norm(mean)) ** 2)
    u = vecs[:, vals > cut]
    classes = []
    for c in library.classes:
        shifted = c.signatures - mean
        norms = np.linalg.norm(shifted, axis=1)
        rest = np.linalg.norm(shifted - (shifted @ u) @ u.T, axis=1)
        residual = np.divide(rest, norms, out=np.zeros_like(norms), where=norms > 0)
        keep = residual <= residual_threshold
        if not keep.any():
            warnings.warn(f"class {c.name!r} would be emptied; keeping its best signature")
            keep[int(np.argmin(residual))] = True
        classes.append(LibraryClass(c.name, c.signatures[keep]))
    return SpectralLibrary(tuple(classes))


# Keys and defaults of each method, by spec block: the one list for the CLI
# flags, the bench config check and the dispatch below. None means no value
# (mask) or one taken from the library (music's class count, fda's P - 1).
METHODS = {
    "prune": {"count": {"angle_threshold": 0.05, "target_per_class": 5, "metric": "sam"},
              "music": {"subspace_dim": None, "residual_threshold": 0.5}},
    "transform": {"mask": {"k": None, "threshold": None}, "weights": {}, "fda": {"dim": None},
                  "path": {"path": None}},
}


def check_spec(block: str, spec: dict) -> dict:
    """The ``block`` spec with every key of its method, defaults filled
    in. An unknown method or key raises ``ValueError`` naming it."""
    methods = METHODS[block]
    method = spec.get("method")
    if method not in methods:
        raise ValueError(f"{block}: method: unknown method {method!r}")
    unknown = sorted(spec.keys() - {"method", *methods[method]})
    if unknown:
        raise ValueError(f"{block}: {unknown[0]}: unknown key")
    return {**methods[method], **spec}


def prune(spec: dict, library: SpectralLibrary, image: Optional[SpectralImage]) -> SpectralLibrary:
    """Reduce ``library`` by a prune spec, ``{"method": "count" | "music",
    ...}`` with the keys of ``METHODS["prune"]``; music needs ``image``."""
    s = check_spec("prune", spec)
    if s["method"] == "count":
        return count_based_reduce(library, float(s["angle_threshold"]),
                                  int(s["target_per_class"]), metric=s["metric"])
    dim = library.n_classes if s["subspace_dim"] is None else s["subspace_dim"]
    return music_prune(library, image, int(dim), float(s["residual_threshold"]))


def build_transform(spec: dict, library: SpectralLibrary) -> SpectralTransform:
    """The transform a spec describes, ``{"method": "mask" | "weights" |
    "fda" | "path", ...}`` with the keys of ``METHODS["transform"]``."""
    s = check_spec("transform", spec)
    if s["method"] == "path":
        return SpectralTransform.from_json(s["path"])
    if s["method"] == "mask":
        return select_stable_bands(library, k=s["k"], threshold=s["threshold"])
    if s["method"] == "weights":
        return instability_weights(library)
    dim = library.n_classes - 1 if s["dim"] is None else s["dim"]
    return fda_transform(library, int(dim))
