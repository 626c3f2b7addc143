"""Image-based endmember and bundle extraction.

A vertex-component-style pure-pixel extractor runs on random pixel
subsets; the pooled signatures are clustered into material classes with
a seeded k-means (optionally on unit-normalized signatures with a cosine
distance).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import eigh

from .solvers.search import distinct_rows
from .types import (
    DegenerateGeometryWarning,
    DimensionError,
    LibraryClass,
    SpectralImage,
    SpectralLibrary,
)

_CLUSTER_RESTARTS = 20
_CLUSTER_ITERS = 300


@dataclass(frozen=True)
class BundleExtractionConfig:
    n_classes: int
    num_runs: int = 5
    subset_size: int = 500
    with_replacement: bool = True
    cluster_metric: str = "spectral_angle"
    seed: Optional[int] = None

    def __post_init__(self):
        if self.n_classes < 1:
            raise ValueError("n_classes must be >= 1")
        if self.num_runs < 1:
            raise ValueError("num_runs must be >= 1")
        if self.subset_size < self.n_classes:
            raise ValueError("subset_size must be at least the class count")
        if self.cluster_metric not in ("spectral_angle", "euclidean"):
            raise ValueError(f"unknown cluster metric {self.cluster_metric!r}")


def _estimate_snr(corr, mean, projected):
    """SNR in dB of pixels with scatter ``corr`` = Y'Y/N and mean
    ``mean`` whose centred data project to the (N, P) ``projected``."""
    n, p = projected.shape
    p_y = float(np.trace(corr))
    p_x = float(np.sum(projected**2)) / n + float(mean @ mean)
    denom = p_y - p_x
    if denom <= 0:
        return np.inf
    num = p_x - p / corr.shape[0] * p_y
    if num <= 0:
        return 0.0
    return 10.0 * np.log10(num / denom)


def _top_eigenvectors(scatter: np.ndarray, k: int) -> np.ndarray:
    """(L, k) eigenvectors of the symmetric ``scatter`` for its k largest
    eigenvalues, in descending order of eigenvalue. Each is signed so that
    its entry of largest magnitude is positive: the selections made from
    them must not depend on the sign LAPACK happens to return."""
    l = scatter.shape[0]
    _, vecs = eigh(scatter, subset_by_index=[l - k, l - 1])
    vecs = vecs[:, ::-1]
    top = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(k)]
    return vecs * np.sign(top)


def extract_endmembers(
    image: SpectralImage,
    n_classes: int,
    seed: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Select ``n_classes`` image pixels as extreme points of the data
    simplex (seeded random direction draws). The data are projected
    projectively onto their top P principal directions, or affinely onto
    P - 1 when the SNR estimated from the image is below 15 + 10 log10 P dB.

    Every direction is an eigenvector of an (L, L) scatter of the (N, L)
    pixel matrix Y, from a partial symmetric eigendecomposition: the
    projective subspace is the top P of Y'Y/N, the affine one (and the
    single direction of P = 1) the top P - 1 of Y0'Y0/N for the
    mean-removed Y0. So the cost is one O(N L^2) product per scatter plus
    an O(L^2 P) eigensolve; no SVD of the pixel matrix is made. Each
    eigenvector is signed so that its entry of largest magnitude is
    positive, which fixes the selections for a given seed.

    Returns (signatures, pixel indices) with signatures of shape (P, L);
    every returned signature is an actual image pixel. A degenerate
    geometry (rank of Y0 projected on the top-P subspace below P - 1, at
    the tolerance 1e-10 max(1, max|Y0|)) raises a warning and returns a
    best effort. Raises ``DimensionError`` when P exceeds the pixel or
    the band count.
    """
    return _vca(image.pixels, n_classes, seed)


def _vca(pixels: np.ndarray, n_classes: int, seed: Optional[int]):
    """``extract_endmembers`` on the (N, L) pixel matrix ``pixels``."""
    n, l = pixels.shape
    p = n_classes
    if n < p:
        raise DimensionError(f"need at least {p} pixels, image has {n}")
    if l < p:
        raise DimensionError(f"need at least {p} bands, image has {l}")
    rng = np.random.default_rng(seed)

    mean = pixels.mean(axis=0)
    centred = pixels - mean
    if p == 1:
        # degenerate case: pixel with the largest loading on the first
        # principal direction of the mean-removed data
        u = _top_eigenvectors(centred.T @ centred / n, 1)
        idx = np.array([int(np.argmax(np.abs(centred @ u[:, 0])))])
        return pixels[idx], idx

    corr = pixels.T @ pixels / n
    ud = _top_eigenvectors(corr, p)
    projected = centred @ ud                           # (N, P)
    scale = max(1.0, float(max(centred.max(), -centred.min())))      # max |centred|
    if np.linalg.matrix_rank(projected, tol=1e-10 * scale) < p - 1:
        warnings.warn(
            "data simplex rank is below P-1; extraction is degenerate",
            DegenerateGeometryWarning,
        )
    snr_db = _estimate_snr(corr, mean, projected)
    snr_threshold = 15.0 + 10.0 * np.log10(p)

    use_affine = snr_db < snr_threshold
    if not use_affine:
        x = pixels @ ud
        denom = x @ x.mean(axis=0)
        if np.min(np.abs(denom)) <= 1e-12 * max(1.0, float(np.abs(denom).max())):
            use_affine = True                       # projective scaling unsafe
        else:
            work = x / denom[:, None]
    if use_affine:
        x = centred @ _top_eigenvectors(centred.T @ centred / n, p - 1)
        c = float(np.sqrt(np.max(np.sum(x**2, axis=1))))
        if c == 0.0:
            c = 1.0
        work = np.hstack([x, np.full((n, 1), c)])

    indices = np.zeros(p, dtype=np.intp)
    basis = np.zeros((p, p))
    basis[-1, 0] = 1.0
    for i in range(p):
        w = rng.standard_normal((p, 1))
        f = w - basis @ (np.linalg.pinv(basis) @ w)
        norm = float(np.linalg.norm(f))
        if norm < 1e-12:
            f = w
            norm = float(np.linalg.norm(f))
        f /= norm
        v = (work @ f).ravel()
        indices[i] = int(np.argmax(np.abs(v)))
        basis[:, i] = work[indices[i]]
    return pixels[indices], indices


def _angle_normalize(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return x / norms


def _kmeans_once(x, k, rng, metric):
    n = x.shape[0]
    centers = x[rng.choice(n, size=k, replace=False)].copy()
    labels = None
    dist = None
    for _it in range(_CLUSTER_ITERS):
        if metric == "spectral_angle":
            dist = 1.0 - x @ _angle_normalize(centers).T
        else:
            dist = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(dist, axis=1)
        if np.any(np.bincount(new_labels, minlength=k) == 0):
            return None, np.inf                     # dead cluster: discard restart
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centers[j] = x[labels == j].mean(axis=0)
    cost = float(np.sum(dist[np.arange(n), labels]))
    return labels, cost


def cluster_signatures(
    signatures: np.ndarray,
    n_classes: int,
    metric: str = "spectral_angle",
    seed: Optional[int] = None,
) -> np.ndarray:
    """Seeded k-means over signatures; returns one class label per row.

    The spectral-angle metric runs on unit-normalized signatures with a
    cosine distance, so assignments are invariant to positive scaling.
    The best of 20 restarts (within-cluster cost) is kept; equidistant
    centroids resolve to the lowest cluster index.
    """
    x = np.atleast_2d(np.asarray(signatures, dtype=np.float64))
    if x.shape[0] < n_classes:
        raise ValueError("fewer signatures than classes")
    if metric not in ("spectral_angle", "euclidean"):
        raise ValueError(f"unknown cluster metric {metric!r}")
    data = _angle_normalize(x) if metric == "spectral_angle" else x
    rng = np.random.default_rng(seed)
    best = (None, np.inf)
    for _ in range(_CLUSTER_RESTARTS):
        labels, cost = _kmeans_once(data, n_classes, rng, metric)
        if labels is not None and cost < best[1]:
            best = (labels, cost)
    if best[0] is None:
        raise RuntimeError("clustering failed: every restart produced an empty cluster")
    return best[0]


def extract_bundles(image: SpectralImage, cfg: BundleExtractionConfig) -> SpectralLibrary:
    """Pool endmembers extracted from random pixel subsets and cluster
    them into classes.

    Classes are named class_0, class_1, ... ordered by descending mean
    signature norm so repeated runs are comparable. Raises ``ValueError``
    when the pooled signatures hold fewer distinct spectra than classes
    (e.g. a constant image), before any clustering is tried.
    """
    n = image.n_pixels
    if not cfg.with_replacement and cfg.subset_size > n:
        raise ValueError("subset_size exceeds the pixel count for sampling without replacement")
    master = np.random.SeedSequence(cfg.seed)
    run_seeds = master.generate_state(cfg.num_runs + 11)
    rng = np.random.default_rng(int(run_seeds[0]))

    pool = []
    pixels = np.empty((cfg.subset_size, image.n_bands))     # every run's subset, in turn
    for r in range(cfg.num_runs):
        subset = rng.choice(n, size=cfg.subset_size, replace=cfg.with_replacement)
        np.take(image.pixels, subset, axis=0, out=pixels, mode="clip")     # "raise" buffers
        # stream 0 draws the subsets and stream 10 seeds the clustering,
        # so runs take streams 1-9, 11, 12, ...
        stream = r + 1 if r < 9 else r + 2
        sigs, _ = _vca(pixels, cfg.n_classes, seed=int(run_seeds[stream]))
        pool.append(sigs)
    pooled = np.concatenate(pool, axis=0)
    distinct = distinct_rows(pooled + 0.0).size         # + 0.0: -0.0 and 0.0 are one value
    if distinct < cfg.n_classes:
        raise ValueError(
            f"the pooled signatures hold {distinct} distinct spectra, "
            f"fewer than the {cfg.n_classes} classes requested"
        )

    for attempt in range(10):
        try:
            labels = cluster_signatures(
                pooled, cfg.n_classes, cfg.cluster_metric, seed=int(run_seeds[10]) + attempt
            )
            break
        except RuntimeError:
            continue
    else:
        raise RuntimeError("bundle clustering failed after 10 retries")

    groups = [pooled[labels == j] for j in range(cfg.n_classes)]
    order = np.argsort([-g.mean(axis=0) @ g.mean(axis=0) for g in groups], kind="stable")
    classes = tuple(
        LibraryClass(f"class_{rank}", groups[j]) for rank, j in enumerate(order)
    )
    return SpectralLibrary(classes)
