"""varimix: linear spectral unmixing under endmember variability.

Synthetic scene generation with ground truth, image-based library
extraction and pruning, a suite of variability-aware unmixing solvers,
and a reproducible benchmark harness.
"""

from .types import (
    AbundanceMap,
    BenchReport,
    BudgetError,
    DegenerateGeometryWarning,
    DegenerateSignatureError,
    DimensionError,
    EndmemberField,
    FormatError,
    LibraryClass,
    MetricRow,
    SceneTruth,
    SpectralImage,
    SpectralLibrary,
)
from .metrics import field_scores, pairwise_angles, rmse, spectral_angle
from .mixing import NOISELESS, add_noise, mix_forward

__version__ = "0.1.0"
