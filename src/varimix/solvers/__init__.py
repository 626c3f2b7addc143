from .base import (
    QPCounts,
    SolverLog,
    SolverOptions,
    UnmixingResult,
    fcls_core,
    nnls_core,
    per_pixel_rms,
    reconstruct,
)
from .elmm import elmm_unmix
from .fcls import fcls
from .mesma import mesma
from .plmm import plmm_unmix
from .sparse import kkt_residual_l1, kkt_residual_simplex, sparse_su_l0, sparse_su_l1

__all__ = [
    "QPCounts",
    "SolverLog",
    "SolverOptions",
    "UnmixingResult",
    "fcls",
    "fcls_core",
    "nnls_core",
    "per_pixel_rms",
    "reconstruct",
    "elmm_unmix",
    "plmm_unmix",
    "mesma",
    "sparse_su_l0",
    "sparse_su_l1",
    "kkt_residual_l1",
    "kkt_residual_simplex",
]
