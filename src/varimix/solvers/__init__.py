"""The six unmixing solvers and the one table that dispatches to them.

Each solver takes the image and one input: library-based methods
(MESMA, sparse L1/L0) a ``SpectralLibrary``, parametric ones (FCLS,
ELMM, PLMM) an (L, P) reference matrix. ``SOLVERS`` maps each name to
its callable, that input kind and the data-free check of its extras,
whose parameters name them; ``unmix`` is the single call the CLI and
the bench make.
"""

import inspect
from typing import Callable, NamedTuple

from .base import (
    QPCounts,
    SolverLog,
    SolverOptions,
    UnmixingResult,
    fcls_core,
    reconstruct,
    residual_stats,
)
from .elmm import elmm_unmix
from .fcls import fcls
from .mesma import check_mesma, mesma
from .plmm import plmm_unmix
from .sparse import check_l0, kkt_residual_l1, kkt_residual_simplex, sparse_su_l0, sparse_su_l1


class Solver(NamedTuple):
    fn: Callable
    kind: str                       # "matrix" or "library"
    check: Callable = lambda: None  # raises ValueError for a refused extra

    @property
    def extras(self) -> tuple:
        """The keyword arguments the solver takes besides opts."""
        return tuple(inspect.signature(self.check).parameters)


SOLVERS = {
    "fcls": Solver(fcls, "matrix"),
    "mesma": Solver(mesma, "library", check_mesma),
    "sparse-l1": Solver(sparse_su_l1, "library"),
    "sparse-l0": Solver(sparse_su_l0, "library", check_l0),
    "elmm": Solver(elmm_unmix, "matrix"),
    "plmm": Solver(plmm_unmix, "matrix"),
}
ALGORITHMS = tuple(SOLVERS)


def unmix(name, image, source, opts, /, **extras) -> UnmixingResult:
    """Run solver ``name`` on ``image`` with ``source`` (a library or an
    (L, P) matrix, by the solver's kind) and its ``extras``."""
    return SOLVERS[name].fn(image, source, opts=opts, **extras)


__all__ = [
    "ALGORITHMS",
    "SOLVERS",
    "QPCounts",
    "SolverLog",
    "SolverOptions",
    "UnmixingResult",
    "fcls",
    "fcls_core",
    "reconstruct",
    "residual_stats",
    "elmm_unmix",
    "plmm_unmix",
    "mesma",
    "sparse_su_l0",
    "sparse_su_l1",
    "kkt_residual_l1",
    "kkt_residual_simplex",
    "unmix",
]
