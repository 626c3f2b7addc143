"""The six unmixing solvers and the one table that dispatches to them.

Each solver takes the image and one input: library-based methods
(MESMA, sparse L1/L0) a ``SpectralLibrary``, parametric ones (FCLS,
ELMM, PLMM) an (L, P) reference matrix. Its signature declares every
other parameter it reads: ``SOLVERS`` maps each name to its callable,
that input kind and the data-free check of those parameters' values;
``unmix`` is the single call the CLI and the bench make.
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
    check: Callable = lambda: None  # raises ValueError for a refused value

    @property
    def params(self) -> tuple:
        """The parameters the solver takes after the image and its input,
        read from its signature; ``check`` takes some of them."""
        return tuple(inspect.signature(self.fn).parameters)[2:]


SOLVERS = {
    "fcls": Solver(fcls, "matrix"),
    "mesma": Solver(mesma, "library", check_mesma),
    "sparse-l1": Solver(sparse_su_l1, "library"),
    "sparse-l0": Solver(sparse_su_l0, "library", check_l0),
    "elmm": Solver(elmm_unmix, "matrix"),
    "plmm": Solver(plmm_unmix, "matrix"),
}
ALGORITHMS = tuple(SOLVERS)


def unmix(name, image, source, /, **params) -> UnmixingResult:
    """Run solver ``name`` on ``image`` with ``source`` (a library or an
    (L, P) matrix, by the solver's kind) and ``params``, some of its own."""
    return SOLVERS[name].fn(image, source, **params)


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
