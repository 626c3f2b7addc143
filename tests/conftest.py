import numpy as np
import pytest

from varimix.solvers import SOLVERS, SolverOptions
from varimix.synth import (
    AbundanceFieldConfig,
    ClassVariability,
    VariabilityConfig,
    synthesize_scene,
    synthetic_base_spectra,
)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_scene(
    n_bands=40,
    n_classes=3,
    height=10,
    width=20,
    snr_db=float("inf"),
    n_variants=3,
    seed=42,
    pure_fraction=0.0,
    modes=None,
):
    """Small ground-truthed scene used across test modules."""
    base = synthetic_base_spectra(n_bands, n_classes, seed=7)
    if modes is None:
        modes = tuple(
            ClassVariability("elmm_scaling", scale_range=(0.85, 1.15))
            for _ in range(n_classes)
        )
    var = VariabilityConfig(class_modes=modes, n_variants=n_variants, seed=11)
    ab = AbundanceFieldConfig(
        generator="dirichlet",
        alpha=(1.0,) * n_classes,
        pure_pixel_fraction=pure_fraction,
        seed=3,
    )
    return synthesize_scene(base, ab, var, snr_db=snr_db, seed=seed,
                            height=height, width=width)


def bench_scene(height, width, bands=200, seed=5):
    """A scene of the benchmark's family: three classes, three variability
    modes, a smooth abundance field, 30 dB."""
    modes = (ClassVariability("hapke", mu1_range=(0.6, 1.0), mu2_range=(0.6, 1.0)),
             ClassVariability("atmospheric", mu1_range=(0.4, 1.0)),
             ClassVariability("elmm_scaling", scale_range=(0.75, 1.25)))
    return synthesize_scene(synthetic_base_spectra(bands, 3, seed=123),
                            AbundanceFieldConfig(generator="grf", correlation_length=6,
                                                 sharpness=0.08, pure_pixel_fraction=0.03),
                            VariabilityConfig(modes, n_variants=5), snr_db=30.0, seed=seed,
                            height=height, width=width)


def solver_params(name, **options):
    """``unmix`` keywords for solver ``name``: ``options`` as its opts if it
    reads ``SolverOptions``, none otherwise."""
    return {"opts": SolverOptions(**options)} if "opts" in SOLVERS[name].params else {}
