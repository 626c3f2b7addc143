"""Per-pixel reconstructions: one stacked product whose rows keep their
bits whatever batch they are computed in and whatever the BLAS thread
count, within rounding of the summed products; and a one-pixel image,
solved alone, gets the bits that pixel gets in a larger image."""

import os
import subprocess
import sys

import numpy as np
import pytest

from varimix.solvers import SOLVERS, reconstruct, unmix
from varimix.types import SpectralImage, SpectralLibrary

from conftest import solver_params

EPS = np.finfo(np.float64).eps


def _case(seed, n, l, p):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.2, 1.0, size=(n, l, p)), rng.dirichlet(np.ones(p), size=n)


@pytest.mark.parametrize("n, l, p", [(600, 37, 4), (300, 200, 3), (260, 1, 3), (257, 5, 1)])
def test_rows_keep_their_bits_alone_in_a_chunk_and_in_the_whole(n, l, p):
    m, a = _case(n + l + p, n, l, p)
    whole = reconstruct(m, a)
    assert whole.shape == (n, l) and whole.flags.c_contiguous
    chunked = np.concatenate([reconstruct(m[lo:lo + 256], a[lo:lo + 256])
                              for lo in range(0, n, 256)])
    assert chunked.tobytes() == whole.tobytes()
    for i in range(n):
        assert reconstruct(m[i:i + 1], a[i:i + 1]).tobytes() == whole[i].tobytes()
    # within rounding of the sum over the P terms
    ref = np.einsum("nlp,np->nl", m, a)
    assert np.all(np.abs(whole - ref) <= 2 * p * EPS * np.einsum("nlp,np->nl", np.abs(m), a))


def test_rows_keep_their_bits_across_thread_counts():
    # with L >= 5000 the per-pixel matrix-vector products are large enough
    # for BLAS to split them over threads; each thread count runs in its
    # own process, since BLAS reads the count once
    script = """
import hashlib
import numpy as np
from varimix.solvers import reconstruct
for n, l, p in ((300, 200, 3), (40, 5000, 3), (6, 40000, 4)):
    rng = np.random.default_rng(l)
    m, a = rng.uniform(-0.2, 1.0, size=(n, l, p)), rng.dirichlet(np.ones(p), size=n)
    whole = reconstruct(m, a)
    assert all(reconstruct(m[i:i + 1], a[i:i + 1]).tobytes() == whole[i].tobytes()
               for i in range(n))
    print(l, hashlib.sha256(whole.tobytes()).hexdigest())
"""
    outputs = []
    for threads in (1, 2):
        env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(threads)
        out = subprocess.run([sys.executable, "-c", script], check=True, env=env,
                             capture_output=True, text=True)
        outputs.append(out.stdout)
    assert len(outputs[0].split()) == 6
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("name", ["fcls", "mesma", "sparse-l1", "sparse-l0", "plmm"])
def test_a_lone_pixel_gets_the_bits_it_gets_among_copies(name):
    # numpy sends a one-row matrix product to gemv, which rounds otherwise
    # than gemm, so every shared-matrix product a solver takes must not have
    # one row; ELMM is left out, as its scaling step couples the pixels
    rng = np.random.default_rng(2024)
    for _ in range(10):
        sigs = rng.uniform(0.05, 1.0, size=(9, 20))
        library = SpectralLibrary.from_arrays(["a", "b", "c"], [sigs[0:3], sigs[3:6], sigs[6:9]])
        source = library if SOLVERS[name].kind == "library" else sigs[[0, 3, 6]].T
        y = rng.dirichlet(np.ones(9)) @ sigs + rng.normal(0.0, 0.01, size=20)
        alone, copies = (unmix(name, SpectralImage(np.tile(y, (1, c, 1))), source,
                               **solver_params(name, max_iters=5)) for c in (1, 3))
        for out in (lambda r: r.abundances.data, lambda r: r.reconstruction,
                    lambda r: r.per_pixel_re):
            assert all(out(alone)[0].tobytes() == row.tobytes() for row in out(copies))
