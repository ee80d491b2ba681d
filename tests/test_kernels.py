"""Hot kernels against oracles: SparseHermitian's CSR matvec, accumulate_abs2."""

import numpy as np
import pytest

from mfvdm import kernels
from mfvdm.connection import SparseHermitian


def _random_half_stored(rng, n, nnz):
    # Upper-triangle entries drawn with replacement, so duplicates occur.
    rows = rng.integers(0, n - 1, nnz).astype(np.int64)
    cols = (rows + 1 + rng.integers(0, n, nnz) % (n - 1 - rows)).astype(
        np.int64
    )
    values = rng.normal(size=nnz) + 1j * rng.normal(size=nnz)
    return SparseHermitian(n=n, rows=rows, cols=cols, values=values, k=1)


def _dense_from_half(matrix):
    dense = np.zeros((matrix.n, matrix.n), dtype=np.complex128)
    for r, c, v in zip(matrix.rows, matrix.cols, matrix.values):
        dense[r, c] += v
        dense[c, r] += np.conj(v)
    return dense


@pytest.mark.parametrize("n,nnz", [(2, 1), (17, 40), (120, 800)])
def test_matvec_matches_dense_oracle(n, nnz):
    rng = np.random.default_rng(42)
    matrix = _random_half_stored(rng, n, nnz)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    expected = _dense_from_half(matrix) @ x
    got = matrix.matvec(x)
    assert np.abs(got - expected).max() < 1e-12 * max(
        1.0, np.abs(expected).max()
    )


def test_accumulate_abs2_matches_numpy():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(40, 60)) + 1j * rng.normal(size=(40, 60))
    acc = rng.normal(size=(40, 60))
    expected = acc + np.abs(z) ** 2
    kernels.accumulate_abs2(acc, z)
    assert np.abs(acc - expected).max() < 1e-12


def test_backend_reports_a_known_name():
    assert kernels.backend() == "numpy"


def test_noncontiguous_inputs_are_accepted():
    rng = np.random.default_rng(11)
    matrix = _random_half_stored(rng, 50, 200)
    x2 = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    assert not x2[:, 0].flags.c_contiguous
    got = matrix.matvec(x2[:, 0])
    want = _dense_from_half(matrix) @ x2[:, 0].copy()
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()
