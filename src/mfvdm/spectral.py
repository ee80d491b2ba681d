"""Top-m eigenpairs of sparse Hermitian matrices.

The choice of solver is the only branch.  Matrices of at most
``DENSE_THRESHOLD`` nodes, and requests for m >= n - 1 pairs (more than
ARPACK can return), go to scipy's dense Hermitian solver, which computes
only the top m pairs (``scipy.linalg.eigh`` with ``subset_by_index``).  The
rest go to ARPACK through ``scipy.sparse.linalg.eigsh`` on a LinearOperator
wrapping the CSR matvec, with a seeded random start.  Both then share one
contract: pairs in descending order, each checked against ``_TOL`` by its
explicit residual, eigenvectors in a fixed phase gauge (largest-modulus
entry real positive) so repeated runs agree bitwise; all downstream
quantities are gauge-invariant regardless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfvdm.connection import SparseHermitian
from mfvdm.errors import ConvergenceError, ParameterError
from mfvdm.rng import substream

__all__ = ["SpectralBundle", "gauge_fix", "top_eigenpairs",
           "DENSE_THRESHOLD"]

# Matrices of at most this many nodes go to the dense solver.
DENSE_THRESHOLD = 2000
# Residual tolerance ||A u - lambda u|| for every pair either solver returns.
_TOL = 1e-8
# Cap on ARPACK's implicit restarts (eigsh's ``maxiter``); None is ARPACK's
# own cap of 10 * n.
_MAX_ITERS = None
# Seed of the ARPACK start vector; fixed, so repeated runs agree bitwise.
_SEED = 0


@dataclass(frozen=True)
class SpectralBundle:
    """Top eigenvalues (descending) and orthonormal eigenvectors of one S_k."""

    k: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues",
                           np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvectors",
                           np.asarray(self.eigenvectors, dtype=np.complex128))

    @property
    def m(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def n(self) -> int:
        return self.eigenvectors.shape[0]


def gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column's phase so its largest-modulus entry is real > 0."""
    vectors = np.asarray(vectors, dtype=np.complex128)
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    phase = lead / np.abs(lead)
    return vectors * np.conj(phase)[None, :]


def _residuals(matrix: SparseHermitian, values: np.ndarray,
               vectors: np.ndarray) -> np.ndarray:
    """Explicit residuals ||A u - lambda u|| of each column pair."""
    return np.linalg.norm(matrix.matvec(vectors) - vectors * values, axis=0)


def top_eigenpairs(matrix: SparseHermitian, m: int) -> SpectralBundle:
    """Compute the m algebraically largest eigenpairs of a Hermitian matrix.

    The dense subset solver takes n <= ``DENSE_THRESHOLD`` and m >= n - 1;
    ARPACK takes the rest.  Both return through one tail: descending order,
    the explicit residual check, then the phase gauge.

    Parameters
    ----------
    matrix : SparseHermitian
    m : int
        Number of eigenpairs, 1 <= m <= n.

    Returns
    -------
    bundle : SpectralBundle

    Raises
    ------
    ParameterError
        If m is out of range.
    ConvergenceError
        If ARPACK hits the restart cap, or an explicit residual of either
        solver exceeds ``_TOL``.  ``residuals`` holds one entry per
        requested pair: the explicit residual of each pair returned,
        ``inf`` for any pair ARPACK did not return.
    """
    n = matrix.n
    if not 1 <= m <= n:
        raise ParameterError(f"m must satisfy 1 <= m <= n={n}. Got {m}.")
    if n <= DENSE_THRESHOLD or m >= n - 1:
        # Loaded on first use, like scipy.sparse in SparseHermitian.
        from scipy.linalg import eigh

        vals, vecs = eigh(matrix.to_dense(), subset_by_index=[n - m, n - 1])
    else:
        from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                         eigsh)

        # The stream keeps the name of the solver it first seeded, so a
        # given seed still draws the same start vector.
        rng = substream(_SEED, "lanczos", matrix.k)
        v0 = rng.normal(size=n) + 1j * rng.normal(size=n)
        op = LinearOperator((n, n), matvec=matrix.matvec, dtype=np.complex128)
        try:
            vals, vecs = eigsh(op, k=m, which="LA", v0=v0, tol=_TOL,
                               maxiter=_MAX_ITERS)
        except ArpackNoConvergence as exc:
            resid = np.full(m, np.inf)
            resid[:exc.eigenvalues.size] = _residuals(
                matrix, exc.eigenvalues.real, exc.eigenvectors)
            raise ConvergenceError(
                f"ARPACK did not converge (frequency k={matrix.k}): {exc}",
                residuals=resid,
            ) from exc
    order = np.argsort(vals, kind="stable")[::-1]
    vals, vecs = vals[order], vecs[:, order]
    resid = _residuals(matrix, vals, vecs)
    if np.max(resid) > _TOL:
        raise ConvergenceError(
            f"Eigensolver returned residual {np.max(resid):g} above "
            f"{_TOL:g} (frequency k={matrix.k}).", residuals=resid,
        )
    return SpectralBundle(k=matrix.k, eigenvalues=vals,
                          eigenvectors=gauge_fix(vecs))
