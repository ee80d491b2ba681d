"""Per-frequency Hermitian affinity matrices W_k, degrees, and normalized S_k.

W_k(i, j) = w_ij * exp(i*k*alpha_ij) on edges and 0 elsewhere; the alpha
antisymmetry convention makes W_k Hermitian.  S_k = D^{-1/2} W_k D^{-1/2}
shares the sparsity pattern and has spectrum inside [-1, 1].

The full Hermitian matrix is built once from the graph's strict upper
triangle, as a scipy CSR array, and every matvec is a CSR product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from mfvdm.errors import ParameterError, ZeroDegreeError
from mfvdm.graph import AlignmentGraph

if TYPE_CHECKING:
    import scipy.sparse

__all__ = ["SparseHermitian", "degrees", "build_sk"]


@dataclass(frozen=True)
class SparseHermitian:
    """Hermitian matrix of frequency ``k``, held as a full CSR array."""

    n: int
    k: int
    csr: scipy.sparse.csr_array = field(repr=False, compare=False)

    @classmethod
    def from_triangle(cls, n: int, rows, cols, values,
                      k: int) -> SparseHermitian:
        """The matrix whose strict upper triangle (rows < cols) holds
        ``values``; duplicate entries are summed."""
        # Imported here so that runs which solve nothing (cache hits,
        # ``generate``, config errors) never load scipy.
        import scipy.sparse

        values = np.asarray(values, dtype=np.complex128)
        full = scipy.sparse.coo_array(
            (np.concatenate([values, np.conj(values)]),
             (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
            shape=(n, n),
        )
        return cls(n=n, k=int(k), csr=full.tocsr())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector, or for an (n, m) block of column vectors."""
        return self.csr @ x

    def to_dense(self) -> np.ndarray:
        """Materialize the full Hermitian matrix (dense solver and oracles)."""
        return self.csr.toarray()


def degrees(graph: AlignmentGraph) -> np.ndarray:
    """Weighted degree deg(i) = sum of incident edge weights; identical
    across all frequencies.

    Raises
    ------
    ZeroDegreeError
        If some node has no incident weight, naming the first such node.
    """
    deg = np.bincount(graph.rows, weights=graph.weights, minlength=graph.n)
    deg += np.bincount(graph.cols, weights=graph.weights, minlength=graph.n)
    if np.any(deg <= 0.0):
        bad = int(np.flatnonzero(deg <= 0.0)[0])
        raise ZeroDegreeError(f"Node {bad} has zero weighted degree.")
    return deg


def build_sk(graph: AlignmentGraph, k: int,
             deg: np.ndarray | None = None) -> SparseHermitian:
    """Degree-normalized affinity S_k = D^{-1/2} W_k D^{-1/2}, where
    W_k(i, j) = w_ij * exp(i*k*alpha_ij); ``deg`` defaults to
    ``degrees(graph)``."""
    if k < 0 or int(k) != k:
        raise ParameterError(f"Frequency k must be a nonnegative integer. "
                             f"Got {k}.")
    if k == 0:
        values = graph.weights.astype(np.complex128)
    else:
        values = graph.weights * np.exp(1j * k * graph.angles)
    inv_sqrt = 1.0 / np.sqrt(degrees(graph) if deg is None else deg)
    values = values * inv_sqrt[graph.rows] * inv_sqrt[graph.cols]
    return SparseHermitian.from_triangle(graph.n, graph.rows, graph.cols,
                                         values, k)
