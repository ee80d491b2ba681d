"""Per-frequency Hermitian affinity matrices W_k, degrees, and normalized S_k.

W_k(i, j) = w_ij * exp(i*k*alpha_ij) on edges and 0 elsewhere; the alpha
antisymmetry convention makes W_k Hermitian.  S_k = D^{-1/2} W_k D^{-1/2}
shares the sparsity pattern and has spectrum inside [-1, 1].

The strict upper triangle is the stored form; the full Hermitian matrix is
built from it once, as a scipy CSR array, and every matvec is a CSR product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from mfvdm.errors import ParameterError, ZeroDegreeError
from mfvdm.graph import AlignmentGraph

__all__ = ["SparseHermitian", "DegreeVector", "build_wk", "degrees",
           "build_sk"]


@dataclass(frozen=True)
class SparseHermitian:
    """Hermitian matrix given by its strict upper triangle (rows < cols).

    ``csr`` holds the full matrix, both triangles, built once from the
    triangle; duplicate entries are summed.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    k: int
    csr: scipy.sparse.csr_array = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows",
                           np.ascontiguousarray(self.rows, dtype=np.int64))
        object.__setattr__(self, "cols",
                           np.ascontiguousarray(self.cols, dtype=np.int64))
        object.__setattr__(self, "values",
                           np.ascontiguousarray(self.values,
                                                dtype=np.complex128))
        full = scipy.sparse.coo_array(
            (np.concatenate([self.values, np.conj(self.values)]),
             (np.concatenate([self.rows, self.cols]),
              np.concatenate([self.cols, self.rows]))),
            shape=(self.n, self.n),
        )
        object.__setattr__(self, "csr", full.tocsr())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector, or for an (n, m) block of column vectors."""
        return self.csr @ x

    def to_dense(self) -> np.ndarray:
        """Materialize the full Hermitian matrix (dense solver and oracles)."""
        return self.csr.toarray()


@dataclass(frozen=True)
class DegreeVector:
    """Per-node weighted degrees; identical across all frequencies."""

    deg: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "deg", np.asarray(self.deg, dtype=float))


def degrees(graph: AlignmentGraph) -> DegreeVector:
    """Weighted degree deg(i) = sum of incident edge weights.

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
    return DegreeVector(deg=deg)


def _wk_values(graph: AlignmentGraph, k: int) -> np.ndarray:
    """W_k on the stored edges: w_ij * exp(i*k*alpha_ij)."""
    if k < 0 or int(k) != k:
        raise ParameterError(f"Frequency k must be a nonnegative integer. "
                             f"Got {k}.")
    if k == 0:
        return graph.weights.astype(np.complex128)
    return graph.weights * np.exp(1j * k * graph.angles)


def build_wk(graph: AlignmentGraph, k: int) -> SparseHermitian:
    """Frequency-k affinity W_k(i, j) = w_ij * exp(i*k*alpha_ij)."""
    return SparseHermitian(n=graph.n, rows=graph.rows, cols=graph.cols,
                           values=_wk_values(graph, k), k=int(k))


def build_sk(graph: AlignmentGraph, k: int,
             degree_vector: DegreeVector | None = None) -> SparseHermitian:
    """Degree-normalized affinity S_k = D^{-1/2} W_k D^{-1/2}."""
    values = _wk_values(graph, k)
    if degree_vector is None:
        degree_vector = degrees(graph)
    inv_sqrt = 1.0 / np.sqrt(degree_vector.deg)
    values = values * inv_sqrt[graph.rows] * inv_sqrt[graph.cols]
    return SparseHermitian(n=graph.n, rows=graph.rows, cols=graph.cols,
                           values=values, k=int(k))
