"""Per-frequency Hermitian affinity matrices W_k, degrees, and normalized S_k.

W_k(i, j) = w_ij * exp(i*k*alpha_ij) on edges and 0 elsewhere; the alpha
antisymmetry convention makes W_k Hermitian.  S_k = D^{-1/2} W_k D^{-1/2}
shares the sparsity pattern and has spectrum inside [-1, 1].

Every S_k of a graph is a scipy CSR array with the same structure: its
index arrays, and the slot of each edge's two entries, come once per graph
from ``csr_layout``'s COO-to-CSR conversion, and each frequency fills only
its data array.  Every matvec is a CSR product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from mfvdm.errors import ParameterError, ZeroDegreeError
from mfvdm.graph import AlignmentGraph

if TYPE_CHECKING:
    import scipy.sparse

__all__ = ["SparseHermitian", "CsrLayout", "csr_layout", "degrees",
           "build_sk"]


@dataclass(frozen=True)
class SparseHermitian:
    """Hermitian matrix of frequency ``k``, held as a full CSR array."""

    n: int
    k: int
    csr: scipy.sparse.csr_array = field(repr=False, compare=False)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a vector, or for an (n, m) block of column vectors."""
        return self.csr @ x

    def to_dense(self) -> np.ndarray:
        """Materialize the full Hermitian matrix (dense solver and oracles)."""
        return self.csr.toarray()


class CsrLayout(NamedTuple):
    """The CSR structure that every S_k of one graph shares: ``indptr`` and
    the column ``indices`` of the full Hermitian matrix, and for edge e the
    data slot of its entry (rows[e], cols[e]) in ``upper`` and of the
    conjugate entry (cols[e], rows[e]) in ``lower``.  ``indptr`` and
    ``indices`` are those of scipy's COO-to-CSR conversion, so the CSR
    constructor keeps them without a copy.  All four are read-only, so no
    scipy call can sort them in place while another frequency's matrix
    uses them."""

    indptr: np.ndarray
    indices: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


def csr_layout(graph: AlignmentGraph) -> CsrLayout:
    """The canonical CSR structure of the graph's full Hermitian matrix.

    scipy converts the matrix whose entry (rows[e], cols[e]) is e + 1 and
    whose conjugate entry is e + 1 + E, for E edges: the conversion sorts
    each row by column, and the edges are sorted and distinct, so no entry
    repeats.  The converted data then name each slot's entry.
    """
    import mmap

    import scipy.sparse

    rows, cols = graph.rows, graph.cols
    count = 2 * rows.size
    entries = np.arange(1, count + 1, dtype=np.int64)
    pattern = (np.concatenate([rows, cols]), np.concatenate([cols, rows]))
    csr = scipy.sparse.coo_array((entries, pattern),
                                 shape=(graph.n, graph.n)).tocsr()
    # The large arrays share one anonymous mapping, not the heap.  They are
    # freed after the graph's last solve, while the features made between
    # the solves live on; on the heap they would leave a hole that the NN
    # strips do not fit, and the heap would grow past it.
    offset = count * csr.indices.itemsize
    memory = mmap.mmap(-1, max(1, offset + 8 * count))
    indices = np.frombuffer(memory, dtype=csr.indices.dtype, count=count)
    slots = np.frombuffer(memory, dtype=np.int64, count=count, offset=offset)
    indices[:] = csr.indices
    slots[csr.data - 1] = entries - 1
    layout = CsrLayout(csr.indptr, indices, slots[:rows.size],
                       slots[rows.size:])
    for array in layout:
        array.flags.writeable = False
    return layout


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


def build_sk(graph: AlignmentGraph, k: int, deg: np.ndarray | None = None,
             layout: CsrLayout | None = None) -> SparseHermitian:
    """Degree-normalized affinity S_k = D^{-1/2} W_k D^{-1/2}, where
    W_k(i, j) = w_ij * exp(i*k*alpha_ij); ``deg`` defaults to
    ``degrees(graph)`` and ``layout`` to ``csr_layout(graph)``.  Only the
    data array is new: the matrix holds ``layout``'s index arrays."""
    if k < 0 or int(k) != k:
        raise ParameterError(f"Frequency k must be a nonnegative integer. "
                             f"Got {k}.")
    # Imported here so that runs which solve nothing (cache hits,
    # ``generate``, config errors) never load scipy.
    import scipy.sparse

    if layout is None:
        layout = csr_layout(graph)
    values = graph.weights * np.exp(1j * k * graph.angles)
    inv_sqrt = 1.0 / np.sqrt(degrees(graph) if deg is None else deg)
    values = values * inv_sqrt[graph.rows] * inv_sqrt[graph.cols]
    data = np.empty(2 * graph.edge_count, dtype=np.complex128)
    data[layout.upper] = values
    data[layout.lower] = np.conjugate(values, out=values)
    csr = scipy.sparse.csr_array((data, layout.indices, layout.indptr),
                                 shape=(graph.n, graph.n))
    return SparseHermitian(n=graph.n, k=int(k), csr=csr)
