"""Per-frequency Hermitian affinity matrices W_k, degrees, and normalized S_k.

W_k(i, j) = w_ij * exp(i*k*alpha_ij) on edges and 0 elsewhere; the alpha
antisymmetry convention makes W_k Hermitian.  S_k = D^{-1/2} W_k D^{-1/2}
shares the sparsity pattern and has spectrum inside [-1, 1].

Every S_k of a graph is a scipy CSR array with the same structure: its
index arrays, and the slot of each edge's two entries, are built once per
graph by ``csr_layout``, and each frequency fills only its data array.
Every matvec is a CSR product.
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
    ``indices`` have the index dtype that scipy's COO-to-CSR conversion
    gives the graph's int64 edges (int64 on current scipy), so the CSR
    constructor keeps them without a copy.  All four are read-only, so no
    scipy call can sort them in place while another frequency's matrix
    uses them."""

    indptr: np.ndarray
    indices: np.ndarray
    upper: np.ndarray
    lower: np.ndarray


def csr_layout(graph: AlignmentGraph) -> CsrLayout:
    """The canonical CSR structure of the graph's full Hermitian matrix.

    Row i holds its lower entries (edges (j, i), j < i) before its upper
    ones (edges (i, j), j > i), each group by column.  The edges are sorted
    and distinct, so the upper entries of a row are its edges in order, a
    stable sort by column orders the lower ones, and no entry repeats.
    """
    import mmap

    import scipy.sparse

    n, rows, cols = graph.n, graph.rows, graph.cols
    # The index dtype of scipy's COO-to-CSR conversion of int64 entries; an
    # empty matrix would not do, since scipy builds that one from its shape.
    entry = np.zeros(1, dtype=np.int64)
    index = scipy.sparse.coo_array((np.ones(1), (entry, entry)),
                                   shape=(n, n)).tocsr().indices.dtype
    lower_count = np.bincount(cols, minlength=n)
    upper_count = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(lower_count + upper_count, out=indptr[1:])
    # The large arrays share one anonymous mapping, not the heap.  They are
    # freed after the graph's last solve, while the features made between
    # the solves live on; on the heap they would leave a hole that the NN
    # strips do not fit, and the heap would grow past it.
    count = 2 * rows.size
    offset = count * np.dtype(index).itemsize
    memory = mmap.mmap(-1, max(1, offset + 8 * count))
    indices = np.frombuffer(memory, dtype=index, count=count)
    slots = np.frombuffer(memory, dtype=np.int64, count=count, offset=offset)
    upper, lower = slots[:rows.size], slots[rows.size:]
    edge = np.arange(rows.size, dtype=np.int64)
    # Slot of the e-th edge = e + (row start - edges before the row), for
    # the upper entries in edge order and the lower ones in column order.
    first_upper = np.cumsum(upper_count) - upper_count
    np.add((indptr[:-1] + lower_count - first_upper)[rows], edge, out=upper)
    by_col = np.argsort(cols, kind="stable")
    first_lower = np.cumsum(lower_count) - lower_count
    lower[by_col] = (indptr[:-1] - first_lower)[cols[by_col]] + edge
    indices[upper] = cols
    indices[lower] = rows
    for array in (indptr, indices, upper, lower):
        array.flags.writeable = False
    return CsrLayout(indptr, indices, upper, lower)


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
