"""Pairwise rotation estimation from multi-frequency spectral features.

For a pair (i, j) the per-frequency inner products z(k) = <phi_k(i),
phi_k(j)> behave like e^{i*k*alpha_ij} times a nonnegative kernel weight, so
the common angle is recovered as the maximizer of f(alpha) =
Re sum_k z(k) e^{-i*k*alpha}.  The objective is evaluated on a grid of
T = max(1024, 4*k_max) angles as one real matrix product, [Re z, Im z] times
a table of cos(k*alpha_m) and sin(k*alpha_m), and the peak is refined by
fitting a parabola through its three surrounding samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfvdm.angles import TWO_PI, wrap_two_pi
from mfvdm.embedding import EmbeddingSet, NeighborList
from mfvdm.errors import ParameterError, UndefinedAlignmentError
from mfvdm.graph import unordered_pairs
from mfvdm.parallel import map_workers

__all__ = [
    "AlignmentTable",
    "alignment_sequences",
    "estimate_angles",
    "align_neighbors",
]

# The fewest grid angles.  The grid keeps at least four samples per period
# of the highest frequency, so from k_max = 257 on it has 4*k_max angles.
_MIN_GRID = 1024
# Pairs per grid-evaluation batch, 4 MB of objective values on a
# 1024-angle grid.  Rows are independent, so the size never changes a
# result.  ``align_neighbors``' threads share one batch: each of N >= 2
# takes ``_CHUNK // N`` pairs, and one thread takes what each of two would
# (2 MB), since the larger block saves no time.  Blocks this small are
# reused from the heap instead of being faulted in anew for every batch.
_CHUNK = 512


@dataclass(frozen=True)
class AlignmentTable:
    """Angle estimates for a list of ordered pairs."""

    i: np.ndarray
    j: np.ndarray
    alpha_hat: np.ndarray
    objective: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "i", np.asarray(self.i, dtype=np.int64))
        object.__setattr__(self, "j", np.asarray(self.j, dtype=np.int64))
        object.__setattr__(self, "alpha_hat",
                           np.asarray(self.alpha_hat, dtype=float))
        object.__setattr__(self, "objective",
                           np.asarray(self.objective, dtype=float))


def alignment_sequences(embeddings: EmbeddingSet, ii: np.ndarray,
                        jj: np.ndarray) -> np.ndarray:
    """Inner products z(k) = <phi_k(i), phi_k(j)> for the index arrays
    (ii, jj).

    Returns a (pairs, k_max) complex array whose column k-1 holds frequency
    k; frequencies absent from the embedding stay zero.
    """
    k_max = embeddings.k_max
    if min(embeddings.frequencies) < 1:
        raise ParameterError("Alignment frequencies must start at k >= 1.")
    z = np.zeros((ii.shape[0], k_max), dtype=np.complex128)
    for f in embeddings.features:
        z[:, f.k - 1] = np.sum(f.phi[ii] * np.conj(f.phi[jj]), axis=1)
    return z


def _grid_table(k_max: int) -> np.ndarray:
    """(2*k_max, T) rows cos(k alpha_m), then sin(k alpha_m), k = 1..k_max,
    on T = max(_MIN_GRID, 4*k_max) angles alpha_m = 2 pi m / T.

    The phase k*m is reduced mod T in integers, so every entry is the cosine
    or sine of an angle in [0, 2 pi).
    """
    grid_length = max(_MIN_GRID, 4 * k_max)
    steps = np.outer(np.arange(1, k_max + 1), np.arange(grid_length))
    phase = TWO_PI * (steps % grid_length) / grid_length
    return np.concatenate([np.cos(phase), np.sin(phase)])


def _objective_grid(z: np.ndarray, table: np.ndarray) -> np.ndarray:
    """f(alpha_m) = Re sum_k z(k) e^{-ik alpha_m} for rows of z, (pairs, T).

    Re(z e^{-ik alpha}) = Re z cos(k alpha) + Im z sin(k alpha), so the grid
    is one real product against ``_grid_table``.
    """
    parts = np.concatenate([z.real, z.imag], axis=1)
    if parts.shape[0] == 1:
        # BLAS sends a one-row product to gemv, which rounds differently
        # from the gemm used for larger batches.  Two rows keep a row's
        # values independent of the batch it is evaluated in.
        return (np.concatenate([parts, parts]) @ table)[:1]
    return parts @ table


def _estimate_rows(z: np.ndarray, table: np.ndarray):
    """(alpha, objective) for the rows of z, evaluated ``_CHUNK`` at a time."""
    flat = ~np.any(z, axis=1)
    if np.any(flat):
        raise UndefinedAlignmentError(
            f"{int(np.count_nonzero(flat))} pair(s) have all-zero z."
        )
    alpha = np.empty(z.shape[0])
    objective = np.empty(z.shape[0])
    for start in range(0, z.shape[0], _CHUNK):
        stop = min(start + _CHUNK, z.shape[0])
        values = _objective_grid(z[start:stop], table)
        alpha[start:stop], objective[start:stop] = _refine_peaks(values)
    return alpha, objective


def _refine_peaks(values: np.ndarray):
    """Per-row argmax with 3-point parabolic refinement on the grid of
    ``values.shape[-1]`` angles; returns (alpha, f)."""
    grid_length = values.shape[-1]
    peak = np.argmax(values, axis=-1)
    rows = np.arange(values.shape[0])
    y_0 = values[rows, peak]
    y_minus = values[rows, (peak - 1) % grid_length]
    y_plus = values[rows, (peak + 1) % grid_length]
    curv = 0.5 * (y_minus + y_plus) - y_0
    slope = 0.5 * (y_plus - y_minus)
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(curv < 0.0, -slope / (2.0 * curv), 0.0)
    delta = np.clip(delta, -0.5, 0.5)
    alpha = wrap_two_pi(TWO_PI * (peak + delta) / grid_length)
    objective = y_0 + slope * delta + curv * delta ** 2
    return alpha, objective


def estimate_angles(z: np.ndarray):
    """Angles maximizing Re sum_k z(k) e^{-ik alpha}, one per row of z.

    The objective is sampled on T = max(1024, 4*k_max) angles and each row's
    peak refined by a parabola through its three samples.

    Parameters
    ----------
    z : (pairs, k_max) complex array
        z(k) values; column l holds frequency l+1.

    Returns
    -------
    alpha, objective : (pairs,) arrays
        Angles in [0, 2*pi) and the objective's value at each.

    Raises
    ------
    UndefinedAlignmentError
        If all z(k) of some row vanish (flat objective).
    """
    z = np.asarray(z, dtype=np.complex128)
    return _estimate_rows(z, _grid_table(z.shape[1]))


def align_neighbors(embeddings: EmbeddingSet, neighbors: NeighborList,
                    workers: int = 1) -> AlignmentTable:
    """Estimate alpha_hat for every (node, neighbor) pair.

    Each pair's angle is found as in ``estimate_angles``, on the grid of
    T = max(1024, 4*k_max) angles that the embedding's k_max sets.  Each
    unordered pair is solved once in canonical orientation i < j; the
    reversed direction is reported as the negated angle with the same
    objective value.  The pairs are solved on ``workers`` threads in
    batches of ``_CHUNK // max(2, workers)`` pairs, so one thread holds
    half of a ``_CHUNK``-pair block of objective values and N >= 2
    threads together hold one; neither changes a result.

    Memory: beside the batch block, each array of the list's P = n * kappa
    pairs or its U <= P unordered pairs is held once, and only while a
    step needs it.  ``graph.unordered_pairs`` builds the int64 canonical key
    min(i, j) * n + max(i, j) in place, and sorts it into the U distinct
    ``keys`` and the P-long ``inverse`` that maps each pair to its key,
    through a sort order and a sorted copy of the key.  The solve holds
    the keys, the inverse and the U angles and objective values; each
    batch takes its nodes from its own slice of the keys, which are freed
    once the batches are done.  The output ``objective`` and
    ``alpha_hat`` are gathered through the inverse, one at a time, each
    unordered array freed after its gather, and the rows with i > j then
    take the wrapped negated angle.  The node array ``i`` is built last;
    ``j`` is a view of the neighbor list.  So at most three P-sized int64
    or float arrays and one U-sized one are live at a time, or the two
    outputs and ``wrap_two_pi``'s three arrays of the rows with i > j.

    Returns
    -------
    table : AlignmentTable
        Rows follow the neighbor list order: node 0's neighbors by rank,
        then node 1's, and so on.
    """
    n = neighbors.n
    keys, inverse = unordered_pairs(neighbors.indices)

    table = _grid_table(embeddings.k_max)
    alpha_u = np.empty(keys.shape[0])
    objective_u = np.empty(keys.shape[0])

    batch = max(1, _CHUNK // max(2, workers))

    def run_chunk(start: int) -> None:
        stop = min(start + batch, keys.shape[0])
        lo, hi = np.divmod(keys[start:stop], n)
        z = alignment_sequences(embeddings, lo, hi)
        alpha_u[start:stop], objective_u[start:stop] = _estimate_rows(
            z, table)

    map_workers(run_chunk, range(0, keys.shape[0], batch), workers)
    del keys

    objective = objective_u[inverse]
    del objective_u
    alpha = alpha_u[inverse]
    del alpha_u, inverse
    flip = (neighbors.indices < np.arange(n)[:, None]).ravel()
    alpha[flip] = wrap_two_pi(-alpha[flip])
    ii, jj = neighbors.pairs()
    return AlignmentTable(i=ii, j=jj, alpha_hat=alpha, objective=objective)

