"""Pairwise rotation estimation from multi-frequency spectral features.

For a pair (i, j) the per-frequency inner products z(k) = <phi_k(i),
phi_k(j)> behave like e^{i*k*alpha_ij} times a nonnegative kernel weight, so
the common angle is recovered as the maximizer of f(alpha) =
Re sum_k z(k) e^{-i*k*alpha}.  The objective is evaluated on a grid of T
angles as one real matrix product, [Re z, Im z] times a table of cos(k*alpha_m)
and sin(k*alpha_m), and the peak is refined by fitting a parabola through its
three surrounding samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfvdm.angles import TWO_PI, wrap_two_pi
from mfvdm.embedding import EmbeddingSet, NeighborList
from mfvdm.errors import ParameterError, UndefinedAlignmentError

__all__ = [
    "AlignmentSequence",
    "AngleEstimate",
    "AlignmentTable",
    "alignment_sequence",
    "estimate_angle",
    "estimate_angles",
    "align_neighbors",
]

DEFAULT_GRID = 1024
# Pairs per grid-evaluation batch.  Rows are independent, so the size never
# changes a result.  On the default grid a 512-pair block of objective values
# is 4 MB, small enough to be reused from the heap instead of being faulted
# in anew for every batch.
DEFAULT_CHUNK = 512


@dataclass(frozen=True)
class AlignmentSequence:
    """Inner products z(k) for one ordered pair; z[k-1] holds frequency k."""

    i: int
    j: int
    z: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "z",
                           np.asarray(self.z, dtype=np.complex128))

    @property
    def k_max(self) -> int:
        return self.z.shape[0]


@dataclass(frozen=True)
class AngleEstimate:
    """Estimated angle in [0, 2*pi) with its objective value."""

    alpha_hat: float
    objective: float
    grid_length: int


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

    @property
    def pair_count(self) -> int:
        return self.i.shape[0]


def _sequence_matrix(embeddings: EmbeddingSet, ii: np.ndarray,
                     jj: np.ndarray) -> np.ndarray:
    """z(k) for pair arrays, (pairs, k_max); absent frequencies stay zero."""
    if embeddings.mode != "squared":
        raise ParameterError("Alignment needs phase-carrying features "
                             "(squared mode).")
    k_max = embeddings.k_max
    if min(embeddings.frequencies) < 1:
        raise ParameterError("Alignment frequencies must start at k >= 1.")
    z = np.zeros((ii.shape[0], k_max), dtype=np.complex128)
    for f in embeddings.features:
        z[:, f.k - 1] = np.sum(f.phi[ii] * np.conj(f.phi[jj]), axis=1)
    return z


def alignment_sequence(embeddings: EmbeddingSet, i: int,
                       j: int) -> AlignmentSequence:
    """Inner products z(k) = <phi_k(i), phi_k(j)> for k = 1..k_max."""
    ii = np.asarray([i], dtype=np.int64)
    jj = np.asarray([j], dtype=np.int64)
    return AlignmentSequence(i=int(i), j=int(j),
                             z=_sequence_matrix(embeddings, ii, jj)[0])


def _check_grid(grid_length: int, k_max: int) -> None:
    if grid_length < 4 * k_max or grid_length & (grid_length - 1):
        raise ParameterError(
            f"Grid length must be a power of two >= 4*k_max={4 * k_max}. "
            f"Got {grid_length}."
        )


def _grid_table(k_max: int, grid_length: int) -> np.ndarray:
    """(2*k_max, T) rows cos(k alpha_m), then sin(k alpha_m), k = 1..k_max.

    The phase k*m is reduced mod T in integers, so every entry is the cosine
    or sine of an angle in [0, 2 pi) on alpha_m = 2 pi m / T.
    """
    _check_grid(grid_length, k_max)
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


def _estimate_rows(z: np.ndarray, table: np.ndarray, chunk: int):
    """(alpha, objective) for the rows of z, evaluated ``chunk`` at a time."""
    flat = ~np.any(z, axis=1)
    if np.any(flat):
        raise UndefinedAlignmentError(
            f"{int(np.count_nonzero(flat))} pair(s) have all-zero z."
        )
    grid_length = table.shape[1]
    alpha = np.empty(z.shape[0])
    objective = np.empty(z.shape[0])
    for start in range(0, z.shape[0], chunk):
        stop = min(start + chunk, z.shape[0])
        values = _objective_grid(z[start:stop], table)
        alpha[start:stop], objective[start:stop] = _refine_peaks(
            values, grid_length
        )
    return alpha, objective


def _refine_peaks(values: np.ndarray, grid_length: int):
    """Per-row argmax with 3-point parabolic refinement; returns (alpha, f)."""
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


def estimate_angle(sequence, grid_length: int = DEFAULT_GRID) -> AngleEstimate:
    """Angle maximizing Re sum_k z(k) e^{-ik alpha} for one pair.

    Parameters
    ----------
    sequence : AlignmentSequence or complex array
        z(k) values, index l holding frequency l+1.
    grid_length : int
        Grid length T, a power of two with T >= 4*k_max.

    Returns
    -------
    estimate : AngleEstimate

    Raises
    ------
    UndefinedAlignmentError
        If all z(k) vanish (flat objective).
    """
    z = sequence.z if isinstance(sequence, AlignmentSequence) \
        else np.asarray(sequence, dtype=np.complex128)
    table = _grid_table(z.shape[0], grid_length)
    if not np.any(z):
        raise UndefinedAlignmentError("All z(k) vanish; the alignment "
                                      "objective is flat.")
    alpha, objective = _estimate_rows(z[None, :], table, 1)
    return AngleEstimate(alpha_hat=float(alpha[0]),
                         objective=float(objective[0]),
                         grid_length=grid_length)


def estimate_angles(z: np.ndarray, grid_length: int = DEFAULT_GRID,
                    chunk: int = DEFAULT_CHUNK):
    """Batched estimate_angle over rows of z, (pairs, k_max) -> two arrays."""
    z = np.asarray(z, dtype=np.complex128)
    return _estimate_rows(z, _grid_table(z.shape[1], grid_length), chunk)


def align_neighbors(embeddings: EmbeddingSet, neighbors: NeighborList,
                    grid_length: int = DEFAULT_GRID,
                    chunk: int = DEFAULT_CHUNK) -> AlignmentTable:
    """Estimate alpha_hat for every (node, neighbor) pair.

    Each unordered pair is solved once in canonical orientation i < j; the
    reversed direction is reported as the negated angle with the same
    objective value.

    Returns
    -------
    table : AlignmentTable
        Rows follow the neighbor list order: node 0's neighbors by rank,
        then node 1's, and so on.
    """
    n = neighbors.n
    ii = np.repeat(np.arange(n, dtype=np.int64), neighbors.kappa)
    jj = neighbors.indices.ravel()
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    keys, inverse = np.unique(lo * n + hi, return_inverse=True)
    lo_u = keys // n
    hi_u = keys % n

    table = _grid_table(embeddings.k_max, grid_length)
    alpha_u = np.empty(keys.shape[0])
    objective_u = np.empty(keys.shape[0])
    for start in range(0, keys.shape[0], chunk):
        stop = min(start + chunk, keys.shape[0])
        z = _sequence_matrix(embeddings, lo_u[start:stop], hi_u[start:stop])
        alpha_u[start:stop], objective_u[start:stop] = _estimate_rows(
            z, table, chunk
        )

    alpha = np.where(ii <= jj, alpha_u[inverse],
                     wrap_two_pi(-alpha_u[inverse]))
    return AlignmentTable(i=ii, j=jj, alpha_hat=alpha,
                          objective=objective_u[inverse])
