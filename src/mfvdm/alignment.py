"""Pairwise rotation estimation from multi-frequency spectral features.

For a pair (i, j) the per-frequency inner products z(k) = <phi_k(i),
phi_k(j)> behave like e^{i*k*alpha_ij} times a nonnegative kernel weight, so
the common angle is recovered as the maximizer of f(alpha) =
Re sum_k z(k) e^{-i*k*alpha}.  The objective is evaluated on a grid of T
angles with one zero-padded FFT and the peak is refined by fitting a
parabola through its three surrounding samples.
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
# Pairs per FFT batch.  Rows are independent, so the size never changes a
# result.  On the default grid a 512-pair block is 8 MB and is reused from
# the heap; 8192 pairs allocated, faulted in and streamed three 130 MB
# arrays per batch.
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


def _objective_grid(z: np.ndarray, grid_length: int) -> np.ndarray:
    """f(alpha_m) = Re sum_k z(k) e^{-ik alpha_m} on alpha_m = 2 pi m / T."""
    padded = np.zeros(z.shape[:-1] + (grid_length,), dtype=np.complex128)
    padded[..., 1:z.shape[-1] + 1] = z
    return np.real(np.fft.fft(padded, axis=-1))


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
        FFT length T, a power of two with T >= 4*k_max.

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
    _check_grid(grid_length, z.shape[0])
    if not np.any(z):
        raise UndefinedAlignmentError("All z(k) vanish; the alignment "
                                      "objective is flat.")
    values = _objective_grid(z[None, :], grid_length)
    alpha, objective = _refine_peaks(values, grid_length)
    return AngleEstimate(alpha_hat=float(alpha[0]),
                         objective=float(objective[0]),
                         grid_length=grid_length)


def estimate_angles(z: np.ndarray, grid_length: int = DEFAULT_GRID,
                    chunk: int = DEFAULT_CHUNK):
    """Batched estimate_angle over rows of z, (pairs, k_max) -> two arrays."""
    z = np.asarray(z, dtype=np.complex128)
    _check_grid(grid_length, z.shape[1])
    flat = ~np.any(z, axis=1)
    if np.any(flat):
        raise UndefinedAlignmentError(
            f"{int(np.count_nonzero(flat))} pair(s) have all-zero z."
        )
    alpha = np.empty(z.shape[0])
    objective = np.empty(z.shape[0])
    for start in range(0, z.shape[0], chunk):
        stop = min(start + chunk, z.shape[0])
        values = _objective_grid(z[start:stop], grid_length)
        alpha[start:stop], objective[start:stop] = _refine_peaks(
            values, grid_length
        )
    return alpha, objective


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

    alpha_u = np.empty(keys.shape[0])
    objective_u = np.empty(keys.shape[0])
    for start in range(0, keys.shape[0], chunk):
        stop = min(start + chunk, keys.shape[0])
        z = _sequence_matrix(embeddings, lo_u[start:stop], hi_u[start:stop])
        alpha_u[start:stop], objective_u[start:stop] = estimate_angles(
            z, grid_length, chunk=chunk
        )

    alpha = np.where(ii <= jj, alpha_u[inverse],
                     wrap_two_pi(-alpha_u[inverse]))
    return AlignmentTable(i=ii, j=jj, alpha_hat=alpha,
                          objective=objective_u[inverse])
