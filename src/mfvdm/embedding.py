"""Spectral embeddings, affinities, diffusion distances and NN search.

Each frequency contributes compact features phi_k(i)_l = lambda_l^t u_l(i);
the inner product <phi_k(i), phi_k(j)> reproduces the truncated 2t-step
kernel S_k^{2t}(i, j).  The multi-frequency affinity sums |<., .>|^2 over
frequencies ("squared" mode); the scalar diffusion-maps baseline uses the
plain real inner product of its single feature block ("linear" mode).
Normalizing by per-node embedding norms turns affinity into the squared
diffusion distance d2 = max(0, 2 - 2*N).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from mfvdm.errors import DegenerateEmbeddingError, ParameterError
from mfvdm.graph import smallest
from mfvdm.parallel import map_workers
from mfvdm.spectral import SpectralBundle

__all__ = [
    "FrequencyFeatures",
    "EmbeddingSet",
    "NeighborList",
    "build_features",
    "build_embedding_set",
    "nn_search",
    "baseline_embedding",
]

# The distance chunks' ``rows`` side is zero-padded to a multiple of this
# many nodes, which covers the column unroll of the BLAS zgemm kernels.
_TILE = 8
# Largest complex product per distance chunk of a ``_STRIP_ROWS``-row strip;
# small enough to stay in cache while it is squared and summed.
_CHUNK_BYTES = 1 << 21
# Nodes per ``nn_search`` strip on one worker.  The workers share this
# budget: each of N workers takes strips of ``_STRIP_ROWS // N`` rows, but
# never fewer than ``_MIN_STRIP_ROWS``, since the merges of later columns
# grow as n^2 / rows.
_STRIP_ROWS = 256
_MIN_STRIP_ROWS = 64


@dataclass(frozen=True)
class FrequencyFeatures:
    """Per-node features phi of one frequency, (n, m) complex."""

    k: int
    phi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "phi",
                           np.ascontiguousarray(self.phi, dtype=np.complex128))

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def m(self) -> int:
        return self.phi.shape[1]


def build_features(bundle: SpectralBundle, t: int) -> FrequencyFeatures:
    """Scale eigenvectors by eigenvalue powers: phi[i, l] = lambda_l^t u_l(i).

    Integer powers keep the sign of negative eigenvalues exact for odd t.
    """
    if t < 1 or int(t) != t:
        raise ParameterError(f"t must be a positive integer. Got {t}.")
    phi = bundle.eigenvectors * (bundle.eigenvalues ** int(t))[None, :]
    return FrequencyFeatures(k=bundle.k, phi=phi)


@dataclass(frozen=True)
class EmbeddingSet:
    """Features for a set of distinct frequencies plus per-node embedding
    norms.  The metric follows from the frequencies.

    mode "linear", the lone k = 0 block of the DM baseline: affinity is the
    real inner product and norm(i) = ||phi(i)||.  mode "squared", any other
    set: affinity(i, j) = sum_k |<phi_k(i), phi_k(j)>|^2 and norm(i) =
    sqrt(sum_k ||phi_k(i)||^4).
    """

    features: tuple
    norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        feats = tuple(sorted(self.features, key=lambda f: f.k))
        if not feats:
            raise ParameterError("EmbeddingSet needs at least one frequency.")
        for a, b in zip(feats, feats[1:]):
            if a.k == b.k:
                raise ParameterError(f"Frequency k={a.k} appears twice.")
        n = feats[0].n
        if any(f.n != n for f in feats):
            raise ParameterError("All feature blocks must share n.")
        object.__setattr__(self, "features", feats)
        if self.mode == "squared":
            norms_sq = np.zeros(n)
            for f in feats:
                norms_sq += np.sum(np.abs(f.phi) ** 2, axis=1) ** 2
            norms = np.sqrt(norms_sq)
        else:
            norms = np.sqrt(np.sum(np.abs(feats[0].phi) ** 2, axis=1))
        if np.any(norms <= 0.0):
            bad = int(np.flatnonzero(norms <= 0.0)[0])
            raise DegenerateEmbeddingError(
                f"Node {bad} has zero embedding norm."
            )
        object.__setattr__(self, "norms", norms)

    @property
    def mode(self) -> str:
        return "linear" if self.frequencies == (0,) else "squared"

    @property
    def n(self) -> int:
        return self.features[0].n

    @property
    def frequencies(self) -> tuple:
        return tuple(f.k for f in self.features)

    @property
    def k_max(self) -> int:
        return max(self.frequencies)

    def affinity_block(self, block: np.ndarray) -> np.ndarray:
        """Unnormalized affinities from nodes in ``block`` to all nodes."""
        return self._strip(block, distances=False)

    def distance_sq_block(self, block: np.ndarray) -> np.ndarray:
        """Squared diffusion distances from ``block`` to all nodes."""
        block = np.asarray(block, dtype=np.int64)
        dist_sq = self._strip(block)
        # diagonal is exactly zero by definition
        dist_sq[np.arange(block.size), block] = 0.0
        return dist_sq

    def _strip(self, rows, distances: bool = True) -> np.ndarray:
        """``_chunks`` of ``rows`` against all nodes, as one array."""
        rows = np.asarray(rows, dtype=np.int64)
        strip = np.empty((rows.size, self.n))
        for lo, chunk in self._chunks(rows, 0, distances):
            strip[:, lo:lo + len(chunk)] = chunk.T
        return strip

    def _chunks(self, rows: np.ndarray, start: int, distances: bool = True,
                chunk_bytes: int | None = None):
        """Squared distances (or affinities) between the ``rows`` nodes and
        the nodes [start, n), in chunks of at most ``chunk_bytes`` of
        complex product (default ``_CHUNK_BYTES``): yields (lo, chunk)
        where chunk[c, r] is the pair (lo + c, rows[r]).  Each chunk is a
        view of a buffer the next one overwrites.  The package's one
        distance definition.

        Each frequency's product goes into one reused complex buffer, is
        squared in place through its float view and added into one real
        accumulator, which then becomes d2 = max(0, 2 - 2 acc / (norm_i
        norm_j)) in place.  Rounding alone can put 2 - 2N a few ulps below
        0 for nodes at the same point, hence the clamp.

        Every pair gets the same bits wherever it falls in a chunk and
        whichever of its nodes is in ``rows``: |<phi(i), phi(j)>|^2 from
        BLAS is symmetric in i and j, and so is the single divide.  The
        BLAS edge kernels round differently, though, so the ``rows`` side
        is zero-padded to whole ``_TILE`` tiles; and numpy sends a product
        with one output row to gemv, so no chunk is a single row unless the
        whole range is (then its one pair is a node with itself).
        """
        width = rows.size
        padded = _padded(width)
        length = self.n - start
        if chunk_bytes is None:
            chunk_bytes = _CHUNK_BYTES
        lhs = []
        for f in self.features:
            conj = np.zeros((padded, f.m), dtype=np.complex128)
            np.conjugate(f.phi[rows], out=conj[:width])
            lhs.append(conj.T)
        # Halved, so that acc / (norm_i * half_norm_j) is exactly
        # 2 acc / (norm_i norm_j): scaling by 2 commutes with rounding.
        half_norms = np.ones(padded)
        half_norms[:width] = 0.5 * self.norms[rows]
        # Chunks of equal length to one row, at most chunk_bytes each
        # unless that would leave a chunk a single row.
        count = max(1, min(-(-length * padded * 16 // chunk_bytes),
                           length // 2))
        bounds = start + length * np.arange(count + 1) // count
        size = np.diff(bounds).max()
        buf = np.empty((size, padded), dtype=np.complex128)
        acc_buf = np.empty((size, padded))
        squared = self.mode == "squared"
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            out = buf[:hi - lo]
            parts = out.view(np.float64)  # real and imaginary parts
            acc = acc_buf[:hi - lo]
            acc.fill(0.0)
            for f, conj in zip(self.features, lhs):
                np.matmul(f.phi[lo:hi], conj, out=out)
                if squared:
                    np.square(parts, out=parts)
                    acc += parts[:, 0::2]
                    acc += parts[:, 1::2]
                else:
                    acc += parts[:, 0::2]
            if distances:
                norm_prod = parts[:, :padded]
                np.multiply(self.norms[lo:hi, None], half_norms[None, :],
                            out=norm_prod)
                acc /= norm_prod
                np.subtract(2.0, acc, out=acc)
                np.maximum(acc, 0.0, out=acc)
            yield int(lo), acc[:, :width]


def _padded(rows: int) -> int:
    """``rows`` rounded up to whole ``_TILE`` tiles."""
    return -(-rows // _TILE) * _TILE


def build_embedding_set(features) -> EmbeddingSet:
    """Assemble an EmbeddingSet from FrequencyFeatures, one per frequency.

    The set refers to the given ``phi`` arrays, without copying them, so
    embeddings built from shared features share their memory.
    """
    return EmbeddingSet(features=tuple(features))


@dataclass(frozen=True)
class NeighborList:
    """Per-node nearest neighbors sorted by ascending squared distance."""

    indices: np.ndarray
    distances_sq: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "indices",
                           np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "distances_sq",
                           np.asarray(self.distances_sq, dtype=float))

    @property
    def n(self) -> int:
        return self.indices.shape[0]

    @property
    def kappa(self) -> int:
        return self.indices.shape[1]

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every (node, neighbor) pair as int64 arrays ``(i, j)``: node 0's
        neighbors by rank, then node 1's, and so on."""
        return (np.repeat(np.arange(self.n, dtype=np.int64), self.kappa),
                self.indices.ravel())

    def validate(self) -> None:
        if self.indices.shape != self.distances_sq.shape:
            raise ParameterError("Index and distance shapes differ.")
        if np.any(self.indices == np.arange(self.n)[:, None]):
            raise ParameterError("A node lists itself as neighbor.")
        if np.any(self.distances_sq < 0.0):
            raise ParameterError("A squared distance is negative.")
        if np.any(np.diff(self.distances_sq, axis=1) < 0.0):
            raise ParameterError("Distances are not nondecreasing.")


def nn_search(embeddings: EmbeddingSet, kappa: int,
              workers: int = 1) -> NeighborList:
    """Exact kappa-NN under the squared diffusion distance.

    The distance is symmetric, so each pair is evaluated once.  Nodes are
    cut into blocks I of b rows; block I's strip holds its rows against the
    columns [start of I, n).  The strip gives each of its rows its kappa
    nearest candidates in those columns, and each later column its kappa
    nearest among the block's nodes.  Every candidate list is merged into
    its node's running top kappa by (distance, index), a total order, so
    the result is the prefix of a stable sort of the whole row: ties break
    to the lower node index, and the result is identical for any worker
    count and block size.

    Memory: the workers share one scratch budget.  Each of them holds one
    strip of b * n doubles at a time, with b = ``_STRIP_ROWS // workers``
    (at least 64, or ``_STRIP_ROWS`` if that is smaller).  While it fills
    the strip it also holds the chunk buffers and selects from each chunk;
    the chunk budget shrinks with b, so a chunk keeps its rows and the
    workers together hold about 7 MiB of them (7.22 MiB on three workers,
    whose 85-row strips pad to 88).  Every selection goes through
    ``graph.smallest``, 64 rows at a time: int64 positions, then a bool tie
    mask, and for rows tied at the kappa-th distance a stably sorted copy,
    at most 1 KiB per node and worker.  So while b = 256 / workers >= 64,
    peak memory stays within 8 * 256 * n + workers * 1024 * n bytes plus
    the chunks, the n * kappa result and the candidates of one merge:
    38 MB at n = 10000 on one worker, 48 MB on two.

    Parameters
    ----------
    embeddings : EmbeddingSet
    kappa : int
        Neighbors per node, 1 <= kappa < n.
    workers : int
        Thread count for strip evaluation.

    Returns
    -------
    neighbors : NeighborList
    """
    n = embeddings.n
    if not 1 <= kappa < n:
        raise ParameterError(
            f"kappa must satisfy 1 <= kappa < n={n}. Got {kappa}."
        )
    # Each node's running top kappa, as d2 + 1j * index: numpy sorts
    # complex numbers by real part, then imaginary part, which is the
    # (distance, index) order.  Placeholders (NaN, n) sort after every node.
    best = np.full((n, kappa), complex(np.nan, n))
    lock = threading.Lock()

    def merge(first: int, dist_sq: np.ndarray, cand: np.ndarray,
              offset: int) -> None:
        """Merge candidate columns ``cand`` of ``dist_sq``, node
        ``offset + cand``, into the lists of nodes first, first + 1, ..."""
        new = np.take_along_axis(dist_sq, cand, axis=1) + 1j * (cand + offset)
        nodes = slice(first, first + cand.shape[0])
        with lock:
            best[nodes] = np.sort(np.hstack([best[nodes], new]), axis=1,
                                  kind="stable")[:, :kappa]

    rows = max(_STRIP_ROWS // workers, min(_STRIP_ROWS, _MIN_STRIP_ROWS))
    chunk_bytes = _CHUNK_BYTES * _padded(rows) // _padded(_STRIP_ROWS)

    def run_strip(start: int) -> None:
        stop = min(start + rows, n)
        width = stop - start
        strip = np.empty((width, n - start))
        for lo, chunk in embeddings._chunks(np.arange(start, stop), start,
                                            chunk_bytes=chunk_bytes):
            strip[:, lo - start:lo - start + len(chunk)] = chunk.T
            # Nodes after the block take their candidates from it here.
            later = max(lo, stop)
            part = chunk[later - lo:]
            if len(part):
                merge(later, part, smallest(part, kappa), start)
        strip[np.arange(width), np.arange(width)] = np.inf
        merge(start, strip, smallest(strip, kappa), start)

    map_workers(run_strip, range(0, n, rows), workers)
    return NeighborList(indices=best.imag.astype(np.int64),
                        distances_sq=best.real.copy())


def baseline_embedding(features: FrequencyFeatures) -> EmbeddingSet:
    """Single-frequency baseline: DM from k=0 features, VDM from k=1.

    The scalar DM baseline uses linear inner products of its real features;
    VDM is the multi-frequency pipeline restricted to k_max = 1.
    """
    if features.k not in (0, 1):
        raise ParameterError(f"Baselines are defined for k=0 (DM) or k=1 "
                             f"(VDM). Got k={features.k}.")
    return build_embedding_set([features])
