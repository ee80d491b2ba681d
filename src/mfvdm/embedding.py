"""Spectral embeddings, affinities, diffusion distances and NN search.

Each frequency contributes compact features phi_k(i)_l = lambda_l^t u_l(i);
the inner product <phi_k(i), phi_k(j)> reproduces the truncated 2t-step
kernel S_k^{2t}(i, j).  The multi-frequency affinity sums |<., .>|^2 over
frequencies ("squared" mode); the scalar diffusion-maps baseline uses the
plain real inner product of its single feature block ("linear" mode).
Normalizing by per-node embedding norms turns affinity into the squared
diffusion distance d2 = 2 - 2*N.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mfvdm.errors import DegenerateEmbeddingError, ParameterError
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


@dataclass(frozen=True)
class FrequencyFeatures:
    """Per-node features phi of one frequency, (n, m) complex."""

    k: int
    t: int
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
    return FrequencyFeatures(k=bundle.k, t=int(t), phi=phi)


@dataclass(frozen=True)
class EmbeddingSet:
    """Features for a set of frequencies plus per-node embedding norms.

    mode "squared": affinity(i, j) = sum_k |<phi_k(i), phi_k(j)>|^2 and
    norm(i) = sqrt(sum_k ||phi_k(i)||^4).  mode "linear": affinity is the
    real inner product of the single feature block and norm(i) = ||phi(i)||.
    """

    features: tuple
    mode: str = "squared"
    norms: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.mode not in ("squared", "linear"):
            raise ParameterError(f"Unknown mode {self.mode!r}.")
        feats = tuple(sorted(self.features, key=lambda f: f.k))
        if not feats:
            raise ParameterError("EmbeddingSet needs at least one frequency.")
        if self.mode == "linear" and len(feats) != 1:
            raise ParameterError("Linear mode takes exactly one feature "
                                 "block.")
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
        block = np.asarray(block, dtype=np.int64)
        acc = np.zeros((block.size, self.n))
        if self.mode == "squared":
            for f in self.features:
                z = f.phi[block] @ f.phi.conj().T
                acc += z.real ** 2
                acc += z.imag ** 2
        else:
            phi = self.features[0].phi
            acc += np.real(phi[block] @ phi.conj().T)
        return acc

    def distance_sq_block(self, block: np.ndarray) -> np.ndarray:
        """Squared diffusion distances from ``block`` to all nodes."""
        block = np.asarray(block, dtype=np.int64)
        normalized = self.affinity_block(block)
        normalized /= self.norms[block][:, None]
        normalized /= self.norms[None, :]
        dist_sq = 2.0 - 2.0 * normalized
        # diagonal is exactly zero by definition
        dist_sq[np.arange(block.size), block] = 0.0
        return dist_sq


def build_embedding_set(bundles, t: int, mode: str = "squared") -> EmbeddingSet:
    """Assemble an EmbeddingSet from spectral bundles at diffusion time t."""
    features = tuple(build_features(b, t) for b in bundles)
    return EmbeddingSet(features=features, mode=mode)


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

    def validate(self) -> None:
        if self.indices.shape != self.distances_sq.shape:
            raise ParameterError("Index and distance shapes differ.")
        if np.any(self.indices == np.arange(self.n)[:, None]):
            raise ParameterError("A node lists itself as neighbor.")
        if np.any(np.diff(self.distances_sq, axis=1) < 0.0):
            raise ParameterError("Distances are not nondecreasing.")


def nn_search(embeddings: EmbeddingSet, kappa: int, block_size: int = 512,
              workers: int = 1) -> NeighborList:
    """Exact kappa-NN under the squared diffusion distance.

    All-pairs distances are evaluated in fixed-size node blocks.  Each row
    keeps its kappa smallest distances by partial selection and orders them
    by (distance, index), so ties break to the lower node index exactly as
    a stable sort of the whole row would.  A row whose kappa-th distance is
    tied with an unselected entry, or is not finite, is fully sorted with a
    stable sort instead.  The result is identical for any worker count and
    block size.

    Parameters
    ----------
    embeddings : EmbeddingSet
    kappa : int
        Neighbors per node, 1 <= kappa < n.
    block_size : int
        Rows per distance block; no effect on the result.
    workers : int
        Thread count for block evaluation.

    Returns
    -------
    neighbors : NeighborList
    """
    n = embeddings.n
    if not 1 <= kappa < n:
        raise ParameterError(
            f"kappa must satisfy 1 <= kappa < n={n}. Got {kappa}."
        )
    indices = np.empty((n, kappa), dtype=np.int64)
    distances = np.empty((n, kappa))

    def run_block(start: int) -> None:
        block = np.arange(start, min(start + block_size, n))
        dist_sq = embeddings.distance_sq_block(block)
        dist_sq[np.arange(block.size), block] = np.inf
        rows = np.arange(block.size)[:, None]
        cand = np.argpartition(dist_sq, kappa - 1, axis=1)[:, :kappa]
        cand_dist = dist_sq[rows, cand]
        order = cand[rows, np.lexsort((cand, cand_dist), axis=1)]
        # The selection is the stable sort's prefix only when exactly kappa
        # entries lie at or below the kappa-th distance (argpartition puts
        # it, or a NaN, in the last candidate column).
        kth = cand_dist[:, -1]
        tied = ~np.isfinite(kth) | (
            np.count_nonzero(dist_sq <= kth[:, None], axis=1) > kappa)
        order[tied] = np.argsort(dist_sq[tied], axis=1,
                                 kind="stable")[:, :kappa]
        indices[block] = order
        distances[block] = dist_sq[rows, order]

    map_workers(run_block, range(0, n, block_size), workers)
    return NeighborList(indices=indices, distances_sq=distances)


def baseline_embedding(bundle: SpectralBundle, t: int) -> EmbeddingSet:
    """Single-bundle baseline: DM from a k=0 bundle, VDM from a k=1 bundle.

    The scalar DM baseline uses linear inner products of its real features;
    VDM is the multi-frequency pipeline restricted to k_max = 1.
    """
    if bundle.k == 0:
        return build_embedding_set([bundle], t, mode="linear")
    if bundle.k == 1:
        return build_embedding_set([bundle], t, mode="squared")
    raise ParameterError(
        f"Baselines are defined for k=0 (DM) or k=1 (VDM). Got k={bundle.k}."
    )
