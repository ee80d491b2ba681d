"""Reference implementations that the tests hold the library against.

Each is written from its definition, one pair or one matrix at a time,
without calling the batched code it referees.
"""

import numpy as np

from mfvdm.angles import wrap_two_pi
from mfvdm.errors import MfvdmError


def affinity_k(features, i: int, j: int) -> float:
    """Single-frequency affinity |<phi_k(i), phi_k(j)>|^2."""
    return float(abs(np.vdot(features.phi[j], features.phi[i])) ** 2)


def mfvdm_affinity(embeddings, i: int, j: int) -> float:
    """Multi-frequency affinity: affinity_k summed over the frequencies."""
    return float(sum(affinity_k(f, i, j) for f in embeddings.features))


def _norm(embeddings, i: int) -> float:
    """sqrt(sum_k ||phi_k(i)||^4) in squared mode, ||phi(i)|| in linear."""
    sq = [np.vdot(f.phi[i], f.phi[i]).real for f in embeddings.features]
    if embeddings.mode == "squared":
        return float(np.sqrt(sum(s * s for s in sq)))
    return float(np.sqrt(sq[0]))


def normalized_affinity(embeddings, i: int, j: int) -> float:
    """Affinity over the product of the two embedding norms; 1 if i == j."""
    if i == j:
        return 1.0
    if embeddings.mode == "squared":
        affinity = mfvdm_affinity(embeddings, i, j)
    else:
        phi = embeddings.features[0].phi
        affinity = float(np.vdot(phi[j], phi[i]).real)
    return affinity / (_norm(embeddings, i) * _norm(embeddings, j))


def mfvdm_distance(embeddings, i: int, j: int) -> float:
    """Squared diffusion distance d2 = 2 - 2*N(i, j); 0 if i == j."""
    if i == j:
        return 0.0
    return 2.0 - 2.0 * normalized_affinity(embeddings, i, j)


def build_wk(graph, k: int) -> np.ndarray:
    """Dense W_k: w_ij e^{ik alpha_ij} at (i, j), its conjugate at (j, i)."""
    values = graph.weights * np.exp(1j * k * graph.angles)
    dense = np.zeros((graph.n, graph.n), dtype=np.complex128)
    np.add.at(dense, (graph.rows, graph.cols), values)
    np.add.at(dense, (graph.cols, graph.rows), np.conj(values))
    return dense


def verify(bundle, matrix=None, tol: float = 1e-8) -> None:
    """Raise MfvdmError unless the eigenvalues descend inside [-1, 1], the
    eigenvectors are orthonormal and, given the matrix, every dense
    residual ||A u - lambda u|| is at most ``tol``."""
    lam, vecs = bundle.eigenvalues, bundle.eigenvectors
    if np.any(np.diff(lam) > 0.0):
        raise MfvdmError("Eigenvalues are not sorted descending.")
    if np.any(np.abs(lam) > 1.0 + tol):
        raise MfvdmError("Eigenvalues leave [-1, 1].")
    if np.abs(vecs.conj().T @ vecs - np.eye(lam.size)).max() > tol:
        raise MfvdmError("Eigenvectors are not orthonormal.")
    if matrix is not None:
        resid = np.linalg.norm(matrix.to_dense() @ vecs - vecs * lam, axis=0)
        if np.any(resid > tol):
            raise MfvdmError(f"Residual {resid.max():g} exceeds {tol:g}.")


def align_mass_within(report, bound_deg: float) -> float:
    """Share of a report's alignment errors in bins centred within
    ``bound_deg`` of zero."""
    edges = report.align_bin_edges_deg
    centers = 0.5 * (edges[:-1] + edges[1:])
    inside = report.align_counts[np.abs(centers) <= bound_deg].sum()
    return float(inside) / float(report.align_counts.sum())


def torus_positions(truth) -> np.ndarray:
    """Torus points in 3-space: ((R + r cos u) cos v, (R + r cos u) sin v,
    r sin u), (n, 3)."""
    ring = truth.radius_major + truth.radius_minor * np.cos(truth.u)
    return np.stack([ring * np.cos(truth.v), ring * np.sin(truth.v),
                     truth.radius_minor * np.sin(truth.u)], axis=1)


def inplane_angle(rot_i, rot_j) -> float:
    """In-plane angle of the planar rotation closest, in Frobenius norm, to
    the upper-left 2x2 block Q of R_i^T R_j: atan2(Q21 - Q12, Q11 + Q22),
    in [0, 2*pi)."""
    q = rot_i.T @ rot_j
    return float(wrap_two_pi(np.arctan2(q[1, 0] - q[0, 1],
                                        q[0, 0] + q[1, 1])))
