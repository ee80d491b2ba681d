"""Reference implementations that the tests hold the library against.

Each is written from its definition, one pair or one matrix at a time,
without calling the batched code it referees.
"""

import numpy as np

from mfvdm.angles import TWO_PI, wrap_two_pi
from mfvdm.errors import MfvdmError
from mfvdm.rng import substream


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


def sk_coo_csr(graph, k: int):
    """S_k through a COO round trip: each edge's scaled value at (i, j) and
    its conjugate at (j, i), converted by scipy's ``tocsr``, which sorts
    each row's columns and sums duplicates."""
    import scipy.sparse

    from mfvdm.connection import degrees

    inv_sqrt = 1.0 / np.sqrt(degrees(graph))
    values = (graph.weights * np.exp(1j * k * graph.angles)
              * inv_sqrt[graph.rows] * inv_sqrt[graph.cols])
    return scipy.sparse.coo_array(
        (np.concatenate([values, np.conj(values)]),
         (np.concatenate([graph.rows, graph.cols]),
          np.concatenate([graph.cols, graph.rows]))),
        shape=(graph.n, graph.n)).tocsr()


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


def rewire_rounds(graph, p: float, seed: int):
    """``rewire_graph``'s rule, one draw at a time on a Python edge set:
    ``(rows, cols, weights, angles)`` of the rewired graph in sorted order,
    and ``(kept, replaced, skipped, forced)``."""
    rng = substream(seed, "rewire")
    n = graph.n
    keep = rng.random(graph.edge_count) < p
    edges = {(r, c) for r, c in zip(graph.rows[keep].tolist(),
                                    graph.cols[keep].tolist())}
    degree = [0] * n
    for r, c in edges:
        degree[r] += 1
        degree[c] += 1

    def link(sources):
        partners = [-1] * len(sources)
        pending = list(range(len(sources)))
        while True:
            pending = [t for t in pending if degree[sources[t]] < n - 1]
            if not pending:
                return partners
            draws = rng.integers(0, n, size=len(pending)).tolist()
            retry = []
            for t, j in zip(pending, draws):
                i = sources[t]
                pair = (min(i, j), max(i, j))
                if i == j or pair in edges:
                    retry.append(t)
                    continue
                # Degrees change now; the skip test reads them next round.
                edges.add(pair)
                degree[i] += 1
                degree[j] += 1
                partners[t] = j
            pending = retry

    removed = np.flatnonzero(~keep).tolist()
    sources = [int(graph.rows[e]) for e in removed]
    partners = link(sources)
    isolated = [i for i in range(n) if degree[i] == 0]
    forced = link(isolated)
    added = [(i, j, float(graph.weights[e]))
             for e, i, j in zip(removed, sources, partners) if j >= 0]
    added += [(i, j, 1.0) for i, j in zip(isolated, forced) if j >= 0]
    angles = rng.uniform(0.0, TWO_PI, size=len(added)).tolist()
    table = {(r, c): (w, a) for r, c, w, a in zip(
        graph.rows[keep].tolist(), graph.cols[keep].tolist(),
        graph.weights[keep].tolist(), graph.angles[keep].tolist())}
    for (i, j, w), a in zip(added, angles):
        table[(min(i, j), max(i, j))] = (w, a if i < j
                                         else float(wrap_two_pi(-a)))
    pairs = sorted(table)
    skipped = partners.count(-1)
    counts = (int(keep.sum()), len(removed) - skipped, skipped,
              len(isolated) - forced.count(-1))
    return (np.array([r for r, _ in pairs], dtype=np.int64),
            np.array([c for _, c in pairs], dtype=np.int64),
            np.array([table[e][0] for e in pairs]),
            np.array([table[e][1] for e in pairs]), counts)
