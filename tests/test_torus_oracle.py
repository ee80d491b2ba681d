"""The clean torus as a closed-form oracle above ``DENSE_THRESHOLD``.

On the clean torus graph every edge's angle is theta_i - theta_j, so
W_k = Theta^k W_0 Theta^-k with Theta = diag(e^{i theta}): each S_k is
unitarily similar to the real symmetric S_0 (Singer's noiseless angular
synchronization, at every frequency).  So every S_k has S_0's spectrum, and
the truncated kernel P_k = U_k Lambda_k^2 U_k^* (t = 1) has entries
P_k(i, j) = e^{ik alpha_ij} P_0(i, j) with P_0 real.  MFVDM's objective for
a pair is then P_0(i, j) f(x - alpha_ij), f(y) = sum_{k=1..K} cos(k y),
whose peak is the true angle: the estimate errs only by what the grid and
its parabola leave, plus what the eigenpairs' residuals allow.
"""

import numpy as np
import pytest

from mfvdm import spectral
from mfvdm.alignment import align_neighbors, alignment_sequences
from mfvdm.angles import TWO_PI, wrap_pi
from mfvdm.connection import build_sk
from mfvdm.embedding import build_embedding_set, build_features, nn_search
from mfvdm.graph import build_clean_knn_graph
from mfvdm.sampling import make_truth
from mfvdm.spectral import top_eigenpairs

N = 2100
KAPPA_BUILD = 40
K_MAX = 10
M = 20
KAPPA = 20
# Grid of the alignment objective (``alignment._MIN_GRID``; 4 K < 1024).
GRID = 1024
EPS = np.finfo(float).eps
# Rounding of a dense symmetric eigensolver on a matrix of norm <= 1.
DENSE_ROUNDING = N * EPS


@pytest.fixture(scope="module")
def torus():
    assert N > spectral.DENSE_THRESHOLD
    truth = make_truth("torus", N, seed=0)
    graph = build_clean_knn_graph(truth, kappa_build=KAPPA_BUILD)
    s0 = build_sk(graph, 0)
    reference = np.linalg.eigvalsh(s0.to_dense().real)[::-1]
    mats = [build_sk(graph, k) for k in range(K_MAX + 1)]
    bundles = [top_eigenpairs(sk, M) for sk in mats]
    return truth, s0, reference, mats, bundles


def test_every_frequency_has_the_spectrum_of_s0(torus):
    # For a Hermitian matrix a unit vector u with residual r = A u - lam u
    # has an eigenvalue within ||r|| of lam; the dense reference adds its
    # own rounding.
    _, _, reference, mats, bundles = torus
    for sk, bundle in zip(mats, bundles):
        vecs = bundle.eigenvectors
        resid = np.linalg.norm(sk.matvec(vecs) - vecs * bundle.eigenvalues,
                               axis=0)
        dev = np.abs(bundle.eigenvalues - reference[:M])
        assert np.all(dev <= resid + DENSE_ROUNDING), sk.k


def _f(y):
    """f(y) = sum_{k=1..K} cos(k y), the objective of a unit-weight pair."""
    return np.cos(np.multiply.outer(y, np.arange(1, K_MAX + 1))).sum(axis=-1)


def _vertex_error(offsets, h):
    """Error of ``alignment._refine_peaks`` on f when its peak sample sits
    ``offsets`` from the true maximum; and f's curvature f(o) - mean of the
    two neighbors, which the parabola divides by."""
    y_minus, y_0, y_plus = _f(offsets - h), _f(offsets), _f(offsets + h)
    curv = 0.5 * (y_minus + y_plus) - y_0
    delta = np.clip(-0.5 * (y_plus - y_minus) / (2.0 * curv), -0.5, 0.5)
    return np.abs(offsets + h * delta), -curv


def test_grid_error_closed_form():
    error, _ = _vertex_error(np.linspace(0.0, np.pi / GRID, 2 ** 16 + 1),
                             TWO_PI / GRID)
    assert abs(error.max() - 2.43804e-7) < 5e-12


def test_p1_angles_within_grid_and_residual_bound(torus):
    truth, s0, reference, mats, bundles = torus
    features = [build_features(b, 1) for b in bundles]
    embeddings = build_embedding_set(features[1:])
    neighbors = nn_search(embeddings, KAPPA)
    ii, jj = neighbors.pairs()
    table = align_neighbors(embeddings, neighbors)
    err = np.abs(wrap_pi(table.alpha_hat - truth.pair_angles(ii, jj)))
    assert np.array_equal(table.i, ii) and np.array_equal(table.j, jj)

    # delta_k(i, j) = e^{-ik alpha_ij} z_k(i, j) - P_0(i, j).  Rotated back
    # by Theta^-k, frequency k's eigenvectors V are approximate eigenvectors
    # of S_0, with residual R = S_0 V - V Lambda.  With Phi = V Lambda,
    # S_0 V V^* S_0 = (Phi + R)(Phi + R)^*, and P_0 = S_0 Pi S_0 for the
    # exact top-m projector Pi.  So |delta_k(i, j)| is at most
    #   |(S_0 (V V^* - Pi) S_0)(i, j)| <= s_i s_j ||R||_F / gap
    #     (Davis-Kahan sin theta, gap = lambda_m - lambda_{m+1}; s_i is row
    #     i's norm of S_0)
    #   + phi_i r_j + r_i phi_j + r_i r_j   (row norms of Phi and R)
    #   + 4 m eps phi_i phi_j               (rounding of the m-term z).
    theta = truth.frame_angles
    rows_s0 = np.sqrt(np.asarray(abs(s0.csr).power(2).sum(axis=1)).ravel())
    dev = []
    for k, (bundle, feat) in enumerate(zip(bundles, features)):
        back = bundle.eigenvectors * np.exp(-1j * k * theta)[:, None]
        resid = s0.matvec(back) - back * bundle.eigenvalues
        gap = bundle.eigenvalues[-1] - reference[M] - DENSE_ROUNDING
        assert gap > 0
        r = np.linalg.norm(resid, axis=1)
        phi = np.linalg.norm(feat.phi, axis=1)
        dev.append(rows_s0[ii] * rows_s0[jj] * np.linalg.norm(resid) / gap
                   + phi[ii] * r[jj] + r[ii] * phi[jj] + r[ii] * r[jj]
                   + 4 * M * EPS * phi[ii] * phi[jj])
    dev = np.array(dev)
    phi_0 = features[0].phi
    weight = np.real(np.sum(phi_0[ii] * np.conj(phi_0[jj]), axis=1)) - dev[0]
    # The bound needs a positive pair weight P_0(i, j), the objective's
    # scale; otherwise the peak is a minimum of f.
    assert weight.min() > 0
    assert table.objective.min() > 0

    # With C = P_0(i, j) >= weight, the grid samples are C f(o + l h) + e,
    # where e(y) = sum_k Re(delta_k e^{-iky}) has |e'| <= a1 = sum k
    # |delta_k| and |e''| <= a2 = sum k^2 |delta_k|, plus eta for rounding
    # each 2K-term sample (Higham's gamma_2K, with table entries off by a
    # few ulps of 2 pi).  So the parabola's slope moves by at most ds and
    # its curvature by at most dc, against an unperturbed curvature of at
    # least C times f's smallest, q.  Its step delta = -slope / (2 curv),
    # |delta| <= 1 here, then moves by at most (ds + 2 dc) / (2 (C q - dc)).
    h = TWO_PI / GRID
    k = np.arange(1, K_MAX + 1)[:, None]
    a1 = np.sum(k * dev[1:], axis=0)
    a2 = np.sum(k ** 2 * dev[1:], axis=0)
    z = alignment_sequences(embeddings, ii, jj)
    eta = (4 * K_MAX + 32) * EPS * np.sum(np.abs(z), axis=1)
    ds = h * a1 + eta
    dc = 0.5 * h ** 2 * a2 + 2.0 * eta
    # A perturbed peak sample can be the neighbor of the unperturbed one,
    # but only if the true angle lies within xi of their midpoint: there
    # f(h - o) - f(o) >= (2/pi) sum k^2 h (o - h/2), as sin x >= 2x/pi.
    sum_k2 = float(np.sum(k ** 2))
    xi = np.pi / 2 * np.max((h * a1 + 2.0 * eta) / (weight * sum_k2 * h))
    grid_error, curvature = _vertex_error(
        np.linspace(0.0, h / 2 + xi, 2 ** 16 + 1), h)
    q = curvature.min()
    assert np.all(weight * q > dc)
    step = (ds + 2.0 * dc) / (2.0 * (weight * q - dc))
    # alpha = 2 pi (peak + delta) / T and the true angle each round to a
    # few ulps of 2 pi.
    bound = grid_error.max() + h * step + 4 * TWO_PI * EPS
    assert np.all(err <= bound)
    # The residual allowance stays below the grid's own error.
    assert np.max(h * step) < grid_error.max()
