"""Pairwise angle estimation: grid objective, refinement, batch paths.

The objective grid is checked against a zero-padded FFT of z, the textbook
evaluation of the same truncated Fourier sum."""

import numpy as np
import pytest

from mfvdm.alignment import (
    AlignmentSequence,
    _grid_table,
    _objective_grid,
    align_neighbors,
    alignment_sequence,
    estimate_angle,
    estimate_angles,
)
from mfvdm.angles import TWO_PI, wrap_pi
from mfvdm.connection import build_sk
from mfvdm.embedding import build_embedding_set, nn_search
from mfvdm.errors import ParameterError, UndefinedAlignmentError
from mfvdm.graph import build_clean_knn_graph
from mfvdm.sampling import make_truth
from mfvdm.spectral import top_eigenpairs


@pytest.fixture(scope="module")
def clean_instance():
    truth = make_truth("sphere", 250, seed=51)
    graph = build_clean_knn_graph(truth, kappa_build=12)
    bundles = [top_eigenpairs(build_sk(graph, k), m=12)
               for k in (1, 2, 3, 4)]
    emb = build_embedding_set(bundles, t=1)
    return truth, graph, emb


class TestSequences:
    def test_self_pair_is_real_positive(self, clean_instance):
        _, _, emb = clean_instance
        seq = alignment_sequence(emb, 7, 7)
        assert np.abs(seq.z.imag).max() < 1e-12
        assert seq.z.real.min() > 0.0
        for f, zk in zip(emb.features, seq.z):
            want = float(np.sum(np.abs(f.phi[7]) ** 2))
            assert abs(zk.real - want) < 1e-12

    def test_matches_dense_power_oracle(self, clean_instance):
        _, graph, emb = clean_instance
        # Untruncated features make z(k) the (i, j) entry of S_k^{2t}.
        bundles = [top_eigenpairs(build_sk(graph, k), m=250)
                   for k in (1, 2)]
        full = build_embedding_set(bundles, t=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            i, j = (int(a) for a in rng.integers(0, 250, 2))
            seq = alignment_sequence(full, i, j)
            for k in (1, 2):
                dense = build_sk(graph, k).to_dense()
                power = np.linalg.matrix_power(dense, 2)
                assert abs(seq.z[k - 1] - power[i, j]) < 1e-10

    def test_swap_conjugates(self, clean_instance):
        # Fused multiply-adds inside the complex products leave one-ulp
        # asymmetries, so equality is near-exact rather than bitwise.
        _, _, emb = clean_instance
        fwd = alignment_sequence(emb, 3, 19).z
        rev = alignment_sequence(emb, 19, 3).z
        assert np.abs(fwd - np.conj(rev)).max() < 1e-15

    def test_rejects_linear_mode(self, clean_instance):
        _, graph, _ = clean_instance
        bundle0 = top_eigenpairs(build_sk(graph, 0), m=10)
        dm = build_embedding_set([bundle0], t=1, mode="linear")
        with pytest.raises(ParameterError):
            alignment_sequence(dm, 0, 1)


def fft_objective(z, grid_length):
    """Reference grid: f(alpha_m) as the real part of a length-T FFT of z
    placed at indices 1..k_max of a zero sequence."""
    padded = np.zeros(z.shape[:-1] + (grid_length,), dtype=np.complex128)
    padded[..., 1:z.shape[-1] + 1] = z
    return np.real(np.fft.fft(padded, axis=-1))


class TestObjectiveGrid:
    # Grids shorter than 4*k_max are rejected, so (64, 50) is left out.
    @pytest.mark.parametrize("grid_length,k_max", [
        (t, k) for t in (64, 256, 1024, 4096) for k in (1, 2, 5, 10, 16, 50)
        if t >= 4 * k
    ])
    def test_matches_fft_oracle(self, grid_length, k_max):
        rng = np.random.default_rng(grid_length + k_max)
        scale = rng.uniform(1e-3, 1e3, size=(40, 1))
        z = scale * (rng.normal(size=(40, k_max))
                     + 1j * rng.normal(size=(40, k_max)))
        table = _grid_table(k_max, grid_length)
        got = _objective_grid(z, table)
        want = fft_objective(z, grid_length)
        bound = 16 * np.finfo(float).eps * np.abs(z).sum(axis=1)
        assert np.all(np.abs(got - want) <= bound[:, None])

    @pytest.mark.parametrize("k_max", [1, 10, 50])
    def test_rows_independent_of_batch_size(self, k_max):
        rng = np.random.default_rng(k_max)
        z = rng.normal(size=(2000, k_max)) + 1j * rng.normal(
            size=(2000, k_max))
        table = _grid_table(k_max, 1024)
        whole = _objective_grid(z, table)
        for size in (1, 2, 3, 7, 511, 512, 513):
            for start in range(0, 2000, size):
                part = _objective_grid(z[start:start + size], table)
                assert np.array_equal(part, whole[start:start + size]), \
                    (size, start)


class TestEstimateAngle:
    def test_single_harmonic_recovers_phase(self):
        for beta in (0.0, 0.37, 2.0, 5.9):
            est = estimate_angle(np.array([np.exp(1j * beta)]),
                                 grid_length=1024)
            assert abs(wrap_pi(est.alpha_hat - beta)) < 1e-6
            assert abs(est.objective - 1.0) < 1e-6

    def test_coherent_harmonics_recover_common_phase(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            beta = float(rng.uniform(0, TWO_PI))
            weights = rng.uniform(0.2, 1.0, size=8)
            z = weights * np.exp(1j * np.arange(1, 9) * beta)
            est = estimate_angle(z, grid_length=1024)
            assert abs(wrap_pi(est.alpha_hat - beta)) < 1e-4

    def test_matches_fine_grid_oracle(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, TWO_PI, 1_000_000, endpoint=False)
        ks = np.arange(1, 11)
        for _ in range(12):
            z = rng.normal(size=10) + 1j * rng.normal(size=10)
            objective = np.real(
                np.exp(-1j * np.outer(grid, ks)) @ z
            )
            best = int(np.argmax(objective))
            est = estimate_angle(z, grid_length=1024)
            assert abs(wrap_pi(est.alpha_hat - grid[best])) \
                < TWO_PI / 1_000_000 + 1e-3
            assert abs(est.objective - objective[best]) \
                < 1e-4 * max(1.0, abs(objective[best]))

    def test_rejects_zero_sequence(self):
        with pytest.raises(UndefinedAlignmentError):
            estimate_angle(np.zeros(5, dtype=complex))

    def test_rejects_bad_grid(self):
        z = np.ones(10, dtype=complex)
        with pytest.raises(ParameterError):
            estimate_angle(z, grid_length=100)
        with pytest.raises(ParameterError):
            estimate_angle(z, grid_length=16)

    def test_accepts_sequence_objects(self):
        seq = AlignmentSequence(i=0, j=1,
                                z=np.array([np.exp(1j * 1.2)]))
        est = estimate_angle(seq, grid_length=1024)
        assert abs(wrap_pi(est.alpha_hat - 1.2)) < 1e-6


class TestBatch:
    def test_batch_equals_scalar(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(30, 6)) + 1j * rng.normal(size=(30, 6))
        alpha, objective = estimate_angles(z, grid_length=512)
        for row in range(30):
            est = estimate_angle(z[row], grid_length=512)
            assert alpha[row] == est.alpha_hat
            assert objective[row] == est.objective

    def test_chunking_invariant(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        a1, o1 = estimate_angles(z, grid_length=256, chunk=7)
        a2, o2 = estimate_angles(z, grid_length=256, chunk=8192)
        assert np.array_equal(a1, a2)
        assert np.array_equal(o1, o2)

    def test_batch_flags_zero_rows(self):
        z = np.ones((3, 4), dtype=complex)
        z[1] = 0.0
        with pytest.raises(UndefinedAlignmentError):
            estimate_angles(z, grid_length=256)


class TestAlignNeighbors:
    def test_clean_instance_recovers_truth(self, clean_instance):
        truth, _, emb = clean_instance
        nn = nn_search(emb, kappa=6)
        table = align_neighbors(emb, nn)
        assert table.pair_count == 250 * 6
        err = wrap_pi(table.alpha_hat
                      - truth.pair_angles(table.i, table.j))
        assert np.median(np.abs(err)) < 0.05
        assert np.abs(err).mean() < 0.15

    def test_reverse_direction_negates_angle(self, clean_instance):
        _, _, emb = clean_instance
        nn = nn_search(emb, kappa=6)
        table = align_neighbors(emb, nn)
        seen = {}
        mutual = 0
        for i, j, a, o in zip(table.i.tolist(), table.j.tolist(),
                              table.alpha_hat.tolist(),
                              table.objective.tolist()):
            if (j, i) in seen:
                a_rev, o_rev = seen[(j, i)]
                diff = (a + a_rev) % TWO_PI
                assert min(diff, TWO_PI - diff) < 1e-12
                assert o == o_rev
                mutual += 1
            seen[(i, j)] = (a, o)
        assert mutual > 100

    def test_row_order_follows_neighbor_list(self, clean_instance):
        _, _, emb = clean_instance
        nn = nn_search(emb, kappa=4)
        table = align_neighbors(emb, nn)
        assert np.array_equal(table.i, np.repeat(np.arange(250), 4))
        assert np.array_equal(table.j, nn.indices.ravel())

    def test_chunk_size_bitwise_invariant(self, clean_instance):
        _, _, emb = clean_instance
        nn = nn_search(emb, kappa=16)
        lo = np.minimum(np.repeat(np.arange(250), 16), nn.indices.ravel())
        hi = np.maximum(np.repeat(np.arange(250), 16), nn.indices.ravel())
        assert np.unique(lo * 250 + hi).size > 3 * 512
        small = align_neighbors(emb, nn, chunk=512)
        large = align_neighbors(emb, nn, chunk=8192)
        assert np.array_equal(small.alpha_hat, large.alpha_hat)
        assert np.array_equal(small.objective, large.objective)

    def test_frame_rotation_shifts_estimate(self, clean_instance):
        # Rotating node j's features by e^{ik theta} multiplies z(k) by
        # e^{-ik theta}, shifting the estimated angle by -theta.
        _, _, emb = clean_instance
        i, j = 5, 40
        theta = 0.83
        z = alignment_sequence(emb, i, j).z
        ks = np.arange(1, z.shape[0] + 1)
        base = estimate_angle(z, grid_length=4096).alpha_hat
        shifted = estimate_angle(z * np.exp(-1j * ks * theta),
                                 grid_length=4096).alpha_hat
        assert abs(wrap_pi(shifted - (base - theta))) < 1e-3


def test_transport_relation_on_close_pairs():
    # Top-cluster eigenvector rows transform like u(i) ~ e^{ik alpha} u(j)
    # for nearby nodes on the clean sphere instance.
    truth = make_truth("sphere", 1000, seed=52)
    graph = build_clean_knn_graph(truth, kappa_build=20)
    geo = truth.geodesics(graph.rows, graph.cols)
    close = np.flatnonzero(geo < 0.06)[:200]
    for k, cluster in [(1, 3), (2, 5), (3, 7)]:
        bundle = top_eigenpairs(build_sk(graph, k), m=cluster)
        u = bundle.eigenvectors
        residuals = []
        for e in close:
            i, j = int(graph.rows[e]), int(graph.cols[e])
            alpha = truth.pair_angle(i, j)
            resid = np.linalg.norm(u[i] - np.exp(1j * k * alpha) * u[j])
            residuals.append(resid / np.linalg.norm(u[i]))
        assert np.median(residuals) < 0.2
