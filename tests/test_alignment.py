"""Pairwise angle estimation: grid objective, refinement, batch paths.

The objective grid is checked against a zero-padded FFT of z, the textbook
evaluation of the same truncated Fourier sum."""

import tracemalloc

import numpy as np
import pytest

from mfvdm import alignment
from mfvdm.alignment import (
    _grid_table,
    _objective_grid,
    align_neighbors,
    alignment_sequences,
    estimate_angles,
)
from mfvdm.angles import TWO_PI, wrap_pi, wrap_two_pi
from mfvdm.connection import build_sk
from mfvdm.embedding import (
    EmbeddingSet,
    FrequencyFeatures,
    build_embedding_set,
    build_features,
    nn_search,
)
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
    emb = build_embedding_set(build_features(b, 1) for b in bundles)
    return truth, graph, emb


def _z(emb, i, j):
    """z(k) of the single pair (i, j), through the batched path."""
    return alignment_sequences(emb, np.array([i]), np.array([j]))[0]


def _angle(z):
    """(alpha_hat, objective) of one z(k) sequence."""
    alpha, objective = estimate_angles(np.asarray(z)[None, :])
    return alpha[0], objective[0]


@pytest.fixture
def grid(monkeypatch):
    """Sets the fewest grid angles, so a short z runs on that grid."""
    return lambda length: monkeypatch.setattr(alignment, "_MIN_GRID", length)


class TestSequences:
    def test_self_pair_is_real_positive(self, clean_instance):
        _, _, emb = clean_instance
        z = _z(emb, 7, 7)
        assert np.abs(z.imag).max() < 1e-12
        assert z.real.min() > 0.0
        for f, zk in zip(emb.features, z):
            want = float(np.sum(np.abs(f.phi[7]) ** 2))
            assert abs(zk.real - want) < 1e-12

    def test_matches_dense_power_oracle(self, clean_instance):
        _, graph, emb = clean_instance
        # Untruncated features make z(k) the (i, j) entry of S_k^{2t}.
        bundles = [top_eigenpairs(build_sk(graph, k), m=250)
                   for k in (1, 2)]
        full = build_embedding_set(build_features(b, 1) for b in bundles)
        rng = np.random.default_rng(0)
        ii, jj = rng.integers(0, 250, (2, 10))
        z = alignment_sequences(full, ii, jj)
        for k in (1, 2):
            power = np.linalg.matrix_power(build_sk(graph, k).to_dense(), 2)
            assert np.abs(z[:, k - 1] - power[ii, jj]).max() < 1e-10

    def test_swap_conjugates(self, clean_instance):
        # Fused multiply-adds inside the complex products leave one-ulp
        # asymmetries, so equality is near-exact rather than bitwise.
        _, _, emb = clean_instance
        fwd = _z(emb, 3, 19)
        rev = _z(emb, 19, 3)
        assert np.abs(fwd - np.conj(rev)).max() < 1e-15

    def test_rejects_linear_mode(self, clean_instance):
        _, graph, _ = clean_instance
        bundle0 = top_eigenpairs(build_sk(graph, 0), m=10)
        dm = build_embedding_set([build_features(bundle0, 1)])
        with pytest.raises(ParameterError):
            _z(dm, 0, 1)


def fft_objective(z, grid_length):
    """Reference grid: f(alpha_m) as the real part of a length-T FFT of z
    placed at indices 1..k_max of a zero sequence."""
    padded = np.zeros(z.shape[:-1] + (grid_length,), dtype=np.complex128)
    padded[..., 1:z.shape[-1] + 1] = z
    return np.real(np.fft.fft(padded, axis=-1))


class TestObjectiveGrid:
    # A grid keeps 4*k_max angles at least, so (64, 50) is left out.
    @pytest.mark.parametrize("grid_length,k_max", [
        (t, k) for t in (64, 256, 1024, 4096) for k in (1, 2, 5, 10, 16, 50)
        if t >= 4 * k
    ])
    def test_matches_fft_oracle(self, grid, grid_length, k_max):
        rng = np.random.default_rng(grid_length + k_max)
        scale = rng.uniform(1e-3, 1e3, size=(40, 1))
        z = scale * (rng.normal(size=(40, k_max))
                     + 1j * rng.normal(size=(40, k_max)))
        grid(grid_length)
        table = _grid_table(k_max)
        assert table.shape == (2 * k_max, grid_length)
        got = _objective_grid(z, table)
        want = fft_objective(z, grid_length)
        bound = 16 * np.finfo(float).eps * np.abs(z).sum(axis=1)
        assert np.all(np.abs(got - want) <= bound[:, None])

    @pytest.mark.parametrize("k_max", [1, 10, 50])
    def test_rows_independent_of_batch_size(self, k_max):
        rng = np.random.default_rng(k_max)
        z = rng.normal(size=(2000, k_max)) + 1j * rng.normal(
            size=(2000, k_max))
        table = _grid_table(k_max)
        whole = _objective_grid(z, table)
        for size in (1, 2, 3, 7, 511, 512, 513):
            for start in range(0, 2000, size):
                part = _objective_grid(z[start:start + size], table)
                assert np.array_equal(part, whole[start:start + size]), \
                    (size, start)

    @pytest.mark.parametrize("k_max,grid_length", [
        (1, 1024), (50, 1024), (256, 1024), (257, 1028), (300, 1200)])
    def test_grid_length_follows_k_max(self, k_max, grid_length):
        assert _grid_table(k_max).shape == (2 * k_max, grid_length)


class TestEstimateAngle:
    def test_single_harmonic_recovers_phase(self):
        for beta in (0.0, 0.37, 2.0, 5.9):
            alpha, objective = _angle([np.exp(1j * beta)])
            assert abs(wrap_pi(alpha - beta)) < 1e-6
            assert abs(objective - 1.0) < 1e-6

    def test_coherent_harmonics_recover_common_phase(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            beta = float(rng.uniform(0, TWO_PI))
            weights = rng.uniform(0.2, 1.0, size=8)
            z = weights * np.exp(1j * np.arange(1, 9) * beta)
            alpha, _ = _angle(z)
            assert abs(wrap_pi(alpha - beta)) < 1e-4

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
            alpha, value = _angle(z)
            assert abs(wrap_pi(alpha - grid[best])) \
                < TWO_PI / 1_000_000 + 1e-3
            assert abs(value - objective[best]) \
                < 1e-4 * max(1.0, abs(objective[best]))

    def test_rejects_zero_sequence(self):
        with pytest.raises(UndefinedAlignmentError):
            _angle(np.zeros(5, dtype=complex))

    def test_accepts_sequence_objects(self):
        # Nested Python lists are converted like arrays.
        alpha, _ = estimate_angles([[np.exp(1j * 1.2)]])
        assert abs(wrap_pi(alpha[0] - 1.2)) < 1e-6


class TestBatch:
    def test_batch_equals_scalar(self, grid):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(30, 6)) + 1j * rng.normal(size=(30, 6))
        grid(512)
        alpha, objective = estimate_angles(z)
        for row in range(30):
            one = _angle(z[row])
            assert (alpha[row], objective[row]) == one

    def test_chunking_invariant(self, monkeypatch, grid):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(50, 4)) + 1j * rng.normal(size=(50, 4))
        grid(256)
        monkeypatch.setattr(alignment, "_CHUNK", 7)
        a1, o1 = estimate_angles(z)
        monkeypatch.setattr(alignment, "_CHUNK", 8192)
        a2, o2 = estimate_angles(z)
        assert np.array_equal(a1, a2)
        assert np.array_equal(o1, o2)

    def test_batch_flags_zero_rows(self, grid):
        z = np.ones((3, 4), dtype=complex)
        z[1] = 0.0
        grid(256)
        with pytest.raises(UndefinedAlignmentError):
            estimate_angles(z)


class TestAlignNeighbors:
    def test_clean_instance_recovers_truth(self, clean_instance):
        truth, _, emb = clean_instance
        nn = nn_search(emb, kappa=6)
        table = align_neighbors(emb, nn)
        assert table.i.shape == (250 * 6,)
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

    def test_chunk_size_bitwise_invariant(self, clean_instance,
                                          monkeypatch):
        _, _, emb = clean_instance
        nn = nn_search(emb, kappa=16)
        lo = np.minimum(np.repeat(np.arange(250), 16), nn.indices.ravel())
        hi = np.maximum(np.repeat(np.arange(250), 16), nn.indices.ravel())
        assert np.unique(lo * 250 + hi).size > 3 * 512
        monkeypatch.setattr(alignment, "_CHUNK", 512)
        small = align_neighbors(emb, nn)
        monkeypatch.setattr(alignment, "_CHUNK", 8192)
        large = align_neighbors(emb, nn)
        assert np.array_equal(small.alpha_hat, large.alpha_hat)
        assert np.array_equal(small.objective, large.objective)

    def test_two_workers_share_one_batch_budget(self):
        # One worker takes _CHUNK // 2 pairs, what each of two would, so it
        # holds about half of their objective values; N >= 2 workers take
        # _CHUNK // N pairs each and together hold one batch's block.
        rng = np.random.default_rng(0)
        emb = EmbeddingSet(features=tuple(
            FrequencyFeatures(k=k, phi=rng.normal(size=(1500, 8))
                              + 1j * rng.normal(size=(1500, 8)))
            for k in range(1, 6)))
        nn = nn_search(emb, kappa=10)
        peaks, tables = [], []
        for workers in (1, 2, 3):
            tracemalloc.start()
            try:
                tables.append(align_neighbors(emb, nn, workers=workers))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 0.7 * peaks[1]
        assert peaks[2] <= 1.1 * peaks[1]
        for table in tables[1:]:
            assert np.array_equal(table.alpha_hat, tables[0].alpha_hat)
            assert np.array_equal(table.objective, tables[0].objective)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_rows_match_one_pair_oracle(self, clean_instance, workers):
        # Each row equals its pair solved alone in canonical orientation,
        # negated and wrapped when i > j, bit for bit, whether the pair's
        # reverse is listed (mutual) or not (one-way).
        _, _, emb = clean_instance
        nn = nn_search(emb, kappa=6)
        table = align_neighbors(emb, nn, workers=workers)
        listed = set(zip(table.i.tolist(), table.j.tolist()))
        mutual = sum((j, i) in listed for i, j in listed)
        assert 0 < mutual < len(listed)
        for row, (i, j) in enumerate(zip(table.i.tolist(),
                                         table.j.tolist())):
            alpha, objective = estimate_angles(alignment_sequences(
                emb, np.array([min(i, j)]), np.array([max(i, j)])))
            if i > j:
                alpha = wrap_two_pi(-alpha)
            assert table.alpha_hat[row] == alpha[0], (i, j)
            assert table.objective[row] == objective[0], (i, j)

    def test_pair_arrays_held_once(self):
        # At n * kappa = 100000 pairs the per-pair arrays outweigh the
        # 256-pair block of objective values that one worker holds.
        n, kappa = 2000, 50
        rng = np.random.default_rng(1)
        emb = EmbeddingSet(features=tuple(
            FrequencyFeatures(k=k, phi=rng.normal(size=(n, 8))
                              + 1j * rng.normal(size=(n, 8)))
            for k in range(1, 6)))
        nn = nn_search(emb, kappa)
        tracemalloc.start()
        try:
            align_neighbors(emb, nn, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = _grid_table(emb.k_max)
        block = alignment._CHUNK // 2 * table.shape[1] * 8
        pairs = n * kappa
        nodes = np.arange(n)[:, None]
        unordered = np.unique(np.minimum(nodes, nn.indices) * n
                              + np.maximum(nodes, nn.indices)).size
        flipped = int(np.count_nonzero(nn.indices < nodes))
        # What align_neighbors holds beside the block, in 8-byte entries:
        # three pair-sized arrays and one of the unordered pairs while the
        # inverse is built or the angles are gathered, or the two outputs
        # and wrap_two_pi's three arrays of the flipped rows; beside either
        # a one-byte mask per pair, and the grid table.
        entries = max(3 * pairs + unordered, 2 * pairs + 3 * flipped)
        assert peak - block <= 8 * entries + pairs + table.nbytes

    def test_frame_rotation_shifts_estimate(self, clean_instance, grid):
        # Rotating node j's features by e^{ik theta} multiplies z(k) by
        # e^{-ik theta}, shifting the estimated angle by -theta.
        _, _, emb = clean_instance
        i, j = 5, 40
        theta = 0.83
        z = _z(emb, i, j)
        ks = np.arange(1, z.shape[0] + 1)
        grid(4096)
        base, _ = _angle(z)
        shifted, _ = _angle(z * np.exp(-1j * ks * theta))
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
        alphas = truth.pair_angles(graph.rows[close], graph.cols[close])
        residuals = []
        for e, alpha in zip(close, alphas):
            i, j = int(graph.rows[e]), int(graph.cols[e])
            resid = np.linalg.norm(u[i] - np.exp(1j * k * alpha) * u[j])
            residuals.append(resid / np.linalg.norm(u[i]))
        assert np.median(residuals) < 0.2
