"""Embeddings, affinities, diffusion distances and exact NN search."""

import sys
import tracemalloc

import numpy as np
import pytest

from mfvdm import embedding
from mfvdm.connection import build_sk
from mfvdm.embedding import (
    EmbeddingSet,
    FrequencyFeatures,
    NeighborList,
    baseline_embedding,
    build_embedding_set,
    build_features,
    nn_search,
)
from mfvdm.errors import DegenerateEmbeddingError, ParameterError
from mfvdm.graph import _SELECT_ROWS, build_clean_knn_graph
from mfvdm.sampling import make_truth
from mfvdm.spectral import SpectralBundle, top_eigenpairs
from oracles import affinity_k, mfvdm_affinity, mfvdm_distance

ALL = np.arange(60)


@pytest.fixture(scope="module")
def small_instance():
    truth = make_truth("sphere", 60, seed=41)
    graph = build_clean_knn_graph(truth, kappa_build=5)
    bundles = [top_eigenpairs(build_sk(graph, k), m=60) for k in (1, 2, 3)]
    return graph, bundles


def _outer_vectors(bundle, t):
    """Explicit rank-structured vectors V(i)[l*m+r] = (l_l l_r)^t u_l u_r*."""
    lam_t = bundle.eigenvalues ** t
    scaled = bundle.eigenvectors * lam_t[None, :]
    n, m = scaled.shape
    out = np.empty((n, m * m), dtype=np.complex128)
    for i in range(n):
        out[i] = np.outer(scaled[i], np.conj(scaled[i])).ravel()
    return out


def _normalized(emb):
    """The library's normalized affinities N = 1 - d2/2, all pairs."""
    return 1.0 - 0.5 * emb.distance_sq_block(np.arange(emb.n))


def _random_embedding(n, ks=(1, 2, 3), m=4, seed=0):
    """Random complex features, one (n, m) block per frequency."""
    rng = np.random.default_rng(seed)
    features = tuple(
        FrequencyFeatures(k=k, phi=rng.normal(size=(n, m))
                          + 1j * rng.normal(size=(n, m)))
        for k in ks)
    return EmbeddingSet(features=features)


def _stable_sort_oracle(emb, kappa):
    """Brute force: every row of the full distance matrix, self excluded,
    stably sorted; the first kappa indices and their distances."""
    dist = emb.distance_sq_block(np.arange(emb.n)).copy()
    np.fill_diagonal(dist, np.inf)
    order = np.argsort(dist, axis=1, kind="stable")[:, :kappa]
    return order, np.take_along_axis(dist, order, axis=1)


class TestFeatures:
    def test_integer_power_scaling(self, small_instance):
        _, bundles = small_instance
        bundle = bundles[0]
        feats = build_features(bundle, t=3)
        lam3 = bundle.eigenvalues * bundle.eigenvalues * bundle.eigenvalues
        want = bundle.eigenvectors * lam3[None, :]
        assert np.abs(feats.phi - want).max() < 1e-15

    def test_rejects_bad_t(self, small_instance):
        _, bundles = small_instance
        with pytest.raises(ParameterError):
            build_features(bundles[0], t=0)
        with pytest.raises(ParameterError):
            build_features(bundles[0], t=-2)


class TestAffinityOracles:
    @pytest.mark.parametrize("t", [1, 2, 10])
    def test_untruncated_affinity_equals_dense_power(self, small_instance, t):
        graph, bundles = small_instance
        rng = np.random.default_rng(1)
        for bundle in bundles:
            dense = build_sk(graph, bundle.k).to_dense()
            want = np.abs(np.linalg.matrix_power(dense, 2 * t)) ** 2
            feats = build_features(bundle, t)
            got = np.abs(feats.phi @ feats.phi.conj().T) ** 2
            assert np.abs(got - want).max() < 1e-10
            for _ in range(15):
                i, j = (int(a) for a in rng.integers(0, 60, 2))
                assert abs(affinity_k(feats, i, j) - want[i, j]) < 1e-10

    def test_affinity_is_inner_product_of_outer_vectors(self, small_instance):
        _, bundles = small_instance
        bundle = bundles[1]
        phi = build_features(bundle, t=2).phi
        vecs = _outer_vectors(bundle, t=2)
        inner = vecs @ vecs.conj().T
        assert np.abs(inner.imag).max() < 1e-12
        got = np.abs(phi @ phi.conj().T) ** 2
        assert np.abs(got - inner.real).max() < 1e-12

    def test_multi_frequency_affinity_sums(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        per_k = [build_features(b, 1) for b in bundles]
        want = sum(affinity_k(f, 3, 17) for f in per_k)
        got = sum(np.abs(f.phi @ f.phi.conj().T) ** 2 for f in emb.features)
        assert abs(got[3, 17] - want) < 1e-13
        assert abs(mfvdm_affinity(emb, 3, 17) - want) < 1e-13


class TestNormalizedDistance:
    def test_distance_is_euclidean_between_unit_outer_vectors(
            self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        stacked = np.hstack([_outer_vectors(b, 1) for b in bundles])
        unit = stacked / np.linalg.norm(stacked, axis=1, keepdims=True)
        want = np.sum(np.abs(unit[:, None, :] - unit[None, :, :]) ** 2,
                      axis=2)
        assert np.abs(emb.distance_sq_block(ALL) - want).max() < 1e-12

    def test_norms_match_outer_vector_norms(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        stacked = np.hstack([_outer_vectors(b, 1) for b in bundles])
        want = np.linalg.norm(stacked, axis=1)
        assert np.abs(emb.norms - want).max() < 1e-12

    def test_bounds_and_diagonal(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        d2 = emb.distance_sq_block(ALL)
        assert np.all(np.diag(d2) == 0.0)
        assert d2.min() >= -1e-12 and d2.max() <= 2.0 + 1e-12

    def test_triangle_inequality_after_sqrt(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        dist = np.sqrt(np.maximum(emb.distance_sq_block(ALL), 0.0))
        rng = np.random.default_rng(4)
        for _ in range(100):
            i, j, l = (int(a) for a in rng.integers(0, 60, 3))
            assert dist[i, j] <= dist[i, l] + dist[l, j] + 1e-9

    def test_block_api_matches_scalar(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        block = np.array([0, 7, 31])
        dist = emb.distance_sq_block(block)
        for a, i in enumerate(block):
            for j in range(60):
                assert abs(dist[a, j]
                           - mfvdm_distance(emb, int(i), j)) < 1e-12


class TestTruncation:
    def test_error_within_tail_bound_and_exact_at_full_rank(
            self, small_instance):
        # The truncation error of the 2t-step inner product is bounded by
        # the Cauchy-Schwarz tail sqrt(sum_{l>m} w_l(i)) * sqrt(sum w_l(j))
        # with w_l = lambda_l^{4t} |u_l|^2; the bound shrinks monotonically.
        _, bundles = small_instance
        bundle = bundles[0]
        t = 2
        lam2t = bundle.eigenvalues ** (2 * t)
        contrib = (bundle.eigenvectors
                   * lam2t[None, :])  # per-mode weighted entries
        full = build_features(bundle, t)
        rng = np.random.default_rng(5)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 60, (10, 2))
                 if a != b]
        for i, j in pairs:
            z_full = np.vdot(full.phi[j], full.phi[i])
            prev_bound = np.inf
            for m in range(10, 61, 10):
                part = SpectralBundle(
                    k=1, eigenvalues=bundle.eigenvalues[:m],
                    eigenvectors=bundle.eigenvectors[:, :m],
                )
                feats = build_features(part, t)
                z_m = np.vdot(feats.phi[j], feats.phi[i])
                tail_i = np.abs(contrib[i, m:])
                tail_j = np.abs(bundle.eigenvectors[j, m:])
                bound = np.linalg.norm(tail_i) * np.linalg.norm(tail_j)
                assert abs(z_full - z_m) <= bound + 1e-12
                assert bound <= prev_bound + 1e-15
                prev_bound = bound
                if m == 60:
                    assert abs(z_full - z_m) < 1e-15


class TestNNSearch:
    def test_matches_naive_oracle(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        stacked = np.hstack([_outer_vectors(b, 1) for b in bundles])
        unit = stacked / np.linalg.norm(stacked, axis=1, keepdims=True)
        diff = unit[:, None, :] - unit[None, :, :]
        dist = np.sum(np.abs(diff) ** 2, axis=2)
        np.fill_diagonal(dist, np.inf)
        want = np.argsort(dist, axis=1, kind="stable")[:, :5]
        got = nn_search(emb, kappa=5)
        assert np.array_equal(got.indices, want)
        ref = dist[np.arange(60)[:, None], want]
        assert np.abs(got.distances_sq - ref).max() < 1e-10
        # The tolerance would pass a rounded distance out of order or
        # below zero; the search's own values may be neither.
        assert np.all(got.distances_sq >= 0.0)
        assert np.all(np.diff(got.distances_sq, axis=1) >= 0.0)

    def test_exact_ties_break_to_lower_index(self):
        phi = np.array([[1.0, 0.0],
                        [0.0, 1.0],
                        [1.0, 0.0],
                        [0.6, 0.8]], dtype=complex)
        emb = EmbeddingSet(
            features=(FrequencyFeatures(k=1, phi=phi),)
        )
        got = nn_search(emb, kappa=3)
        # Nodes 0 and 2 are identical; queries tie them exactly and the
        # stable order puts the lower index first.
        assert got.indices[3].tolist() == [1, 0, 2]
        assert got.indices[1].tolist() == [3, 0, 2]
        # The duplicate pair retrieves each other at distance zero.
        assert got.indices[0, 0] == 2
        assert got.distances_sq[0, 0] == 0.0

    def test_quantized_ties_match_stable_sort_oracle(self, monkeypatch):
        # Binary features repeat rows and distances, so exact ties sit
        # inside the top kappa and, for some kappa, straddle its boundary.
        rng = np.random.default_rng(8)
        phi = (rng.integers(0, 2, size=(40, 3))
               + 1j * rng.integers(0, 2, size=(40, 3)))
        phi[:, 0] += 1.0
        emb = EmbeddingSet(features=(FrequencyFeatures(k=1, phi=phi),))
        dist = emb.distance_sq_block(np.arange(40))
        np.fill_diagonal(dist, np.inf)
        order = np.argsort(dist, axis=1, kind="stable")
        straddled = 0
        for kappa in range(1, 40):
            kth = dist[np.arange(40), order[:, kappa - 1]]
            straddled += np.count_nonzero(
                np.count_nonzero(dist <= kth[:, None], axis=1) > kappa)
            for block_size, workers in ((512, 1), (7, 1), (7, 3), (1, 2)):
                monkeypatch.setattr(embedding, "_STRIP_ROWS", block_size)
                got = nn_search(emb, kappa, workers=workers)
                assert np.array_equal(got.indices, order[:, :kappa])
                assert np.array_equal(
                    got.distances_sq,
                    np.take_along_axis(dist, order[:, :kappa], axis=1))
        assert straddled > 100

    def test_worker_count_bitwise_invariant(self, small_instance,
                                            monkeypatch):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        monkeypatch.setattr(embedding, "_STRIP_ROWS", 16)
        a = nn_search(emb, kappa=7, workers=1)
        b = nn_search(emb, kappa=7, workers=4)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.distances_sq, b.distances_sq)

    def test_block_size_invariant(self, small_instance, monkeypatch):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        monkeypatch.setattr(embedding, "_STRIP_ROWS", 11)
        a = nn_search(emb, kappa=7)
        monkeypatch.setattr(embedding, "_STRIP_ROWS", 512)
        b = nn_search(emb, kappa=7)
        assert np.array_equal(a.indices, b.indices)
        assert np.abs(a.distances_sq - b.distances_sq).max() < 1e-12

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("block_size,kappa", [
        (16, 5),   # n = 60 is not a multiple of 16; the last strip has 12
        (16, 20),  # kappa above the block size and the last strip's width
        (7, 9),    # last strip of width 4, below kappa
        (50, 30),  # last strip of width 10
    ])
    def test_strips_match_brute_force(self, small_instance, block_size,
                                      kappa, workers, monkeypatch):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        monkeypatch.setattr(embedding, "_STRIP_ROWS", block_size)
        got = nn_search(emb, kappa, workers=workers)
        order, dist = _stable_sort_oracle(emb, kappa)
        assert np.array_equal(got.indices, order)
        assert np.array_equal(got.distances_sq, dist)

    @pytest.mark.parametrize("ks,mode", [((1, 2, 3), "squared"),
                                         ((0,), "linear")])
    def test_tilings_are_bitwise_identical(self, ks, mode, monkeypatch):
        # 203 nodes, not a multiple of 4 or 8: BLAS tail kernels would show.
        emb = _random_embedding(203, ks=ks)
        assert emb.mode == mode
        order, dist = _stable_sort_oracle(emb, 11)
        for block_size, workers in ((512, 1), (7, 1), (7, 3), (1, 2)):
            monkeypatch.setattr(embedding, "_STRIP_ROWS", block_size)
            got = nn_search(emb, 11, workers=workers)
            assert np.array_equal(got.indices, order)
            assert np.array_equal(got.distances_sq, dist)

    @pytest.mark.parametrize("n", [60, 203])
    @pytest.mark.parametrize("ks,mode", [((1, 2, 3), "squared"),
                                         ((0,), "linear")])
    def test_full_distance_block_is_exactly_symmetric(self, n, ks, mode):
        emb = _random_embedding(n, ks=ks, seed=n)
        assert emb.mode == mode
        d2 = emb.distance_sq_block(np.arange(n))
        assert np.array_equal(d2, d2.T)
        assert np.all(np.diag(d2) == 0.0)
        assert d2.min() >= 0.0
        # Any block of rows gets the same bits as the full matrix.
        rows = np.array([5, 0, n - 1, 5, 33])
        assert np.array_equal(emb.distance_sq_block(rows), d2[rows])

    def test_merges_survive_thread_switches(self, monkeypatch):
        # Many strips, more workers than cores and a tiny switch interval,
        # so merges into the shared running lists interleave; a lost
        # update would leave some node off the oracle's list.
        emb = _random_embedding(203)
        order, dist = _stable_sort_oracle(emb, 11)
        monkeypatch.setattr(embedding, "_STRIP_ROWS", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = nn_search(emb, 11, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.indices, order)
        assert np.array_equal(got.distances_sq, dist)

    def test_chunking_does_not_change_bits(self, monkeypatch):
        emb = _random_embedding(203)
        want = emb.distance_sq_block(np.arange(203))
        # Chunks of two or three rows; none may be a single row.
        monkeypatch.setattr(embedding, "_CHUNK_COLUMNS", 1)
        assert np.array_equal(emb.distance_sq_block(np.arange(203)), want)
        monkeypatch.setattr(embedding, "_STRIP_ROWS", 7)
        got = nn_search(emb, 11, workers=2)
        order, dist = _stable_sort_oracle(emb, 11)
        assert np.array_equal(got.indices, order)
        assert np.array_equal(got.distances_sq, dist)

    def test_coincident_nodes_clamp_at_zero(self):
        # Each node has a twin at the same point (its features times a unit
        # phase), at d2 = 0 up to rounding; unclamped, rounding put four of
        # the twelve twin distances below 0.
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 6))[:, None]
        phi = np.vstack([rows, phase * rows])
        emb = EmbeddingSet(features=(FrequencyFeatures(k=1, phi=phi),))
        got = nn_search(emb, 3)
        assert np.array_equal(got.indices[:, 0], (np.arange(12) + 6) % 12)
        assert np.all(got.distances_sq >= 0.0)
        assert np.all(np.diff(got.distances_sq, axis=1) >= 0.0)
        assert np.all(got.distances_sq[:, 0] < 1e-12)

    def test_pairs_are_node_major_then_rank(self):
        neighbors = NeighborList(indices=[[2, 1], [0, 2], [1, 0]],
                                 distances_sq=np.zeros((3, 2)))
        i, j = neighbors.pairs()
        assert i.dtype == j.dtype == np.int64
        assert i.tolist() == [0, 0, 1, 1, 2, 2]
        assert j.tolist() == [2, 1, 0, 2, 1, 0]

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_peak_memory_within_strip_budget(self, workers):
        # One block per thread: each of N workers holds at most one
        # 128-row strip at a time.
        n = 1500
        rows = embedding._STRIP_ROWS
        emb = _random_embedding(n, ks=range(1, 6), m=8)
        # What nn_search holds: each worker's strip of doubles, its chunk
        # buffers (a complex product and a real accumulator, 24 bytes per
        # padded strip row and column of a 512-column chunk) and one 64-row
        # selection of int64 positions, and the n x kappa result (16 bytes
        # per entry) with one merge's candidates, five more such arrays at
        # most.  The 512 columns are stated, not read from _CHUNK_COLUMNS;
        # at kappa = 2 the result term is small, so doubled chunk buffers
        # exceed the budget on one worker and on two.
        block = (8 * rows * n + 24 * 512 * embedding._padded(rows)
                 + 8 * _SELECT_ROWS * n)
        for kappa in (2, 10):
            tracemalloc.start()
            try:
                nn_search(emb, kappa, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            result = 16 * n * kappa
            assert peak <= workers * block + 6 * result, kappa

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_strips_take_one_block_per_thread(self, workers, monkeypatch):
        # Strips of _STRIP_ROWS = 128 rows whatever the worker count, each
        # with chunks of at most 512 columns (here 500).
        emb = _random_embedding(1500)
        seen = {}
        chunks = EmbeddingSet._chunks

        def spy(self, rows, start):
            for lo, chunk in chunks(self, rows, start):
                seen[lo, start] = chunk.shape
                yield lo, chunk

        monkeypatch.setattr(EmbeddingSet, "_chunks", spy)
        nn_search(emb, 5, workers=workers)
        assert seen[0, 0] == (500, 128)
        assert max(width for _, width in seen.values()) == 128

    def test_rejects_bad_kappa(self, small_instance):
        _, bundles = small_instance
        emb = build_embedding_set(build_features(b, 1) for b in bundles)
        with pytest.raises(ParameterError):
            nn_search(emb, kappa=0)
        with pytest.raises(ParameterError):
            nn_search(emb, kappa=60)


class TestBaselines:
    def test_vdm_equals_single_frequency_pipeline(self, small_instance):
        _, bundles = small_instance
        k1 = bundles[0]
        vdm = baseline_embedding(build_features(k1, 1))
        mfvdm_k1 = build_embedding_set([build_features(k1, 1)])
        assert np.array_equal(vdm.norms, mfvdm_k1.norms)
        nn_a = nn_search(vdm, kappa=5)
        nn_b = nn_search(mfvdm_k1, kappa=5)
        assert np.array_equal(nn_a.indices, nn_b.indices)
        assert np.array_equal(nn_a.distances_sq, nn_b.distances_sq)

    def test_dm_uses_linear_inner_products(self, small_instance):
        graph, _ = small_instance
        bundle0 = top_eigenpairs(build_sk(graph, 0), m=20)
        dm = baseline_embedding(build_features(bundle0, 1))
        assert dm.mode == "linear"
        phi = dm.features[0].phi
        i, j = 3, 11
        want = float(np.real(np.vdot(phi[j], phi[i])))
        want /= float(dm.norms[i] * dm.norms[j])
        assert abs(_normalized(dm)[i, j] - want) < 1e-13
        assert dm.distance_sq_block([4])[0, 4] == 0.0
        assert abs(mfvdm_distance(dm, i, j) - 2.0 * (1.0 - want)) < 1e-13

    def test_rejects_other_frequencies(self, small_instance):
        _, bundles = small_instance
        with pytest.raises(ParameterError):
            baseline_embedding(build_features(bundles[1], 1))

    def test_linear_mode_single_block_only(self):
        # A k = 0 block beside other frequencies is summed by squared
        # modulus like them; only the lone k = 0 block is linear.
        emb = _random_embedding(20, ks=(0, 1))
        assert emb.mode == "squared"
        got = emb.distance_sq_block([3])[0, 11]
        assert abs(got - mfvdm_distance(emb, 3, 11)) < 1e-12


def test_repeated_frequency_raises():
    # Distances would sum both k = 1 blocks, while alignment keeps one z(1).
    block = _random_embedding(10, ks=(1,)).features[0]
    with pytest.raises(ParameterError):
        build_embedding_set([block, block])


def test_zero_norm_raises():
    phi = np.zeros((3, 2), dtype=complex)
    phi[0, 0] = 1.0
    phi[1, 0] = 1.0
    with pytest.raises(DegenerateEmbeddingError):
        EmbeddingSet(features=(FrequencyFeatures(k=1, phi=phi),))


def test_gauge_invariance_of_affinities(small_instance):
    # Per-eigenvector phases cancel in |<phi(i), phi(j)>|^2.
    _, bundles = small_instance
    bundle = bundles[0]
    rng = np.random.default_rng(6)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=bundle.m))
    rotated = SpectralBundle(k=bundle.k, eigenvalues=bundle.eigenvalues,
                             eigenvectors=bundle.eigenvectors
                             * phases[None, :])
    a = _normalized(build_embedding_set([build_features(bundle, 1)]))
    b = _normalized(build_embedding_set([build_features(rotated, 1)]))
    assert np.abs(a - b).max() < 1e-10


def test_cluster_rotation_invariance_exact_degeneracy():
    # Complete graph at zero angles: S_0 spectrum is {1} + {-1/(n-1)} with
    # an exactly degenerate trailing cluster; mixing that cluster by any
    # unitary leaves affinities invariant.
    n = 8
    rows, cols = np.triu_indices(n, k=1)
    from mfvdm.graph import AlignmentGraph
    graph = AlignmentGraph.from_edges(
        n=n, rows=rows, cols=cols,
        weights=np.ones(rows.size), angles=np.zeros(rows.size),
    )
    sk = build_sk(graph, 0)
    bundle = top_eigenpairs(sk, m=n)
    assert np.abs(bundle.eigenvalues[1:] - (-1.0 / (n - 1))).max() < 1e-12
    rng = np.random.default_rng(7)
    raw = rng.normal(size=(n - 1, n - 1)) \
        + 1j * rng.normal(size=(n - 1, n - 1))
    q, _ = np.linalg.qr(raw)
    mixed_vecs = bundle.eigenvectors.copy()
    mixed_vecs[:, 1:] = mixed_vecs[:, 1:] @ q
    mixed = SpectralBundle(k=0, eigenvalues=bundle.eigenvalues,
                           eigenvectors=mixed_vecs)
    a = _normalized(build_embedding_set([build_features(bundle, 2)]))
    b = _normalized(build_embedding_set([build_features(mixed, 2)]))
    assert np.abs(a - b).max() < 1e-8
