"""Frequency matrices S_k, their CSR matvec, and the W_k they normalize."""

import sys

import numpy as np
import pytest

from mfvdm.connection import SparseHermitian, build_sk, csr_layout, degrees
from mfvdm.errors import ParameterError, ZeroDegreeError
from mfvdm.graph import AlignmentGraph, build_clean_knn_graph, rewire_graph
from mfvdm.parallel import map_workers
from mfvdm.sampling import make_truth
from oracles import build_wk, sk_coo_csr


def _triangle():
    return AlignmentGraph.from_edges(
        n=3,
        rows=np.array([0, 0, 1]),
        cols=np.array([1, 2, 2]),
        weights=np.array([1.0, 2.0, 3.0]),
        angles=np.array([0.3, 1.1, 2.5]),
    )


@pytest.fixture(scope="module")
def random_graph():
    truth = make_truth("sphere", 80, seed=21)
    return build_clean_knn_graph(truth, kappa_build=6)


def _unscaled(graph, k):
    """D^{1/2} S_k D^{1/2} of the library's S_k, which is W_k again."""
    root = np.sqrt(degrees(graph))
    return build_sk(graph, k).to_dense() * root[:, None] * root[None, :]


class TestWk:
    def test_zero_frequency_is_weight_matrix(self):
        graph = _triangle()
        w0 = build_wk(graph, 0)
        assert np.array_equal(w0[graph.rows, graph.cols], graph.weights)
        assert w0.imag.max() == 0.0
        s0 = build_sk(graph, 0).to_dense()
        assert s0.imag.max() == 0.0 and s0.imag.min() == 0.0
        assert np.abs(_unscaled(graph, 0) - w0).max() < 1e-14

    def test_single_edge_quarter_turn_at_k2(self):
        # alpha = pi/2, k = 2: exp(i*k*alpha) = exp(i*pi) = -1.  Both
        # degrees are 1, so S_k = W_k.
        graph = AlignmentGraph.from_edges(
            n=2, rows=np.array([0]), cols=np.array([1]),
            weights=np.array([1.0]), angles=np.array([np.pi / 2]),
        )
        assert abs(build_sk(graph, 2).to_dense()[0, 1] - (-1.0)) < 1e-15
        assert abs(build_wk(graph, 2)[0, 1] - (-1.0)) < 1e-15

    def test_dense_form_is_exactly_hermitian(self, random_graph):
        for k in (0, 1, 3):
            dense = build_sk(random_graph, k).to_dense()
            assert np.array_equal(dense, dense.conj().T)
            dense = build_wk(random_graph, k)
            assert np.array_equal(dense, dense.conj().T)

    def test_matvec_matches_dense(self, random_graph):
        sk = build_sk(random_graph, 2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=80) + 1j * rng.normal(size=80)
        assert np.abs(sk.matvec(x) - sk.to_dense() @ x).max() < 1e-12
        inv_sqrt = 1.0 / np.sqrt(degrees(random_graph))
        dense = build_wk(random_graph, 2) * np.outer(inv_sqrt, inv_sqrt)
        assert np.abs(sk.matvec(x) - dense @ x).max() < 1e-12

    def test_sparsity_pattern_frequency_independent(self, random_graph):
        s1 = build_sk(random_graph, 1).csr
        s7 = build_sk(random_graph, 7).csr
        assert np.array_equal(s1.indptr, s7.indptr)
        assert np.array_equal(s1.indices, s7.indices)
        assert s7.nnz == 2 * random_graph.rows.size
        assert np.all(np.abs(s7.data) > 0)

    def test_entry_modulus_is_weight(self, random_graph):
        rows, cols = random_graph.rows, random_graph.cols
        for k in (1, 4):
            w = _unscaled(random_graph, k)[rows, cols]
            assert np.abs(np.abs(w) - random_graph.weights).max() < 1e-13

    def test_rejects_negative_frequency(self, random_graph):
        with pytest.raises(ParameterError):
            build_sk(random_graph, -1)


class TestDegrees:
    def test_triangle_example(self):
        deg = degrees(_triangle())
        assert np.abs(deg - np.array([3.0, 4.0, 5.0])).max() < 1e-15

    def test_zero_degree_detected(self):
        # Bypass from_edges validation to expose the arithmetic check.
        graph = AlignmentGraph(n=3, rows=np.array([0]), cols=np.array([1]),
                               weights=np.array([1.0]),
                               angles=np.array([0.1]))
        with pytest.raises(ZeroDegreeError, match="2"):
            degrees(graph)


class TestSk:
    def test_two_node_closed_form(self):
        graph = AlignmentGraph.from_edges(
            n=2, rows=np.array([0]), cols=np.array([1]),
            weights=np.array([2.5]), angles=np.array([0.7]),
        )
        sk = build_sk(graph, 1)
        # deg = (2.5, 2.5) so the normalized entry has unit modulus and the
        # dense spectrum is {+1, -1}.
        assert abs(abs(sk.to_dense()[0, 1]) - 1.0) < 1e-14
        eigs = np.linalg.eigvalsh(sk.to_dense())
        assert np.abs(np.sort(eigs) - np.array([-1.0, 1.0])).max() < 1e-14

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_spectrum_inside_unit_interval(self, random_graph, k):
        eigs = np.linalg.eigvalsh(build_sk(random_graph, k).to_dense())
        assert eigs.min() >= -1.0 - 1e-10
        assert eigs.max() <= 1.0 + 1e-10

    def test_quadratic_form_bounds(self, random_graph):
        sk = build_sk(random_graph, 3)
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(size=80) + 1j * rng.normal(size=80)
            z /= np.linalg.norm(z)
            quad = np.real(np.vdot(z, sk.matvec(z)))
            assert -1.0 - 1e-10 <= quad <= 1.0 + 1e-10

    def test_similarity_to_random_walk_normalization(self, random_graph):
        # D^{-1} W_k = D^{-1/2} S_k D^{1/2} entrywise.
        k = 2
        wk_dense = build_wk(random_graph, k)
        sk_dense = build_sk(random_graph, k).to_dense()
        deg = degrees(random_graph)
        lhs = wk_dense / deg[:, None]
        rhs = (sk_dense / np.sqrt(deg)[:, None]) * np.sqrt(deg)[None, :]
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_precomputed_degrees_equivalent(self, random_graph):
        deg = degrees(random_graph)
        a = build_sk(random_graph, 2)
        b = build_sk(random_graph, 2, deg=deg)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_builds_one_matrix_per_call(self, random_graph, monkeypatch):
        built = []
        init = SparseHermitian.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs["k"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(SparseHermitian, "__init__", counted)
        sk = build_sk(random_graph, 3, degrees(random_graph))
        assert built == [3]
        # Each stored entry is w_ij e^{ik alpha_ij} / sqrt(deg_i deg_j),
        # scaled in that order.
        scale = 1.0 / np.sqrt(degrees(random_graph))
        expected = build_wk(random_graph, 3) * scale[:, None] * scale[None, :]
        upper = np.triu(np.ones((80, 80), dtype=bool), 1)
        assert np.array_equal(sk.to_dense()[upper], expected[upper])

    def test_k_zero_top_eigenvector_is_sqrt_degree(self, random_graph):
        sk = build_sk(random_graph, 0)
        eigs, vecs = np.linalg.eigh(sk.to_dense())
        assert abs(eigs[-1] - 1.0) < 1e-12
        lead = vecs[:, -1]
        target = np.sqrt(degrees(random_graph))
        target /= np.linalg.norm(target)
        # Up to global sign.
        assert min(np.abs(lead - target).max(),
                   np.abs(lead + target).max()) < 1e-10


def _random_graph(rng, n, edges):
    """A graph of ``edges`` distinct random edges on n nodes, a path through
    every node among them so that no degree is zero, and its dense S_1
    oracle."""
    pairs = {(i, i + 1) for i in range(n - 1)}
    while len(pairs) < edges:
        i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
        pairs.add((i, j))
    rows, cols = np.array(sorted(pairs)).T
    graph = AlignmentGraph.from_edges(
        n=n, rows=rows, cols=cols, weights=rng.uniform(0.5, 2.0, edges),
        angles=rng.uniform(0.0, 2.0 * np.pi, edges))
    inv_sqrt = 1.0 / np.sqrt(degrees(graph))
    dense = build_wk(graph, 1) * np.outer(inv_sqrt, inv_sqrt)
    return build_sk(graph, 1), dense


@pytest.mark.parametrize("n,nnz", [(2, 1), (17, 40), (120, 800)])
def test_matvec_matches_dense_oracle(n, nnz):
    rng = np.random.default_rng(42)
    matrix, dense = _random_graph(rng, n, nnz)
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    expected = dense @ x
    got = matrix.matvec(x)
    assert np.abs(got - expected).max() < 1e-12 * max(
        1.0, np.abs(expected).max()
    )


def test_noncontiguous_inputs_are_accepted():
    rng = np.random.default_rng(11)
    matrix, dense = _random_graph(rng, 50, 200)
    x2 = rng.normal(size=(50, 2)) + 1j * rng.normal(size=(50, 2))
    assert not x2[:, 0].flags.c_contiguous
    got = matrix.matvec(x2[:, 0])
    want = dense @ x2[:, 0].copy()
    assert np.abs(got - want).max() < 1e-12 * np.abs(want).max()


class TestCsrLayout:
    @pytest.fixture(scope="class")
    def rewired(self):
        graph = build_clean_knn_graph(make_truth("torus", 300, seed=4),
                                      kappa_build=6)
        return rewire_graph(graph, 0.3, seed=4)

    @pytest.mark.parametrize("shared", [False, True])
    def test_bits_match_coo_round_trip(self, rewired, shared):
        layout = csr_layout(rewired) if shared else None
        for k in (0, 3):
            got = build_sk(rewired, k, layout=layout).csr
            want = sk_coo_csr(rewired, k)
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype, name
                assert a.tobytes() == b.tobytes(), name

    def test_frequencies_share_read_only_structure(self, rewired):
        # More workers than cores and a tiny switch interval, so the
        # frequencies' builds and matvecs interleave on the one structure;
        # a scipy call that sorted it in place would fail on the read-only
        # arrays or change another frequency's bits.
        layout = csr_layout(rewired)
        assert all(not array.flags.writeable for array in layout)
        deg = degrees(rewired)
        x = np.ones(rewired.n, dtype=np.complex128)

        def build(k):
            matrix = build_sk(rewired, k, deg, layout)
            matrix.matvec(x)
            return matrix.csr

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            built = map_workers(build, range(12), 8)
        finally:
            sys.setswitchinterval(interval)
        for k, csr in enumerate(built):
            assert np.shares_memory(csr.indices, layout.indices)
            assert np.shares_memory(csr.indptr, layout.indptr)
            assert csr.data.tobytes() == sk_coo_csr(rewired, k).data.tobytes()
