"""Frequency matrices W_k and their normalized form S_k."""

import numpy as np
import pytest

from mfvdm import connection
from mfvdm.connection import build_sk, build_wk, degrees
from mfvdm.errors import ParameterError, ZeroDegreeError
from mfvdm.graph import AlignmentGraph, build_clean_knn_graph
from mfvdm.sampling import make_truth


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


class TestWk:
    def test_zero_frequency_is_weight_matrix(self):
        graph = _triangle()
        wk = build_wk(graph, 0)
        assert np.array_equal(wk.values, graph.weights.astype(complex))
        assert wk.values.imag.max() == 0.0

    def test_single_edge_quarter_turn_at_k2(self):
        # alpha = pi/2, k = 2: exp(i*k*alpha) = exp(i*pi) = -1.
        graph = AlignmentGraph.from_edges(
            n=2, rows=np.array([0]), cols=np.array([1]),
            weights=np.array([1.0]), angles=np.array([np.pi / 2]),
        )
        wk = build_wk(graph, 2)
        assert abs(wk.values[0] - (-1.0)) < 1e-15

    def test_dense_form_is_exactly_hermitian(self, random_graph):
        for k in (0, 1, 3):
            dense = build_wk(random_graph, k).to_dense()
            assert np.array_equal(dense, dense.conj().T)

    def test_matvec_matches_dense(self, random_graph):
        wk = build_wk(random_graph, 2)
        dense = wk.to_dense()
        rng = np.random.default_rng(0)
        x = rng.normal(size=80) + 1j * rng.normal(size=80)
        assert np.abs(wk.matvec(x) - dense @ x).max() < 1e-12

    def test_sparsity_pattern_frequency_independent(self, random_graph):
        w1 = build_wk(random_graph, 1)
        w7 = build_wk(random_graph, 7)
        assert np.array_equal(w1.rows, w7.rows)
        assert np.array_equal(w1.cols, w7.cols)
        assert np.all(np.abs(w7.values) > 0)

    def test_entry_modulus_is_weight(self, random_graph):
        for k in (1, 4):
            wk = build_wk(random_graph, k)
            assert np.abs(np.abs(wk.values)
                          - random_graph.weights).max() < 1e-13

    def test_rejects_negative_frequency(self, random_graph):
        with pytest.raises(ParameterError):
            build_wk(random_graph, -1)


class TestDegrees:
    def test_triangle_example(self):
        deg = degrees(_triangle()).deg
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
        assert abs(abs(sk.values[0]) - 1.0) < 1e-14
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
        wk_dense = build_wk(random_graph, k).to_dense()
        sk_dense = build_sk(random_graph, k).to_dense()
        deg = degrees(random_graph).deg
        lhs = wk_dense / deg[:, None]
        rhs = (sk_dense / np.sqrt(deg)[:, None]) * np.sqrt(deg)[None, :]
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_precomputed_degrees_equivalent(self, random_graph):
        deg = degrees(random_graph)
        a = build_sk(random_graph, 2)
        b = build_sk(random_graph, 2, degree_vector=deg)
        assert np.array_equal(a.values, b.values)

    def test_builds_one_matrix_per_call(self, random_graph, monkeypatch):
        built = []
        post_init = connection.SparseHermitian.__post_init__

        def counted(self):
            built.append(self.k)
            post_init(self)

        monkeypatch.setattr(connection.SparseHermitian, "__post_init__",
                            counted)
        sk = build_sk(random_graph, 3, degrees(random_graph))
        assert built == [3]
        wk = build_wk(random_graph, 3)
        deg = degrees(random_graph).deg
        scale = 1.0 / np.sqrt(deg)
        expected = wk.values * scale[wk.rows] * scale[wk.cols]
        assert np.array_equal(sk.values, expected)

    def test_k_zero_top_eigenvector_is_sqrt_degree(self, random_graph):
        sk = build_sk(random_graph, 0)
        eigs, vecs = np.linalg.eigh(sk.to_dense())
        assert abs(eigs[-1] - 1.0) < 1e-12
        lead = vecs[:, -1]
        target = np.sqrt(degrees(random_graph).deg)
        target /= np.linalg.norm(target)
        # Up to global sign.
        assert min(np.abs(lead - target).max(),
                   np.abs(lead + target).max()) < 1e-10
