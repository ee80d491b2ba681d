"""Graph construction and random rewiring."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfvdm import embedding
from mfvdm import graph as mgraph
from mfvdm import sampling
from mfvdm.angles import TWO_PI, wrap_pi
from mfvdm.embedding import EmbeddingSet, FrequencyFeatures, nn_search
from mfvdm.errors import BadEdgeError, ParameterError
from mfvdm.graph import (AlignmentGraph, RewireDiagnostics,
                         build_clean_knn_graph, rewire_graph)
from mfvdm.io import graph_hash
from mfvdm.rng import substream
from mfvdm.sampling import TorusTruth, make_truth
from oracles import inplane_angle, rewire_rounds


@pytest.fixture(scope="module")
def small_truth():
    return make_truth("sphere", 40, seed=11)


@pytest.fixture(scope="module")
def small_graph(small_truth):
    return build_clean_knn_graph(small_truth, kappa_build=3)


def _assert_round_trip(graph):
    """``from_edges`` accepts the graph's own arrays and returns them
    unchanged: the edges keep every rule and are already in order."""
    again = AlignmentGraph.from_edges(graph.n, graph.rows, graph.cols,
                                      graph.weights, graph.angles)
    for field in ("rows", "cols", "weights", "angles"):
        assert np.array_equal(getattr(again, field), getattr(graph, field))


class TestBuild:
    def test_edges_match_knn_union_oracle(self, small_truth, small_graph):
        n = small_truth.n
        dist = small_truth.geodesic_block(np.arange(n))
        np.fill_diagonal(dist, np.inf)
        knn = np.argsort(dist, axis=1)[:, :3]
        expected = set()
        for i in range(n):
            for j in knn[i]:
                expected.add((min(i, int(j)), max(i, int(j))))
        got = set(zip(small_graph.rows.tolist(), small_graph.cols.tolist()))
        assert got == expected
        _assert_round_trip(small_graph)

    def test_angles_match_scalar_oracle(self, small_truth, small_graph):
        for e in range(small_graph.edge_count):
            i = int(small_graph.rows[e])
            j = int(small_graph.cols[e])
            want = inplane_angle(small_truth.rotations[i],
                                 small_truth.rotations[j])
            assert abs(wrap_pi(small_graph.angles[e] - want)) < 1e-10

    def test_unit_weights(self, small_graph):
        assert np.array_equal(small_graph.weights,
                              np.ones(small_graph.edge_count))

    @pytest.mark.parametrize("kappa", [3, 5, 7])
    def test_exact_ties_break_to_the_lower_node_index(self, kappa):
        """A 12 x 12 grid on the torus ties many distances exactly; each
        node's neighbors are the prefix of a stable sort of its row."""
        grid = np.arange(12) * TWO_PI / 12
        u, v = np.meshgrid(grid, grid, indexing="ij")
        truth = TorusTruth(u=u.ravel(), v=v.ravel(),
                           frame_angles=np.zeros(144), radius_major=1.0,
                           radius_minor=0.5)
        dist = truth.geodesic_block(np.arange(144))
        np.fill_diagonal(dist, np.inf)
        knn = np.argsort(dist, axis=1, kind="stable")[:, :kappa].ravel()
        sources = np.repeat(np.arange(144), kappa)
        expected = set(zip(np.minimum(sources, knn).tolist(),
                           np.maximum(sources, knn).tolist()))
        graph = build_clean_knn_graph(truth, kappa_build=kappa)
        assert set(zip(graph.rows.tolist(), graph.cols.tolist())) == expected

    @pytest.mark.parametrize("case", ["sphere", "torus", "nn_search"])
    def test_selection_sub_block_does_not_change_result(self, case,
                                                        monkeypatch):
        """``smallest`` selects ``_SELECT_ROWS`` rows at a time, for the
        k-NN build and for the NN search alike."""
        if case == "nn_search":
            # Binary features: exact ties at the kappa-th distance.
            rng = np.random.default_rng(8)
            emb = EmbeddingSet(features=tuple(
                FrequencyFeatures(k=k, phi=1.0 + rng.integers(0, 2, (120, 3))
                                  + 1j * rng.integers(0, 2, (120, 3)))
                for k in (1, 2)))
            monkeypatch.setattr(embedding, "_STRIP_ROWS", 32)

            def result():
                got = nn_search(emb, kappa=12)
                return got.indices.tobytes() + got.distances_sq.tobytes()
        else:
            truth = make_truth(case, 700, seed=3)

            def result():
                return graph_hash(build_clean_knn_graph(truth,
                                                        kappa_build=12))
        want = result()
        for rows in (1, 7, 100, 512, 1000):
            monkeypatch.setattr(mgraph, "_SELECT_ROWS", rows)
            assert result() == want, rows

    @pytest.mark.parametrize("manifold,blocks,select_rows", [
        pytest.param("sphere", 1, None, id="sphere-1"),
        pytest.param("torus", 2, None, id="torus-2"),
        pytest.param("sphere", 1, 32, id="sphere-1-select32"),
        pytest.param("torus", 2, 32, id="torus-2-select32"),
    ])
    def test_peak_memory_within_one_distance_block(self, manifold, blocks,
                                                   select_rows, monkeypatch):
        """The build holds one 512 x n distance block (two on the torus,
        one per coordinate), one sub-block's int64 selection and the
        n x kappa result, plus 256 KiB.  Half the selection rows halve
        that term of the budget, so no other (b, n) temporary fits."""
        if select_rows is not None:
            monkeypatch.setattr(mgraph, "_SELECT_ROWS", select_rows)
        n, kappa = 3000, 10
        truth = make_truth(manifold, n, seed=1)
        tracemalloc.start()
        try:
            build_clean_knn_graph(truth, kappa_build=kappa)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        budget = 8 * n * (blocks * 512 + mgraph._SELECT_ROWS + kappa)
        assert peak <= budget + 2 ** 18

    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    def test_angles_are_gathered_a_block_at_a_time(self, manifold,
                                                   monkeypatch):
        """The true angles of the edges come ``_TRUTH_PAIRS`` pairs at a
        time, and the block size does not change the graph."""
        truth = make_truth(manifold, 300, seed=2)
        want = build_clean_knn_graph(truth, kappa_build=8)
        sizes = []
        real = type(truth).pair_angles

        def pair_angles(self, ii, jj):
            sizes.append(ii.size)
            return real(self, ii, jj)

        monkeypatch.setattr(type(truth), "pair_angles", pair_angles)
        monkeypatch.setattr(sampling, "_TRUTH_PAIRS", 97)
        got = build_clean_knn_graph(truth, kappa_build=8)
        assert max(sizes) == 97 and sum(sizes) == want.edge_count
        for name in ("rows", "cols", "weights", "angles"):
            assert getattr(got, name).tobytes() == getattr(
                want, name).tobytes(), name

    def test_min_degree_at_least_kappa(self, small_graph):
        assert small_graph.degree_counts().min() >= 3

    def test_rejects_bad_kappa(self, small_truth):
        with pytest.raises(ParameterError):
            build_clean_knn_graph(small_truth, kappa_build=0)
        with pytest.raises(ParameterError):
            build_clean_knn_graph(small_truth, kappa_build=40)


def _unique_oracle(indices):
    """``np.unique`` of the canonical keys of a neighbor list's pairs."""
    n = indices.shape[0]
    i = np.repeat(np.arange(n), indices.shape[1])
    j = indices.ravel()
    return np.unique(np.minimum(i, j) * n + np.maximum(i, j),
                     return_inverse=True)


class TestUnorderedPairs:
    def test_mutual_and_one_way_pairs(self):
        # {0, 1}, {1, 2} and {2, 3} are listed from both ends, {0, 2} only
        # by 0 and {0, 3} only by 3.
        indices = np.array([[1, 2], [0, 2], [3, 1], [2, 0]], dtype=np.int64)
        keys, inverse = mgraph.unordered_pairs(indices)
        assert keys.dtype == inverse.dtype == np.int64
        assert keys.tolist() == [1, 2, 3, 6, 11]
        assert inverse.tolist() == [0, 1, 0, 3, 4, 3, 4, 2]
        want_keys, want_inverse = _unique_oracle(indices)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(inverse, want_inverse)

    @settings(deadline=None, max_examples=50)
    @given(n=st.integers(2, 40), kappa=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_random_lists_match_unique_oracle(self, n, kappa, seed):
        # Any j != i, repeats within a row included.
        rng = np.random.default_rng(seed)
        nodes = np.arange(n)[:, None]
        indices = (nodes + rng.integers(1, n, size=(n, kappa))) % n
        keys, inverse = mgraph.unordered_pairs(indices)
        want_keys, want_inverse = _unique_oracle(indices)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(inverse, want_inverse)

    @settings(deadline=None, max_examples=20)
    @given(manifold=st.sampled_from(["sphere", "torus"]),
           n=st.integers(3, 120), kappa=st.integers(1, 10),
           seed=st.integers(0, 1000))
    def test_build_edges_match_unique_oracle(self, manifold, n, kappa, seed):
        # Below 512 nodes the build's one distance block is this one, and
        # its selection is a stable sort's prefix.
        kappa = min(kappa, n - 1)
        truth = make_truth(manifold, n, seed=seed)
        dist = truth.geodesic_block(np.arange(n))
        np.fill_diagonal(dist, np.inf)
        knn = np.argsort(dist, axis=1, kind="stable")[:, :kappa]
        rows, cols = np.divmod(_unique_oracle(knn)[0], n)
        graph = build_clean_knn_graph(truth, kappa_build=kappa)
        assert np.array_equal(graph.rows, rows)
        assert np.array_equal(graph.cols, cols)
        _assert_round_trip(graph)


class TestCanonicalization:
    def test_from_edges_names_the_bad_edge_by_input_index(self):
        edges = dict(n=4, rows=np.array([2, 0, 3, 3]),
                     cols=np.array([1, 1, 2, 3]),
                     weights=np.ones(4), angles=np.full(4, 0.5))
        # As given, (2, 1) already breaks the file rule i < j.
        with pytest.raises(BadEdgeError, match="i < j") as info:
            AlignmentGraph.from_edges(**edges)
        assert info.value.index == 0
        edges.update(rows=np.array([1, 0, 2, 3]), cols=np.array([2, 1, 3, 3]))
        with pytest.raises(BadEdgeError, match="self-loop 3") as info:
            AlignmentGraph.from_edges(**edges)
        assert info.value.index == 3

    @pytest.mark.parametrize("rows,cols,weights,angles,what", [
        ([0, 0], [1, 1], [1.0, 1.0], [0.1, 0.2], "duplicate edge"),
        ([1], [1], [1.0], [0.1], "self loop"),
        ([1], [0], [1.0], [0.1], "reversed orientation"),
        ([0], [1], [0.0], [0.1], "zero weight"),
        ([0], [1], [-1.0], [0.1], "negative weight"),
        ([0], [1], [1.0], [-0.1], "angle below range"),
        ([0], [1], [1.0], [TWO_PI], "angle at upper bound"),
        ([0], [1], [1.0], [0.1], "isolated node"),
        ([0], [3], [1.0], [0.1], "endpoint out of range"),
        ([0, 1], [1, 2], [1.0, np.nan], [0.1, 0.2], "nan weight"),
        ([0, 1], [1, 2], [np.inf, 1.0], [0.1, 0.2], "infinite weight"),
        ([0, 1], [1, 2], [1.0], [0.1, 0.2], "unequal lengths"),
    ])
    def test_validate_rejects(self, rows, cols, weights, angles, what):
        """The rules ``from_edges`` validates on every graph the package
        builds or reads: an edge's as BadEdgeError, a node's as
        ParameterError."""
        with pytest.raises(ParameterError) as info:
            AlignmentGraph.from_edges(3, np.array(rows), np.array(cols),
                                      np.array(weights), np.array(angles))
        assert isinstance(info.value, BadEdgeError) \
            == (what not in ("isolated node", "unequal lengths"))


class TestPinnedDigests:
    """Content hashes of built and rewired graphs: a change to
    ``AlignmentGraph.from_edges`` that reorders or reorients edges changes
    them, and so does a change to the rewiring's draw order.  The clean
    digests predate both builders going through ``from_edges``; the rewired
    ones were recorded when rewiring began drawing partners in rounds."""

    @pytest.mark.parametrize("manifold,clean_digest,rewired_digest", [
        ("sphere",
         "5636f0b8c1ea46dad10a762ec8e5a528da7feaf134566411c77cdef8851e0459",
         "6a41187e8648cba6c77f96f5db9e0e8ea367e73c24a8f9e7ddd03ddf0506b1ed"),
        ("torus",
         "7cbd4b733dc15e8f384485069c0ccd7bad53882d0f0ba3f87a7d0cdb4ac14609",
         "d8347080e0e19f2d4e420dc5c2c9a3ecf6858416adde9425232df2c40eaf8490"),
    ])
    def test_build_and_rewire_digests(self, manifold, clean_digest,
                                      rewired_digest):
        clean = build_clean_knn_graph(make_truth(manifold, 300, seed=11),
                                      kappa_build=12)
        assert graph_hash(clean) == clean_digest
        assert graph_hash(rewire_graph(clean, p=0.4, seed=11)) \
            == rewired_digest


class TestRewire:
    def test_p_one_is_identity(self, small_graph):
        rewired = rewire_graph(small_graph, p=1.0, seed=0)
        assert np.array_equal(rewired.rows, small_graph.rows)
        assert np.array_equal(rewired.cols, small_graph.cols)
        assert np.array_equal(rewired.weights, small_graph.weights)
        assert np.array_equal(rewired.angles, small_graph.angles)

    def test_p_zero_replaces_everything(self, small_graph):
        rewired, diag = rewire_graph(small_graph, p=0.0, seed=1,
                                     return_diagnostics=True)
        assert diag.kept == 0
        assert diag.replaced + diag.skipped_no_candidate \
            == small_graph.edge_count
        assert rewired.edge_count \
            == diag.replaced + diag.forced_links
        _assert_round_trip(rewired)

    def test_diagnostics_account_for_every_edge(self, small_graph):
        rewired, diag = rewire_graph(small_graph, p=0.35, seed=2,
                                     return_diagnostics=True)
        assert diag.kept + diag.replaced + diag.skipped_no_candidate \
            == small_graph.edge_count
        assert rewired.edge_count \
            == diag.kept + diag.replaced + diag.forced_links

    def test_kept_edges_retain_attributes(self, small_graph):
        rewired = rewire_graph(small_graph, p=0.6, seed=3)
        original = {
            (r, c): (w, a)
            for r, c, w, a in zip(small_graph.rows.tolist(),
                                  small_graph.cols.tolist(),
                                  small_graph.weights.tolist(),
                                  small_graph.angles.tolist())
        }
        shared = 0
        for r, c, w, a in zip(rewired.rows.tolist(), rewired.cols.tolist(),
                              rewired.weights.tolist(),
                              rewired.angles.tolist()):
            if (r, c) in original and original[(r, c)] == (w, a):
                shared += 1
        # All kept edges appear unchanged; replacements may coincide in
        # support but draw fresh uniform angles.
        _, diag = rewire_graph(small_graph, p=0.6, seed=3,
                               return_diagnostics=True)
        assert shared >= diag.kept

    def test_surviving_fraction_within_three_sigma(self):
        truth = make_truth("torus", 5000, seed=0)
        graph = build_clean_knn_graph(truth, kappa_build=5)
        _, diag = rewire_graph(graph, p=0.5, seed=4,
                               return_diagnostics=True)
        e = graph.edge_count
        assert abs(diag.kept - 0.5 * e) < 3.0 * np.sqrt(e * 0.25)

    def test_deterministic_given_seed(self, small_graph):
        a = rewire_graph(small_graph, p=0.3, seed=5)
        b = rewire_graph(small_graph, p=0.3, seed=5)
        c = rewire_graph(small_graph, p=0.3, seed=6)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.angles, b.angles)
        assert not (np.array_equal(a.rows, c.rows)
                    and np.allclose(a.angles, c.angles))

    def test_rejects_bad_p(self, small_graph):
        with pytest.raises(ParameterError):
            rewire_graph(small_graph, p=-0.1, seed=0)
        with pytest.raises(ParameterError):
            rewire_graph(small_graph, p=1.1, seed=0)

    @settings(deadline=None, max_examples=25)
    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    def test_output_always_valid(self, p, seed):
        truth = make_truth("torus", 8, seed=1)
        graph = build_clean_knn_graph(truth, kappa_build=2)
        rewired = rewire_graph(graph, p=p, seed=seed)
        _assert_round_trip(rewired)
        assert rewired.degree_counts().min() >= 1

    @staticmethod
    def _distinct_weights(graph):
        """``graph`` with weights 2, 3, ...: each names its edge, and none
        is a forced link's weight 1."""
        return AlignmentGraph(n=graph.n, rows=graph.rows, cols=graph.cols,
                              weights=2.0 + np.arange(graph.edge_count),
                              angles=graph.angles)

    @staticmethod
    def _assert_matches_oracle(graph, p, seed):
        rewired, diag = rewire_graph(graph, p=p, seed=seed,
                                     return_diagnostics=True)
        *edges, counts = rewire_rounds(graph, p, seed)
        for got, want in zip((rewired.rows, rewired.cols, rewired.weights,
                              rewired.angles), edges):
            assert got.tobytes() == want.tobytes()
        assert dataclasses.astuple(diag) == counts
        return diag

    # A skipped edge's node is linked to every node, so no node is left
    # isolated: one pass never both skips an edge and forces a link.
    @pytest.mark.parametrize("rows,cols,want", [
        # K4 relinked from nothing: node 0's third edge finds it linked to
        # all three other nodes.
        ([0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3],
         RewireDiagnostics(kept=0, replaced=5, skipped_no_candidate=1,
                           forced_links=0)),
        # A perfect matching on 6 nodes: three relinked edges touch four
        # nodes and leave two isolated.
        ([0, 2, 4], [1, 3, 5],
         RewireDiagnostics(kept=0, replaced=3, skipped_no_candidate=0,
                           forced_links=2)),
    ])
    def test_tiny_dense_graph_diagnostics(self, rows, cols, want):
        n = max(cols) + 1
        graph = self._distinct_weights(AlignmentGraph(
            n=n, rows=np.array(rows), cols=np.array(cols),
            weights=np.ones(len(rows)), angles=np.zeros(len(rows))))
        assert self._assert_matches_oracle(graph, 0.0, 0) == want

    @settings(deadline=None, max_examples=25)
    @given(p=st.floats(0.0, 1.0), seed=st.integers(0, 1000))
    def test_kept_and_added_edges(self, small_graph, p, seed):
        """Kept edges equal the ``keep`` draw's subset byte for byte, and
        every added edge starts at its removed edge's row and carries its
        weight; the whole graph matches the one-draw-at-a-time oracle."""
        graph = self._distinct_weights(small_graph)
        diag = self._assert_matches_oracle(graph, p, seed)
        rewired = rewire_graph(graph, p=p, seed=seed)
        keep = substream(seed, "rewire").random(graph.edge_count) < p
        kept = np.isin(rewired.weights, graph.weights[keep])
        for got, want in zip((rewired.rows, rewired.cols, rewired.weights,
                              rewired.angles),
                             (graph.rows, graph.cols, graph.weights,
                              graph.angles)):
            assert got[kept].tobytes() == want[keep].tobytes()
        added = np.flatnonzero(~kept & (rewired.weights != 1.0))
        assert added.size == diag.replaced
        assert np.count_nonzero(rewired.weights == 1.0) == diag.forced_links
        removed = np.searchsorted(graph.weights, rewired.weights[added])
        assert not np.any(keep[removed])
        assert np.array_equal(graph.weights[removed], rewired.weights[added])
        source = graph.rows[removed]
        assert np.all((rewired.rows[added] == source)
                      | (rewired.cols[added] == source))

    def test_peak_memory_is_a_few_words_per_edge(self):
        """Besides the scratch of ``AlignmentGraph.from_edges``, which
        builds the result, rewiring holds the kept and added edge columns,
        the sorted edge keys and one round's draws: at most twelve 8-byte
        words per edge.  One Python set per node takes about 30."""
        graph = build_clean_knn_graph(make_truth("sphere", 2100, seed=0),
                                      kappa_build=60)

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        build = peak(lambda: AlignmentGraph.from_edges(
            graph.n, graph.rows, graph.cols, graph.weights, graph.angles))
        rewire = peak(lambda: rewire_graph(graph, p=0.4, seed=0))
        assert rewire <= build + 12 * 8 * graph.edge_count
