"""Scoring reports, spectral theory values, and cluster detection."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mfvdm import sampling
from mfvdm.alignment import AlignmentTable
from mfvdm.embedding import NeighborList
from mfvdm.errors import ParameterError
from mfvdm.evaluation import (
    ALIGN_BINS,
    NN_BINS,
    detect_clusters,
    merge_reports,
    score_alignment,
    score_nn,
    spectral_report,
    theoretical_eigenvalue,
    theoretical_gap,
    theoretical_multiplicity,
)
from mfvdm.sampling import make_truth
from mfvdm.spectral import SpectralBundle
from oracles import align_mass_within


@pytest.fixture(scope="module")
def truth():
    return make_truth("sphere", 400, seed=61)


class TestScoreNN:
    def test_random_neighbors_average_ninety_degrees(self, truth):
        # Uniform random "neighbors" sit at mean geodesic pi/2 on the
        # sphere.
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 400, size=(400, 20))
        idx = np.where(idx == np.arange(400)[:, None], (idx + 1) % 400, idx)
        nn = NeighborList(indices=idx, distances_sq=np.zeros((400, 20)))
        report = score_nn(nn, truth, method="random")
        assert abs(np.degrees(report.nn_mean) - 90.0) < 5.0
        assert report.nn_counts.sum() == 400 * 20
        assert report.nn_counts.shape == (NN_BINS,)

    def test_true_neighbors_score_small(self, truth):
        # Geodesic 5-NN lists give a mean far below the random baseline.
        dist = truth.geodesic_block(np.arange(400))
        np.fill_diagonal(dist, np.inf)
        idx = np.argsort(dist, axis=1)[:, :5]
        nn = NeighborList(indices=idx, distances_sq=np.zeros((400, 5)))
        report = score_nn(nn, truth, method="oracle")
        assert report.nn_mean < 0.25
        assert report.nn_median < 0.25

    def test_rejects_size_mismatch(self, truth):
        nn = NeighborList(indices=np.array([[1], [0]]),
                          distances_sq=np.zeros((2, 1)))
        with pytest.raises(ParameterError):
            score_nn(nn, truth)

    @pytest.mark.parametrize("bad", [-1, 400])
    def test_rejects_neighbor_outside_truth(self, truth, bad):
        idx = (np.arange(400)[:, None] + np.arange(1, 4)) % 400
        idx[7, 1] = bad
        nn = NeighborList(indices=idx, distances_sq=np.zeros((400, 3)))
        with pytest.raises(ParameterError, match=r"\[0, 400\)"):
            score_nn(nn, truth)


class TestScoreAlignment:
    def test_perfect_estimates_concentrate_at_zero(self, truth):
        rng = np.random.default_rng(1)
        ii = rng.integers(0, 400, 500)
        jj = (ii + 1 + rng.integers(0, 399, 500)) % 400
        alpha = truth.pair_angles(ii, jj)
        table = AlignmentTable(i=ii, j=jj, alpha_hat=alpha,
                               objective=np.ones(500))
        report = score_alignment(table, truth)
        assert report.align_median_abs_deg < 1e-10
        assert report.align_counts.sum() == 500
        assert report.align_counts.shape == (ALIGN_BINS,)
        assert align_mass_within(report, 10.0) == 1.0

    def test_uniform_estimates_median_ninety(self, truth):
        rng = np.random.default_rng(2)
        ii = rng.integers(0, 400, 4000)
        jj = (ii + 1 + rng.integers(0, 399, 4000)) % 400
        alpha = rng.uniform(0, 2 * np.pi, 4000)
        table = AlignmentTable(i=ii, j=jj, alpha_hat=alpha,
                               objective=np.ones(4000))
        report = score_alignment(table, truth)
        assert abs(report.align_median_abs_deg - 90.0) < 5.0
        assert abs(align_mass_within(report, 10.0) - 10.0 / 180.0) < 0.02

    @pytest.mark.parametrize("column,bad", [("i", -1), ("j", 60)])
    def test_rejects_node_outside_truth(self, column, bad):
        small = make_truth("sphere", 50, seed=0)
        pairs = dict(i=np.arange(50), j=(np.arange(50) + 1) % 50)
        pairs[column][3] = bad
        table = AlignmentTable(alpha_hat=np.zeros(50),
                               objective=np.ones(50), **pairs)
        with pytest.raises(ParameterError, match=r"\[0, 50\)"):
            score_alignment(table, small)

    def test_merge_keeps_both_histograms(self, truth):
        nn = NeighborList(indices=np.array([[1], [0]]),
                          distances_sq=np.zeros((2, 1)))
        small = make_truth("sphere", 2, seed=0)
        nn_rep = score_nn(nn, small, method="m")
        table = AlignmentTable(i=np.array([0]), j=np.array([1]),
                               alpha_hat=np.array([0.3]),
                               objective=np.array([1.0]))
        al_rep = score_alignment(table, small, method="m")
        merged = merge_reports(nn_rep, al_rep)
        assert merged.nn_counts is not None
        assert merged.align_counts is not None
        with pytest.raises(ParameterError):
            merge_reports(nn_rep, score_alignment(table, small, method="x"))


class TestScoreBlocks:
    """Both scores gather the truth ``sampling._TRUTH_PAIRS`` pairs at a
    time."""

    @pytest.fixture(scope="class")
    def pairs(self):
        """sphere_warm's shape: n=2100, 50 random neighbors per node."""
        n, kappa = 2100, 50
        rng = np.random.default_rng(3)
        idx = (np.arange(n)[:, None] + rng.integers(1, n, (n, kappa))) % n
        table = AlignmentTable(
            i=np.repeat(np.arange(n), kappa), j=idx.ravel(),
            alpha_hat=rng.uniform(0.0, 2.0 * np.pi, n * kappa),
            objective=np.ones(n * kappa))
        return (make_truth("sphere", n, seed=4),
                NeighborList(indices=idx, distances_sq=np.zeros(idx.shape)),
                table)

    @staticmethod
    def _scores(pairs):
        truth, nn, table = pairs
        return (score_nn(nn, truth), score_alignment(table, truth))

    def test_block_size_does_not_change_reports(self, pairs, monkeypatch):
        def digest():
            nn_rep, al_rep = self._scores(pairs)
            return (nn_rep.nn_counts.tobytes(), nn_rep.nn_mean,
                    nn_rep.nn_median, al_rep.align_counts.tobytes(),
                    al_rep.align_median_abs_deg)
        want = digest()
        for size in (97, 1000, 10 ** 6):
            monkeypatch.setattr(sampling, "_TRUTH_PAIRS", size)
            assert digest() == want, size

    @pytest.mark.parametrize("which", [0, 1])
    def test_peak_memory_within_one_gather_block(self, pairs, which):
        """A score holds two pair-long arrays (the pair index or the true
        angles, and the result) besides ``np.histogram``'s own scratch,
        plus one block's eight (b, 3) gathers and products."""
        truth, nn, table = pairs
        size = table.i.size
        score = (lambda: score_nn(nn, truth),
                 lambda: score_alignment(table, truth))[which]

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        histogram = peak(lambda: np.histogram(
            np.linspace(0.0, 1.0, size), bins=NN_BINS, range=(0.0, 1.0)))
        budget = histogram + 2 * 8 * size + 8 * 24 * sampling._TRUTH_PAIRS
        assert peak(score) <= budget


class TestTheory:
    def test_pinned_values(self):
        # h = 0.01: k=1, l=1 -> 0.005 - 1e-4/8 = 0.0049875
        assert abs(theoretical_eigenvalue(1, 1, 0.01)
                   - 0.0049875) < 1e-12
        # k=2, l=1 -> 0.005 - 2e-4/8 = 0.004975
        assert abs(theoretical_eigenvalue(2, 1, 0.01) - 0.004975) < 1e-12

    def test_gap_formula(self):
        for k in range(1, 6):
            for h in (0.01, 0.04, 0.2):
                want = (1 + k) * h * h / 4.0
                assert abs(theoretical_gap(k, h) - want) < 1e-14

    def test_multiplicities(self):
        assert [theoretical_multiplicity(1, l) for l in (1, 2, 3)] \
            == [3, 5, 7]
        assert [theoretical_multiplicity(2, l) for l in (1, 2, 3)] \
            == [5, 7, 9]
        assert [theoretical_multiplicity(5, l) for l in (1, 2)] == [11, 13]

    def test_eigenvalues_decrease_in_l_and_k(self):
        h = 0.04
        for k in range(1, 6):
            vals = [theoretical_eigenvalue(k, l, h) for l in range(1, 5)]
            assert all(np.diff(vals) < 0)
        lead = [theoretical_eigenvalue(k, 1, h) for k in range(1, 6)]
        assert all(np.diff(lead) < 0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            theoretical_eigenvalue(0, 1, 0.01)
        with pytest.raises(ParameterError):
            theoretical_eigenvalue(1, 0, 0.01)
        with pytest.raises(ParameterError):
            theoretical_eigenvalue(1, 1, 0.0)
        with pytest.raises(ParameterError):
            theoretical_multiplicity(1, 0)


class TestDetectClusters:
    def test_well_separated_synthetic_clusters(self):
        values = np.concatenate([
            0.010 + 1e-4 * np.arange(3),
            0.050 + 1e-4 * np.arange(5),
            0.100 + 1e-4 * np.arange(7),
        ])
        assert detect_clusters(values) == (3, 5, 7)

    def test_single_cluster_when_gaps_comparable(self):
        values = np.linspace(0.0, 1.0, 20)
        assert detect_clusters(values) == (20,)

    def test_identical_values(self):
        assert detect_clusters(np.full(6, 0.3)) == (6,)
        assert detect_clusters(np.array([0.5])) == (1,)

    @given(scale=st.floats(1e-6, 1e6))
    def test_scale_invariant(self, scale):
        values = np.concatenate([
            0.010 + 1e-4 * np.arange(3),
            0.050 + 1e-4 * np.arange(5),
        ])
        assert detect_clusters(values * scale) == detect_clusters(values)

    def test_shift_changes_nothing_structural(self):
        values = np.concatenate([
            0.010 + 1e-4 * np.arange(3),
            0.050 + 1e-4 * np.arange(5),
        ])
        assert detect_clusters(values + 5.0) == (3, 5)

    def test_rejects_descending(self):
        with pytest.raises(ParameterError):
            detect_clusters(np.array([2.0, 1.0]))
        with pytest.raises(ParameterError):
            detect_clusters(np.empty(0))


class TestSpectralReport:
    def _bundle(self, k, h, noise=0.0, seed=0):
        lam = []
        for l in (1, 2, 3):
            val = theoretical_eigenvalue(k, l, h) / (0.5 * h)
            lam += [val] * theoretical_multiplicity(k, l)
        lam = np.array(lam)
        if noise:
            rng = np.random.default_rng(seed)
            lam = lam + rng.normal(0.0, noise, lam.size)
        lam = np.sort(lam)[::-1]
        vecs = np.eye(3000, lam.size, dtype=complex)
        return SpectralBundle(k=k, eigenvalues=lam, eigenvectors=vecs)

    def test_recovers_theory_shaped_spectrum(self):
        h = 0.04
        kappa = 60
        for k in (1, 2):
            report = spectral_report(self._bundle(k, h, noise=2e-4),
                                     kappa_build=kappa)
            assert report.h == h
            want = tuple(theoretical_multiplicity(k, l) for l in (1, 2, 3))
            assert report.cluster_sizes == want
            assert report.theory_multiplicities == want
            for got, theory in zip(report.cluster_means,
                                   report.theory_one_minus):
                assert abs(got - theory) < 5e-3
            assert abs(report.leading_gap
                       - report.theory_leading_gap) < 5e-3

    def test_rejects_torus_and_k_zero(self):
        zero = SpectralBundle(k=0, eigenvalues=np.array([1.0]),
                              eigenvectors=np.eye(1, dtype=complex))
        with pytest.raises(ParameterError):
            spectral_report(zero, kappa_build=60)
