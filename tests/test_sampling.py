"""Synthetic ground truth: rotations, in-plane angles, torus sampling."""

import numpy as np
import pytest

from mfvdm.angles import TWO_PI, wrap_pi
from mfvdm.errors import DegenerateAlignmentError, ParameterError
from mfvdm.sampling import (
    SphereTruth,
    TorusTruth,
    make_truth,
    sample_so3_uniform,
    sample_torus_uniform,
)
from mfvdm.sampling import _fold
from oracles import inplane_angle, torus_positions


def _rot_z(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot_x(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _angle(rot_i, rot_j):
    """In-plane angle of one rotation pair, through SphereTruth.pair_angles."""
    return SphereTruth(rotations=np.stack([rot_i, rot_j])).pair_angles(
        [0], [1])[0]


class TestRotations:
    def test_orthogonal_unit_determinant(self):
        rots = sample_so3_uniform(200, seed=1)
        eye = np.eye(3)
        for R in rots:
            assert np.abs(R.T @ R - eye).max() < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_view_directions_average_to_zero(self):
        # Necessary condition for uniformity on SO(3): mean view vector
        # vanishes at the Monte Carlo rate.
        truth = make_truth("sphere", 10_000, seed=0)
        assert np.linalg.norm(truth.views.mean(axis=0)) < 0.05

    def test_deterministic_given_seed(self):
        a = sample_so3_uniform(50, seed=9)
        b = sample_so3_uniform(50, seed=9)
        assert np.array_equal(a, b)
        c = sample_so3_uniform(50, seed=10)
        assert not np.array_equal(a, c)

    def test_rejects_empty(self):
        with pytest.raises(ParameterError):
            sample_so3_uniform(0, seed=0)


class TestInplaneAngle:
    def test_pure_inplane_rotation_recovered(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = sample_so3_uniform(1, seed=int(rng.integers(1 << 30)))[0]
            alpha = float(rng.uniform(0, TWO_PI))
            # R_i Rot_z(alpha) == R_j exactly, so the optimum is alpha.
            a_hat = _angle(base, base @ _rot_z(alpha))
            assert abs(wrap_pi(a_hat - alpha)) < 1e-10

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, TWO_PI, 100_000, endpoint=False)
        cos_g, sin_g = np.cos(grid), np.sin(grid)
        for trial in range(10):
            ri, rj = sample_so3_uniform(2, seed=100 + trial)
            q = ri.T @ rj
            # Frobenius objective reduces to c*cos + s*sin on the grid.
            c = q[0, 0] + q[1, 1]
            s = q[1, 0] - q[0, 1]
            best = grid[np.argmax(c * cos_g + s * sin_g)]
            a_hat = _angle(ri, rj)
            assert abs(wrap_pi(a_hat - best)) < TWO_PI / 100_000 + 1e-9

    def test_antisymmetry(self):
        ri, rj = sample_so3_uniform(2, seed=77)
        fwd = _angle(ri, rj)
        rev = _angle(rj, ri)
        assert abs(wrap_pi(fwd + rev)) < 1e-12

    def test_degenerate_opposite_views(self):
        ri = np.eye(3)
        rj = np.diag([1.0, -1.0, -1.0])
        with pytest.raises(DegenerateAlignmentError):
            _angle(ri, rj)

    def test_pairwise_table_matches_scalar(self):
        truth = make_truth("sphere", 12, seed=3)
        ii, jj = np.nonzero(~np.eye(12, dtype=bool))
        got = truth.pair_angles(ii, jj)
        for i, j, angle in zip(ii, jj, got):
            want = inplane_angle(truth.rotations[i], truth.rotations[j])
            assert abs(wrap_pi(angle - want)) < 1e-10


class TestTorus:
    def test_points_lie_on_surface(self):
        truth = sample_torus_uniform(500, seed=2)
        x, y, z = torus_positions(truth).T
        resid = (np.hypot(x, y) - 1.0) ** 2 + z**2 - 0.2**2
        assert np.abs(resid).max() < 1e-12

    def test_area_uniform_marginal(self):
        # Surface-area density of the poloidal angle is
        # (R + r cos u) / (2 pi R); compare by total variation.
        truth = sample_torus_uniform(20_000, seed=0)
        edges = np.linspace(0.0, TWO_PI, 41)
        counts, _ = np.histogram(truth.u, bins=edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        probs = (1.0 + 0.2 * np.cos(centers))
        probs /= probs.sum()
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv < 0.02

    def test_pair_angles_are_frame_differences(self):
        truth = sample_torus_uniform(30, seed=6)
        i, j = 4, 17
        want = truth.frame_angles[i] - truth.frame_angles[j]
        assert abs(wrap_pi(truth.pair_angles([i], [j])[0] - want)) < 1e-12

    def test_rejects_bad_radii(self):
        for big_r, small_r in ((0.2, 1.0), (1.0, 0.0)):
            with pytest.raises(ParameterError):
                TorusTruth(u=np.zeros(2), v=np.zeros(2),
                           frame_angles=np.zeros(2), radius_major=big_r,
                           radius_minor=small_r)
        with pytest.raises(ParameterError, match="finite"):
            TorusTruth(u=np.zeros(2), v=np.zeros(2), frame_angles=np.zeros(2),
                       radius_major=np.inf, radius_minor=0.2)


class TestGeodesics:
    def test_sphere_matches_arccos_oracle(self):
        truth = make_truth("sphere", 40, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(50):
            i, j = rng.integers(0, 40, 2)
            dot = np.clip(truth.views[i] @ truth.views[j], -1.0, 1.0)
            assert abs(truth.geodesics([i], [j])[0]
                       - np.arccos(dot)) < 1e-12

    def test_self_distance_zero(self):
        truth = make_truth("sphere", 5, seed=2)
        assert truth.geodesics([3], [3])[0] == 0.0

    def test_block_matches_scalar(self):
        truth = make_truth("torus", 25, seed=4)
        block = truth.geodesic_block(np.arange(10))
        for a in range(10):
            for b in range(25):
                assert abs(block[a, b]
                           - truth.geodesics([a], [b])[0]) < 1e-12

    def test_torus_flat_metric(self):
        truth = sample_torus_uniform(10, seed=8)
        i, j = 1, 7
        du = wrap_pi(truth.u[i] - truth.u[j])
        dv = wrap_pi(truth.v[i] - truth.v[j])
        want = np.hypot(0.2 * du, 1.0 * dv)
        assert abs(truth.geodesics([i], [j])[0] - want) < 1e-12

    def test_max_geodesic(self):
        sphere = make_truth("sphere", 4, seed=0)
        assert abs(sphere.max_geodesic - np.pi) < 1e-15
        torus = sample_torus_uniform(4, seed=0)
        want = np.hypot(0.2 * np.pi, np.pi)
        assert abs(torus.max_geodesic - want) < 1e-12


def _fold_by_mod(delta):
    """The circular distance as ``np.mod`` folds it: ``_fold``'s oracle."""
    return np.abs(np.mod(delta + np.pi, TWO_PI) - np.pi)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestFold:
    """``_fold`` gives the bits of the ``np.mod`` form on [-2*pi, 2*pi]."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_torus_blocks_match_the_mod_form(self, seed):
        truth = make_truth("torus", 2100, seed=seed)
        for coordinate in (truth.u, truth.v):
            delta = np.subtract.outer(coordinate[:512], coordinate)
            want = _fold_by_mod(delta)
            assert np.array_equal(_bits(_fold(delta)), _bits(want))

    def test_edges_of_each_branch_match_the_mod_form(self):
        base = np.array([0.0, np.pi, TWO_PI])
        base = np.concatenate([base, -base])
        delta = np.concatenate([base, np.nextafter(base, np.inf),
                                np.nextafter(base, -np.inf)])
        want = _fold_by_mod(delta)
        assert np.array_equal(_bits(_fold(delta.copy())), _bits(want))


def test_make_truth_dispatch():
    assert isinstance(make_truth("sphere", 10, seed=0), SphereTruth)
    assert isinstance(make_truth("torus", 10, seed=0), TorusTruth)
    with pytest.raises(ParameterError):
        make_truth("klein-bottle", 10, seed=0)
