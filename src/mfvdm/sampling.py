"""Synthetic datasets on the sphere and the torus with ground-truth alignments.

Sphere nodes are Haar-uniform rotations R_i; the base point is the viewing
direction (third column of R_i) and the in-plane alignment between two nodes
is the angle of the closest planar rotation to the upper-left 2x2 block of
R_i^T R_j.  Torus nodes are area-uniform points (u_i, v_i) carrying an
independent uniform frame angle alpha_i; the alignment is alpha_i - alpha_j.
``pairs_in_blocks`` evaluates a truth's per-pair query a block of pairs at a
time, for the k-NN build and the scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from mfvdm.angles import TWO_PI, wrap_two_pi
from mfvdm.errors import DegenerateAlignmentError, ParameterError
from mfvdm.rng import substream

# Major and minor radii (R, r) of every sampled torus.
_TORUS_RADII = (1.0, 0.2)

__all__ = [
    "SphereTruth",
    "TorusTruth",
    "sample_so3_uniform",
    "sample_torus_uniform",
    "make_truth",
    "pairs_in_blocks",
]

# Pairs per ground-truth gather in ``pairs_in_blocks``.
_TRUTH_PAIRS = 4096


def sample_so3_uniform(n: int, seed: int) -> np.ndarray:
    """Draw n rotation matrices i.i.d. from the Haar measure on SO(3).

    Normalized 4-dimensional Gaussians are uniform on the unit quaternions,
    which double-cover SO(3) uniformly.

    Parameters
    ----------
    n : int
        Number of samples, at least 1.
    seed : int
        Substream seed; identical seeds give bitwise-identical output.

    Returns
    -------
    rotations : (n, 3, 3) ndarray
        Stack of rotation matrices.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1. Got {n}.")
    rng = substream(seed, "so3")
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]

    rotations = np.empty((n, 3, 3))
    rotations[:, 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    rotations[:, 0, 1] = 2.0 * (x * y - w * z)
    rotations[:, 0, 2] = 2.0 * (x * z + w * y)
    rotations[:, 1, 0] = 2.0 * (x * y + w * z)
    rotations[:, 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    rotations[:, 1, 2] = 2.0 * (y * z - w * x)
    rotations[:, 2, 0] = 2.0 * (x * z - w * y)
    rotations[:, 2, 1] = 2.0 * (y * z + w * x)
    rotations[:, 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return rotations


def _inplane_angles(rotations: np.ndarray, ii: np.ndarray,
                    jj: np.ndarray) -> np.ndarray:
    """In-plane angles minimizing the distance between R_i and R_j, for
    index arrays ii, jj.

    With Q the upper-left 2x2 block of R_i^T R_j, the planar rotation closest
    to Q in Frobenius norm has angle atan2(Q21 - Q12, Q11 + Q22).  Both
    arguments vanish for antipodal viewing directions, where the alignment
    is undefined.
    """
    a_i = rotations[ii, :, 0]
    b_i = rotations[ii, :, 1]
    a_j = rotations[jj, :, 0]
    b_j = rotations[jj, :, 1]
    den = np.sum(a_i * a_j, axis=1) + np.sum(b_i * b_j, axis=1)
    num = np.sum(b_i * a_j, axis=1) - np.sum(a_i * b_j, axis=1)
    degenerate = (num == 0.0) & (den == 0.0) & (ii != jj)
    if np.any(degenerate):
        raise DegenerateAlignmentError(
            f"{int(np.count_nonzero(degenerate))} pair(s) have antipodal "
            "viewing directions; alignment undefined."
        )
    return wrap_two_pi(np.arctan2(num, den))


@dataclass(frozen=True)
class SphereTruth:
    """Ground truth for the sphere dataset: rotations plus derived views."""

    rotations: np.ndarray
    views: np.ndarray = field(init=False)
    manifold: str = field(default="sphere", init=False)

    def __post_init__(self) -> None:
        rotations = np.asarray(self.rotations, dtype=float)
        if rotations.ndim != 3 or rotations.shape[1:] != (3, 3):
            raise ParameterError(
                f"rotations must have shape (n, 3, 3). Got {rotations.shape}."
            )
        object.__setattr__(self, "rotations", rotations)
        object.__setattr__(self, "views", rotations[:, :, 2].copy())

    @property
    def n(self) -> int:
        return self.rotations.shape[0]

    def pair_angles(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        """True alignments for index arrays, vectorized."""
        ii = np.asarray(ii, dtype=np.int64)
        jj = np.asarray(jj, dtype=np.int64)
        return _inplane_angles(self.rotations, ii, jj)

    def geodesics(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        dots = np.sum(self.views[ii] * self.views[jj], axis=1)
        return np.arccos(np.clip(dots, -1.0, 1.0))

    def geodesic_block(self, block: np.ndarray) -> np.ndarray:
        """Distances from each node in ``block`` to every node, (b, n),
        computed in place in the product's array."""
        dots = self.views[block] @ self.views.T
        np.clip(dots, -1.0, 1.0, out=dots)
        return np.arccos(dots, out=dots)

    @property
    def max_geodesic(self) -> float:
        """Diameter of the base manifold (antipodal views)."""
        return float(np.pi)


# Values folded per step of ``_fold``: its masks stay small beside a block.
_FOLD_VALUES = 1 << 14


def _fold(delta: np.ndarray) -> np.ndarray:
    """|wrap_pi(delta)|, the circular distance in [0, pi], of each delta in
    [-2*pi, 2*pi], computed in place in the contiguous array ``delta``.

    The bits are those of ``np.mod(delta + pi, 2*pi) - pi``, without the
    division: fmod is exact there, x - 2*pi is exact for x in [2*pi, 3*pi]
    (Sterbenz), and x + 2*pi for x < 0 is the add that ``np.mod`` rounds.
    """
    flat = delta.reshape(-1)
    for lo in range(0, flat.size, _FOLD_VALUES):
        part = flat[lo:lo + _FOLD_VALUES]
        part += np.pi
        np.subtract(part, TWO_PI, out=part, where=part >= TWO_PI)
        np.add(part, TWO_PI, out=part, where=part < 0.0)
        part -= np.pi
        np.abs(part, out=part)
    return delta


def _check_radii(radius_major: float, radius_minor: float) -> None:
    if not (np.isfinite(radius_major) and radius_major > radius_minor > 0.0):
        raise ParameterError(
            "Torus radii must be finite with R > r > 0. "
            f"Got R={radius_major}, r={radius_minor}."
        )


@dataclass(frozen=True)
class TorusTruth:
    """Ground truth for the torus dataset: surface angles plus frame angles."""

    u: np.ndarray
    v: np.ndarray
    frame_angles: np.ndarray
    radius_major: float
    radius_minor: float
    manifold: str = field(default="torus", init=False)

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        frame_angles = np.asarray(self.frame_angles, dtype=float)
        if not (u.shape == v.shape == frame_angles.shape) or u.ndim != 1:
            raise ParameterError(
                "u, v and frame_angles must be 1-d arrays of equal length. "
                f"Got {u.shape}, {v.shape}, {frame_angles.shape}."
            )
        _check_radii(self.radius_major, self.radius_minor)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "frame_angles", frame_angles)

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def pair_angles(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        return wrap_two_pi(self.frame_angles[ii] - self.frame_angles[jj])

    def geodesics(self, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
        du = _fold(self.u[ii] - self.u[jj])
        dv = _fold(self.v[ii] - self.v[jj])
        return np.hypot(self.radius_minor * du, self.radius_major * dv)

    def geodesic_block(self, block: np.ndarray) -> np.ndarray:
        """Distances from each node in ``block`` to every node, (b, n),
        computed in place in two (b, n) arrays."""
        du = _fold(np.subtract.outer(self.u[block], self.u))
        dv = _fold(np.subtract.outer(self.v[block], self.v))
        du *= self.radius_minor
        dv *= self.radius_major
        return np.hypot(du, dv, out=du)

    @property
    def max_geodesic(self) -> float:
        return float(np.hypot(self.radius_minor * np.pi,
                              self.radius_major * np.pi))


def sample_torus_uniform(n: int, seed: int) -> TorusTruth:
    """Draw n points on the embedded torus with radii R = 1 and r = 0.2
    (``_TORUS_RADII``) and i.i.d. uniform frame angles.

    The tube angle u is rejection-sampled with density proportional to
    R + r*cos(u), so that points are uniform with respect to surface area.

    Parameters
    ----------
    n : int
        Number of samples, at least 1.
    seed : int
        Substream seed.

    Returns
    -------
    truth : TorusTruth
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1. Got {n}.")
    radius_major, radius_minor = _TORUS_RADII
    rng = substream(seed, "torus")
    u = np.empty(0)
    # acceptance rate (mean density)/(max density) = R/(R+r)
    while u.size < n:
        cand = rng.uniform(0.0, TWO_PI, size=2 * (n - u.size) + 16)
        accept = rng.random(cand.size) * (radius_major + radius_minor)
        u = np.concatenate(
            [u, cand[accept <= radius_major + radius_minor * np.cos(cand)]]
        )
    u = u[:n]
    v = rng.uniform(0.0, TWO_PI, size=n)
    frame_angles = rng.uniform(0.0, TWO_PI, size=n)
    return TorusTruth(u=u, v=v, frame_angles=frame_angles,
                      radius_major=radius_major, radius_minor=radius_minor)


def pairs_in_blocks(per_pair, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """``per_pair(ii, jj)`` (a truth's ``pair_angles`` or ``geodesics``),
    evaluated ``_TRUTH_PAIRS`` pairs at a time so the truth's per-pair
    gathers stay one block long."""
    out = np.empty(ii.size)
    for lo in range(0, ii.size, _TRUTH_PAIRS):
        out[lo:lo + _TRUTH_PAIRS] = per_pair(ii[lo:lo + _TRUTH_PAIRS],
                                             jj[lo:lo + _TRUTH_PAIRS])
    return out


def make_truth(manifold: str, n: int, seed: int):
    """Build the ground truth for a named manifold."""
    if manifold == "sphere":
        return SphereTruth(rotations=sample_so3_uniform(n, seed))
    if manifold == "torus":
        return sample_torus_uniform(n, seed)
    raise ParameterError(f"Unknown manifold {manifold!r}; "
                         "expected 'sphere' or 'torus'.")
