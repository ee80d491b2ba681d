"""Scoring against ground truth and verification of spectral predictions.

NN quality is the distribution of base-manifold geodesic distances between
retrieved pairs; alignment quality is the distribution of wrapped angle
errors in degrees.  The spectral side compares eigenvalue clusters of
I - S_k on the sphere against the predicted multiplicities 2(l+k)-1 and the
two-term eigenvalue expansion in the cap parameter h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfvdm.angles import wrap_pi
from mfvdm.errors import ParameterError
from mfvdm.sampling import pairs_in_blocks

__all__ = [
    "EvalReport",
    "SpectralReport",
    "score_nn",
    "score_alignment",
    "merge_reports",
    "theoretical_eigenvalue",
    "theoretical_gap",
    "theoretical_multiplicity",
    "detect_clusters",
    "spectral_report",
]

NN_BINS = 50
ALIGN_BINS = 72
# The cluster boundary rule of ``detect_clusters``.
_GAP_RATIO = 3.0
_REL_FLOOR = 1e-2


@dataclass(frozen=True)
class EvalReport:
    """Histogram summaries for NN retrieval and/or alignment accuracy."""

    method: str
    params: dict
    nn_bin_edges: np.ndarray | None = None
    nn_counts: np.ndarray | None = None
    nn_mean: float | None = None
    nn_median: float | None = None
    align_bin_edges_deg: np.ndarray | None = None
    align_counts: np.ndarray | None = None
    align_median_abs_deg: float | None = None


@dataclass(frozen=True)
class SpectralReport:
    """Clustered bottom spectrum of I - S_k with theory comparison."""

    k: int
    h: float
    one_minus_lambda: np.ndarray
    cluster_sizes: tuple
    cluster_means: tuple
    theory_multiplicities: tuple
    theory_one_minus: tuple
    leading_gap: float
    theory_leading_gap: float


def score_nn(neighbors, truth, method: str = "mfvdm",
             params: dict | None = None) -> EvalReport:
    """Histogram of geodesic distances between each node and its neighbors."""
    n = neighbors.n
    if n != truth.n:
        raise ParameterError(f"Neighbor list has n={n}, truth has "
                             f"n={truth.n}.")
    _check_indices(truth.n, neighbors.indices)
    dist = pairs_in_blocks(truth.geodesics, *neighbors.pairs())
    counts, edges = np.histogram(dist, bins=NN_BINS,
                                 range=(0.0, truth.max_geodesic))
    return EvalReport(
        method=method, params=dict(params or {}),
        nn_bin_edges=edges, nn_counts=counts,
        nn_mean=float(np.mean(dist)), nn_median=float(np.median(dist)),
    )


def score_alignment(table, truth, method: str = "mfvdm",
                    params: dict | None = None) -> EvalReport:
    """Histogram of wrapped errors alpha_hat - alpha_true in degrees."""
    _check_indices(truth.n, table.i, table.j)
    alpha_true = pairs_in_blocks(truth.pair_angles, table.i, table.j)
    err_deg = np.degrees(wrap_pi(table.alpha_hat - alpha_true))
    counts, edges = np.histogram(err_deg, bins=ALIGN_BINS,
                                 range=(-180.0, 180.0))
    return EvalReport(
        method=method, params=dict(params or {}),
        align_bin_edges_deg=edges, align_counts=counts,
        align_median_abs_deg=float(np.median(np.abs(err_deg))),
    )


def _check_indices(n: int, *nodes: np.ndarray) -> None:
    """Raise ParameterError unless every index in ``nodes`` is a node of
    an n-node truth: numpy would wrap a negative index, and an index of n
    or more would fail inside a truth's gather."""
    for array in nodes:
        if array.size and not 0 <= array.min() <= array.max() < n:
            raise ParameterError(f"Node indices must lie in [0, {n}). Got "
                                 f"{array.min()} to {array.max()}.")


def merge_reports(nn_report: EvalReport,
                  align_report: EvalReport) -> EvalReport:
    """One report carrying both the NN and the alignment histograms."""
    if nn_report.method != align_report.method:
        raise ParameterError("Reports to merge must share the method tag.")
    return EvalReport(
        method=nn_report.method, params=nn_report.params,
        nn_bin_edges=nn_report.nn_bin_edges, nn_counts=nn_report.nn_counts,
        nn_mean=nn_report.nn_mean, nn_median=nn_report.nn_median,
        align_bin_edges_deg=align_report.align_bin_edges_deg,
        align_counts=align_report.align_counts,
        align_median_abs_deg=align_report.align_median_abs_deg,
    )


def theoretical_eigenvalue(k: int, l: int, h: float) -> float:
    """Two-term small-cap expansion h/2 - (k + (l-1)(l+2k)) h^2 / 8."""
    if k < 1 or l < 1:
        raise ParameterError(f"Need k >= 1 and l >= 1. Got k={k}, l={l}.")
    if not 0.0 < h <= 2.0:
        raise ParameterError(f"Cap parameter h must lie in (0, 2]. Got {h}.")
    return 0.5 * h - (k + (l - 1) * (l + 2 * k)) * h * h / 8.0


def theoretical_gap(k: int, h: float) -> float:
    """Top spectral gap (1 + k) h^2 / 4 of the cap-kernel operator."""
    return theoretical_eigenvalue(k, 1, h) - theoretical_eigenvalue(k, 2, h)


def theoretical_multiplicity(k: int, l: int) -> int:
    """Predicted eigenvalue multiplicity 2(l + k) - 1."""
    if k < 1 or l < 1:
        raise ParameterError(f"Need k >= 1 and l >= 1. Got k={k}, l={l}.")
    return 2 * (l + k) - 1


def detect_clusters(values: np.ndarray) -> tuple:
    """Partition an ascending sequence into clusters at prominent gaps.

    A gap is a cluster boundary when it exceeds ``_GAP_RATIO`` times the
    local noise scale: the larger of its neighboring gaps, floored at
    ``_REL_FLOOR`` times the value range.  The local comparison separates
    tight leading clusters even when a quasi-continuum of comparable gaps
    follows them; the floor keeps near-degenerate clusters from splitting
    on gap fluctuations.  The rule is invariant to shifts and to positive
    rescaling.

    Returns
    -------
    sizes : tuple of int
        Cluster sizes in order; sums to len(values).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise ParameterError("values must be a nonempty 1-d array.")
    if np.any(np.diff(values) < 0.0):
        raise ParameterError("values must be ascending.")
    if values.size == 1:
        return (1,)
    gaps = np.diff(values)
    span = values[-1] - values[0]
    if span == 0.0:
        return (values.size,)
    padded = np.concatenate([[0.0], gaps, [0.0]])
    neighbor_max = np.maximum(padded[:-2], padded[2:])
    local_scale = np.maximum(neighbor_max, _REL_FLOOR * span)
    boundaries = np.flatnonzero(gaps >= _GAP_RATIO * local_scale) + 1
    edges = np.concatenate([[0], boundaries, [values.size]])
    return tuple(int(b - a) for a, b in zip(edges[:-1], edges[1:]))


def spectral_report(bundle, kappa_build: int) -> SpectralReport:
    """Cluster the bottom spectrum of I - S_k and compare against theory.

    The predictions hold on the sphere only; the caller picks the graph.

    Parameters
    ----------
    bundle : SpectralBundle
        Top eigenvalues of S_k (at least the leading clusters).
    kappa_build : int
        Neighbor count used to build the graph; with the bundle's node
        count n it sets h = 2*kappa_build/n.

    Returns
    -------
    report : SpectralReport
    """
    k = bundle.k
    if k < 1:
        raise ParameterError(f"Spectral report needs k >= 1. Got k={k}.")
    h = 2.0 * kappa_build / bundle.n
    one_minus = 1.0 - bundle.eigenvalues
    sizes = detect_clusters(one_minus)
    means = []
    start = 0
    for size in sizes:
        means.append(float(np.mean(one_minus[start:start + size])))
        start += size
    # normalized theory: 1 - lambda_l(h)/(h/2) per cluster index l
    theory = tuple(1.0 - theoretical_eigenvalue(k, l, h) / (0.5 * h)
                   for l in range(1, len(sizes) + 1))
    mult = tuple(theoretical_multiplicity(k, l)
                 for l in range(1, len(sizes) + 1))
    if len(sizes) > 1:
        first_end = one_minus[sizes[0] - 1]
        second_start = one_minus[sizes[0]]
        leading_gap = float(second_start - first_end)
    else:
        leading_gap = float("nan")
    theory_leading_gap = theoretical_gap(k, h) / (0.5 * h)
    return SpectralReport(
        k=k, h=h, one_minus_lambda=one_minus, cluster_sizes=sizes,
        cluster_means=tuple(means), theory_multiplicities=mult,
        theory_one_minus=theory, leading_gap=leading_gap,
        theory_leading_gap=theory_leading_gap,
    )
