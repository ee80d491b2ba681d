"""Alignment graphs: k-NN construction from ground truth and random rewiring,
and the two neighbor-list primitives that the k-NN build and the neighbor
pipeline share: the kappa-smallest selection (``smallest``) and the
symmetrization of a neighbor list into unordered pairs (``unordered_pairs``).

An AlignmentGraph stores each undirected edge once with row < col; reading an
edge against its stored orientation uses w_ji = w_ij and alpha_ji = -alpha_ij
(mod 2*pi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mfvdm.angles import TWO_PI, wrap_two_pi
from mfvdm.errors import BadEdgeError, ParameterError
from mfvdm.rng import substream
from mfvdm.sampling import pairs_in_blocks

__all__ = [
    "AlignmentGraph",
    "RewireDiagnostics",
    "build_clean_knn_graph",
    "first_bad_edge",
    "rewire_graph",
    "smallest",
    "unordered_pairs",
]


@dataclass(frozen=True)
class AlignmentGraph:
    """Undirected weighted graph with an SO(2) angle on every edge.

    Attributes
    ----------
    n : int
        Node count.
    rows, cols : (e,) int64 ndarrays
        Edge endpoints with rows < cols, sorted lexicographically.
    weights : (e,) float ndarray
        Positive edge weights.
    angles : (e,) float ndarray
        Edge angles alpha_ij in [0, 2*pi), oriented row -> col.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
    angles: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.int64))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=np.int64))
        object.__setattr__(self, "weights",
                           np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=float))

    @property
    def edge_count(self) -> int:
        return self.rows.shape[0]

    def degree_counts(self) -> np.ndarray:
        """Number of incident edges per node."""
        return (np.bincount(self.rows, minlength=self.n)
                + np.bincount(self.cols, minlength=self.n))

    @staticmethod
    def from_edges(n: int, rows: np.ndarray, cols: np.ndarray,
                   weights: np.ndarray,
                   angles: np.ndarray) -> "AlignmentGraph":
        """Sort and validate edge arrays: the constructor of every graph the
        package builds or reads.

        The edge arrays must be 1-d and of equal length (ParameterError).
        The per-edge rules run once, on the edges as given and in input
        order, so i > j or an angle outside [0, 2*pi) is an error, as in an
        edge-list file.  A broken rule raises BadEdgeError with the edge's
        input index.  One stable sort of the keys i*n + j orders the edges
        and finds the duplicates.  Then ``n >= 1``, at least one edge and no
        isolated node are required, each raising ParameterError.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        weights = np.asarray(weights, dtype=float)
        angles = np.asarray(angles, dtype=float)
        if not rows.shape == cols.shape == weights.shape == angles.shape \
                == (rows.size,):
            raise ParameterError("Edge arrays must be 1-d, of equal length.")
        order, repeated = _stable_order(rows * n + cols)
        bad = first_bad_edge(n, rows, cols, weights, angles, repeated)
        if bad is not None:
            raise BadEdgeError(*bad)
        if n < 1:
            raise ParameterError(f"Node count must be >= 1. Got {n}.")
        if rows.shape[0] == 0:
            raise ParameterError("Graph has no edges.")
        graph = AlignmentGraph(n=n, rows=rows[order], cols=cols[order],
                               weights=weights[order], angles=angles[order])
        isolated = np.flatnonzero(graph.degree_counts() == 0)
        if isolated.size:
            raise ParameterError(
                f"Node {int(isolated[0])} has no incident edges.")
        return graph


def _stable_order(keys: np.ndarray):
    """A stable argsort of ``keys``, and the mask of the entries equal to
    an earlier one."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeated = np.zeros(keys.shape, dtype=bool)
    repeated[order[1:][ordered[1:] == ordered[:-1]]] = True
    return order, repeated


def first_bad_edge(n: int, rows: np.ndarray, cols: np.ndarray,
                   weights: np.ndarray, angles: np.ndarray, repeated=None):
    """The per-edge rules: ``(index, message)`` of the first edge, in input
    order, that breaks one (the first rule it breaks), else None.

    ``repeated`` marks the edges whose key repeats an earlier edge's, as
    ``_stable_order`` finds it; it is computed when not given."""
    if repeated is None:
        repeated = _stable_order(rows * n + cols)[1]
    rules = (
        (rows == cols, "self-loop {i}."),
        (rows > cols, "edges must have i < j."),
        ((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n),
         "endpoint out of range."),
        (repeated, "duplicate edge ({i}, {j})."),
        (weights <= 0.0, "weight must be > 0."),
        (~np.isfinite(weights), "weight must be finite."),
        (~((0.0 <= angles) & (angles < TWO_PI)),
         "alpha must lie in [0, 2*pi)."),
    )
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    if not np.any(bad):
        return None
    index = int(np.argmax(bad))
    message = next(text for mask, text in rules if mask[index])
    return index, message.format(i=int(rows[index]), j=int(cols[index]))


# Rows that each int64 selection and tie mask of ``smallest`` covers.
_SELECT_ROWS = 64
# Rows per ground-truth distance block in ``build_clean_knn_graph``, fixed:
# the BLAS product in ``SphereTruth.geodesic_block`` rounds differently with
# its row count, which can swap two near-tied neighbors.
_BUILD_ROWS = 512


def smallest(dist: np.ndarray, kappa: int) -> np.ndarray:
    """Column positions of the ``kappa`` smallest entries of each row under
    (distance, position), in no particular order: a stable sort's prefix.

    Partial selection finds them, ``_SELECT_ROWS`` rows at a time; a row
    whose kappa-th distance is tied with an unselected entry, or is not
    finite, takes the prefix of a stable sort instead."""
    rows, cols = dist.shape
    if kappa >= cols:
        return np.broadcast_to(np.arange(cols), dist.shape)
    out = np.empty((rows, kappa), dtype=np.int64)
    for lo in range(0, rows, _SELECT_ROWS):
        part, cand = dist[lo:lo + _SELECT_ROWS], out[lo:lo + _SELECT_ROWS]
        # The full positions are freed once copied, before the tie mask.
        cand[:] = np.argpartition(part, kappa - 1, axis=1)[:, :kappa]
        # The selection is the stable sort's prefix only when exactly kappa
        # entries lie at or below the kappa-th distance (the partition puts
        # it, or a NaN, in the last candidate column).
        kth = np.take_along_axis(part, cand[:, -1:], axis=1)
        tied = ~np.isfinite(kth[:, 0]) | (
            np.count_nonzero(part <= kth, axis=1) > kappa)
        cand[tied] = np.argsort(part[tied], axis=1, kind="stable")[:, :kappa]
    return out


def unordered_pairs(indices: np.ndarray):
    """(keys, inverse) of the pairs (i, j) of an (n, kappa) int64 neighbor
    list, j = indices[i, r]: the sorted distinct keys min(i, j) * n +
    max(i, j), and each pair's position among them, in row-major order, as
    ``np.unique(..., return_inverse=True)`` gives them but without its
    flattened and gathered copies.  ``np.divmod(keys, n)`` splits the keys
    into the pairs' lower and upper nodes."""
    n = indices.shape[0]
    nodes = np.arange(n, dtype=np.int64)[:, None]
    # min * n + max = min * (n - 1) + i + j, built in one array.
    key = np.minimum(nodes, indices)
    key *= n - 1
    key += nodes
    key += indices
    key = key.ravel()
    order = np.argsort(key)
    ordered = key[order]
    del key
    first = np.empty(ordered.shape, dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    keys = ordered[first]
    # The sorted copy turns into each sorted pair's key position.
    np.cumsum(first, out=ordered)
    ordered -= 1
    inverse = np.empty_like(ordered)
    inverse[order] = ordered
    return keys, inverse


@dataclass(frozen=True)
class RewireDiagnostics:
    """Edge bookkeeping for one rewiring pass."""

    kept: int
    replaced: int
    skipped_no_candidate: int
    forced_links: int


def build_clean_knn_graph(truth, kappa_build: int) -> AlignmentGraph:
    """Symmetrized k-NN graph under the ground-truth geodesic, with unit
    weights: the paper's random graph model before rewiring.

    Edge (i, j) is present iff j is among the kappa_build nearest nodes of i
    or vice versa (``unordered_pairs`` of the neighbor list); angles come
    from the ground truth, gathered a block of pairs at a time.  Exact
    distance ties break to the lower node index, as in ``smallest``.

    Parameters
    ----------
    truth : SphereTruth or TorusTruth
        Ground truth with ``geodesic_block`` and ``pair_angles``.
    kappa_build : int
        Neighbor count per node, 1 <= kappa_build < n.

    Returns
    -------
    graph : AlignmentGraph
    """
    n = truth.n
    if not 1 <= kappa_build < n:
        raise ParameterError(
            f"kappa_build must satisfy 1 <= kappa_build < n={n}. "
            f"Got {kappa_build}."
        )
    neighbors = np.empty((n, kappa_build), dtype=np.int64)
    for start in range(0, n, _BUILD_ROWS):
        block = np.arange(start, min(start + _BUILD_ROWS, n))
        dist = truth.geodesic_block(block)
        dist[np.arange(block.size), block] = np.inf
        neighbors[start:start + _BUILD_ROWS] = smallest(dist, kappa_build)
        del dist  # before the next block is computed
    rows, cols = np.divmod(unordered_pairs(neighbors)[0], n)
    return AlignmentGraph.from_edges(
        n, rows, cols, np.ones(rows.size),
        pairs_in_blocks(truth.pair_angles, rows, cols))


def rewire_graph(graph: AlignmentGraph, p: float, seed: int,
                 return_diagnostics: bool = False):
    """Random rewiring noise: keep each edge with probability p, else relink.

    A removed edge (i, j) with i < j is replaced by an edge from i to a
    vertex j' drawn uniformly, with the removed edge's weight.  Partners are
    drawn in rounds: each round draws one j' for every removed edge still
    pending, in edge order, and accepts it if j' != i, {i, j'} is not
    already an edge, and no earlier edge of the same round took that pair;
    rejected edges draw again in the next round.  An edge whose node i is
    already linked to all n - 1 other nodes at the start of a round is
    skipped.  Nodes left isolated then receive one forced link each, drawn
    by the same rounds, with weight 1, so the output is always a valid
    AlignmentGraph.  Every added edge gets a fresh angle uniform on
    [0, 2*pi).

    Parameters
    ----------
    graph : AlignmentGraph
    p : float
        Per-edge keep probability in [0, 1].
    seed : int
        Substream seed.
    return_diagnostics : bool
        Also return a RewireDiagnostics.

    Returns
    -------
    rewired : AlignmentGraph
    diagnostics : RewireDiagnostics, only when requested
    """
    if not 0.0 <= p <= 1.0:
        raise ParameterError(f"p must lie in [0, 1]. Got {p}.")
    rng = substream(seed, "rewire")
    n = graph.n
    keep = rng.random(graph.edge_count) < p
    rows, cols = graph.rows[keep], graph.cols[keep]
    # Sorted keys lo*n + hi of the edges so far, ending in the sentinel n*n.
    keys = np.append(rows * n + cols, n * n)
    degree = np.bincount(rows, minlength=n) + np.bincount(cols, minlength=n)

    removed = np.flatnonzero(~keep)
    sources = graph.rows[removed]
    partners, keys = _draw_partners(rng, n, keys, degree, sources)
    isolated = np.flatnonzero(degree == 0)
    forced, _ = _draw_partners(rng, n, keys, degree, isolated)

    # The added edges as drawn, i -> j: replacements, then forced links,
    # each stored as (min, max) with its angle negated when flipped.
    i = np.concatenate([sources, isolated])
    j = np.concatenate([partners, forced])
    weights = np.concatenate([graph.weights[removed], np.ones(isolated.size)])
    placed = j >= 0
    i, j = i[placed], j[placed]
    angles = rng.uniform(0.0, TWO_PI, size=i.size)
    rewired = AlignmentGraph.from_edges(
        n, np.concatenate([rows, np.minimum(i, j)]),
        np.concatenate([cols, np.maximum(i, j)]),
        np.concatenate([graph.weights[keep], weights[placed]]),
        np.concatenate([graph.angles[keep],
                        np.where(i > j, wrap_two_pi(-angles), angles)]))
    skipped = int(np.count_nonzero(partners < 0))
    if return_diagnostics:
        diagnostics = RewireDiagnostics(
            kept=int(np.count_nonzero(keep)),
            replaced=removed.size - skipped,
            skipped_no_candidate=skipped,
            forced_links=int(np.count_nonzero(forced >= 0)),
        )
        return rewired, diagnostics
    return rewired


def _draw_partners(rng, n: int, keys: np.ndarray, degree: np.ndarray,
                   sources: np.ndarray):
    """One partner per node of ``sources``, drawn by ``rewire_graph``'s
    rounds against the sorted edge ``keys`` (ending in the sentinel n*n) and
    the node ``degree``, which is updated in place.

    Returns ``(partners, keys)``: -1 marks a skipped source, and ``keys``
    has the new edges merged in.
    """
    partners = np.full(sources.size, -1, dtype=np.int64)
    pending = np.arange(sources.size)
    while True:
        pending = pending[degree[sources[pending]] < n - 1]
        if pending.size == 0:
            return partners, keys
        i = sources[pending]
        j = rng.integers(0, n, size=pending.size)
        pair = np.minimum(i, j) * n + np.maximum(i, j)
        fresh = np.flatnonzero(
            (i != j) & (keys[np.searchsorted(keys, pair)] != pair))
        # The first pending edge of the round to draw a pair takes it.
        new, first = np.unique(pair[fresh], return_index=True)
        taken = fresh[first]
        partners[pending[taken]] = j[taken]
        keys = np.insert(keys, np.searchsorted(keys, new), new)
        degree += (np.bincount(i[taken], minlength=n)
                   + np.bincount(j[taken], minlength=n))
        pending = np.delete(pending, taken)
