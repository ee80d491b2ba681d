"""File formats: graphs, ground truth, CSVs, reports, and the bundle cache.

All text output prints floats with 17 significant digits so that values
round-trip exactly and repeated runs produce byte-identical files.  The
eigen-bundle cache is keyed by (graph content hash, k, m); cached entries
are plain npz archives, written atomically so that processes sharing one
cache never see a half-written entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import warnings
import zipfile
from pathlib import Path

import numpy as np

from mfvdm.alignment import AlignmentTable
from mfvdm.angles import TWO_PI
from mfvdm.embedding import NeighborList
from mfvdm.errors import GraphFileError, ParameterError
from mfvdm.evaluation import EvalReport, SpectralReport
from mfvdm.graph import AlignmentGraph
from mfvdm.sampling import SphereTruth, TorusTruth
from mfvdm.spectral import SpectralBundle

__all__ = [
    "write_graph",
    "read_graph",
    "graph_hash",
    "write_truth",
    "read_truth",
    "write_nn_csv",
    "write_alignment_csv",
    "write_eval_report",
    "write_spectral_report",
    "cache_dir_for",
    "bundle_cache_path",
    "save_bundle",
    "load_bundle",
]

CACHE_ENV = "MFVDM_CACHE_DIR"


# The one float format of every text output: 17 significant digits.
_FLOAT = "%.17g"


def _fmt(x: float) -> str:
    return _FLOAT % x


def write_graph(graph: AlignmentGraph, path) -> None:
    """Write the edge-list format: header ``n <count>``, lines ``i j w a``."""
    rows = zip(graph.rows.tolist(), graph.cols.tolist(),
               graph.weights.tolist(), graph.angles.tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {graph.n}\n")
        template = f"%d %d {_FLOAT} {_FLOAT}\n"
        handle.writelines(template % row for row in rows)


def graph_hash(graph: AlignmentGraph) -> str:
    """Content hash of n and the edge arrays' little-endian bytes.

    The arrays hold exactly the values ``write_graph`` round-trips, so a
    graph and its reloaded file hash alike.
    """
    digest = hashlib.sha256(f"n {graph.n}\n".encode("utf-8"))
    for array, dtype in ((graph.rows, "<i8"), (graph.cols, "<i8"),
                         (graph.weights, "<f8"), (graph.angles, "<f8")):
        digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


_EDGE_DTYPE = np.dtype([("i", "<i8"), ("j", "<i8"), ("w", "<f8"),
                        ("a", "<f8")])


def read_graph(path) -> AlignmentGraph:
    """Parse the edge-list format back into a validated AlignmentGraph.

    The body is parsed by one ``np.loadtxt`` call and checked on arrays.
    An error names the first offending line, as a line-by-line reader
    would.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise GraphFileError(f"Cannot read graph file {path}: {exc}") from exc
    if not lines or not lines[0].startswith("n "):
        raise GraphFileError(f"{path}: first line must be 'n <count>'.")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise GraphFileError(f"{path}: bad header {lines[0]!r}.") from exc
    body = lines[1:]
    try:
        with warnings.catch_warnings():
            # Some numpy releases parse a float literal such as "0.7" into
            # an int field with only a DeprecationWarning; reject it instead.
            warnings.simplefilter("error", DeprecationWarning)
            edges = (np.loadtxt(body, dtype=_EDGE_DTYPE, comments=None,
                                ndmin=1)
                     if any(line.strip() for line in body)
                     else np.empty(0, dtype=_EDGE_DTYPE))
    except (ValueError, DeprecationWarning) as exc:
        edges, error = _parse_edge_lines(path, body, exc)
        _check_edges(path, body, n, edges)
        raise error from exc
    _check_edges(path, body, n, edges)
    rows, cols = edges["i"], edges["j"]
    order = np.argsort(rows * n + cols, kind="stable")
    try:
        graph = AlignmentGraph(n=n, rows=rows[order], cols=cols[order],
                               weights=edges["w"][order],
                               angles=edges["a"][order])
        graph.validate()
    except ParameterError as exc:
        raise GraphFileError(f"{path}: {exc}") from exc
    return graph


def _parse_edge_lines(path, body, rejection):
    """Find the first edge line that does not parse, for the error report.

    Used only when ``np.loadtxt`` rejects the body. Returns the edges before
    that line and the error naming it; when Python's parsers take every line
    (a literal such as ``1_0``), the error is ``np.loadtxt``'s ``rejection``.
    """
    limit = np.iinfo(np.int64)
    records = []
    for lineno, raw in enumerate(body, start=2):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            error = GraphFileError(f"{path}:{lineno}: expected 'i j w alpha'. "
                                   f"Got {raw.strip()!r}.")
            break
        try:
            i, j = int(parts[0]), int(parts[1])
            w, a = float(parts[2]), float(parts[3])
        except ValueError as exc:
            error = GraphFileError(f"{path}:{lineno}: {exc}")
            break
        if not (limit.min <= i <= limit.max and limit.min <= j <= limit.max):
            error = GraphFileError(f"{path}:{lineno}: endpoint out of range.")
            break
        records.append((i, j, w, a))
    else:
        error = GraphFileError(f"{path}: {rejection}")
    return np.array(records, dtype=_EDGE_DTYPE), error


def _check_edges(path, body, n: int, edges: np.ndarray) -> None:
    """Raise GraphFileError for the first edge that fails a check."""
    i, j, w, a = (edges[name] for name in ("i", "j", "w", "a"))
    repeated = np.ones(i.shape, dtype=bool)
    repeated[np.unique(i * n + j, return_index=True)[1]] = False
    checks = (
        (i == j, "self-loop {i}."),
        (i > j, "edges must have i < j."),
        ((i < 0) | (i >= n) | (j < 0) | (j >= n), "endpoint out of range."),
        (repeated, "duplicate edge ({i}, {j})."),
        (w <= 0.0, "weight must be > 0."),
        (~((0.0 <= a) & (a < TWO_PI)), "alpha must lie in [0, 2*pi)."),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if not np.any(bad):
        return
    row = int(np.argmax(bad))
    message = next(text for mask, text in checks if mask[row])
    lineno = [k for k, raw in enumerate(body, start=2) if raw.strip()][row]
    raise GraphFileError(f"{path}:{lineno}: "
                         + message.format(i=int(i[row]), j=int(j[row])))


def write_truth(truth, path) -> None:
    """Serialize a ground truth (sphere rotations or torus angles)."""
    with open(path, "w", encoding="utf-8") as handle:
        if isinstance(truth, SphereTruth):
            handle.write("manifold sphere\n")
            handle.write(f"n {truth.n}\n")
            for row in truth.rotations.reshape(truth.n, 9):
                handle.write(" ".join(_fmt(x) for x in row) + "\n")
        elif isinstance(truth, TorusTruth):
            handle.write("manifold torus\n")
            handle.write(f"n {truth.n}\n")
            handle.write(f"radii {_fmt(truth.radius_major)} "
                         f"{_fmt(truth.radius_minor)}\n")
            for u, v, a in zip(truth.u.tolist(), truth.v.tolist(),
                               truth.frame_angles.tolist()):
                handle.write(f"{_fmt(u)} {_fmt(v)} {_fmt(a)}\n")
        else:
            raise ParameterError(f"Unknown truth type {type(truth)!r}.")


def read_truth(path):
    """Parse a ground-truth file written by write_truth."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise GraphFileError(f"Cannot read truth file {path}: {exc}") from exc
    try:
        manifold = lines[0].split()[1]
        n = int(lines[1].split()[1])
        if manifold == "sphere":
            data = np.array([[float(x) for x in line.split()]
                             for line in lines[2:2 + n]])
            return SphereTruth(rotations=data.reshape(n, 3, 3))
        if manifold == "torus":
            _, big_r, small_r = lines[2].split()
            data = np.array([[float(x) for x in line.split()]
                             for line in lines[3:3 + n]])
            return TorusTruth(u=data[:, 0], v=data[:, 1],
                              frame_angles=data[:, 2],
                              radius_major=float(big_r),
                              radius_minor=float(small_r))
        raise GraphFileError(f"{path}: unknown manifold {manifold!r}.")
    except (IndexError, ValueError) as exc:
        raise GraphFileError(f"{path}: malformed truth file: {exc}") from exc


def write_nn_csv(neighbors: NeighborList, path) -> None:
    """CSV rows (node, rank, neighbor, squared_distance), rank 1 nearest."""
    n, kappa = neighbors.n, neighbors.kappa
    rows = zip(np.repeat(np.arange(n), kappa).tolist(),
               np.tile(np.arange(1, kappa + 1), n).tolist(),
               neighbors.indices.ravel().tolist(),
               neighbors.distances_sq.ravel().tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("node,rank,neighbor,squared_distance\n")
        template = f"%d,%d,%d,{_FLOAT}\n"
        handle.writelines(template % row for row in rows)


def write_alignment_csv(table: AlignmentTable, path) -> None:
    """CSV rows (i, j, alpha_hat_radians, objective_value)."""
    rows = zip(table.i.tolist(), table.j.tolist(), table.alpha_hat.tolist(),
               table.objective.tolist())
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("i,j,alpha_hat_radians,objective_value\n")
        template = f"%d,%d,{_FLOAT},{_FLOAT}\n"
        handle.writelines(template % row for row in rows)


def _write_histogram(edges: np.ndarray, counts: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("bin_lo,bin_hi,count\n")
        for lo, hi, c in zip(edges[:-1].tolist(), edges[1:].tolist(),
                             counts.tolist()):
            handle.write(f"{_fmt(lo)},{_fmt(hi)},{c}\n")


def write_eval_report(report: EvalReport, prefix) -> list:
    """Emit histogram CSVs and a scalars JSON; returns written paths."""
    prefix = Path(prefix)
    written = []
    scalars = {"method": report.method, "params": report.params}
    if report.nn_counts is not None:
        path = prefix.with_name(prefix.name + "_nn_hist.csv")
        _write_histogram(report.nn_bin_edges, report.nn_counts, path)
        written.append(path)
        scalars["nn_mean"] = report.nn_mean
        scalars["nn_median"] = report.nn_median
    if report.align_counts is not None:
        path = prefix.with_name(prefix.name + "_align_hist.csv")
        _write_histogram(report.align_bin_edges_deg, report.align_counts,
                         path)
        written.append(path)
        scalars["align_median_abs_deg"] = report.align_median_abs_deg
    path = prefix.with_name(prefix.name + "_scalars.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(scalars, handle, indent=2, sort_keys=True)
        handle.write("\n")
    written.append(path)
    return written


def write_spectral_report(report: SpectralReport, prefix) -> list:
    """Emit the bottom spectrum CSV and a cluster/theory JSON."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + "_spectrum.csv")
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write("index,one_minus_lambda\n")
        for idx, val in enumerate(report.one_minus_lambda.tolist()):
            handle.write(f"{idx},{_fmt(val)}\n")
    json_path = prefix.with_name(prefix.name + "_clusters.json")
    payload = {
        "k": report.k,
        "h": report.h,
        "cluster_sizes": list(report.cluster_sizes),
        "cluster_means": list(report.cluster_means),
        "theory_multiplicities": list(report.theory_multiplicities),
        "theory_one_minus": list(report.theory_one_minus),
        "leading_gap": report.leading_gap,
        "theory_leading_gap": report.theory_leading_gap,
    }
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return [csv_path, json_path]


def cache_dir_for(out_dir) -> Path:
    """Bundle cache directory: env override, else <out_dir>/cache."""
    env = os.environ.get(CACHE_ENV)
    base = Path(env) if env else Path(out_dir) / "cache"
    base.mkdir(parents=True, exist_ok=True)
    return base


def bundle_cache_path(cache_dir, graph_digest: str, k: int, m: int) -> Path:
    return Path(cache_dir) / f"bundle_{graph_digest[:16]}_k{k}_m{m}.npz"


def save_bundle(bundle: SpectralBundle, path) -> None:
    """Write a bundle to ``path`` atomically.

    The archive goes to a temp file of this writer's own in the same
    directory and is then renamed onto ``path``, so concurrent writers of
    one entry never truncate each other and readers see whole files only.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp",
                               dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, k=bundle.k, eigenvalues=bundle.eigenvalues,
                     eigenvectors=bundle.eigenvectors)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_bundle(path, k: int | None = None,
                shape: tuple | None = None) -> SpectralBundle | None:
    """Load a cached bundle; None if the file is absent or unreadable.

    An unreadable entry (truncated, not an npz, missing arrays) is a cache
    miss, so the caller recomputes the bundle and overwrites it.  So is an
    entry whose stored frequency differs from ``k`` or whose eigenvectors
    are not of ``shape`` (n, m); a None argument is not checked.
    """
    try:
        with open(path, "rb") as handle, np.load(handle) as data:
            bundle = SpectralBundle(k=int(data["k"]),
                                    eigenvalues=data["eigenvalues"],
                                    eigenvectors=data["eigenvectors"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if k is not None and bundle.k != k:
        return None
    if shape is not None and bundle.eigenvectors.shape != tuple(shape):
        return None
    return bundle
