"""File formats: graphs, ground truth, CSVs, reports, and the result cache.

All text output prints floats with 17 significant digits so that values
round-trip exactly and repeated runs produce byte-identical files.  Every
artifact, bundles included, is written to a hidden temp file beside its
target and renamed into place, so a write that fails or is killed never
leaves a partial file under the artifact's name, and writers sharing one
bundle cache never see each other's half-written entry.  The cache holds
npz archives: eigenbundles keyed by (graph content hash, k, m), and each
method's neighbor list and alignment angles keyed by every input that
determines them (``result_cache_path``).  Keys cover inputs only, not the
program's version.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import warnings
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mfvdm.alignment import AlignmentTable
from mfvdm.angles import TWO_PI
from mfvdm.embedding import NeighborList
from mfvdm.errors import BadEdgeError, GraphFileError, ParameterError
from mfvdm.evaluation import EvalReport, SpectralReport
from mfvdm.graph import AlignmentGraph, first_bad_edge
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
    "result_cache_path",
    "save_result",
    "load_neighbors",
    "load_alignment",
]

CACHE_ENV = "MFVDM_CACHE_DIR"


# The one float format of every text output: 17 significant digits.
_FLOAT = "%.17g"
# Table lines formatted per chunk: the chunk's values become Python objects
# (about 40 bytes each), so a writer's memory does not grow with the table.
_CHUNK_LINES = 1 << 13


@contextmanager
def _replacing(path, mode: str = "x"):
    """Yield a new file ``.<name>.<hex>.tmp`` beside ``path``, made by
    exclusive create (so it gets a plain ``open``'s mode).  It is renamed
    onto ``path`` when the block ends, or removed if the block raises."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    handle = open(tmp, mode, encoding=None if "b" in mode else "utf-8")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_table(path, header: str, template: str, *columns) -> None:
    """Write ``header``, then one ``template % row`` line per element of
    the equal-shape ``columns``, in row-major order.

    Lines are formatted ``_CHUNK_LINES`` at a time, from slices along the
    first axis, so a 2-D column (a broadcast view, say) is never copied
    whole.
    """
    shape = columns[0].shape
    step = max(1, _CHUNK_LINES // math.prod(shape[1:]))
    with _replacing(path) as handle:
        handle.write(header)
        for lo in range(0, shape[0], step):
            rows = zip(*(column[lo:lo + step].ravel().tolist()
                         for column in columns))
            handle.writelines(template % row for row in rows)


def _write_json(payload: dict, path) -> None:
    with _replacing(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_graph(graph: AlignmentGraph, path) -> None:
    """Write the edge-list format: header ``n <count>``, lines ``i j w a``."""
    _write_table(path, f"n {graph.n}\n", f"%d %d {_FLOAT} {_FLOAT}\n",
                 graph.rows, graph.cols, graph.weights, graph.angles)


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

    The body is parsed from the open file by one ``np.loadtxt`` call and
    checked on arrays.  An error names the first offending line, as a
    line-by-line reader would; only then is the file read as lines.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = handle.readline()
            try:
                with warnings.catch_warnings():
                    # Some numpy releases parse "0.7" into an int field
                    # with only a DeprecationWarning; reject it instead.
                    warnings.simplefilter("error", DeprecationWarning)
                    # No data: no edges, which from_edges rejects.
                    warnings.filterwarnings("ignore", "loadtxt: input")
                    edges = np.loadtxt(handle, dtype=_EDGE_DTYPE,
                                       comments=None, ndmin=1)
                rejection = None
            except (ValueError, DeprecationWarning) as exc:
                rejection = exc
    except OSError as exc:
        raise GraphFileError(f"Cannot read graph file {path}: {exc}") from exc
    if not header.startswith("n "):
        raise GraphFileError(f"{path}: first line must be 'n <count>'.")
    try:
        n = int(header.split()[1])
    except (IndexError, ValueError) as exc:
        raise GraphFileError(f"{path}: bad header {header!r}.") from exc
    if rejection is not None:
        edges, error = _parse_edge_lines(path, rejection)
        _check_edges(path, n, edges)
        raise error from rejection
    try:
        return AlignmentGraph.from_edges(n, edges["i"], edges["j"],
                                         edges["w"], edges["a"])
    except BadEdgeError as exc:
        raise GraphFileError(
            f"{path}:{_edge_line(path, exc.index)}: {exc}") from exc
    except ParameterError as exc:
        raise GraphFileError(f"{path}: {exc}") from exc


def _body_lines(path) -> list:
    """The lines after a graph file's header, read only for error reports."""
    with open(path, "r", encoding="utf-8") as handle:
        return handle.readlines()[1:]


def _parse_edge_lines(path, rejection):
    """Find the first edge line that does not parse, for the error report.

    Used only when ``np.loadtxt`` rejects the body. Returns the edges before
    that line and the error naming it; when Python's parsers take every line
    (a literal such as ``1_0``), the error is ``np.loadtxt``'s ``rejection``.
    """
    limit = np.iinfo(np.int64)
    records = []
    for lineno, raw in enumerate(_body_lines(path), start=2):
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


def _check_edges(path, n: int, edges: np.ndarray) -> None:
    """Raise GraphFileError naming the line of the first edge that breaks
    one of ``first_bad_edge``'s rules."""
    bad = first_bad_edge(n, edges["i"], edges["j"], edges["w"], edges["a"])
    if bad is None:
        return
    row, message = bad
    raise GraphFileError(f"{path}:{_edge_line(path, row)}: {message}")


def _edge_line(path, row: int) -> int:
    """File line number of edge ``row``; blank lines count as lines."""
    return [k for k, raw in enumerate(_body_lines(path), start=2)
            if raw.strip()][row]


def write_truth(truth, path) -> None:
    """Serialize a ground truth (sphere rotations or torus angles)."""
    if isinstance(truth, SphereTruth):
        _write_table(path, f"manifold sphere\nn {truth.n}\n",
                     " ".join([_FLOAT] * 9) + "\n",
                     *truth.rotations.reshape(truth.n, 9).T)
    elif isinstance(truth, TorusTruth):
        radii = (f"radii {_FLOAT} {_FLOAT}\n"
                 % (truth.radius_major, truth.radius_minor))
        _write_table(path, f"manifold torus\nn {truth.n}\n{radii}",
                     f"{_FLOAT} {_FLOAT} {_FLOAT}\n",
                     truth.u, truth.v, truth.frame_angles)
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
        if manifold not in ("sphere", "torus"):
            raise GraphFileError(f"{path}: unknown manifold {manifold!r}.")
        rows = lines[2:] if manifold == "sphere" else lines[3:]
        if len(rows) != n:
            raise GraphFileError(f"{path}: header says n {n}, but "
                                 f"{len(rows)} data rows follow.")
        data = np.array([[float(x) for x in line.split()] for line in rows])
        radii = ([float(x) for x in lines[2].split()[1:]]
                 if manifold == "torus" else [])
        if not (np.isfinite(data).all() and np.isfinite(radii).all()):
            raise GraphFileError(f"{path}: a value is NaN or inf.")
        if manifold == "sphere":
            return SphereTruth(rotations=data.reshape(n, 3, 3))
        big_r, small_r = radii
        return TorusTruth(u=data[:, 0], v=data[:, 1],
                          frame_angles=data[:, 2], radius_major=big_r,
                          radius_minor=small_r)
    except (IndexError, ValueError) as exc:
        raise GraphFileError(f"{path}: malformed truth file: {exc}") from exc


def write_nn_csv(neighbors: NeighborList, path) -> None:
    """CSV rows (node, rank, neighbor, squared_distance), rank 1 nearest."""
    shape = (neighbors.n, neighbors.kappa)
    _write_table(path, "node,rank,neighbor,squared_distance\n",
                 f"%d,%d,%d,{_FLOAT}\n",
                 np.broadcast_to(np.arange(shape[0])[:, None], shape),
                 np.broadcast_to(np.arange(1, shape[1] + 1), shape),
                 neighbors.indices, neighbors.distances_sq)


def write_alignment_csv(table: AlignmentTable, path) -> None:
    """CSV rows (i, j, alpha_hat_radians, objective_value)."""
    _write_table(path, "i,j,alpha_hat_radians,objective_value\n",
                 f"%d,%d,{_FLOAT},{_FLOAT}\n", table.i, table.j,
                 table.alpha_hat, table.objective)


def _write_histogram(path, edges: np.ndarray, counts: np.ndarray) -> None:
    _write_table(path, "bin_lo,bin_hi,count\n", f"{_FLOAT},{_FLOAT},%d\n",
                 edges[:-1], edges[1:], counts)


def write_eval_report(report: EvalReport, prefix) -> list:
    """Emit histogram CSVs and a scalars JSON; returns written paths."""
    prefix = Path(prefix)
    written = []
    scalars = {"method": report.method, "params": report.params}
    if report.nn_counts is not None:
        path = prefix.with_name(prefix.name + "_nn_hist.csv")
        _write_histogram(path, report.nn_bin_edges, report.nn_counts)
        written.append(path)
        scalars["nn_mean"] = report.nn_mean
        scalars["nn_median"] = report.nn_median
    if report.align_counts is not None:
        path = prefix.with_name(prefix.name + "_align_hist.csv")
        _write_histogram(path, report.align_bin_edges_deg, report.align_counts)
        written.append(path)
        scalars["align_median_abs_deg"] = report.align_median_abs_deg
    path = prefix.with_name(prefix.name + "_scalars.json")
    _write_json(scalars, path)
    written.append(path)
    return written


def write_spectral_report(report: SpectralReport, prefix) -> list:
    """Emit the bottom spectrum CSV and a cluster/theory JSON."""
    prefix = Path(prefix)
    csv_path = prefix.with_name(prefix.name + "_spectrum.csv")
    values = report.one_minus_lambda
    _write_table(csv_path, "index,one_minus_lambda\n", f"%d,{_FLOAT}\n",
                 np.arange(values.size), values)
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
    _write_json(payload, json_path)
    return [csv_path, json_path]


def cache_dir_for(out_dir) -> Path:
    """Cache directory of bundles and results: env override, else
    <out_dir>/cache."""
    env = os.environ.get(CACHE_ENV)
    base = Path(env) if env else Path(out_dir) / "cache"
    base.mkdir(parents=True, exist_ok=True)
    return base


def bundle_cache_path(cache_dir, graph_digest: str, k: int, m: int) -> Path:
    return Path(cache_dir) / f"bundle_{graph_digest[:16]}_k{k}_m{m}.npz"


def save_bundle(bundle: SpectralBundle, path) -> None:
    """Write a bundle to ``path`` atomically.

    Each writer fills a temp file of its own, so concurrent writers of one
    entry never truncate each other and readers see whole files only.
    """
    with _replacing(path, "xb") as handle:
        np.savez(handle, k=bundle.k, eigenvalues=bundle.eigenvalues,
                 eigenvectors=bundle.eigenvectors)


def load_bundle(path, k: int, shape: tuple) -> SpectralBundle | None:
    """Load a cached bundle; None if the file is absent or unreadable.

    An unreadable entry (truncated, not an npz, missing arrays) is a cache
    miss, so the caller recomputes the bundle and overwrites it.  So is an
    entry whose stored frequency differs from ``k`` or whose eigenvectors
    are not of ``shape`` (n, m).
    """
    try:
        with open(path, "rb") as handle, np.load(handle) as data:
            bundle = SpectralBundle(k=int(data["k"]),
                                    eigenvalues=data["eigenvalues"],
                                    eigenvectors=data["eigenvectors"])
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if bundle.k != k or bundle.eigenvectors.shape != tuple(shape):
        return None
    return bundle


def result_cache_path(cache_dir, kind: str, graph_digest: str, frequencies,
                      m: int, t: int, kappa: int) -> Path:
    """``<kind>_<16 hex>.npz``, ``kind`` being ``nn`` or ``align``.

    The hex is a sha256 over what determines a method's neighbor list and
    alignment table: the graph, the method's frequencies, the eigenpairs per
    frequency m (after ``min(m, n)``), the diffusion time t and kappa.  The
    worker count does not, and the alignment grid follows from the
    frequencies.
    """
    fields = (f"{graph_digest} k{','.join(map(str, frequencies))} m{m} t{t} "
              f"kappa{kappa}")
    key = hashlib.sha256(fields.encode("utf-8")).hexdigest()[:16]
    return Path(cache_dir) / f"{kind}_{key}.npz"


def save_result(result: NeighborList | AlignmentTable, path) -> None:
    """Write a neighbor list, or a table's angles and objectives, to
    ``path`` atomically.  A table's pairs are not stored: they follow from
    its neighbor list."""
    if isinstance(result, NeighborList):
        arrays = {"indices": result.indices,
                  "distances_sq": result.distances_sq}
    else:
        arrays = {"alpha_hat": result.alpha_hat,
                  "objective": result.objective}
    with _replacing(path, "xb") as handle:
        np.savez(handle, **arrays)


def _load_arrays(path, shape: tuple, **dtypes) -> dict | None:
    """The arrays named in ``dtypes`` from the npz at ``path``; None if the
    file is absent or unreadable, or an array is missing or not of ``shape``
    and its dtype."""
    try:
        with open(path, "rb") as handle, np.load(handle) as data:
            arrays = {name: data[name] for name in dtypes}
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    if any(array.shape != shape or array.dtype != dtypes[name]
           for name, array in arrays.items()):
        return None
    return arrays


def load_neighbors(path, n: int, kappa: int) -> NeighborList | None:
    """A cached neighbor list of n nodes and kappa neighbors each; None on
    a miss.

    Like ``load_bundle``, an entry that cannot be read, has the wrong
    shape, or holds a neighbor outside [0, n) or a squared distance that is
    not a finite value >= 0 is a miss, so the caller recomputes and
    overwrites it.
    """
    arrays = _load_arrays(path, (n, kappa), indices=np.int64,
                          distances_sq=np.float64)
    if arrays is None:
        return None
    indices, distances = arrays["indices"], arrays["distances_sq"]
    if not (np.all((indices >= 0) & (indices < n))
            and np.all(np.isfinite(distances) & (distances >= 0.0))):
        return None
    return NeighborList(indices=indices, distances_sq=distances)


def load_alignment(path, neighbors: NeighborList) -> AlignmentTable | None:
    """The cached alignment table of ``neighbors``' pairs, in their order;
    None on a miss.  An entry misses if it cannot be read or does not hold
    one angle in [0, 2*pi) and one finite objective per pair."""
    arrays = _load_arrays(path, (neighbors.n * neighbors.kappa,),
                          alpha_hat=np.float64, objective=np.float64)
    if arrays is None:
        return None
    alpha, objective = arrays["alpha_hat"], arrays["objective"]
    if not (np.all((alpha >= 0.0) & (alpha < TWO_PI))
            and np.all(np.isfinite(objective))):
        return None
    return AlignmentTable(
        i=np.repeat(np.arange(neighbors.n, dtype=np.int64), neighbors.kappa),
        j=neighbors.indices.ravel(), alpha_hat=alpha, objective=objective)
