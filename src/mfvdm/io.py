"""File formats: graphs, ground truth, CSVs, reports, eigenbundles, results
and the run manifest.

All text output prints floats with 17 significant digits so that values
round-trip exactly and repeated runs produce byte-identical files.  A
table column's dtype picks its format: ``%d`` for an integer type,
``%.17g`` for any other.  Tables are formatted by a numpy kernel
(``_format_lines``) that writes the bytes of ``%d`` and ``%.17g``,
computing the 17 digits exactly, a chunk of lines at a time; only values
outside ``%.17g``'s fixed notation (0, |x| < 1e-4, |x| >= 1e17, nan, inf)
go through Python's ``%``, one value each.  Every
artifact, bundles included, is written to a hidden temp file beside its
target and renamed into place, so a write that fails or is killed never
leaves a partial file under the artifact's name, and runs writing one
bundle never see each other's half-written file.  The eigenbundles
(``save_bundle``) and each method's neighbor list and alignment angles
(``save_result``) are npz artifacts of an output directory.  The run
manifest (``RunManifest``) records, for each artifact, the key of the
program and inputs that produced it and the sha256 of its bytes; a file
is read back, unchecked, only once the manifest holds it.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import math
import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mfvdm.alignment import AlignmentTable
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
    "save_result",
    "load_neighbors",
    "load_alignment",
    "program_identity",
    "artifact_key",
    "file_sha256",
    "RunManifest",
]

CACHE_ENV = "MFVDM_CACHE_DIR"


# Table values formatted per chunk: 4096 lines of a 4-field table.  A chunk
# is held as one byte per character slot and value (at most 39 slots per
# float, 20 per integer) plus the kernel's per-value temporaries, so a
# writer's memory grows neither with the table nor with its width.
_CHUNK_VALUES = 1 << 14


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


def _write_table(path, header: str, sep: str, *columns) -> None:
    """Write ``header``, then one line per element of the equal-shape
    ``columns``, in row-major order: its value in each column, ``sep``
    between them and ``\n`` after the last.

    A column of an integer dtype is written as ``%d``, any other as
    ``%.17g`` of its float64 values.  Lines are formatted by
    ``_format_lines``, ``_CHUNK_VALUES`` values (at least one line) at a
    time, from slices along the first axis, so a 2-D column (a broadcast
    view, say) is never copied whole.
    """
    integer = [np.issubdtype(column.dtype, np.integer) for column in columns]
    literals = [np.frombuffer(text.encode("utf-8"), np.uint8)[:, None]
                for text in ["", *[sep] * (len(columns) - 1), "\n"]]
    shape = columns[0].shape
    step = max(1, _CHUNK_VALUES // (len(columns) * math.prod(shape[1:])))
    # Comparisons with NaN may raise the invalid flag; NaN is formatted by
    # the per-value fallback.
    with _replacing(path, "xb") as handle, np.errstate(invalid="ignore"):
        handle.write(header.encode("utf-8"))
        for lo in range(0, shape[0], step):
            handle.write(_format_lines(literals, integer, [
                column[lo:lo + step].ravel().astype(
                    column.dtype if whole else np.float64, copy=False)
                for column, whole in zip(columns, integer)]))


def _format_lines(literals: list, integer: list, values: list) -> bytes:
    """The lines of one chunk: per row of ``values``, the ``literals``
    (byte columns) with each value between them, formatted as ``%d`` where
    ``integer`` is true and as ``%.17g`` elsewhere.

    Each field becomes byte rows, one per character slot and one column per
    line, with 0 in a slot the line leaves empty.  Stacked between the
    literals' rows, into a column-major array, the slots lie in line order,
    and dropping the zeros leaves the text.
    """
    count = values[0].size
    pieces = [np.broadcast_to(literals[0], (literals[0].shape[0], count))]
    for whole, column, literal in zip(integer, values, literals[1:]):
        field = _int_field(column) if whole else _float_field(column)
        # Slots no line of the chunk uses (a sign, say) cost no bytes.
        pieces.append(field[field.any(axis=1)])
        pieces.append(np.broadcast_to(literal, (literal.shape[0], count)))
    slots = np.empty((sum(piece.shape[0] for piece in pieces), count),
                     np.uint8, order="F")
    np.concatenate(pieces, out=slots)
    flat = slots.ravel("F")
    return flat[flat != 0].tobytes()


_TEN = np.uint64(10)
_POWERS = np.array([10 ** k for k in range(20)], np.uint64)


def _int_field(values: np.ndarray) -> np.ndarray:
    """``"%d" % v`` for each v of an integer dtype: a sign slot, then the
    digits right-aligned in as many slots as the longest needs."""
    negative = values < 0
    magnitude = values.astype(np.uint64)
    # Two's complement negation, exact for the int64 minimum too.
    np.negative(magnitude, out=magnitude, where=negative)
    width = len(str(int(magnitude.max())))
    field = np.empty((1 + width, values.size), np.uint8)
    field[0] = negative
    field[0] *= ord("-")
    # Floor division by a scalar is several times faster than np.divmod.
    quotient = magnitude
    for slot in range(width, 0, -1):
        rest = quotient // _TEN
        field[slot] = quotient - rest * _TEN
        quotient = rest
    field[1:] += ord("0")
    # A leading zero's slot is empty: slot j holds a digit only if the
    # magnitude has width + 1 - j digits or more.
    field[1:width] *= magnitude >= _POWERS[width - 1:0:-1, None]
    return field


# %.17g of a float64 a with 1e-4 <= |a| < 1e17 is fixed notation.  The
# kernel scales a by 10**s, s = 16 - E in [0, 20]: each is a double, as are
# both halves of its Veltkamp split.
_POW10 = np.array([float(10 ** s) for s in range(21)])
_SPLITTER = float(2 ** 27 + 1)
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# The fixed-notation slots: sign, "0.000" before a value below 1, then 17
# digits with a decimal point slot after each of the first 16.
_FLOAT_SLOTS = 6 + 17 + 16
_PREFIX = np.array([[ord(c)] for c in "0.000"], np.uint8)
_PREFIX_BELOW = np.array([[0], [0], [-1], [-2], [-3]], np.int8)
_DIGIT = np.arange(17, dtype=np.int8)[:, None]


def _float_field(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` for each float64 v, in ``_FLOAT_SLOTS`` slots.

    A finite v with 1e-4 <= |v| < 1e17 is formatted from the exact 17-digit
    decimal of ``_decimal17``; any other (0, -0.0, tiny, huge, subnormal,
    nan, inf) by Python's ``%``, left-aligned in the same slots.
    """
    magnitude = np.abs(values)
    fast = (magnitude >= 1e-4) & (magnitude < 1e17)
    mantissa, exponent = _decimal17(np.where(fast, magnitude, 1.0))
    exponent = exponent.astype(np.int8)
    digits = _digits17(mantissa)
    # Digits up to the last nonzero one, and all before the decimal point.
    significant = ((digits != 0) * (_DIGIT + 1)).max(axis=0)
    field = np.empty((_FLOAT_SLOTS, values.size), np.uint8)
    field[0] = values < 0
    field[0] *= ord("-")
    field[1:6] = _PREFIX * (exponent < _PREFIX_BELOW)
    field[6::2] = digits + ord("0")
    field[6::2] *= (_DIGIT < significant) | (_DIGIT <= exponent)
    field[7::2] = (_DIGIT[:16] == exponent) & (_DIGIT[1:] < significant)
    field[7::2] *= ord(".")
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = b"".join(("%.17g" % value).encode("ascii").ljust(
            _FLOAT_SLOTS, b"\0") for value in values[slow].tolist())
        field[:, slow] = np.frombuffer(text, np.uint8).reshape(
            slow.size, _FLOAT_SLOTS).T
    return field


def _decimal17(magnitude: np.ndarray) -> tuple:
    """(D, E) with D * 10**(E - 16) the 17-significant-digit decimal of each
    float64 in [1e-4, 1e17), rounded half to even as ``%.17g`` rounds: D an
    int64 in [1e16, 1e17), E in [-4, 16].

    hi + lo = magnitude * 10**(16 - E) exactly (Dekker's TwoProduct), and
    hi >= 2**53 is an integer, so D is hi + floor(lo) plus one rounding
    step.  ``log10`` can miss E by one next to a power of ten; one pass
    moves E until the product lies in [1e16, 1e17).  Rounding never
    carries to 1e17: for each 10**(E + 1), the largest double below it
    gives a product at least 8 below 1e17.
    """
    exponent = np.clip(np.floor(np.log10(magnitude)), -4, 16).astype(np.int64)
    hi, lo = _times_pow10(magnitude, 16 - exponent)
    fix = ((hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))).astype(np.int64)
    fix -= (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    if fix.any():
        exponent += fix
        hi, lo = _times_pow10(magnitude, 16 - exponent)
    floor = np.floor(lo)
    mantissa = hi.astype(np.int64) + floor.astype(np.int64)
    # lo - floor(lo) can round onto 0.5; floor(lo) + 0.5 is exact.
    half = floor + 0.5
    mantissa += (lo > half) | ((lo == half) & ((mantissa & 1) == 1))
    return mantissa, exponent


def _times_pow10(a: np.ndarray, s: np.ndarray) -> tuple:
    """Dekker's TwoProduct of a and 10**s: hi + lo equals the product."""
    hi = a * _POW10[s]
    scaled = _SPLITTER * a
    a_hi = scaled - (scaled - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI[s], _POW10_LO[s]
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    return hi, lo


def _digits17(mantissa: np.ndarray) -> np.ndarray:
    """The 17 decimal digits of each int64 in [1e16, 1e17), most
    significant first, as a (17, n) uint8 array."""
    digits = np.empty((17, mantissa.size), np.uint8)
    groups = np.empty((4, mantissa.size), np.int16)
    quotient = mantissa
    for group in range(3, -1, -1):
        rest = quotient // 10000
        groups[group] = quotient - rest * 10000
        quotient = rest
    digits[0] = quotient
    # Four digits of each of the four groups: digits[1 + 4 * group + k].
    by_group = digits[1:].reshape(4, 4, mantissa.size)
    for k in range(3, -1, -1):
        rest = groups // 10
        by_group[:, k] = groups - rest * 10
        groups = rest
    return digits


def _write_json(payload: dict, path) -> None:
    with _replacing(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def write_graph(graph: AlignmentGraph, path) -> None:
    """Write the edge-list format: header ``n <count>``, lines ``i j w a``."""
    _write_table(path, f"n {graph.n}\n", " ", graph.rows, graph.cols,
                 graph.weights, graph.angles)


# The fields of an edge line, as read and as hashed.
_EDGE_DTYPE = np.dtype([("i", "<i8"), ("j", "<i8"), ("w", "<f8"),
                        ("a", "<f8")])


def graph_hash(graph: AlignmentGraph) -> str:
    """Content hash of n and the edge arrays' little-endian bytes.

    The arrays hold exactly the values ``write_graph`` round-trips, so a
    graph and its reloaded file hash alike.  Tests pin graphs by this
    digest and pipebench's tracer times it; the CLI keys what it makes from
    a graph by the sha256 of the graph's file instead, so a kept graph is
    never parsed just to be hashed.
    """
    digest = hashlib.sha256(f"n {graph.n}\n".encode("utf-8"))
    arrays = (graph.rows, graph.cols, graph.weights, graph.angles)
    for field, array in enumerate(arrays):
        digest.update(np.ascontiguousarray(
            array, dtype=_EDGE_DTYPE[field]).tobytes())
    return digest.hexdigest()


def read_graph(path) -> AlignmentGraph:
    """Parse the edge-list format back into a validated AlignmentGraph.

    The body is parsed from the open file by one ``np.loadtxt`` call and
    checked on arrays.  An error names the first offending line, as a
    line-by-line reader would; only then is the file read as lines
    (``_first_bad_line``).
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
    words = header.split()
    if not header.startswith("n ") or len(words) != 2:
        raise GraphFileError(f"{path}: first line must be 'n <count>'. "
                             f"Got {header.strip()!r}.")
    try:
        n = int(words[1])
    except ValueError as exc:
        raise GraphFileError(f"{path}: bad header {header!r}.") from exc
    if rejection is None:
        try:
            return AlignmentGraph.from_edges(n, edges["i"], edges["j"],
                                             edges["w"], edges["a"])
        except BadEdgeError as exc:
            rejection = exc
        except ParameterError as exc:
            raise GraphFileError(f"{path}: {exc}") from exc
    raise _first_bad_line(path, n, rejection) from rejection


def _first_bad_line(path, n: int, rejection: Exception) -> GraphFileError:
    """The error naming the first body line that does not parse or whose
    edge breaks one of ``first_bad_edge``'s rules, for a body that
    ``np.loadtxt`` or ``from_edges`` rejected.

    One walk parses the lines and records each edge's file line (blank
    lines count as lines).  When Python's parsers take every line (a
    literal such as ``1_0``) and every edge keeps the rules, the error is
    ``rejection``'s.
    """
    limit = np.iinfo(np.int64)
    records, linenos = [], []
    error = GraphFileError(f"{path}: {rejection}")
    with open(path, "r", encoding="utf-8") as handle:
        handle.readline()
        for lineno, raw in enumerate(handle, start=2):
            parts = raw.split()
            if not parts:
                continue
            if len(parts) != 4:
                error = GraphFileError(f"{path}:{lineno}: expected "
                                       f"'i j w alpha'. Got {raw.strip()!r}.")
                break
            try:
                i, j = int(parts[0]), int(parts[1])
                w, a = float(parts[2]), float(parts[3])
            except ValueError as exc:
                error = GraphFileError(f"{path}:{lineno}: {exc}")
                break
            if not (limit.min <= i <= limit.max
                    and limit.min <= j <= limit.max):
                error = GraphFileError(
                    f"{path}:{lineno}: endpoint out of range.")
                break
            records.append((i, j, w, a))
            linenos.append(lineno)
    edges = np.array(records, dtype=_EDGE_DTYPE)
    bad = first_bad_edge(n, edges["i"], edges["j"], edges["w"], edges["a"])
    if bad is not None:
        error = GraphFileError(f"{path}:{linenos[bad[0]]}: {bad[1]}")
    return error


def write_truth(truth, path) -> None:
    """Serialize a ground truth (sphere rotations or torus angles)."""
    if isinstance(truth, SphereTruth):
        _write_table(path, f"manifold sphere\nn {truth.n}\n", " ",
                     *truth.rotations.reshape(truth.n, 9).T)
    elif isinstance(truth, TorusTruth):
        radii = f"radii {truth.radius_major:.17g} {truth.radius_minor:.17g}\n"
        _write_table(path, f"manifold torus\nn {truth.n}\n{radii}", " ",
                     truth.u, truth.v, truth.frame_angles)
    else:
        raise ParameterError(f"Unknown truth type {type(truth)!r}.")


_TRUTH_COLUMNS = {"sphere": 9, "torus": 3}


def _header_values(path, handle, name: str, count: int) -> list:
    """The ``count`` values after ``name`` on the next non-blank line."""
    words = next((line.split() for line in handle if line.strip()), [])
    if words[:1] != [name] or len(words) != count + 1:
        raise GraphFileError(f"{path}: expected the header line {name!r} "
                             f"with {count} value(s), got {words!r}.")
    return words[1:]


def read_truth(path):
    """Parse a ground-truth file written by write_truth.

    The header is read line by line and the body by one ``np.loadtxt`` call
    on the open file.  Blank lines are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return _parse_truth(path, handle)
            except (IndexError, ValueError) as exc:
                raise GraphFileError(
                    f"{path}: malformed truth file: {exc}") from exc
    except OSError as exc:
        raise GraphFileError(f"Cannot read truth file {path}: {exc}") from exc


def _parse_truth(path, handle):
    [manifold] = _header_values(path, handle, "manifold", 1)
    n = int(_header_values(path, handle, "n", 1)[0])
    if manifold not in _TRUTH_COLUMNS:
        raise GraphFileError(f"{path}: unknown manifold {manifold!r}.")
    radii = ([float(x) for x in _header_values(path, handle, "radii", 2)]
             if manifold == "torus" else [])
    with warnings.catch_warnings():
        # No rows: the row count check reports it.
        warnings.filterwarnings("ignore", "loadtxt: input")
        data = np.loadtxt(handle, comments=None, ndmin=2)
    if data.shape[0] != n:
        raise GraphFileError(f"{path}: header says n {n}, but "
                             f"{data.shape[0]} data rows follow.")
    if data.shape[1] != _TRUTH_COLUMNS[manifold]:
        raise ValueError(f"expected {_TRUTH_COLUMNS[manifold]} values per "
                         f"row, got {data.shape[1]}")
    if not (np.isfinite(data).all() and np.isfinite(radii).all()):
        raise GraphFileError(f"{path}: a value is NaN or inf.")
    if manifold == "sphere":
        return SphereTruth(rotations=data.reshape(n, 3, 3))
    big_r, small_r = radii
    return TorusTruth(u=data[:, 0], v=data[:, 1], frame_angles=data[:, 2],
                      radius_major=big_r, radius_minor=small_r)


def write_nn_csv(neighbors: NeighborList, path) -> None:
    """CSV rows (node, rank, neighbor, squared_distance), rank 1 nearest."""
    shape = (neighbors.n, neighbors.kappa)
    _write_table(path, "node,rank,neighbor,squared_distance\n", ",",
                 np.broadcast_to(np.arange(shape[0])[:, None], shape),
                 np.broadcast_to(np.arange(1, shape[1] + 1), shape),
                 neighbors.indices, neighbors.distances_sq)


def write_alignment_csv(table: AlignmentTable, path) -> None:
    """CSV rows (i, j, alpha_hat_radians, objective_value)."""
    _write_table(path, "i,j,alpha_hat_radians,objective_value\n", ",",
                 table.i, table.j, table.alpha_hat, table.objective)


def _write_histogram(path, edges: np.ndarray, counts: np.ndarray) -> None:
    _write_table(path, "bin_lo,bin_hi,count\n", ",", edges[:-1], edges[1:],
                 counts)


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
    _write_table(csv_path, "index,one_minus_lambda\n", ",",
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
    """Directory of the bundles: env override, else <out_dir>/cache."""
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


def load_bundle(path) -> SpectralBundle:
    """The bundle ``save_bundle`` wrote to ``path``."""
    with open(path, "rb") as handle, np.load(handle) as data:
        return SpectralBundle(k=int(data["k"]),
                              eigenvalues=data["eigenvalues"],
                              eigenvectors=data["eigenvectors"])


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


def load_neighbors(path) -> NeighborList:
    """The neighbor list ``save_result`` wrote to ``path``."""
    with open(path, "rb") as handle, np.load(handle) as data:
        return NeighborList(indices=data["indices"],
                            distances_sq=data["distances_sq"])


def load_alignment(path, neighbors: NeighborList) -> AlignmentTable:
    """The alignment table of ``neighbors``' pairs, in their order, whose
    angles and objectives ``save_result`` wrote to ``path``."""
    i, j = neighbors.pairs()
    with open(path, "rb") as handle, np.load(handle) as data:
        return AlignmentTable(i=i, j=j, alpha_hat=data["alpha_hat"],
                              objective=data["objective"])


@functools.cache
def program_identity() -> str:
    """sha256 over this package's ``.py`` sources, numpy's version and
    scipy's (``_scipy_version``), so a change to any of them changes every
    artifact key: ARPACK, which solves the bundles, is scipy's."""
    digest = hashlib.sha256(f"numpy {np.__version__}\n".encode("utf-8"))
    scipy = _scipy_version()
    digest.update(f"scipy {len(scipy)}\n".encode("utf-8") + scipy)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        data = path.read_bytes()
        digest.update(f"{path.name} {len(data)}\n".encode("utf-8") + data)
    return digest.hexdigest()


def _scipy_version() -> bytes:
    """The bytes of scipy's ``version.py``, which holds its version and git
    revision, found without importing scipy (a warm rerun never loads it);
    its installed version if that file is missing."""
    spec = importlib.util.find_spec("scipy")
    try:
        return (Path(spec.submodule_search_locations[0])
                / "version.py").read_bytes()
    except OSError:
        # Loaded only here: it costs tens of milliseconds to import.
        from importlib.metadata import version
        return version("scipy").encode("utf-8")


def artifact_key(inputs: list) -> str:
    """The key of an artifact made from ``inputs`` (JSON values): a sha256
    over the program identity and the inputs."""
    text = json.dumps([program_identity(), *inputs], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    """sha256 of a file's bytes, read into one 64 KiB buffer: a larger
    block would be mapped and unmapped, which raises glibc's mmap threshold
    and with it the run's peak RSS (about 0.7 MB on ``sphere_cold`` at
    1 MiB)."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 16)
    view = memoryview(buffer)
    with open(path, "rb") as handle:
        while count := handle.readinto(buffer):
            digest.update(view[:count])
    return digest.hexdigest()


class RunManifest:
    """``<out>/cache/manifest.json``: for each artifact, by its ``name``,
    the key of the inputs that produced it and the sha256 of its bytes.

    It sits under ``<out>`` even when ``MFVDM_CACHE_DIR`` moves the
    bundles, since it records this directory's own artifacts.  A manifest
    that is missing or is not such a mapping reads as empty, so every
    artifact is rebuilt.  ``used`` holds the artifacts this run kept or
    recorded.
    """

    def __init__(self, out_dir) -> None:
        self.root = Path(out_dir)
        self.path = self.root / "cache" / "manifest.json"
        self.entries = _read_manifest(self.path)
        self.used = set()

    def name(self, path) -> str:
        """The name of the file ``path``: its path relative to ``<out>`` if
        it lies under it, else its absolute path, both resolved (so a
        symlinked ``<out>`` never turns one file into ``../`` names)."""
        path, root = Path(path).resolve(), self.root.resolve()
        return (path.relative_to(root) if root in path.parents
                else path).as_posix()

    def holds(self, names, key: str) -> bool:
        """Whether every artifact in ``names`` is recorded under ``key`` and
        its file still has the recorded bytes."""
        for name in names:
            entry = self.entries.get(name)
            if entry is None or entry["key"] != key:
                return False
            try:
                if file_sha256(self.root / name) != entry["sha256"]:
                    return False
            except OSError:
                return False
        self.used.update(names)
        return True

    def record(self, pairs) -> None:
        """Record each file ``name``, just written, under its ``key``, for
        the (name, key) ``pairs``; then rewrite the manifest once."""
        for name, key in pairs:
            self.entries[name] = {"key": key,
                                  "sha256": file_sha256(self.root / name)}
            self.used.add(name)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        _write_json(self.entries, self.path)

    def drop_unused(self, prefixes: tuple) -> list:
        """Delete each recorded artifact whose name starts with one of
        ``prefixes`` and that this run neither kept nor recorded, and its
        entry; rewrite the manifest if one went, and return their names."""
        stale = [name for name in self.entries
                 if name.startswith(prefixes) and name not in self.used]
        for name in stale:
            (self.root / name).unlink(missing_ok=True)
            del self.entries[name]
        if stale:
            _write_json(self.entries, self.path)
        return stale


def _read_manifest(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            entries = json.load(handle)
    except (OSError, ValueError):
        return {}
    if not (isinstance(entries, dict) and all(
            isinstance(entry, dict) and isinstance(entry.get("key"), str)
            and isinstance(entry.get("sha256"), str)
            for entry in entries.values())):
        return {}
    return entries
