"""Equivalence gate: compare two ``pipeline`` output trees.

A change that moves only the last bits of floating-point results passes
this gate against its parent; any other difference fails it.  Usage::

    python tests/compare_trees.py PARENT_OUT CHANGE_OUT

It prints every mismatch and exits 1 if there is one, else prints how
many files are byte-identical and the largest deviations it saw in the
others, and exits 0.  Notes (near-tie rank trades, negative distances) are
printed either way.

The rules, fixed before anything is compared:

* Both trees hold the same files.
* A file whose bytes are equal in both trees is identical, and no rule
  below is applied to it: equal bytes meet every one of them.  (The
  subspace rule would otherwise report a sine of a few 1e-15 for two
  equal bundles, from the QR it takes.)
* ``nn_*.csv``: the header and the (node, rank) columns are identical,
  and each node keeps the same set of neighbors.  Each neighbor's
  squared_distance agrees within ``NN_DISTANCE_ATOL`` absolute.  A squared
  diffusion distance lies in [0, 4]; last-bit moves of the eigenvectors
  (about 1e-13) and of the summation order move it by a few 1e-13 at
  most, and 1e-12 leaves room for that and for nothing larger.
  Near-tie rule: within one node's rows, two neighbors may trade ranks
  only if their squared distances agree within ``NN_DISTANCE_ATOL`` in
  both trees.  Rounding decides the order of such neighbors (a clean
  torus has nodes at mutual |d2| < 1e-15), so any last-bit change may
  reorder them.  Every trade is listed as a note, and so is every
  negative squared distance: the search clamps d2 at 0, but trees written
  before the clamp hold a few at -1e-15.
* ``bundle_*.npz`` (the eigenbundle cache): the same k and shapes;
  eigenvalues agree within ``EIGENVALUE_ATOL`` absolute (they lie in
  [-1, 1], and ARPACK's rounding moves them by a few 1e-15); eigenvectors
  agree as subspaces.  Eigenvalues less than ``EIGEN_CLUSTER_GAP`` apart
  form one cluster, since a rounding change may rotate the vectors of a
  cluster among themselves and the embedding distances do not see that.
  For each cluster the sine of the largest principal angle between the two
  spans must be at most ``SUBSPACE_SIN_TOL``.  Across a gap of 1e-4 a
  1e-15 residual turns a vector by about 1e-11, so 1e-10 is last-bit noise.
* ``align_*.csv``: the header and the i column are identical, and each
  node i keeps the same set of j.  Rows are matched by (i, j) within a
  node, since they follow the neighbor order, which near ties may change.
  alpha_hat agrees within ``ANGLE_TOL_RAD`` on the circle; the objective
  agrees within ``OBJECTIVE_RTOL`` relative to the larger magnitude.
* ``cache/p*/nn_<method>.npz`` and ``cache/p*/align_<method>.npz`` (a
  method's kept neighbor list and alignment angles): each is compared as
  the CSV written from it, under that CSV's rule above.  An
  ``nn_<method>.npz`` entry stands for the rows (node, rank, neighbor,
  squared_distance); an ``align_<method>.npz`` entry for (i, j,
  alpha_hat, objective), its pairs taken from the ``nn_<method>.npz``
  entry beside it in the same tree.  The arrays' names and shapes play
  the part of the header.
* ``report_*_scalars.json``: the same keys; float values agree to
  ``SCALAR_DIGITS`` significant digits; all other values are equal.  An
  angle in degrees (a key ending in ``_deg``, such as the median absolute
  alignment error) may also differ by ``ANGLE_TOL_RAD`` in degrees: each
  pair's error moves no further than its alpha_hat, so neither does their
  median.  Without that floor a median that is itself rounding noise (1e-7
  degrees on a clean torus) fails on a 1e-14 rad move.
* ``cache/manifest.json`` (the run manifest): both record the same
  artifact paths.  An entry recorded by absolute path (a bundle kept in an
  ``MFVDM_CACHE_DIR`` outside ``--out``) matches an absolute entry of the
  other tree with the same file name, which carries the graph digest, k
  and m, so two trees whose bundles sit in different cache directories
  pass.  The keys are not compared, since each covers the program's
  identity, so any two programs differ in all of them; nor are the
  digests, since they follow the files, which the rules here compare.  A
  tree written before the manifest existed has none, and its absence is a
  note, not a mismatch.
* Every other file (truth, graphs, histogram CSVs) is byte-identical.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ANGLE_TOL_RAD = 1e-9
OBJECTIVE_RTOL = 1e-12
NN_DISTANCE_ATOL = 1e-12
EIGENVALUE_ATOL = 1e-12
EIGEN_CLUSTER_GAP = 1e-4
SUBSPACE_SIN_TOL = 1e-10
SCALAR_DIGITS = 10
# Agreement to d significant digits: |a - b| <= 0.5 * 10^(1-d) * max(|a|, |b|).
SCALAR_RTOL = 0.5 * 10.0 ** (1 - SCALAR_DIGITS)


@dataclass
class TreeComparison:
    """Mismatches found, notes, files compared, and the largest deviations
    seen."""

    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    files: int = 0
    identical: int = 0
    max_angle_rad: float = 0.0
    max_objective_rel: float = 0.0
    max_scalar_rel: float = 0.0
    max_nn_distance: float = 0.0
    max_eigenvalue: float = 0.0
    max_subspace_sin: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.problems


def _files(root: Path) -> set:
    return {path.relative_to(root).as_posix()
            for path in root.rglob("*") if path.is_file()}


def _relative(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(a), np.abs(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scale > 0.0, np.abs(a - b) / scale, 0.0)


def _first_difference(a: bytes, b: bytes) -> str:
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return (f"line {number}: {x.decode(errors='replace')!r} != "
                    f"{y.decode(errors='replace')!r}")
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def _bytes_differ(name: str, a: Path, b: Path, result) -> None:
    """Record a file that differs and that no rule below covers."""
    left, right = a.read_bytes(), b.read_bytes()
    result.problems.append(f"{name}: differs at "
                           f"{_first_difference(left, right)}")


def _read_csv(path: Path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, body


def _read_entry(path: Path):
    """A result entry as (its arrays' names and shapes, the rows of the CSV
    written from it).

    ``nn_<method>.npz`` gives (node, rank, neighbor, squared_distance) and
    ``align_<method>.npz`` gives (i, j, alpha_hat, objective), with its
    pairs from the ``nn_<method>.npz`` beside it.  Arrays of unequal length
    give no rows.
    """
    kind, method = path.name.split("_", 1)
    with np.load(path.with_name(f"nn_{method}")) as data:
        nn = {name: data[name] for name in data.files}
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    header = ",".join(f"{name}{array.shape}"
                      for name, array in arrays.items())
    n, kappa = nn["indices"].shape
    columns = [np.repeat(np.arange(n), kappa)]
    if kind == "nn":
        columns += [np.tile(np.arange(1, kappa + 1), n), nn["indices"],
                    nn["distances_sq"]]
    else:
        columns += [nn["indices"], arrays["alpha_hat"], arrays["objective"]]
    columns = [np.ravel(column).astype(float) for column in columns]
    if len({column.size for column in columns}) > 1:
        return header, np.empty((0, 4))
    return header, np.column_stack(columns)


def _read_rows(path: Path):
    """(header, body) of a CSV, or of the CSV a result entry stands for."""
    return _read_entry(path) if path.suffix == ".npz" else _read_csv(path)


def _keyed_rows(name: str, a: Path, b: Path, keys: int, label: str, result):
    """Both bodies if the headers and the first ``keys`` columns are
    identical, else None after recording the mismatch."""
    header_a, left = _read_rows(a)
    header_b, right = _read_rows(b)
    if header_a != header_b or left.shape != right.shape:
        result.problems.append(f"{name}: header or row count differs")
        return None
    differs = np.any(left[:, :keys] != right[:, :keys], axis=1)
    if np.any(differs):
        row = int(np.flatnonzero(differs)[0])
        result.problems.append(f"{name}: {label} differs at data row "
                               f"{row + 1}")
        return None
    return left, right


def _match_in_nodes(name: str, left: np.ndarray, right: np.ndarray,
                    key: int, label: str, result):
    """Row order ``perm`` with right[perm] holding left's (node, column
    ``key``) pairs row for row, if every node (column 0) holds the same set
    of keys in both; else None after recording the mismatch."""
    by_left = np.lexsort((left[:, key], left[:, 0]))
    by_right = np.lexsort((right[:, key], right[:, 0]))
    pairs = [0, key]
    differs = np.any(left[by_left][:, pairs] != right[by_right][:, pairs],
                     axis=1)
    if np.any(differs):
        node = left[by_left[np.flatnonzero(differs)[0]], 0]
        row = int(np.flatnonzero(left[:, 0] == node)[0])
        result.problems.append(f"{name}: {label} differs at data row "
                               f"{row + 1} (node {node:.0f} has another "
                               f"{label} set)")
        return None
    perm = np.empty_like(by_left)
    perm[by_left] = by_right
    return perm


def _within(name: str, label: str, values: np.ndarray, tol: float,
            result, unit: str = "data row") -> float:
    """Record the values beyond ``tol``; returns the largest value."""
    if not values.size:
        return 0.0
    worst = int(values.argmax())
    bad = np.count_nonzero(values > tol)
    if bad:
        result.problems.append(
            f"{name}: {bad} {label} value(s) beyond {tol:g}, worst "
            f"{values[worst]:.3g} at {unit} {worst + 1}")
    return float(values[worst])


def _compare_alignment(name: str, a: Path, b: Path, result) -> None:
    rows = _keyed_rows(name, a, b, 1, "node", result)
    if rows is None:
        return
    left, right = rows
    perm = _match_in_nodes(name, left, right, 1, "pair", result)
    if perm is None:
        return
    moved = np.unique(left[perm != np.arange(perm.size), 0])
    if moved.size:
        result.notes.append(f"{name}: rows of {moved.size} node(s) reordered "
                            f"(first node {moved[0]:.0f})")
    right = right[perm]
    turn = np.abs(left[:, 2] - right[:, 2]) % (2.0 * math.pi)
    angle = np.minimum(turn, 2.0 * math.pi - turn)
    result.max_angle_rad = max(result.max_angle_rad, _within(
        name, "alpha_hat", angle, ANGLE_TOL_RAD, result))
    result.max_objective_rel = max(result.max_objective_rel, _within(
        name, "objective", _relative(left[:, 3], right[:, 3]),
        OBJECTIVE_RTOL, result))


def _compare_nn(name: str, a: Path, b: Path, result) -> None:
    rows = _keyed_rows(name, a, b, 2, "node or rank", result)
    if rows is None:
        return
    left, right = rows
    perm = _match_in_nodes(name, left, right, 2, "neighbor", result)
    if perm is None:
        return
    right = right[perm]
    for node in np.unique(left[perm != np.arange(perm.size), 0]):
        at = np.flatnonzero(left[:, 0] == node)
        _check_trades(name, node, at, left[at], right[at], result)
    for tree, body in (("parent", left), ("change", right)):
        negative = body[:, 3] < 0.0
        if np.any(negative):
            result.notes.append(
                f"{name}: {np.count_nonzero(negative)} negative "
                f"squared_distance value(s) in the {tree} tree, down to "
                f"{body[negative, 3].min():.3g}")
    result.max_nn_distance = max(result.max_nn_distance, _within(
        name, "squared_distance", np.abs(left[:, 3] - right[:, 3]),
        NN_DISTANCE_ATOL, result))


def _check_trades(name: str, node: float, at: np.ndarray, left: np.ndarray,
                  right: np.ndarray, result) -> None:
    """One node's rows, matched by neighbor: every pair of neighbors whose
    ranks trade must be tied within ``NN_DISTANCE_ATOL`` in both trees."""
    rank_left, rank_right = left[:, 1], right[:, 1]
    traded = ((rank_left[:, None] - rank_left[None, :])
              * (rank_right[:, None] - rank_right[None, :]) < 0.0)
    gap = np.maximum(np.abs(left[:, 3, None] - left[None, :, 3]),
                     np.abs(right[:, 3, None] - right[None, :, 3]))
    untied = traded & (gap > NN_DISTANCE_ATOL)
    if np.any(untied):
        x, y = np.argwhere(untied)[0]
        row = at[min(x, y)] + 1
        result.problems.append(
            f"{name}: neighbor differs at data row {row} (node {node:.0f}: "
            f"neighbors {left[x, 2]:.0f} and {left[y, 2]:.0f} trade ranks "
            f"{left[x, 1]:.0f} and {left[y, 1]:.0f}, d2 apart by "
            f"{gap[x, y]:.3g})")
    else:
        moved = rank_left != rank_right
        result.notes.append(
            f"{name}: node {node:.0f} ranks "
            f"{','.join(f'{r:.0f}' for r in np.sort(rank_left[moved]))} "
            f"trade among neighbors tied within {NN_DISTANCE_ATOL:g}")


def _projector_distance(u: np.ndarray, v: np.ndarray) -> float:
    """||u u^H - v v^H||_2: for orthonormal bases, the sine of the largest
    principal angle between the spans.  It is read off the R factor of
    [u v], so no n x n projector is formed; a basis that is not orthonormal
    (a scaled vector) shows up in it too."""
    r = np.linalg.qr(np.hstack([u, v]), mode="r")
    r_u, r_v = r[:, :u.shape[1]], r[:, u.shape[1]:]
    return float(np.linalg.norm(r_u @ r_u.conj().T - r_v @ r_v.conj().T, 2))


def _compare_bundle(name: str, a: Path, b: Path, result) -> None:
    with np.load(a) as x, np.load(b) as y:
        left = {key: x[key] for key in x.files}
        right = {key: y[key] for key in y.files}
    if (sorted(left) != sorted(right) or int(left["k"]) != int(right["k"])
            or left["eigenvectors"].shape != right["eigenvectors"].shape
            or left["eigenvalues"].shape != right["eigenvalues"].shape):
        result.problems.append(f"{name}: arrays, k or shapes differ")
        return
    values = left["eigenvalues"]
    result.max_eigenvalue = max(result.max_eigenvalue, _within(
        name, "eigenvalue", np.abs(values - right["eigenvalues"]),
        EIGENVALUE_ATOL, result, "column"))
    cuts = np.flatnonzero(np.abs(np.diff(values)) >= EIGEN_CLUSTER_GAP) + 1
    sines = np.array([
        _projector_distance(left["eigenvectors"][:, cluster],
                            right["eigenvectors"][:, cluster])
        for cluster in np.split(np.arange(values.size), cuts)])
    result.max_subspace_sin = max(result.max_subspace_sin, _within(
        name, "eigenvector subspace", sines, SUBSPACE_SIN_TOL, result,
        "cluster"))


def _compare_manifest(name: str, a: Path, b: Path, result) -> None:
    left = _recorded(json.loads(a.read_text(encoding="utf-8")))
    right = _recorded(json.loads(b.read_text(encoding="utf-8")))
    only = sorted({**left, **right}[key] for key in left.keys() ^ right.keys())
    if only:
        result.problems.append(f"{name}: records {only} in one tree only")


def _recorded(entries: dict) -> dict:
    """The artifact names a manifest records, by what they are matched on:
    the name itself, or for an absolute path (a bundle in an
    ``MFVDM_CACHE_DIR`` outside ``--out``) its file name alone."""
    return {(True, Path(name).name) if Path(name).is_absolute()
            else (False, name): name for name in entries}


def _compare_scalars(name: str, a: Path, b: Path, result) -> None:
    left = json.loads(a.read_text(encoding="utf-8"))
    right = json.loads(b.read_text(encoding="utf-8"))
    if sorted(left) != sorted(right):
        result.problems.append(f"{name}: keys {sorted(left)} != "
                               f"{sorted(right)}")
        return
    for key in sorted(left):
        x, y = left[key], right[key]
        if isinstance(x, float) and isinstance(y, float):
            rel = float(_relative(np.array(x), np.array(y)))
            floor = (math.degrees(ANGLE_TOL_RAD) if key.endswith("_deg")
                     else 0.0)
            result.max_scalar_rel = max(result.max_scalar_rel, rel)
            if rel > SCALAR_RTOL and abs(x - y) > floor:
                result.problems.append(
                    f"{name}: {key} {x!r} != {y!r} to {SCALAR_DIGITS} "
                    f"significant digits")
        elif x != y:
            result.problems.append(f"{name}: {key} {x!r} != {y!r}")


# (name prefix, name suffix, comparison) of every file that need not be
# byte-identical.
_RULES = (
    ("nn_", ".csv", _compare_nn),
    ("align_", ".csv", _compare_alignment),
    ("nn_", ".npz", _compare_nn),
    ("align_", ".npz", _compare_alignment),
    ("bundle_", ".npz", _compare_bundle),
    ("report_", "_scalars.json", _compare_scalars),
    ("manifest.json", "", _compare_manifest),
)

MANIFEST = "cache/manifest.json"


def compare_trees(parent_out, change_out) -> TreeComparison:
    """Compare two output trees under the rules in this module's docstring."""
    parent_out, change_out = Path(parent_out), Path(change_out)
    result = TreeComparison()
    left, right = _files(parent_out), _files(change_out)
    for name in sorted(left ^ right):
        side = "parent" if name in left else "change"
        (result.notes if name == MANIFEST else result.problems).append(
            f"{name}: only in the {side} tree")
    for name in sorted(left & right):
        a, b = parent_out / name, change_out / name
        result.files += 1
        if a.read_bytes() == b.read_bytes():
            result.identical += 1
            continue
        base = Path(name).name
        compare = next((rule for prefix, suffix, rule in _RULES
                        if base.startswith(prefix) and base.endswith(suffix)),
                       _bytes_differ)
        compare(name, a, b, result)
    return result


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_trees.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    result = compare_trees(*args)
    for note in result.notes:
        print(f"NOTE {note}")
    for problem in result.problems:
        print(f"MISMATCH {problem}")
    print(f"{'FAIL' if result.problems else 'PASS'}: {result.identical} of "
          f"{result.files} files byte-identical; "
          f"max |d alpha| {result.max_angle_rad:.3g} rad, "
          f"max objective rel {result.max_objective_rel:.3g}, "
          f"max scalar rel {result.max_scalar_rel:.3g}, "
          f"max |d nn distance| {result.max_nn_distance:.3g}, "
          f"max |d eigenvalue| {result.max_eigenvalue:.3g}, "
          f"max subspace sine {result.max_subspace_sin:.3g}")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
