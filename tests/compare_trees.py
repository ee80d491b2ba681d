"""Equivalence gate: compare two ``pipeline`` output trees.

A change that moves only the last bits of the alignment objective passes
this gate against its parent; any other difference fails it.  Usage::

    python tests/compare_trees.py PARENT_OUT CHANGE_OUT

It prints every mismatch and exits 1 if there is one, else prints the
largest deviations it saw and exits 0.

The rules, fixed before anything is compared:

* Both trees hold the same files.
* Every file except ``align_*.csv`` and ``report_*_scalars.json`` is
  byte-identical.  That includes the NN CSVs, the histogram CSVs, truth,
  graphs and the eigenbundle cache.
* ``align_*.csv``: the header and the (i, j) columns are identical; alpha_hat
  agrees within ``ANGLE_TOL_RAD`` on the circle; the objective agrees within
  ``OBJECTIVE_RTOL`` relative to the larger magnitude.
* ``report_*_scalars.json``: the same keys; float values agree to
  ``SCALAR_DIGITS`` significant digits; all other values are equal.
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
SCALAR_DIGITS = 10
# Agreement to d significant digits: |a - b| <= 0.5 * 10^(1-d) * max(|a|, |b|).
SCALAR_RTOL = 0.5 * 10.0 ** (1 - SCALAR_DIGITS)


@dataclass
class TreeComparison:
    """Mismatches found, files compared, and the largest deviations seen."""

    problems: list = field(default_factory=list)
    files: int = 0
    max_angle_rad: float = 0.0
    max_objective_rel: float = 0.0
    max_scalar_rel: float = 0.0

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


def _compare_bytes(name: str, a: Path, b: Path, result) -> None:
    left, right = a.read_bytes(), b.read_bytes()
    if left != right:
        result.problems.append(f"{name}: differs at "
                               f"{_first_difference(left, right)}")


def _read_alignment(path: Path):
    with open(path, encoding="utf-8") as handle:
        header = handle.readline()
        body = np.loadtxt(handle, delimiter=",", ndmin=2)
    return header, body


def _compare_alignment(name: str, a: Path, b: Path, result) -> None:
    header_a, left = _read_alignment(a)
    header_b, right = _read_alignment(b)
    if header_a != header_b or left.shape != right.shape:
        result.problems.append(f"{name}: header or row count differs")
        return
    if not np.array_equal(left[:, :2], right[:, :2]):
        row = int(np.flatnonzero(np.any(left[:, :2] != right[:, :2],
                                        axis=1))[0])
        result.problems.append(f"{name}: pair differs at data row {row + 1}")
        return
    turn = np.abs(left[:, 2] - right[:, 2]) % (2.0 * math.pi)
    angle = np.minimum(turn, 2.0 * math.pi - turn)
    objective = _relative(left[:, 3], right[:, 3])
    if angle.size:
        result.max_angle_rad = max(result.max_angle_rad, float(angle.max()))
        result.max_objective_rel = max(result.max_objective_rel,
                                       float(objective.max()))
    for label, values, tol in (("alpha_hat", angle, ANGLE_TOL_RAD),
                               ("objective", objective, OBJECTIVE_RTOL)):
        bad = np.flatnonzero(values > tol)
        if bad.size:
            worst = int(values.argmax())
            result.problems.append(
                f"{name}: {bad.size} {label} value(s) beyond {tol:g}, "
                f"worst {values[worst]:.3g} at data row {worst + 1}"
            )


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
            result.max_scalar_rel = max(result.max_scalar_rel, rel)
            if rel > SCALAR_RTOL:
                result.problems.append(
                    f"{name}: {key} {x!r} != {y!r} to {SCALAR_DIGITS} "
                    f"significant digits")
        elif x != y:
            result.problems.append(f"{name}: {key} {x!r} != {y!r}")


def compare_trees(parent_out, change_out) -> TreeComparison:
    """Compare two output trees under the rules in this module's docstring."""
    parent_out, change_out = Path(parent_out), Path(change_out)
    result = TreeComparison()
    left, right = _files(parent_out), _files(change_out)
    for name in sorted(left ^ right):
        side = "parent" if name in left else "change"
        result.problems.append(f"{name}: only in the {side} tree")
    for name in sorted(left & right):
        a, b = parent_out / name, change_out / name
        base = Path(name).name
        if base.startswith("align_") and base.endswith(".csv"):
            _compare_alignment(name, a, b, result)
        elif base.startswith("report_") and base.endswith("_scalars.json"):
            _compare_scalars(name, a, b, result)
        else:
            _compare_bytes(name, a, b, result)
        result.files += 1
    return result


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: compare_trees.py PARENT_OUT CHANGE_OUT", file=sys.stderr)
        return 2
    result = compare_trees(*args)
    for problem in result.problems:
        print(f"MISMATCH {problem}")
    print(f"{'FAIL' if result.problems else 'PASS'}: {result.files} files; "
          f"max |d alpha| {result.max_angle_rad:.3g} rad, "
          f"max objective rel {result.max_objective_rel:.3g}, "
          f"max scalar rel {result.max_scalar_rel:.3g}")
    return 1 if result.problems else 0


if __name__ == "__main__":
    sys.exit(main())
