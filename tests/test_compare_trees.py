"""The equivalence gate: identical trees pass, each kind of drift fails."""

import json
import math
import shutil

import pytest

from compare_trees import compare_trees, main
from mfvdm import cli

PIPELINE = ["pipeline", "--manifold", "sphere", "--n", "200",
            "--kappa-build", "15", "--kappa", "8", "--kmax", "4", "--mk", "8",
            "--tfft", "64", "--p", "0.4", "--baselines", "vdm", "--seed", "4"]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate") / "out"
    assert cli.main([*PIPELINE, "--out", str(out)]) == 0
    return out


@pytest.fixture
def copy(tree, tmp_path):
    target = tmp_path / "copy"
    shutil.copytree(tree, target)
    return target


def _edit_line(path, number, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[number] = edit(lines[number])
    path.write_text("".join(lines), encoding="utf-8")


def test_identical_trees_pass(tree, copy):
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    assert result.files == len([p for p in tree.rglob("*") if p.is_file()])
    assert main([str(tree), str(copy)]) == 0


def test_angle_moved_fails(tree, copy):
    def nudge(line):
        i, j, alpha, objective = line.rstrip("\n").split(",")
        moved = (float(alpha) + 1e-6) % (2.0 * math.pi)
        return f"{i},{j},{moved!r},{objective}\n"

    _edit_line(copy / "p0.4" / "align_mfvdm.csv", 5, nudge)
    result = compare_trees(tree, copy)
    assert not result.ok
    assert any("align_mfvdm.csv" in p and "alpha_hat" in p
               for p in result.problems)
    assert main([str(tree), str(copy)]) == 1


def test_last_bit_objective_passes(tree, copy):
    def nudge(line):
        i, j, alpha, objective = line.rstrip("\n").split(",")
        return f"{i},{j},{alpha},{math.nextafter(float(objective), 0.0)!r}\n"

    _edit_line(copy / "p0.4" / "align_mfvdm.csv", 5, nudge)
    assert compare_trees(tree, copy).ok


def test_swapped_nn_rows_fail(tree, copy):
    path = copy / "p0.4" / "nn_mfvdm.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3], lines[4] = lines[4], lines[3]
    path.write_text("".join(lines), encoding="utf-8")
    result = compare_trees(tree, copy)
    assert not result.ok
    assert any("nn_mfvdm.csv" in p for p in result.problems)


def test_scalar_sixth_digit_fails(tree, copy):
    path = copy / "p0.4" / "report_mfvdm_scalars.json"
    scalars = json.loads(path.read_text(encoding="utf-8"))
    value = scalars["nn_mean"]
    scalars["nn_mean"] = value + 10.0 ** (math.floor(math.log10(value)) - 5)
    path.write_text(json.dumps(scalars, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    result = compare_trees(tree, copy)
    assert not result.ok
    assert any("nn_mean" in p for p in result.problems)


def test_missing_file_fails(tree, copy):
    (copy / "p0.4" / "report_vdm_align_hist.csv").unlink()
    result = compare_trees(tree, copy)
    assert any("only in the parent tree" in p for p in result.problems)
