"""The equivalence gate: identical trees pass, each kind of drift fails,
and near-tied neighbors may trade ranks."""

import json
import math
import shutil

import numpy as np
import pytest

from compare_trees import ANGLE_TOL_RAD, compare_trees, main
from mfvdm import cli
from mfvdm import io as mio

PIPELINE = ["pipeline", "--manifold", "sphere", "--n", "200",
            "--kappa-build", "15", "--kappa", "8", "--kmax", "4", "--mk", "8",
            "--p", "0.4", "--baselines", "vdm", "--seed", "4"]


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate") / "out"
    with pytest.MonkeyPatch.context() as patch:
        # The bundle cache goes to out/cache, where the gate compares it.
        patch.delenv(mio.CACHE_ENV, raising=False)
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


def _edit_nn_row(path, number, edit):
    def rewrite(line):
        node, rank, neighbor, distance = line.rstrip("\n").split(",")
        node, rank, neighbor, distance = edit(node, rank, neighbor,
                                              float(distance))
        return f"{node},{rank},{neighbor},{distance!r}\n"

    _edit_line(path, number, rewrite)


def test_swapped_neighbor_fails(tree, copy):
    path = copy / "p0.4" / "nn_mfvdm.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first, second = lines[3].split(","), lines[4].split(",")
    first[2], second[2] = second[2], first[2]
    lines[3], lines[4] = ",".join(first), ",".join(second)
    path.write_text("".join(lines), encoding="utf-8")
    result = compare_trees(tree, copy)
    assert any("nn_mfvdm.csv: neighbor differs at data row 3" in p
               for p in result.problems), result.problems


def test_nn_distance_moved_fails(tree, copy):
    _edit_nn_row(copy / "p0.4" / "nn_vdm.csv", 7,
                 lambda *row: (*row[:3], row[3] + 1e-9))
    result = compare_trees(tree, copy)
    assert any("nn_vdm.csv" in p and "squared_distance" in p
               for p in result.problems), result.problems


def test_last_bit_nn_distance_passes(tree, copy):
    _edit_nn_row(copy / "p0.4" / "nn_vdm.csv", 7,
                 lambda *row: (*row[:3], math.nextafter(row[3], 4.0)))
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    assert 0.0 < result.max_nn_distance < 1e-15


def _edit_bundle(copy, k, edit):
    path = next((copy / "cache").glob(f"bundle_*_k{k}_m*.npz"))
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)


def test_last_bit_bundle_passes(tree, copy):
    def nudge(arrays):
        arrays["eigenvalues"][1] = math.nextafter(arrays["eigenvalues"][1],
                                                  0.0)
        arrays["eigenvectors"][5, 2] *= 1.0 + 2.0 ** -52

    _edit_bundle(copy, 2, nudge)
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    assert 0.0 < result.max_eigenvalue < 1e-15
    assert 0.0 < result.max_subspace_sin < 1e-14


def test_identical_bundles_count_as_byte_identical(tree, copy, capsys):
    """Equal bytes skip the numeric rules: the subspace rule alone reads a
    sine of a few 1e-15 for two equal bundles."""
    assert list((copy / "cache").glob("bundle_*.npz"))
    result = compare_trees(tree, copy)
    assert result.identical == result.files
    assert result.max_subspace_sin == 0.0
    assert main([str(tree), str(copy)]) == 0
    assert (f"PASS: {result.files} of {result.files} files byte-identical;"
            in capsys.readouterr().out)


@pytest.mark.parametrize("edit,what", [
    (lambda a: a["eigenvalues"].__setitem__(3, a["eigenvalues"][3] + 1e-9),
     "eigenvalue"),
    (lambda a: a["eigenvectors"].__setitem__(
        (slice(None), [0, 1]), a["eigenvectors"][:, [1, 0]]),
     "eigenvector subspace"),
    (lambda a: a["eigenvectors"].__setitem__(
        (slice(None), 4), 2.0 * a["eigenvectors"][:, 4]),
     "eigenvector subspace"),
], ids=["eigenvalue", "swapped-vectors", "scaled-vector"])
def test_bundle_drift_fails(tree, copy, edit, what):
    _edit_bundle(copy, 3, edit)
    result = compare_trees(tree, copy)
    assert any("_k3_" in p and what in p for p in result.problems), \
        result.problems


def _edit_scalar(copy, key, edit):
    path = copy / "p0.4" / "report_mfvdm_scalars.json"
    scalars = json.loads(path.read_text(encoding="utf-8"))
    scalars[key] = edit(scalars[key])
    path.write_text(json.dumps(scalars, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def test_scalar_sixth_digit_fails(tree, copy):
    _edit_scalar(copy, "nn_mean", lambda value: value + 10.0 ** (
        math.floor(math.log10(value)) - 5))
    result = compare_trees(tree, copy)
    assert not result.ok
    assert any("nn_mean" in p for p in result.problems)


def test_angle_scalar_within_floor_passes(tree, copy):
    floor_deg = math.degrees(ANGLE_TOL_RAD)
    _edit_scalar(copy, "align_median_abs_deg",
                 lambda value: value + 0.5 * floor_deg)
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    # Beyond ten significant digits, so only the floor lets it pass.
    assert result.max_scalar_rel > 1e-9


def test_angle_scalar_real_change_fails(tree, copy):
    _edit_scalar(copy, "align_median_abs_deg",
                 lambda value: value + 1e-6)
    result = compare_trees(tree, copy)
    assert any("align_median_abs_deg" in p for p in result.problems)


def test_missing_file_fails(tree, copy):
    (copy / "p0.4" / "report_vdm_align_hist.csv").unlink()
    result = compare_trees(tree, copy)
    assert any("only in the parent tree" in p for p in result.problems)


def test_manifest_keys_and_digests_are_not_compared(tree, copy):
    path = copy / "cache" / "manifest.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    for entry in entries.values():
        entry["key"] = "0" * 64
        entry["sha256"] = "f" * 64
    path.write_text(json.dumps(entries), encoding="utf-8")
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    assert result.identical == result.files - 1


def test_manifest_of_other_artifacts_fails(tree, copy):
    path = copy / "cache" / "manifest.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    del entries["truth.txt"]
    path.write_text(json.dumps(entries), encoding="utf-8")
    result = compare_trees(tree, copy)
    assert any("manifest.json" in p and "truth.txt" in p
               for p in result.problems)


def _move_bundles(tree, target, cache):
    """A copy of ``tree`` whose bundles sit in ``cache``, outside it, so its
    manifest records them by absolute path."""
    shutil.copytree(tree, target)
    path = target / "cache" / "manifest.json"
    entries = json.loads(path.read_text(encoding="utf-8"))
    for name in [name for name in entries if "/bundle_" in name]:
        (target / name).unlink()
        entries[(cache / name.split("/")[-1]).as_posix()] = entries.pop(name)
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def test_bundles_in_other_cache_dirs_match_by_file_name(tree, tmp_path):
    left = _move_bundles(tree, tmp_path / "left", tmp_path / "cache_a")
    right = _move_bundles(tree, tmp_path / "right", tmp_path / "cache_b")
    result = compare_trees(left.parents[1], right.parents[1])
    assert result.ok, result.problems
    # A bundle of another k is another artifact, wherever it sits.
    entries = json.loads(right.read_text(encoding="utf-8"))
    name = next(name for name in entries if "_k1_" in name)
    entries[name.replace("_k1_", "_k9_")] = entries.pop(name)
    right.write_text(json.dumps(entries), encoding="utf-8")
    result = compare_trees(left.parents[1], right.parents[1])
    assert any("manifest.json" in p and "_k1_" in p and "_k9_" in p
               for p in result.problems), result.problems
    # A bundle recorded under --out is not one recorded outside it.
    result = compare_trees(tree, left.parents[1])
    assert any("manifest.json" in p and "cache/bundle_" in p
               for p in result.problems), result.problems


def test_tree_without_a_manifest_passes_with_a_note(tree, copy):
    (copy / "cache" / "manifest.json").unlink()
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    assert result.notes == ["cache/manifest.json: only in the parent tree"]


def _tie_node_zero(tree, target):
    """A copy of ``tree`` in which node 0's ranks 3 and 4 (data rows 3 and
    4 of nn_mfvdm.csv) share rank 3's squared distance: a near tie."""
    shutil.copytree(tree, target)
    path = target / "p0.4" / "nn_mfvdm.csv"
    tied = float(path.read_text(encoding="utf-8").splitlines()[3]
                 .split(",")[3])
    _edit_nn_row(path, 4, lambda *row: (*row[:3], tied))
    return target, tied


def _swap_rank_three_and_four(change):
    """Swap node 0's neighbors at ranks 3 and 4, and their alignment rows."""
    path = change / "p0.4" / "nn_mfvdm.csv"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    first, second = lines[3].split(","), lines[4].split(",")
    first[2:], second[2:] = second[2:], first[2:]
    lines[3], lines[4] = ",".join(first), ",".join(second)
    path.write_text("".join(lines), encoding="utf-8")
    align = change / "p0.4" / "align_mfvdm.csv"
    lines = align.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[3], lines[4] = lines[4], lines[3]
    align.write_text("".join(lines), encoding="utf-8")


def test_tied_swap_passes_with_a_note(tree, tmp_path):
    base, _ = _tie_node_zero(tree, tmp_path / "base")
    change = tmp_path / "change"
    shutil.copytree(base, change)
    _swap_rank_three_and_four(change)
    result = compare_trees(base, change)
    assert result.ok, result.problems
    assert any("nn_mfvdm.csv: node 0 ranks 3,4 trade" in note
               for note in result.notes), result.notes
    assert any("align_mfvdm.csv: rows of 1 node(s) reordered" in note
               for note in result.notes), result.notes
    assert main([str(base), str(change)]) == 0


def test_swap_tied_in_one_tree_only_fails(tree, tmp_path):
    # Each distance moves by 0.9e-12, within NN_DISTANCE_ATOL, but the two
    # are 1.8e-12 apart in the change, so they may not trade ranks there.
    base, tied = _tie_node_zero(tree, tmp_path / "base")
    change = tmp_path / "change"
    shutil.copytree(base, change)
    path = change / "p0.4" / "nn_mfvdm.csv"
    _edit_nn_row(path, 3, lambda *row: (*row[:3], tied - 0.9e-12))
    _edit_nn_row(path, 4, lambda *row: (*row[:3], tied + 0.9e-12))
    _swap_rank_three_and_four(change)
    result = compare_trees(base, change)
    assert len(result.problems) == 1, result.problems
    assert "nn_mfvdm.csv: neighbor differs at data row 3" in \
        result.problems[0]


def test_changed_neighbor_set_fails(tree, copy):
    path = copy / "p0.4" / "nn_mfvdm.csv"
    listed = {int(line.split(",")[2]) for line in
              path.read_text(encoding="utf-8").splitlines()[1:9]}
    other = min(set(range(1, 200)) - listed)
    _edit_nn_row(path, 8, lambda node, rank, _, d2: (node, rank, other, d2))
    result = compare_trees(tree, copy)
    assert any("nn_mfvdm.csv: neighbor differs at data row 1 (node 0 has "
               "another neighbor set)" in p for p in result.problems), \
        result.problems


def test_clamped_negative_distance_is_noted(tree, tmp_path):
    base = tmp_path / "base"
    shutil.copytree(tree, base)
    _edit_nn_row(base / "p0.4" / "nn_vdm.csv", 1,
                 lambda *row: (*row[:3], -4.4e-16))
    change = tmp_path / "change"
    shutil.copytree(base, change)
    _edit_nn_row(change / "p0.4" / "nn_vdm.csv", 1,
                 lambda *row: (*row[:3], 0.0))
    result = compare_trees(base, change)
    assert result.ok, result.problems
    assert result.notes == ["p0.4/nn_vdm.csv: 1 negative squared_distance "
                            "value(s) in the parent tree, down to -4.4e-16"]


def _entry(root, kind):
    """MFVDM's kept neighbor list (``nn``) or angles (``align``)."""
    return root / "cache" / "p0.4" / f"{kind}_mfvdm.npz"


def _edit_entry(root, kind, edit):
    path = _entry(root, kind)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    return path.relative_to(root).as_posix()


def test_entries_are_compared_as_their_csvs(tree):
    """Each entry holds the numbers of the CSV written from it."""
    for kind in ("nn", "align"):
        assert _entry(tree, kind).exists()
    with np.load(_entry(tree, "nn")) as data:
        rows = np.loadtxt(tree / "p0.4" / "nn_mfvdm.csv", delimiter=",",
                          skiprows=1)
        assert np.array_equal(rows[:, 2], data["indices"].ravel())
        assert np.array_equal(rows[:, 3], data["distances_sq"].ravel())


def test_last_bit_entry_values_pass(tree, copy):
    def nudge_distance(arrays):
        arrays["distances_sq"][3, 2] = math.nextafter(
            arrays["distances_sq"][3, 2], 4.0)

    def nudge_angle(arrays):
        arrays["alpha_hat"][9] = math.nextafter(arrays["alpha_hat"][9], 0.0)
        arrays["objective"][9] = math.nextafter(arrays["objective"][9], 0.0)

    _edit_entry(copy, "nn", nudge_distance)
    _edit_entry(copy, "align", nudge_angle)
    result = compare_trees(tree, copy)
    assert result.ok, result.problems
    assert result.identical == result.files - 2
    assert 0.0 < result.max_nn_distance < 1e-15
    assert 0.0 < result.max_angle_rad < 1e-15
    assert 0.0 < result.max_objective_rel < 1e-15


@pytest.mark.parametrize("kind,edit,what", [
    ("nn", lambda a: a["distances_sq"].__setitem__((3, 2), a["distances_sq"][
        3, 2] + 1e-9), "squared_distance"),
    ("nn", lambda a: a["indices"].__setitem__((0, 0), a["indices"][1, 0]
                                              if a["indices"][1, 0] != 0
                                              else a["indices"][2, 0]),
     "neighbor differs"),
    ("align", lambda a: a["alpha_hat"].__setitem__(
        9, (a["alpha_hat"][9] + 1e-6) % (2.0 * math.pi)), "alpha_hat"),
    ("align", lambda a: a["objective"].__setitem__(
        9, a["objective"][9] * (1.0 + 1e-9)), "objective"),
    ("align", lambda a: a.update(objective=a["objective"][:-1]),
     "header or row count"),
], ids=["distance", "neighbor", "angle", "objective", "short"])
def test_entry_drift_fails(tree, copy, kind, edit, what):
    name = _edit_entry(copy, kind, edit)
    result = compare_trees(tree, copy)
    assert any(p.startswith(name) and what in p for p in result.problems), \
        result.problems


def test_tied_swap_in_entries_passes_with_a_note(tree, tmp_path):
    """Node 0's ranks 3 and 4 tied, then traded in the change's entries:
    its neighbor list and, row for row, its angles."""
    base = tmp_path / "base"
    shutil.copytree(tree, base)
    _edit_entry(base, "nn", lambda a: a["distances_sq"].__setitem__(
        (0, 3), a["distances_sq"][0, 2]))
    change = tmp_path / "change"
    shutil.copytree(base, change)

    def trade(arrays, *names):
        for name in names:
            rows = arrays[name].reshape(-1)
            rows[[2, 3]] = rows[[3, 2]]

    nn = _edit_entry(change, "nn", lambda a: trade(
        a, "indices", "distances_sq"))
    align = _edit_entry(change, "align", lambda a: trade(
        a, "alpha_hat", "objective"))
    result = compare_trees(base, change)
    assert result.ok, result.problems
    assert f"{nn}: node 0 ranks 3,4 trade among neighbors tied within " \
           f"1e-12" in result.notes, result.notes
    assert f"{align}: rows of 1 node(s) reordered (first node 0)" in \
        result.notes, result.notes
