"""File formats: round-trips, strict parsing, cache behavior."""

import dataclasses
import hashlib
import importlib.machinery
import importlib.util
import json
import re
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import __version__ as scipy_version

from mfvdm.alignment import AlignmentTable
from mfvdm.embedding import NeighborList
from mfvdm.errors import GraphFileError
from mfvdm.evaluation import (
    EvalReport,
    SpectralReport,
    score_alignment,
    score_nn,
    spectral_report,
)
from mfvdm import graph as mgraph
from mfvdm import io as mio
from mfvdm.graph import (
    AlignmentGraph,
    build_clean_knn_graph,
    first_bad_edge,
    rewire_graph,
)
from mfvdm.io import (
    CACHE_ENV,
    RunManifest,
    artifact_key,
    bundle_cache_path,
    cache_dir_for,
    file_sha256,
    graph_hash,
    load_alignment,
    load_bundle,
    load_neighbors,
    read_graph,
    read_truth,
    save_bundle,
    save_result,
    write_alignment_csv,
    write_eval_report,
    write_graph,
    write_nn_csv,
    write_spectral_report,
    write_truth,
)
from mfvdm.sampling import TorusTruth, make_truth
from mfvdm.spectral import SpectralBundle


def _torus(n, radius_major, radius_minor, seed):
    """A torus truth with radii other than the sampler's."""
    rng = np.random.default_rng(seed)
    u, v, frame_angles = rng.uniform(0.0, 2.0 * np.pi, size=(3, n))
    return TorusTruth(u=u, v=v, frame_angles=frame_angles,
                      radius_major=radius_major, radius_minor=radius_minor)


@pytest.fixture(scope="module")
def graph():
    truth = make_truth("sphere", 50, seed=71)
    built = build_clean_knn_graph(truth, kappa_build=4)
    # rewiring adds non-unit provenance: fresh angles, reused weights
    return rewire_graph(built, p=0.5, seed=1)


class TestGraphFormat:
    def test_round_trip_bitwise(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(graph, path)
        back = read_graph(path)
        assert back.n == graph.n
        assert np.array_equal(back.rows, graph.rows)
        assert np.array_equal(back.cols, graph.cols)
        assert np.array_equal(back.weights, graph.weights)
        assert np.array_equal(back.angles, graph.angles)

    def test_header_format(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(graph, path)
        first = path.read_text().splitlines()[0]
        assert first == f"n {graph.n}"

    def test_hash_tracks_content(self, graph):
        h1 = graph_hash(graph)
        h2 = graph_hash(rewire_graph(graph, p=0.5, seed=2))
        assert len(h1) == 64
        assert h1 == graph_hash(graph)
        assert h1 != h2

    def test_hash_survives_a_file_round_trip(self, graph, tmp_path):
        path = tmp_path / "g.txt"
        write_graph(graph, path)
        assert graph_hash(read_graph(path)) == graph_hash(graph)

    @pytest.mark.parametrize("body,message", [
        ("x 3\n0 1 1.0 0.5\n", "first line"),
        ("n\n", "first line"),
        ("n x\n", "bad header"),
        ("n 3\n0 1 1.0\n", "i j w alpha"),
        ("n 3\n1 1 1.0 0.5\n", "self-loop"),
        ("n 3\n1 0 1.0 0.5\n", "i < j"),
        ("n 3\n0 3 1.0 0.5\n", "out of range"),
        ("n 3\n0 1 1.0 0.5\n0 1 1.0 0.6\n", "duplicate"),
        ("n 3\n0 1 0.0 0.5\n", "weight"),
        ("n 3\n0 1 1.0 0.5\n1 2 nan 0.5\n", ":3: weight must be finite."),
        ("n 3\n0 1 inf 0.5\n1 2 1.0 0.5\n", ":2: weight must be finite."),
        ("n 3\n0 1 1.0 6.4\n", "alpha"),
        ("n 3\n0 1 1.0 -0.1\n", "alpha"),
        ("n 3\n0 1 one 0.5\n", "could not convert"),
        ("n 3\n0.0 1 1.0 0.5\n1 2 1.0 0.5\n", "invalid literal"),
        ("n 3\n1e0 2 1.0 0.5\n0 1 1.0 0.5\n", "invalid literal"),
        # Python's int() takes "1_1", np.loadtxt does not: still an error.
        ("n 12\n1 1_1 1.0 0.5\n", "could not convert string '1_1'"),
        ("n 3\n0 1 1.0 0.5\n", "no incident edges"),  # node 2 isolated
        ("n 3\n  \n\n", "no edges"),
    ])
    def test_rejects_malformed(self, tmp_path, body, message):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(GraphFileError, match=message.replace("(", "\\(")):
            read_graph(path)

    @pytest.mark.parametrize("body,message", [
        # The blank line counts: the duplicate is file line 5.
        ("n 3\n0 1 1.0 0.5\n\n1 2 1.0 0.5\n0 1 1.0 0.6\n",
         ":5: duplicate edge (0, 1)."),
        ("n 3\n0 1 1.0 0.5\n1 2 1.0 0.5\n0 2 -1.0 0.5\n",
         ":4: weight must be > 0."),
        # A failed check reports before a later line that does not parse.
        ("n 4\n0 1 1.0 0.5\n2 2 1.0 0.5\n1 x 1.0 0.5\n", ":3: self-loop 2."),
        ("n 4\n0 1 1.0 0.5\n1 2 1.0 0.5\n\n1 3 1.0\n",
         ":5: expected 'i j w alpha'"),
        ("n 4\n0 1 1.0 0.5\n1 2 1.0 0.5\n1 3 1.0 0.5\n2 3 1.0 7.0\n",
         ":5: alpha must lie"),
        ("n 4\n0 1 1.0 0.5\n0 99999999999999999999 1.0 0.5\n",
         ":3: endpoint out of range."),
        ("n 3\n0 1 1.0 0.5\n\n2 1 1.0 0.5\n", ":4: edges must have i < j."),
        # A header count below 1 still names the edge first.
        ("n 0\n0 1 1.0 0.5\n", ":2: endpoint out of range."),
        ("n 0\n", ": Node count must be >= 1. Got 0."),
    ])
    def test_error_names_the_first_offending_line(self, tmp_path, body,
                                                  message):
        path = tmp_path / "bad.txt"
        path.write_text(body)
        with pytest.raises(GraphFileError) as info:
            read_graph(path)
        assert str(info.value).startswith(f"{path}{message}")

    def test_deprecation_warning_is_a_rejection(self, tmp_path,
                                                monkeypatch):
        """A numpy that reads "0.0" in an int field as 0 with a warning."""
        loadtxt = np.loadtxt

        def warning_loadtxt(lines, **kwargs):
            warnings.warn("float literal in an int field", DeprecationWarning)
            return loadtxt([line.replace("0.0 ", "0 ") for line in lines],
                           **kwargs)

        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        path = tmp_path / "bad.txt"
        path.write_text("n 3\n0 1 1.0 0.5\n0.0 2 1.0 0.5\n")
        with pytest.raises(GraphFileError) as info:
            read_graph(path)
        assert str(info.value).startswith(f"{path}:3: invalid literal")

    def test_edge_rules_run_once(self, graph, tmp_path, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[0])
            return first_bad_edge(*args)

        monkeypatch.setattr(mgraph, "first_bad_edge", counted)
        monkeypatch.setattr(mio, "first_bad_edge", counted)
        path = tmp_path / "g.txt"
        write_graph(graph, path)
        assert graph_hash(read_graph(path)) == graph_hash(graph)
        assert calls == [graph.n]

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFileError):
            read_graph(tmp_path / "absent.txt")

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\n\n0 1 1.0 0.5\n\n")
        back = read_graph(path)
        assert back.edge_count == 1

    def test_reader_peak_is_the_table_and_the_constructor(self, tmp_path):
        """``read_graph`` parses the open file: its traced peak is the
        parsed edge table (32 bytes per edge) plus what
        ``AlignmentGraph.from_edges`` allocates, not the file's lines too."""
        rng = np.random.default_rng(0)
        n, e = 2100, 66000
        rows = rng.integers(0, n - 1, size=e)
        keys = np.unique(np.concatenate([
            rows * n + rows + 1 + rng.integers(0, n - 1 - rows),
            np.arange(n - 1) * (n + 1) + 1]))  # a path: no isolated node
        graph = AlignmentGraph.from_edges(
            n, keys // n, keys % n, rng.uniform(0.5, 1.0, keys.size),
            rng.uniform(0.0, 2.0 * np.pi, keys.size))
        path = tmp_path / "g.txt"
        write_graph(graph, path)
        arrays = [a.copy() for a in (graph.rows, graph.cols, graph.weights,
                                     graph.angles)]
        tracemalloc.start()
        try:
            AlignmentGraph.from_edges(n, *arrays)
            build = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = read_graph(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph_hash(back) == graph_hash(graph)
        assert peak <= 32 * graph.edge_count + build + 2 ** 18


class TestTruthFormat:
    def test_sphere_round_trip(self, tmp_path):
        truth = make_truth("sphere", 12, seed=1)
        path = tmp_path / "t.txt"
        write_truth(truth, path)
        back = read_truth(path)
        assert back.manifold == "sphere"
        assert np.array_equal(back.rotations, truth.rotations)

    def test_torus_round_trip(self, tmp_path):
        truth = _torus(12, 1.5, 0.3, seed=1)
        path = tmp_path / "t.txt"
        write_truth(truth, path)
        back = read_truth(path)
        assert back.manifold == "torus"
        assert back.radius_major == 1.5
        assert back.radius_minor == 0.3
        assert np.array_equal(back.u, truth.u)
        assert np.array_equal(back.v, truth.v)
        assert np.array_equal(back.frame_angles, truth.frame_angles)

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("manifold klein\nn 2\n")
        with pytest.raises(GraphFileError):
            read_truth(path)
        with pytest.raises(GraphFileError):
            read_truth(tmp_path / "absent.txt")

    # Each header line is its name and a fixed number of values.  A wrong
    # name, or a missing radii line whose place the first data row would
    # take, is an error that names the file.
    @pytest.mark.parametrize("manifold,line,words", [
        ("sphere", 0, ["garbage", "sphere"]),
        ("torus", 0, ["garbage", "torus"]),
        ("torus", 1, ["count", "20"]),
        ("torus", 2, ["whatever", "1", "0.2"]),
        ("torus", 2, None),
        ("sphere", 0, ["manifold"]),
        ("sphere", 1, ["n", "20", "20"]),
        ("torus", 2, ["radii", "1"]),
    ], ids=["sphere-manifold-word", "torus-manifold-word", "n-word",
            "radii-word", "no-radii-line", "manifold-without-value",
            "n-extra-value", "radii-one-value"])
    def test_rejects_malformed_header_lines(self, tmp_path, manifold, line,
                                            words):
        path = tmp_path / "t.txt"
        write_truth(make_truth(manifold, 20, seed=1), path)
        lines = path.read_text().splitlines(keepends=True)
        if words is None:
            del lines[line]
        else:
            lines[line] = " ".join(words) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(GraphFileError,
                           match=re.escape(str(path)) + ".*header line"):
            read_truth(path)

    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    @pytest.mark.parametrize("change", ["truncated", "extended"])
    def test_row_count_must_match_header(self, tmp_path, manifold, change):
        path = tmp_path / "t.txt"
        write_truth(make_truth(manifold, 50, seed=1), path)
        lines = path.read_text().splitlines(keepends=True)
        lines = lines[:-10] if change == "truncated" else lines + lines[-1:]
        path.write_text("".join(lines))
        with pytest.raises(GraphFileError, match="header says n 50"):
            read_truth(path)

    @pytest.mark.parametrize("manifold", ["sphere", "torus"])
    def test_rejects_rows_of_the_wrong_width(self, tmp_path, manifold):
        path = tmp_path / "t.txt"
        write_truth(make_truth(manifold, 5, seed=1), path)
        lines = path.read_text().splitlines()
        header = 2 if manifold == "sphere" else 3
        lines[header:] = [line + " 0.5" for line in lines[header:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(GraphFileError, match="values per row"):
            read_truth(path)

    @pytest.mark.parametrize("manifold,line", [
        ("sphere", -5), ("torus", -5), ("torus", 2),
    ], ids=["sphere-row", "torus-row", "torus-radii"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_rejects_non_finite_values(self, tmp_path, manifold, line,
                                       value):
        path = tmp_path / "t.txt"
        write_truth(make_truth(manifold, 20, seed=1), path)
        lines = path.read_text().splitlines(keepends=True)
        words = lines[line].split()
        words[1] = value
        lines[line] = " ".join(words) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(GraphFileError, match=re.escape(str(path))):
            read_truth(path)


class TestCsvFormats:
    def test_nn_csv_layout(self, tmp_path):
        nn = NeighborList(indices=np.array([[2, 1], [0, 2], [0, 1]]),
                          distances_sq=np.array([[0.1, 0.2], [0.05, 0.3],
                                                 [0.15, 0.25]]))
        path = tmp_path / "nn.csv"
        write_nn_csv(nn, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "node,rank,neighbor,squared_distance"
        assert lines[1].startswith("0,1,2,")
        assert lines[2].startswith("0,2,1,")
        assert len(lines) == 1 + 6

    def test_alignment_csv_layout(self, tmp_path):
        table = AlignmentTable(i=np.array([0, 1]), j=np.array([1, 0]),
                               alpha_hat=np.array([0.5, 5.7831853]),
                               objective=np.array([2.0, 2.0]))
        path = tmp_path / "align.csv"
        write_alignment_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "i,j,alpha_hat_radians,objective_value"
        assert lines[1] == "0,1,0.5,2"
        assert len(lines) == 3

    def test_seventeen_digit_round_trip(self, tmp_path):
        value = 1.0 / 3.0
        nn = NeighborList(indices=np.array([[1], [0]]),
                          distances_sq=np.array([[value], [value]]))
        path = tmp_path / "nn.csv"
        write_nn_csv(nn, path)
        text = path.read_text().splitlines()[1].split(",")[3]
        assert float(text) == value


def test_writers_match_per_row_reference(graph, tmp_path, monkeypatch):
    """The batched writers emit the bytes of a row-by-row f-string writer,
    whatever number of lines they format at a time."""
    rng = np.random.default_rng(5)
    fmt = "%.17g".__mod__
    nn = NeighborList(indices=rng.integers(0, 100, size=(7, 3)),
                      distances_sq=rng.random((7, 3)) * 10.0 ** -rng.integers(
                          0, 20, size=(7, 3)))
    table = AlignmentTable(i=rng.integers(0, 100, 9),
                           j=rng.integers(0, 100, 9),
                           alpha_hat=rng.random(9) * 6.0,
                           objective=np.r_[rng.normal(size=8), 0.0])
    want = {
        "nn.csv": "node,rank,neighbor,squared_distance\n" + "".join(
            f"{i},{r + 1},{nn.indices[i, r]},{fmt(nn.distances_sq[i, r])}\n"
            for i in range(nn.n) for r in range(nn.kappa)),
        "align.csv": "i,j,alpha_hat_radians,objective_value\n" + "".join(
            f"{a},{b},{fmt(x)},{fmt(y)}\n" for a, b, x, y in zip(
                table.i, table.j, table.alpha_hat, table.objective)),
        "graph.txt": f"n {graph.n}\n" + "".join(
            f"{r} {c} {fmt(w)} {fmt(a)}\n" for r, c, w, a in zip(
                graph.rows, graph.cols, graph.weights, graph.angles)),
    }
    sphere = make_truth("sphere", 6, seed=9)
    torus = _torus(7, 1.0 / 3.0, 0.2, seed=9)
    want["sphere.txt"] = f"manifold sphere\nn {sphere.n}\n" + "".join(
        " ".join(fmt(x) for x in row) + "\n"
        for row in sphere.rotations.reshape(sphere.n, 9))
    want["torus.txt"] = (
        f"manifold torus\nn {torus.n}\nradii {fmt(torus.radius_major)} "
        f"{fmt(torus.radius_minor)}\n" + "".join(
            f"{fmt(u)} {fmt(v)} {fmt(a)}\n" for u, v, a in zip(
                torus.u, torus.v, torus.frame_angles)))
    edges = np.sort(rng.normal(size=12) * 10.0 ** -rng.integers(0, 20, 12))
    counts = rng.integers(0, 10 ** 6, 11)
    report = EvalReport(method="mfvdm", params={}, nn_bin_edges=edges,
                        nn_counts=counts, nn_mean=0.5, nn_median=0.25,
                        align_bin_edges_deg=edges[::-1] * -180.0,
                        align_counts=counts[::-1], align_median_abs_deg=1.5)
    for name, lo_hi, column in (
            ("nn_hist", edges, counts),
            ("align_hist", edges[::-1] * -180.0, counts[::-1])):
        want[f"report_{name}.csv"] = "bin_lo,bin_hi,count\n" + "".join(
            f"{fmt(lo)},{fmt(hi)},{c}\n"
            for lo, hi, c in zip(lo_hi[:-1], lo_hi[1:], column))
    spectrum = SpectralReport(k=2, h=0.1, one_minus_lambda=rng.random(9)
                              * 10.0 ** -rng.integers(0, 20, 9),
                              cluster_sizes=(9,), cluster_means=(0.5,),
                              theory_multiplicities=(9,),
                              theory_one_minus=(0.5,), leading_gap=0.5,
                              theory_leading_gap=0.5)
    want["spectrum_spectrum.csv"] = "index,one_minus_lambda\n" + "".join(
        f"{i},{fmt(v)}\n" for i, v in enumerate(spectrum.one_minus_lambda))
    for values in (mio._CHUNK_VALUES, 1, 4, 7, 30):
        monkeypatch.setattr(mio, "_CHUNK_VALUES", values)
        write_nn_csv(nn, tmp_path / "nn.csv")
        write_alignment_csv(table, tmp_path / "align.csv")
        write_graph(graph, tmp_path / "graph.txt")
        write_truth(sphere, tmp_path / "sphere.txt")
        write_truth(torus, tmp_path / "torus.txt")
        write_eval_report(report, tmp_path / "report")
        write_spectral_report(spectrum, tmp_path / "spectrum")
        for name, text in want.items():
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), \
                (name, values)


def test_nn_writer_peak_does_not_grow_with_rows(tmp_path):
    """``write_nn_csv`` formats a fixed number of lines at a time: its
    traced peak is the same at 20k and 200k rows of one 4000-node list."""
    peaks = []
    for kappa in (5, 50):
        rng = np.random.default_rng(0)
        nn = NeighborList(indices=rng.integers(0, 4000, size=(4000, kappa)),
                          distances_sq=rng.random((4000, kappa)))
        tracemalloc.start()
        try:
            write_nn_csv(nn, tmp_path / "nn.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2 ** 16


def test_truth_writer_peak_is_set_by_values_not_lines(tmp_path):
    """``write_truth`` formats a fixed number of values at a time: its
    traced peak does not grow from 8192 to 16384 rows, and a 9-float sphere
    row costs no more chunk memory than three 3-float torus rows."""
    peaks = {}
    for manifold in ("sphere", "torus"):
        for n in (8192, 16384):
            truth = make_truth(manifold, n, seed=0)
            tracemalloc.start()
            try:
                write_truth(truth, tmp_path / "truth.txt")
                peaks[manifold, n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    for manifold in ("sphere", "torus"):
        assert peaks[manifold, 16384] <= peaks[manifold, 8192] + 2 ** 18
    assert peaks["sphere", 16384] <= peaks["torus", 16384] + 2 ** 18


def _float_cases():
    """Named float64 arrays for the table kernel's oracle test."""
    rng = np.random.default_rng(22)
    powers = 10.0 ** np.arange(-6, 19)
    return {
        "ties_2^18": np.arange(1, 2 ** 18, 2) / 2.0 ** 18,
        "ties_2^19": np.arange(1, 2 ** 19, 2) / 2.0 ** 19,
        "powers_of_ten": np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]),
        "random_bits": rng.integers(0, 2 ** 64, 10 ** 5, dtype=np.uint64,
                                    endpoint=False).view(np.float64),
        "random_decades": rng.random(10 ** 5)
        * 10.0 ** rng.integers(-6, 19, 10 ** 5),
        "angles": rng.uniform(0.0, 2.0 * np.pi, 10 ** 4),
        "special": np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                             1e-300, 1e300, np.inf, -np.inf, np.nan]),
    }


def _reference_table(template, *columns):
    """The per-row ``%`` writer the table kernel must match byte for byte."""
    return "".join(template % row for row in zip(
        *(column.tolist() for column in columns))).encode("ascii")


class TestTableKernel:
    """``_write_table`` formats ``%d`` and ``%.17g`` in numpy; Python's
    per-row ``%`` is the oracle."""

    @pytest.mark.parametrize("case", sorted(_float_cases()))
    def test_floats_match_percent_formatting(self, tmp_path, case):
        values = _float_cases()[case]
        path = tmp_path / "t.csv"
        with np.errstate(invalid="ignore"):
            negated = -values
        mio._write_table(path, "h\n", ",", values, negated)
        assert path.read_bytes() == b"h\n" + _reference_table(
            "%.17g,%.17g\n", values, negated)

    def test_integers_match_percent_formatting(self, tmp_path):
        limits = np.iinfo(np.int64)
        powers = [10 ** k for k in range(19)]
        values = np.array([0, limits.min, limits.max] + powers
                          + [p - 1 for p in powers], dtype=np.int64)
        values = np.concatenate([values, -values[3:]])
        path = tmp_path / "t.csv"
        mio._write_table(path, "", " ", values, values[::-1])
        assert path.read_bytes() == _reference_table("%d %d\n", values,
                                                     values[::-1])

    @pytest.mark.parametrize("dtype", [
        np.int32, np.uint8, np.uint64,
        np.histogram(np.zeros(3), bins=2)[0].dtype,
    ], ids=lambda dtype: np.dtype(dtype).name)
    def test_every_integer_dtype_is_d(self, tmp_path, dtype):
        limits = np.iinfo(dtype)
        powers = [10 ** k for k in range(20) if 10 ** k <= limits.max]
        ints = [0, limits.min, limits.max] + powers + [p - 1 for p in powers]
        values = np.array(ints + [-v for v in ints
                                  if limits.min <= -v <= limits.max],
                          dtype=dtype)
        path = tmp_path / "t.csv"
        mio._write_table(path, "", ",", values, values.astype(np.float64))
        assert path.read_bytes() == _reference_table(
            "%d,%.17g\n", values, values.astype(np.float64))

    def test_mixed_columns_over_many_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        # Two fields: _CHUNK_VALUES // 2 lines per chunk.
        ints = rng.integers(-10 ** 6, 10 ** 6,
                            3 * (mio._CHUNK_VALUES // 2) + 5)
        floats = rng.normal(size=ints.size) * 10.0 ** rng.integers(-3, 3,
                                                                   ints.size)
        path = tmp_path / "t.csv"
        mio._write_table(path, "a,b\n", "; ", ints, floats)
        assert path.read_bytes() == b"a,b\n" + _reference_table(
            "%d; %.17g\n", ints, floats)

    def test_empty_table_is_its_header(self, tmp_path):
        path = tmp_path / "t.csv"
        mio._write_table(path, "i,x\n", ",",
                         np.zeros(0, np.int64), np.zeros(0))
        assert path.read_bytes() == b"i,x\n"


def _artifact_writers(graph):
    """One call per public writer, each writing into a given directory."""
    rng = np.random.default_rng(8)
    edges = np.linspace(0.0, np.pi, 21)
    counts = rng.integers(0, 50, 20)
    report = EvalReport(method="mfvdm", params={"p": "0.4"},
                        nn_bin_edges=edges, nn_counts=counts, nn_mean=0.5,
                        nn_median=0.25, align_bin_edges_deg=edges * 10.0,
                        align_counts=counts, align_median_abs_deg=1.5)
    spectrum = spectral_report(
        SpectralBundle(k=1, eigenvalues=1.0 - np.geomspace(1e-3, 0.5, 8),
                       eigenvectors=np.eye(3000, 8, dtype=complex)),
        kappa_build=60)
    bundle = SpectralBundle(k=2, eigenvalues=np.linspace(1, 0.5, 4),
                            eigenvectors=rng.normal(size=(30, 4)) + 0j)
    nn = NeighborList(indices=rng.integers(0, 40, size=(40, 3)),
                      distances_sq=rng.random((40, 3)))
    table = AlignmentTable(i=np.arange(40), j=np.arange(40)[::-1],
                           alpha_hat=rng.random(40), objective=rng.random(40))
    return {
        "graph": lambda out: write_graph(graph, out / "g.txt"),
        "sphere_truth": lambda out: write_truth(
            make_truth("sphere", 20, seed=1), out / "sphere.txt"),
        "torus_truth": lambda out: write_truth(
            make_truth("torus", 20, seed=1), out / "torus.txt"),
        "nn": lambda out: write_nn_csv(nn, out / "nn.csv"),
        "alignment": lambda out: write_alignment_csv(table, out / "al.csv"),
        "eval_report": lambda out: write_eval_report(report, out / "rep"),
        "spectral_report": lambda out: write_spectral_report(
            spectrum, out / "spec"),
        "bundle": lambda out: save_bundle(bundle, out / "bundle.npz"),
        "result": lambda out: save_result(nn, out / "nn_entry.npz"),
    }


@pytest.mark.parametrize("existed", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("writer,victim", [
    ("graph", "g.txt"), ("sphere_truth", "sphere.txt"),
    ("torus_truth", "torus.txt"), ("nn", "nn.csv"), ("alignment", "al.csv"),
    ("eval_report", "rep_nn_hist.csv"), ("eval_report", "rep_align_hist.csv"),
    ("eval_report", "rep_scalars.json"),
    ("spectral_report", "spec_spectrum.csv"),
    ("spectral_report", "spec_clusters.json"), ("bundle", "bundle.npz"),
    ("result", "nn_entry.npz"),
])
def test_failed_write_leaves_no_partial_artifact(graph, tmp_path, fail_writes,
                                                 writer, victim, existed):
    """A write that fails halfway leaves the target as it was, and no temp."""
    write = _artifact_writers(graph)[writer]
    reference, out = tmp_path / "reference", tmp_path / "out"
    reference.mkdir()
    out.mkdir()
    write(reference)
    whole = {path.name: path.read_bytes() for path in reference.iterdir()}
    if existed:
        for name in whole:
            (out / name).write_bytes(b"previous\n")
    with fail_writes(victim, len(whole[victim]) // 2):
        with pytest.raises(OSError, match="injected write failure"):
            write(out)
    after = {path.name: path.read_bytes() for path in out.iterdir()}
    assert set(after) <= set(whole)
    assert after.get(victim) == (b"previous\n" if existed else None)
    for name, data in after.items():
        assert data in (whole[name], b"previous\n"), name


class TestReports:
    def test_eval_report_files(self, tmp_path):
        truth = make_truth("sphere", 30, seed=2)
        nn = NeighborList(
            indices=np.arange(1, 31).reshape(30, 1) % 30,
            distances_sq=np.zeros((30, 1)),
        )
        table = AlignmentTable(i=np.array([0]), j=np.array([1]),
                               alpha_hat=np.array([0.5]),
                               objective=np.array([1.0]))
        report_nn = score_nn(nn, truth, params={"p": "1.0"})
        report_al = score_alignment(table, truth)
        paths = write_eval_report(report_nn, tmp_path / "report_mfvdm")
        names = sorted(p.name for p in paths)
        assert names == ["report_mfvdm_nn_hist.csv",
                         "report_mfvdm_scalars.json"]
        paths = write_eval_report(report_al, tmp_path / "report_vdm")
        names = sorted(p.name for p in paths)
        assert names == ["report_vdm_align_hist.csv",
                         "report_vdm_scalars.json"]
        hist = (tmp_path / "report_mfvdm_nn_hist.csv").read_text()
        assert hist.splitlines()[0] == "bin_lo,bin_hi,count"
        scalars = json.loads(
            (tmp_path / "report_mfvdm_scalars.json").read_text()
        )
        assert scalars["params"] == {"p": "1.0"}
        assert "nn_mean" in scalars

    def test_spectral_report_files(self, tmp_path):
        lam = np.sort(np.concatenate([
            1.0 - 0.01 - 1e-4 * np.arange(3),
            1.0 - 0.05 - 1e-4 * np.arange(5),
        ]))[::-1]
        bundle = SpectralBundle(k=1, eigenvalues=lam,
                                eigenvectors=np.eye(3000, 8, dtype=complex))
        report = spectral_report(bundle, kappa_build=60)
        paths = write_spectral_report(report, tmp_path / "spectrum_k1")
        names = sorted(p.name for p in paths)
        assert names == ["spectrum_k1_clusters.json",
                         "spectrum_k1_spectrum.csv"]
        payload = json.loads(
            (tmp_path / "spectrum_k1_clusters.json").read_text()
        )
        assert payload["cluster_sizes"] == [3, 5]
        assert payload["k"] == 1


class TestResultCache:
    """A neighbor list or alignment table is an ``--out`` file like any
    other: the run manifest holds it only under the key it was recorded
    with and with its recorded bytes, so any damage is a miss before a
    loader reads it."""

    NN, ALIGN = "cache/p1/nn_mfvdm.npz", "cache/p1/align_mfvdm.npz"

    @pytest.fixture
    def entries(self, tmp_path):
        """A recorded neighbor list of 30 nodes by 4 and its table."""
        rng = np.random.default_rng(8)
        indices = np.array([rng.permutation(np.delete(np.arange(30), node))[:4]
                            for node in range(30)])
        neighbors = NeighborList(indices=indices,
                                 distances_sq=np.sort(rng.random((30, 4))))
        table = AlignmentTable(
            i=np.repeat(np.arange(30), 4), j=indices.ravel(),
            alpha_hat=2.0 * np.pi * rng.random(120),
            objective=rng.normal(size=120))
        (tmp_path / "cache" / "p1").mkdir(parents=True)
        save_result(neighbors, tmp_path / self.NN)
        save_result(table, tmp_path / self.ALIGN)
        RunManifest(tmp_path).record([(self.NN, "kappa4"),
                                      (self.ALIGN, "kappa4")])
        return neighbors, table

    def _edited(self, tmp_path, name, edit) -> bool:
        """Whether the manifest still holds ``name`` after ``edit`` of its
        arrays."""
        path = tmp_path / name
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        edit(arrays)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        return RunManifest(tmp_path).holds([name], "kappa4")

    def test_round_trip_is_bitwise(self, tmp_path, entries):
        neighbors, table = entries
        assert RunManifest(tmp_path).holds([self.NN, self.ALIGN], "kappa4")
        back = load_neighbors(tmp_path / self.NN)
        assert np.array_equal(back.indices, neighbors.indices)
        assert np.array_equal(back.distances_sq, neighbors.distances_sq)
        rows = load_alignment(tmp_path / self.ALIGN, back)
        for name in ("i", "j", "alpha_hat", "objective"):
            assert np.array_equal(getattr(rows, name), getattr(table, name))

    def test_absent_entry_is_a_miss(self, tmp_path, entries):
        (tmp_path / self.NN).unlink()
        manifest = RunManifest(tmp_path)
        assert not manifest.holds([self.NN], "kappa4")
        assert manifest.holds([self.ALIGN], "kappa4")

    @pytest.mark.parametrize("edit", [
        lambda a: a.update(indices=a["indices"][:, :3]),
        lambda a: a.update(indices=a["indices"].astype(np.int32)),
        lambda a: a.pop("distances_sq"),
        lambda a: a["indices"].__setitem__((2, 1), 30),
        lambda a: a["indices"].__setitem__((2, 1), -1),
        lambda a: a["distances_sq"].__setitem__((2, 1), -0.5),
        lambda a: a["distances_sq"].__setitem__((2, 1), np.nan),
    ], ids=["shape", "dtype", "missing", "index-n", "index-negative",
            "negative-distance", "nan-distance"])
    def test_unusable_neighbor_entry_is_a_miss(self, tmp_path, entries,
                                               edit):
        assert not self._edited(tmp_path, self.NN, edit)

    @pytest.mark.parametrize("edit", [
        lambda a: a.update(alpha_hat=a["alpha_hat"][:-1]),
        lambda a: a.pop("objective"),
        lambda a: a["alpha_hat"].__setitem__(7, 2.0 * np.pi),
        lambda a: a["alpha_hat"].__setitem__(7, -1e-3),
        lambda a: a["objective"].__setitem__(7, np.inf),
    ], ids=["shape", "missing", "two-pi", "negative-angle", "inf-objective"])
    def test_unusable_alignment_entry_is_a_miss(self, tmp_path, entries,
                                                edit):
        assert not self._edited(tmp_path, self.ALIGN, edit)

    def test_an_entry_of_other_neighbors_is_a_miss(self, tmp_path, entries):
        """Entries recorded for one kappa are not held for another."""
        manifest = RunManifest(tmp_path)
        assert not manifest.holds([self.NN], "kappa5")
        assert not manifest.holds([self.ALIGN], "kappa5")


class TestBundleCache:
    """A bundle is a run-manifest artifact: held only under the key of the
    graph digest, k and m it was recorded with, and with its recorded
    bytes, so any damage is a miss before ``load_bundle`` reads it."""

    DIGEST = "0" * 64

    def _recorded(self, out, bundle):
        """``bundle`` saved in ``out``'s cache and recorded as the bundle of
        frequency k and m eigenpairs of ``DIGEST``'s graph; its path."""
        path = bundle_cache_path(out / "cache", self.DIGEST, bundle.k,
                                 bundle.m)
        path.parent.mkdir(exist_ok=True)
        save_bundle(bundle, path)
        manifest = RunManifest(out)
        manifest.record([(manifest.name(path),
                          self._key(bundle.k, bundle.m))])
        return path

    def _key(self, k, m, digest=DIGEST):
        return artifact_key(["bundle", digest, k, m])

    def _holds(self, out, path, k, m, digest=DIGEST) -> bool:
        manifest = RunManifest(out)
        return manifest.holds([manifest.name(path)], self._key(k, m, digest))

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
        bundle = SpectralBundle(k=3, eigenvalues=np.linspace(1, 0.5, 5),
                                eigenvectors=vecs)
        path = self._recorded(tmp_path, bundle)
        assert self._holds(tmp_path, path, 3, 5)
        back = load_bundle(path)
        assert back.k == 3
        assert np.array_equal(back.eigenvalues, bundle.eigenvalues)
        assert np.array_equal(back.eigenvectors, bundle.eigenvectors)

    @pytest.mark.parametrize("damage", ["truncated", "empty", "garbage",
                                        "missing_array"])
    def test_unreadable_bundle_is_a_miss(self, tmp_path, damage):
        bundle = SpectralBundle(k=1, eigenvalues=np.array([1.0, 0.5]),
                                eigenvectors=np.eye(2, dtype=complex))
        path = self._recorded(tmp_path, bundle)
        whole = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(whole[:len(whole) // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "garbage":
            path.write_bytes(b"not an npz archive\n" * 10)
        else:
            np.savez(path, k=1, eigenvalues=bundle.eigenvalues)
        assert not self._holds(tmp_path, path, 1, 2)

    @pytest.mark.parametrize("wanted", [
        {"k": 2}, {"m": 4}, {"digest": "1" * 64},
        {"k": 5, "m": 3},
        # Stored eigenvalues that are not 5 finite values.
        {"eigenvalues": np.linspace(1, 0.5, 6)},
        {"eigenvalues": np.array([1.0, np.nan, 0.8, 0.7, 0.5])},
    ])
    def test_mismatched_bundle_is_a_miss(self, tmp_path, wanted):
        """A bundle recorded for one graph, k and m is not held for
        another, nor once the file holds eigenvalues other than the m
        finite values that were recorded."""
        wanted = {"k": 3, "m": 5, **wanted}
        stored = wanted.pop("eigenvalues", None)
        bundle = SpectralBundle(k=3, eigenvalues=np.linspace(1, 0.5, 5),
                                eigenvectors=np.ones((20, 5), dtype=complex))
        path = self._recorded(tmp_path, bundle)
        if stored is not None:
            save_bundle(dataclasses.replace(bundle, eigenvalues=stored), path)
        assert not self._holds(tmp_path, path, **wanted)
        if stored is None:
            assert self._holds(tmp_path, path, 3, 5)

    def test_concurrent_writers_leave_one_whole_bundle(self, tmp_path):
        rng = np.random.default_rng(5)
        bundles = [
            SpectralBundle(k=2, eigenvalues=np.linspace(1, 0.5, 8),
                           eigenvectors=rng.normal(size=(400, 8)) + 0j)
            for _ in range(4)
        ]
        path = tmp_path / "bundle.npz"
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                list(pool.map(
                    lambda b: [save_bundle(b, path) for _ in range(5)],
                    bundles, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        back = load_bundle(path)
        assert any(np.array_equal(back.eigenvectors, b.eigenvectors)
                   for b in bundles)
        assert [p.name for p in tmp_path.iterdir()] == ["bundle.npz"]

    def test_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        default = cache_dir_for(tmp_path / "out")
        assert default == tmp_path / "out" / "cache"
        assert default.is_dir()
        monkeypatch.setenv(CACHE_ENV, str(tmp_path / "shared"))
        override = cache_dir_for(tmp_path / "out")
        assert override == tmp_path / "shared"
        assert override.is_dir()

    def test_cache_key_includes_graph_and_params(self, graph, tmp_path):
        digest = graph_hash(graph)
        a = bundle_cache_path(tmp_path, digest, k=2, m=50)
        b = bundle_cache_path(tmp_path, digest, k=3, m=50)
        c = bundle_cache_path(tmp_path, digest, k=2, m=20)
        assert a.name == f"bundle_{digest[:16]}_k2_m50.npz"
        assert len({a, b, c}) == 3


class TestRunManifest:
    """``RunManifest``: per artifact, the key of its inputs and the sha256
    of its bytes, under ``<out>/cache/manifest.json``."""

    @pytest.fixture
    def out(self, tmp_path):
        (tmp_path / "p1").mkdir()
        (tmp_path / "truth.txt").write_text("truth\n")
        (tmp_path / "p1" / "nn.csv").write_text("nn\n")
        return tmp_path

    def test_recorded_files_are_held_under_their_key_only(self, out):
        manifest = RunManifest(out)
        assert not manifest.holds(["truth.txt"], "a")
        manifest.record([("truth.txt", "a"), ("p1/nn.csv", "a")])
        for reread in (manifest, RunManifest(out)):
            assert reread.holds(["truth.txt", "p1/nn.csv"], "a")
            assert not reread.holds(["truth.txt"], "b")
            assert not reread.holds(["truth.txt", "other.txt"], "a")

    def test_one_record_of_several_keys_writes_the_manifest_once(
            self, out, monkeypatch):
        written = []
        real = mio._write_json

        def spy(payload, path):
            written.append(Path(path).name)
            real(payload, path)

        monkeypatch.setattr(mio, "_write_json", spy)
        manifest = RunManifest(out)
        manifest.record([("truth.txt", "a"), ("p1/nn.csv", "b")])
        assert written == ["manifest.json"]
        for reread in (manifest, RunManifest(out)):
            assert reread.holds(["truth.txt"], "a")
            assert reread.holds(["p1/nn.csv"], "b")
            assert not reread.holds(["p1/nn.csv"], "a")

    def test_names_are_relative_under_out_and_absolute_outside(
            self, out, tmp_path_factory):
        """A file under ``<out>`` is named by its resolved path relative to
        ``<out>``, any other by its resolved absolute path, so a symlinked
        ``<out>`` gives one name per file and no ``../`` name."""
        elsewhere = tmp_path_factory.mktemp("elsewhere")
        link = elsewhere / "link"
        link.symlink_to(out, target_is_directory=True)
        for root in (out, link):
            manifest = RunManifest(root)
            assert manifest.name(root / "p1" / "nn.csv") == "p1/nn.csv"
            assert manifest.name(root / "p1" / ".." / "truth.txt") == (
                "truth.txt")
            assert manifest.name(elsewhere / "b.npz") == (
                elsewhere.resolve() / "b.npz").as_posix()
            # ``..`` of a symlink is that of its target.
            assert manifest.name(root / ".." / "b.npz") == (
                out.resolve().parent / "b.npz").as_posix()
        (elsewhere / "b.npz").write_bytes(b"bundle")
        manifest = RunManifest(link)
        manifest.record([(manifest.name(elsewhere / "b.npz"), "a")])
        assert RunManifest(out).holds([manifest.name(elsewhere / "b.npz")],
                                      "a")

    @pytest.mark.parametrize("damage", ["edited", "deleted", "directory"])
    def test_a_file_that_changed_is_not_held(self, out, damage):
        RunManifest(out).record([("truth.txt", "a"), ("p1/nn.csv", "a")])
        target = out / "truth.txt"
        target.unlink()
        if damage == "edited":
            target.write_text("truth!\n")
        elif damage == "directory":
            target.mkdir()
        manifest = RunManifest(out)
        assert not manifest.holds(["truth.txt"], "a")
        assert manifest.holds(["p1/nn.csv"], "a")

    def test_drop_unused_removes_only_unused_prefixed_files(self, out):
        (out / "p1" / "nn_old.csv").write_text("old\n")
        RunManifest(out).record([("truth.txt", "a"), ("p1/nn.csv", "a"),
                                 ("p1/nn_old.csv", "a")])
        manifest = RunManifest(out)
        assert manifest.holds(["p1/nn.csv"], "a")
        assert manifest.drop_unused(("p1/nn",)) == ["p1/nn_old.csv"]
        assert not (out / "p1" / "nn_old.csv").exists()
        assert sorted(RunManifest(out).entries) == ["p1/nn.csv", "truth.txt"]
        assert manifest.drop_unused(("p1/",)) == []

    @pytest.mark.parametrize("garbage", [
        b"", b"not json", b"\xff\xfe", b"[1, 2]", b'{"truth.txt": 1}',
        b'{"truth.txt": {"key": "a"}}',
        b'{"truth.txt": {"key": "a", "sha256": null}}',
    ])
    def test_an_unreadable_manifest_reads_as_empty(self, out, garbage):
        RunManifest(out).record([("truth.txt", "a")])
        (out / "cache" / "manifest.json").write_bytes(garbage)
        manifest = RunManifest(out)
        assert manifest.entries == {}
        assert not manifest.holds(["truth.txt"], "a")

    def test_content_is_sorted_json_of_keys_and_digests(self, out):
        RunManifest(out).record([("truth.txt", "a")])
        RunManifest(out).record([("p1/nn.csv", "b")])
        text = (out / "cache" / "manifest.json").read_text()
        assert json.loads(text) == {
            "p1/nn.csv": {"key": "b", "sha256": hashlib.sha256(
                b"nn\n").hexdigest()},
            "truth.txt": {"key": "a", "sha256": hashlib.sha256(
                b"truth\n").hexdigest()},
        }
        assert text == json.dumps(json.loads(text), indent=2,
                                  sort_keys=True) + "\n"

    def test_failed_write_keeps_the_previous_manifest(self, out,
                                                      fail_writes):
        RunManifest(out).record([("truth.txt", "a")])
        path = out / "cache" / "manifest.json"
        previous = path.read_bytes()
        with fail_writes("manifest.json", 10):
            with pytest.raises(OSError, match="injected write failure"):
                RunManifest(out).record([("p1/nn.csv", "b")])
        assert path.read_bytes() == previous
        assert [p.name for p in path.parent.iterdir()] == ["manifest.json"]

    def test_key_covers_the_program_and_each_input(self, monkeypatch):
        key = artifact_key(["sphere", 300, 7, {"p": "0.4"}])
        assert key == artifact_key(["sphere", 300, 7, {"p": "0.4"}])
        assert len({key, artifact_key(["sphere", 300, 8, {"p": "0.4"}]),
                    artifact_key(["sphere", 300, 7, {"p": "0.5"}]),
                    artifact_key(["sphere", 300, 7])}) == 4
        monkeypatch.setattr(mio, "program_identity", lambda: "other")
        assert artifact_key(["sphere", 300, 7, {"p": "0.4"}]) != key

    def test_program_identity_covers_sources_and_numpy(self):
        """And scipy: its ``version.py``, which names its version and git
        revision."""
        identity = mio.program_identity()
        assert re.fullmatch(r"[0-9a-f]{64}", identity)
        digest = hashlib.sha256(f"numpy {np.__version__}\n".encode())
        folder = importlib.util.find_spec("scipy").submodule_search_locations
        scipy = (Path(folder[0]) / "version.py").read_bytes()
        assert f'"{scipy_version}"'.encode() in scipy
        digest.update(f"scipy {len(scipy)}\n".encode() + scipy)
        for path in sorted(Path(mio.__file__).parent.glob("*.py")):
            data = path.read_bytes()
            digest.update(f"{path.name} {len(data)}\n".encode() + data)
        assert identity == digest.hexdigest()

    def test_scipy_without_its_version_file_gives_its_version(
            self, tmp_path, monkeypatch):
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
        assert mio._scipy_version() == scipy_version.encode()

    def test_file_digest_reads_every_block(self, tmp_path):
        data = np.random.default_rng(0).bytes(3 * 2 ** 20 + 5)
        (tmp_path / "big").write_bytes(data)
        assert file_sha256(tmp_path / "big") == hashlib.sha256(
            data).hexdigest()
