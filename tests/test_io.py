"""File formats: round-trips, strict parsing, cache behavior."""

import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mfvdm.alignment import AlignmentTable
from mfvdm.embedding import NeighborList
from mfvdm.errors import GraphFileError
from mfvdm.evaluation import score_alignment, score_nn, spectral_report
from mfvdm.graph import build_clean_knn_graph, rewire_graph
from mfvdm.io import (
    CACHE_ENV,
    bundle_cache_path,
    cache_dir_for,
    graph_hash,
    load_bundle,
    read_graph,
    read_truth,
    save_bundle,
    write_alignment_csv,
    write_eval_report,
    write_graph,
    write_nn_csv,
    write_spectral_report,
    write_truth,
)
from mfvdm.sampling import make_truth
from mfvdm.spectral import SpectralBundle


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

    def test_missing_file(self, tmp_path):
        with pytest.raises(GraphFileError):
            read_graph(tmp_path / "absent.txt")

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("n 2\n\n0 1 1.0 0.5\n\n")
        back = read_graph(path)
        assert back.edge_count == 1


class TestTruthFormat:
    def test_sphere_round_trip(self, tmp_path):
        truth = make_truth("sphere", 12, seed=1)
        path = tmp_path / "t.txt"
        write_truth(truth, path)
        back = read_truth(path)
        assert back.manifold == "sphere"
        assert np.array_equal(back.rotations, truth.rotations)

    def test_torus_round_trip(self, tmp_path):
        truth = make_truth("torus", 12, seed=1, radius_major=1.5,
                           radius_minor=0.3)
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


def test_writers_match_per_row_reference(graph, tmp_path):
    """The batched writers emit the bytes of a row-by-row f-string writer."""
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
    write_nn_csv(nn, tmp_path / "nn.csv")
    write_alignment_csv(table, tmp_path / "align.csv")
    write_graph(graph, tmp_path / "graph.txt")
    for name, text in want.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


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
        import json
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
                                eigenvectors=np.eye(8, dtype=complex))
        report = spectral_report(bundle, kappa_build=60, n=3000)
        paths = write_spectral_report(report, tmp_path / "spectrum_k1")
        names = sorted(p.name for p in paths)
        assert names == ["spectrum_k1_clusters.json",
                         "spectrum_k1_spectrum.csv"]
        import json
        payload = json.loads(
            (tmp_path / "spectrum_k1_clusters.json").read_text()
        )
        assert payload["cluster_sizes"] == [3, 5]
        assert payload["k"] == 1


class TestBundleCache:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(20, 5)) + 1j * rng.normal(size=(20, 5))
        bundle = SpectralBundle(k=3, eigenvalues=np.linspace(1, 0.5, 5),
                                eigenvectors=vecs)
        path = tmp_path / "bundle.npz"
        save_bundle(bundle, path)
        back = load_bundle(path)
        assert back.k == 3
        assert np.array_equal(back.eigenvalues, bundle.eigenvalues)
        assert np.array_equal(back.eigenvectors, bundle.eigenvectors)

    def test_load_absent_returns_none(self, tmp_path):
        assert load_bundle(tmp_path / "nope.npz") is None

    @pytest.mark.parametrize("damage", ["truncated", "empty", "garbage",
                                        "missing_array"])
    def test_unreadable_bundle_is_a_miss(self, tmp_path, damage):
        bundle = SpectralBundle(k=1, eigenvalues=np.array([1.0, 0.5]),
                                eigenvectors=np.eye(2, dtype=complex))
        path = tmp_path / "bundle.npz"
        save_bundle(bundle, path)
        whole = path.read_bytes()
        if damage == "truncated":
            path.write_bytes(whole[:len(whole) // 2])
        elif damage == "empty":
            path.write_bytes(b"")
        elif damage == "garbage":
            path.write_bytes(b"not an npz archive\n" * 10)
        else:
            np.savez(path, k=1, eigenvalues=bundle.eigenvalues)
        assert load_bundle(path) is None

    @pytest.mark.parametrize("wanted", [
        {"k": 2}, {"shape": (20, 4)}, {"shape": (19, 5)},
        {"k": 3, "shape": (5, 20)},
    ])
    def test_mismatched_bundle_is_a_miss(self, tmp_path, wanted):
        bundle = SpectralBundle(k=3, eigenvalues=np.linspace(1, 0.5, 5),
                                eigenvectors=np.ones((20, 5), dtype=complex))
        path = tmp_path / "bundle.npz"
        save_bundle(bundle, path)
        assert load_bundle(path, **wanted) is None
        assert load_bundle(path, k=3, shape=(20, 5)) is not None

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
