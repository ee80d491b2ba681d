"""Command-line interface: artifacts, determinism, caching, exit codes."""

import dataclasses
import gc
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from mfvdm import alignment, cli, embedding
from mfvdm import io as mio
from mfvdm import spectral
from mfvdm.config import ExperimentConfig, load_config_file, resolve_config
from mfvdm.errors import ConvergenceError
from mfvdm.io import read_graph
from mfvdm.spectral import DENSE_THRESHOLD


def _run(*argv):
    return cli.main(list(argv))


def _tree_digest(root, skip=("cache",)):
    """Stable digest of every text artifact under root."""
    root = Path(root)
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_dir() or any(part in skip for part in path.parts):
            continue
        rel = path.relative_to(root).as_posix()
        digests[rel] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_config_field_has_a_flag():
    """A run sets each config field by a flag: no field can be set from a
    config file alone, and no flag sets anything but a config field."""
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert fields == {field for _, field, _ in cli._FLAGS}


SMALL = ["--n", "250", "--kappa-build", "20", "--kappa", "10",
         "--kmax", "5", "--mk", "10"]


class TestGenerate:
    def test_artifacts_and_edge_bounds(self, tmp_path):
        out = tmp_path / "out"
        code = _run("generate", "--manifold", "sphere", "--n", "100",
                    "--kappa-build", "5", "--p", "1,0.5",
                    "--out", str(out), "--seed", "7",
                    "--kappa", "10", "--kmax", "5")
        assert code == 0
        assert (out / "truth.txt").exists()
        graph = read_graph(out / "graph_clean.txt")
        # union symmetrization: between n*kappa/2 and n*kappa edges
        assert 250 <= graph.edge_count <= 500
        noisy = read_graph(out / "graph_p0.5.txt")
        assert noisy.n == 100
        assert not (out / "graph_p1.txt").exists()

    def test_rerun_reuses_files_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        args = ("generate", "--manifold", "torus", "--n", "80",
                "--kappa-build", "4", "--p", "0.3", "--out", str(out),
                "--seed", "1", "--kappa", "10", "--kmax", "5")
        assert _run(*args) == 0
        first = _tree_digest(out)
        assert _run(*args) == 0
        assert _tree_digest(out) == first


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe") / "out"
    code = _run("pipeline", "--manifold", "sphere", *SMALL,
                "--p", "1,0.4", "--baselines", "dm,vdm",
                "--out", str(out), "--seed", "3")
    assert code == 0
    return out


class TestPipeline:

    def test_expected_artifact_set(self, pipeline_out):
        files = {path.relative_to(pipeline_out).as_posix()
                 for path in pipeline_out.rglob("*") if path.is_file()}
        expected = {"truth.txt", "graph_clean.txt", "graph_p0.4.txt"}
        for tag in ("p1", "p0.4"):
            for method in ("mfvdm", "vdm", "dm"):
                expected |= {f"{tag}/nn_{method}.csv",
                             f"{tag}/report_{method}_scalars.json",
                             f"{tag}/report_{method}_nn_hist.csv"}
            for method in ("mfvdm", "vdm"):
                expected |= {f"{tag}/align_{method}.csv",
                             f"{tag}/report_{method}_align_hist.csv"}
        cache = files - expected
        bundles = {name for name in cache if "/bundle_" in name}
        # Frequencies 0..5 for each of the clean and the rewired graph.
        assert len(bundles) == 12
        assert all(re.fullmatch(r"cache/bundle_[0-9a-f]{16}_k[0-5]_m10\.npz",
                                name) for name in bundles)
        # Per p, each method's neighbor list, and the alignment angles of
        # the methods that align.
        entries = {f"cache/{tag}/{kind}_{method}.npz"
                   for tag in ("p1", "p0.4")
                   for method in ("mfvdm", "vdm", "dm")
                   for kind in ("nn", "align")
                   if (method, kind) != ("dm", "align")}
        assert len(entries) == 10
        assert cache == bundles | entries | {"cache/manifest.json"}
        # The manifest records every artifact under --out.
        manifest = json.loads((pipeline_out / "cache" / "manifest.json")
                              .read_text())
        assert set(manifest) == expected | entries | bundles
        assert files >= expected
        # Artifacts get the mode a plain open gives, cache entries included.
        umask = os.umask(0)
        os.umask(umask)
        for name in ("p0.4/nn_mfvdm.csv", min(bundles), min(entries)):
            mode = (pipeline_out / name).stat().st_mode
            assert stat.S_IMODE(mode) == 0o666 & ~umask, name

    def test_nn_csv_shape(self, pipeline_out):
        lines = (pipeline_out / "p1" / "nn_mfvdm.csv").read_text()
        rows = lines.splitlines()
        assert rows[0] == "node,rank,neighbor,squared_distance"
        assert len(rows) == 1 + 250 * 10

    def test_clean_alignment_is_tight(self, pipeline_out):
        scalars = json.loads(
            (pipeline_out / "p1" / "report_mfvdm_scalars.json").read_text()
        )
        assert scalars["align_median_abs_deg"] < 2.0

    def test_noise_ordering_at_small_scale(self, pipeline_out):
        means = {}
        for method in ("mfvdm", "vdm", "dm"):
            scalars = json.loads(
                (pipeline_out / "p0.4"
                 / f"report_{method}_scalars.json").read_text()
            )
            means[method] = scalars["nn_mean"]
        assert means["mfvdm"] <= means["vdm"] <= means["dm"]

    def test_params_echoed_into_reports(self, pipeline_out):
        scalars = json.loads(
            (pipeline_out / "p0.4" / "report_vdm_scalars.json").read_text()
        )
        assert scalars["method"] == "vdm"
        assert scalars["params"]["p"] == "0.4"
        assert scalars["params"]["n"] == "250"
        assert scalars["params"]["k_max"] == "5"

    def test_runs_are_byte_identical(self, pipeline_out, tmp_path):
        rerun = tmp_path / "rerun"
        code = _run("pipeline", "--manifold", "sphere", *SMALL,
                    "--p", "1,0.4", "--baselines", "dm,vdm",
                    "--out", str(rerun), "--seed", "3")
        assert code == 0
        assert _tree_digest(rerun) == _tree_digest(pipeline_out)

    def test_p_list_in_a_config_file_matches_the_flag(self, pipeline_out,
                                                      tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("p = 1, 0.4\n")
        out = tmp_path / "out"
        assert _run("pipeline", "--manifold", "sphere", *SMALL,
                    "--config", str(config), "--baselines", "dm,vdm",
                    "--out", str(out), "--seed", "3") == 0
        assert _tree_digest(out) == _tree_digest(pipeline_out)

    def test_worker_count_does_not_change_outputs(self, pipeline_out,
                                                  tmp_path, monkeypatch):
        # A bundle cache of its own, so the run solves, as it searches and
        # aligns, on 3 workers instead of loading what the first run stored.
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        rerun = tmp_path / "workers"
        code = _run("pipeline", "--manifold", "sphere", *SMALL,
                    "--p", "1,0.4", "--baselines", "dm,vdm",
                    "--out", str(rerun), "--seed", "3", "--workers", "3")
        assert code == 0
        assert _tree_digest(rerun) == _tree_digest(pipeline_out)


def _assert_nn_prefix(written_dir, reference_dir):
    """``written_dir`` holds the nn files and NN-only reports that a
    ``pipeline`` run wrote under ``reference_dir``, and nothing of align."""
    written = _tree_digest(written_dir)
    reference = _tree_digest(reference_dir)
    for method in ("mfvdm", "vdm", "dm"):
        for name in (f"nn_{method}.csv", f"report_{method}_nn_hist.csv"):
            assert written[name] == reference[name]
        scalars = json.loads(
            (written_dir / f"report_{method}_scalars.json").read_text())
        full_scalars = json.loads(
            (reference_dir / f"report_{method}_scalars.json").read_text())
        assert {key: full_scalars[key] for key in scalars} == scalars
        assert "nn_mean" in scalars
        assert "align_median_abs_deg" not in scalars
    assert not [name for name in written if "align" in name]


class TestStagePrefixes:
    """Every stage command is ``pipeline`` cut short."""

    ARGS = ("--manifold", "sphere", *SMALL, "--p", "0.4",
            "--baselines", "dm,vdm", "--seed", "3")

    @pytest.fixture(scope="class")
    def full(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("full") / "out"
        assert _run("pipeline", *self.ARGS, "--out", str(out)) == 0
        return out

    def test_align_writes_the_pipeline_tree(self, full, tmp_path):
        out = tmp_path / "out"
        assert _run("align", *self.ARGS, "--out", str(out)) == 0
        assert _tree_digest(out) == _tree_digest(full)

    def test_nn_writes_the_pipeline_nn_artifacts(self, full, tmp_path):
        out = tmp_path / "out"
        assert _run("nn", *self.ARGS, "--out", str(out)) == 0
        _assert_nn_prefix(out / "p0.4", full / "p0.4")

    def test_nn_takes_the_p_list(self, pipeline_out, tmp_path):
        out = tmp_path / "out"
        assert _run("nn", "--manifold", "sphere", *SMALL, "--p", "1,0.4",
                    "--baselines", "dm,vdm", "--out", str(out),
                    "--seed", "3") == 0
        for tag in ("p1", "p0.4"):
            _assert_nn_prefix(out / tag, pipeline_out / tag)

    def test_embed_writes_graphs_and_bundles_only(self, full, tmp_path):
        out = tmp_path / "out"
        assert _run("embed", *self.ARGS, "--out", str(out)) == 0
        assert sorted(_tree_digest(out)) == [
            "graph_clean.txt", "graph_p0.4.txt", "truth.txt"]
        # The bundles of a pipeline run, and no neighbor or angle entry.
        assert (sorted(p.name for p in (out / "cache").iterdir())
                == sorted([p.name for p in (full / "cache").glob("bundle_*")]
                          + ["manifest.json"]))

    def test_sweep_builds_truth_and_graphs_without_reading_them(
            self, tmp_path, monkeypatch):
        reads = {"read_truth": 0, "read_graph": 0}

        def counted(name):
            real = getattr(mio, name)

            def wrapper(*args, **kwargs):
                reads[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in reads:
            monkeypatch.setattr(mio, name, counted(name))
        out = tmp_path / "out"
        assert _run("pipeline", "--manifold", "sphere", *SMALL,
                    "--p", "1,0.3", "--seed", "3", "--out", str(out)) == 0
        assert reads == {"read_truth": 0, "read_graph": 0}
        assert (out / "graph_p0.3.txt").exists()


class TestMemory:
    """What the pipeline holds: each frequency's features once, shared by
    the methods, and no bundle; the clean graph only when it is needed."""

    def test_no_bundle_outlives_its_features(self, tmp_path, monkeypatch):
        bundles, searched = [], []

        def spy(real):
            def wrapper(*args, **kwargs):
                result = real(*args, **kwargs)
                if result is not None:
                    bundles.append(weakref.ref(result))
                return result
            return wrapper

        def search(embeddings, *args, **kwargs):
            gc.collect()
            assert bundles and not [ref for ref in bundles if ref()]
            searched.append(embeddings)
            return real_search(embeddings, *args, **kwargs)

        real_search = cli.nn_search
        monkeypatch.setattr(cli, "top_eigenpairs", spy(cli.top_eigenpairs))
        monkeypatch.setattr(mio, "load_bundle", spy(mio.load_bundle))
        monkeypatch.setattr(cli, "nn_search", search)
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "vdm,dm", "--seed", "3", "--out",
                str(tmp_path / "out"))
        # The bundles are solved, then loaded; a new kappa makes the second
        # run search again instead of loading the stored neighbor lists.
        for kappa in ("10", "9"):
            searched.clear()
            assert _run(*args, "--kappa", kappa) == 0
            mfvdm, vdm, dm = searched
            assert mfvdm.frequencies == (1, 2, 3, 4, 5)
            assert vdm.features[0].phi is mfvdm.features[0].phi
            assert dm.frequencies == (0,)

    def test_no_graph_outlives_its_bundles(self, tmp_path, monkeypatch):
        """At each search, and at each spectrum report, the graph of that p
        is gone, built or parsed; the clean graph lives on only while a
        later p may still be rewired from it."""
        made, checked, last = [], [], {}

        def spy(real, name):
            def wrapper(*args, **kwargs):
                graph = real(*args, **kwargs)
                made.append((name(*args), weakref.ref(graph)))
                return graph
            return wrapper

        def check(real):
            def wrapper(*args, **kwargs):
                gc.collect()
                tag = cli._CURRENT_STAGE.split("p=")[1]
                alive = {name for name, ref in made if ref() is not None}
                want = set() if tag == last["tag"] else {"graph_clean.txt"}
                assert alive == want, (cli._CURRENT_STAGE, alive)
                checked.append(tag)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_clean_knn_graph", spy(
            cli.build_clean_knn_graph, lambda *args: "graph_clean.txt"))
        monkeypatch.setattr(cli, "rewire_graph", spy(
            cli.rewire_graph, lambda graph, p, seed: f"graph_p{p:g}.txt"))
        monkeypatch.setattr(mio, "read_graph", spy(
            mio.read_graph, lambda path: Path(path).name))
        monkeypatch.setattr(cli, "nn_search", check(cli.nn_search))
        monkeypatch.setattr(cli, "spectral_report",
                            check(cli.spectral_report))

        def run(command, p, out, graph=("--manifold", "sphere", *SMALL)):
            made.clear()
            checked.clear()
            last["tag"] = p.split(",")[-1]
            assert _run(command, *graph, "--p", p, "--baselines", "vdm",
                        "--ks", "1,2", "--seed", "3", "--out", str(out)) == 0
            return [name for name, _ in made], checked[:]

        assert run("pipeline", "0.4", tmp_path / "a") == (
            ["graph_clean.txt", "graph_p0.4.txt"], ["0.4"] * 2)
        # p=1 searches on the clean graph itself, which p=0.4 then rewires.
        assert run("pipeline", "1,0.4", tmp_path / "b") == (
            ["graph_clean.txt", "graph_p0.4.txt"], ["1"] * 2 + ["0.4"] * 2)
        assert run("spectrum", "1,0.5", tmp_path / "c") == (
            ["graph_clean.txt", "graph_p0.5.txt"], ["1"] * 2 + ["0.5"] * 2)
        # A rerun parses the kept graph to solve the missing bundle again.
        next((tmp_path / "a" / "cache").glob("bundle_*_k2_*.npz")).unlink()
        assert run("pipeline", "0.4", tmp_path / "a") == (
            ["graph_p0.4.txt"], ["0.4"] * 2)
        # A --graph file is the clean graph of its only p.
        external = ("--graph", str(tmp_path / "a" / "graph_p0.4.txt"),
                    *SMALL[4:])
        assert run("pipeline", "1", tmp_path / "d", external) == (
            ["graph_p0.4.txt"], ["1"] * 2)

    # pipebench's sphere_warm workload: set-up primes --out with kappa 30,
    # then each timed run reruns with kappa 50.
    WARM = ("--manifold", "sphere", "--n", "2100", "--kappa-build", "60",
            "--kmax", "10", "--mk", "20", "--p", "0.4", "--baselines",
            "dm,vdm", "--seed", "0", "--workers", "1")

    def test_rerun_parses_only_the_truth_it_scores(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(mio.CACHE_ENV, str(tmp_path / "cache"))
        ref, out = tmp_path / "ref", tmp_path / "out"
        # A cold run builds and writes every graph it uses.
        assert _run("pipeline", *self.WARM, "--kappa", "50",
                    "--out", str(ref)) == 0
        assert _run("pipeline", *self.WARM, "--kappa", "30",
                    "--out", str(out)) == 0
        read = []

        def spy(real):
            def wrapper(path):
                read.append(Path(path).name)
                return real(path)
            return wrapper

        for name in ("read_graph", "read_truth"):
            monkeypatch.setattr(mio, name, spy(getattr(mio, name)))
        # Every bundle is held, so no graph is parsed; the new kappa's
        # reports are scored against the truth, parsed once.
        assert _run("pipeline", *self.WARM, "--kappa", "50",
                    "--out", str(out)) == 0
        assert read == ["truth.txt"]
        assert _tree_digest(out) == _tree_digest(ref)
        # A rerun that keeps every file parses neither.
        read.clear()
        assert _run("pipeline", *self.WARM, "--kappa", "50",
                    "--out", str(out)) == 0
        assert read == []
        assert _tree_digest(out) == _tree_digest(ref)

    def test_generate_writes_the_clean_graph(self, tmp_path):
        out = tmp_path / "out"
        args = ("generate", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--seed", "3", "--out", str(out))
        assert _run(*args) == 0
        first = _tree_digest(out)
        (out / "graph_clean.txt").unlink()
        assert _run(*args) == 0
        assert _tree_digest(out) == first


class TestCache:
    def test_warm_embed_hits_cache(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ("embed", "--manifold", "torus", "--n", "120",
                "--kappa-build", "6", "--kmax", "3", "--mk", "8",
                "--p", "1", "--out", str(out), "--seed", "2",
                "--kappa", "10")
        assert _run(*args) == 0
        capsys.readouterr()
        assert _run(*args) == 0
        output = capsys.readouterr().out
        for k in (1, 2, 3):
            assert f"k={k} cache hit" in output

    def test_cache_env_var_redirects(self, tmp_path, monkeypatch):
        from mfvdm.io import CACHE_ENV
        shared = tmp_path / "shared_cache"
        monkeypatch.setenv(CACHE_ENV, str(shared))
        out = tmp_path / "out"
        args = ("nn", "--manifold", "torus", "--n", "100",
                "--kappa-build", "5", "--kmax", "2", "--mk", "6",
                "--p", "1", "--out", str(out), "--seed", "2",
                "--kappa", "10")
        assert _run(*args) == 0
        # Only the bundles are shared; the manifest and the neighbor lists
        # are --out's own files and stay under --out.
        assert len(list(shared.glob("bundle_*.npz"))) == 2
        assert len(list(shared.iterdir())) == 2
        assert sorted(p.relative_to(out / "cache").as_posix()
                      for p in (out / "cache").rglob("*") if p.is_file()) == [
            "manifest.json", "p1/nn_mfvdm.npz"]

    def test_a_second_out_solves_again_into_a_shared_cache(
            self, tmp_path, monkeypatch, capsys):
        """Each --out records its own bundles, under their absolute paths:
        a second --out sharing MFVDM_CACHE_DIR solves again and rewrites
        the shared bundles with the same bytes, and the first still holds
        them."""
        shared = tmp_path / "shared"
        monkeypatch.setenv(mio.CACHE_ENV, str(shared))
        args = ("embed", "--manifold", "torus", "--n", "120",
                "--kappa-build", "6", "--kmax", "3", "--mk", "8", "--p", "1",
                "--seed", "2")
        first, second = tmp_path / "first", tmp_path / "second"
        assert _run(*args, "--out", str(first)) == 0
        bundles = {path: path.read_bytes() for path in shared.iterdir()}
        assert len(bundles) == 3
        solves = []
        real = cli.top_eigenpairs
        monkeypatch.setattr(cli, "top_eigenpairs",
                            lambda *a: solves.append(a) or real(*a))
        capsys.readouterr()
        assert _run(*args, "--out", str(second)) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert len(solves) == 3
        assert {path: path.read_bytes()
                for path in shared.iterdir()} == bundles
        for out in (first, second):
            manifest = json.loads((out / "cache" / "manifest.json")
                                  .read_text())
            assert {path.resolve().as_posix()
                    for path in bundles} <= set(manifest)
        solves.clear()
        assert _run(*args, "--out", str(first)) == 0
        assert capsys.readouterr().out.count("cache hit") == 3
        assert not solves

    def test_another_program_solves_again_despite_a_shared_cache(
            self, tmp_path, monkeypatch, capsys):
        """A program whose solver starts from another vector, run into a
        fresh --out beside a shared MFVDM_CACHE_DIR that the first
        program filled, writes what it writes with a cache of its own."""
        args = ("pipeline", "--manifold", "sphere", "--n", "2100",
                "--kappa-build", "40", "--kmax", "3", "--mk", "10", "--p",
                "0.4", "--seed", "0")
        # The start vector is the sparse (ARPACK) path's.
        assert 2100 > DENSE_THRESHOLD
        monkeypatch.setenv(mio.CACHE_ENV, str(tmp_path / "shared"))
        assert _run(*args, "--out", str(tmp_path / "first")) == 0
        monkeypatch.setattr(spectral, "_SEED", 1)
        monkeypatch.setattr(mio, "program_identity", lambda: "second")
        capsys.readouterr()
        assert _run(*args, "--out", str(tmp_path / "second")) == 0
        assert "cache hit" not in capsys.readouterr().out
        monkeypatch.setenv(mio.CACHE_ENV, str(tmp_path / "own"))
        assert _run(*args, "--out", str(tmp_path / "fresh")) == 0
        second = _tree_digest(tmp_path / "second")
        assert second == _tree_digest(tmp_path / "fresh")
        # The start vector shows in the results, so a served bundle would.
        first = _tree_digest(tmp_path / "first")
        assert (second["p0.4/report_mfvdm_scalars.json"]
                != first["p0.4/report_mfvdm_scalars.json"])

    def test_truncated_bundle_is_recomputed(self, tmp_path, monkeypatch):
        from mfvdm.io import CACHE_ENV, load_bundle
        monkeypatch.delenv(CACHE_ENV, raising=False)
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "vdm", "--seed", "3")
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert _run(*args, "--out", str(clean)) == 0
        assert _run(*args, "--out", str(out)) == 0
        (bundle,) = (out / "cache").glob("bundle_*_k1_*.npz")
        whole = bundle.read_bytes()
        bundle.write_bytes(whole[:len(whole) // 2])
        assert _run(*args, "--out", str(out)) == 0
        assert _tree_digest(out) == _tree_digest(clean)
        assert load_bundle(bundle).eigenvectors.shape == (250, 10)
        assert sorted(p.name for p in (out / "cache").iterdir()) == sorted(
            p.name for p in (clean / "cache").iterdir())

    def test_bundle_of_another_k_is_recomputed(self, tmp_path, monkeypatch):
        from mfvdm.io import CACHE_ENV, load_bundle
        monkeypatch.delenv(CACHE_ENV, raising=False)
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "vdm", "--seed", "3")
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert _run(*args, "--out", str(clean)) == 0
        assert _run(*args, "--out", str(out)) == 0
        (k1,) = (out / "cache").glob("bundle_*_k1_*.npz")
        (k2,) = (out / "cache").glob("bundle_*_k2_*.npz")
        k1.write_bytes(k2.read_bytes())
        assert load_bundle(k1).k == 2
        assert _run(*args, "--out", str(out)) == 0
        assert _tree_digest(out) == _tree_digest(clean)
        assert load_bundle(k1).k == 1

    @pytest.mark.parametrize("damage", ["extra-eigenvalue", "nan-eigenvalue"])
    def test_bundle_with_bad_eigenvalues_is_recomputed(self, tmp_path,
                                                       monkeypatch, capsys,
                                                       damage):
        """A k=1 bundle whose eigenvalues are not m finite values is solved
        again, not handed to the embedding."""
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "vdm", "--seed", "3")
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert _run(*args, "--out", str(clean)) == 0
        assert _run(*args, "--out", str(out)) == 0
        (k1,) = (out / "cache").glob("bundle_*_k1_*.npz")
        whole = k1.read_bytes()
        with np.load(k1) as data:
            arrays = {key: data[key] for key in data.files}
        if damage == "extra-eigenvalue":
            arrays["eigenvalues"] = np.append(arrays["eigenvalues"], 0.0)
        else:
            arrays["eigenvalues"][1] = np.nan
        with open(k1, "wb") as handle:
            np.savez(handle, **arrays)
        capsys.readouterr()
        assert _run(*args, "--out", str(out)) == 0
        hits = [line for line in capsys.readouterr().out.splitlines()
                if "cache hit" in line]
        assert hits == [f"[embed] k={k} cache hit" for k in (2, 3, 4, 5)]
        assert k1.read_bytes() == whole
        assert _tree_digest(out) == _tree_digest(clean)

    def test_hit_lines_come_whole_from_the_main_thread(self, tmp_path,
                                                       monkeypatch):
        """On two workers, each bundle hit is one line, in k order, written
        by the thread that called the workers."""
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        args = ("embed", "--manifold", "torus", "--n", "120",
                "--kappa-build", "6", "--kmax", "3", "--mk", "8", "--p", "1",
                "--baselines", "dm", "--seed", "2", "--workers", "2",
                "--out", str(tmp_path / "out"))
        assert _run(*args) == 0
        writes = []

        class Log:
            def write(self, text):
                writes.append((threading.current_thread()
                               is threading.main_thread(), text))
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Log())
        assert _run(*args) == 0
        assert [main for main, text in writes if "cache hit" in text] == [
            True] * 4
        lines = "".join(text for _, text in writes).splitlines()
        assert [line for line in lines if "cache hit" in line] == [
            f"[embed] k={k} cache hit" for k in range(4)]

    def test_solved_bundles_are_recorded_in_one_manifest_write(
            self, tmp_path, monkeypatch):
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        bundles = []
        real = mio._write_json

        def spy(payload, path):
            bundles.append([name for name in payload if "bundle_" in name])
            real(payload, path)

        monkeypatch.setattr(mio, "_write_json", spy)
        assert _run("embed", "--manifold", "torus", "--n", "120",
                    "--kappa-build", "6", "--kmax", "3", "--mk", "8", "--p",
                    "1", "--seed", "2", "--out", str(tmp_path / "out")) == 0
        # The truth, the clean graph, then the three bundles at once.
        assert [len(names) for names in bundles] == [0, 0, 3]

    def test_a_missing_bundle_parses_the_graph_once_on_the_main_thread(
            self, tmp_path, monkeypatch):
        """On two workers, a rerun that holds all bundles but one parses the
        kept graph once, before the workers start, and solves only that
        one; it writes what a fresh run writes."""
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "vdm", "--seed", "3", "--workers", "2")
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert _run(*args, "--out", str(fresh)) == 0
        assert _run(*args, "--out", str(out)) == 0
        (next((out / "cache").glob("bundle_*_k3_*.npz"))).unlink()
        parsed, solves = [], []
        real_read, real_solve = mio.read_graph, cli.top_eigenpairs

        def read(path):
            parsed.append((Path(path).name, threading.current_thread()
                           is threading.main_thread()))
            return real_read(path)

        monkeypatch.setattr(mio, "read_graph", read)
        monkeypatch.setattr(cli, "top_eigenpairs",
                            lambda *a: solves.append(a) or real_solve(*a))
        assert _run(*args, "--out", str(out)) == 0
        assert parsed == [("graph_p0.4.txt", True)]
        assert len(solves) == 1
        assert _tree_digest(out, skip=()) == _tree_digest(fresh, skip=())

    def test_an_edited_graph_file_is_solved_again(self, tmp_path,
                                                  monkeypatch, capsys):
        """Bundles of a --graph file are keyed by the file's bytes: after one
        angle is edited, every frequency is solved again and no kept bundle
        is loaded."""
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        source = tmp_path / "source"
        assert _run("generate", "--manifold", "torus", "--n", "40",
                    "--kappa-build", "4", "--kappa", "5", "--p", "1",
                    "--seed", "0", "--out", str(source)) == 0
        graph = tmp_path / "edges.txt"
        lines = (source / "graph_clean.txt").read_text().splitlines(True)
        i, j, w, angle = lines[1].split()
        lines[1] = f"{i} {j} {w} {(float(angle) + 0.5) % 6.0!r}\n"
        args = ("embed", "--graph", str(graph), "--kappa", "5", "--kmax",
                "2", "--mk", "5", "--out", str(tmp_path / "out"))
        graph.write_bytes((source / "graph_clean.txt").read_bytes())
        assert _run(*args) == 0
        capsys.readouterr()
        assert _run(*args) == 0
        assert capsys.readouterr().out.count("cache hit") == 2
        graph.write_text("".join(lines))
        solves, loads = [], []
        real_solve, real_load = cli.top_eigenpairs, mio.load_bundle
        monkeypatch.setattr(cli, "top_eigenpairs",
                            lambda *a: solves.append(a) or real_solve(*a))
        monkeypatch.setattr(mio, "load_bundle",
                            lambda *a: loads.append(a) or real_load(*a))
        assert _run(*args) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert len(solves) == 2
        assert loads == []


def _entry(out, kind, method):
    """Path of a method's neighbor list (``nn``) or alignment angles
    (``align``) for the p=0.4 graph under ``out``."""
    return out / "cache" / "p0.4" / f"{kind}_{method}.npz"


def _count_calls(monkeypatch):
    """Spy on the library's NN search and alignment; returns the list of
    (name, frequencies of its embedding) per search or alignment run."""
    calls = []

    def spy(name, real):
        def wrapper(embeddings, *args, **kwargs):
            calls.append((name, embeddings.frequencies))
            return real(embeddings, *args, **kwargs)
        return wrapper

    for module, name in ((embedding, "nn_search"),
                         (alignment, "align_neighbors")):
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return calls


class TestResultCache:
    """Each method's neighbor list and alignment angles are files under
    --out's ``cache/p<tag>``, kept by the run manifest and read back when
    the same search is asked for again."""

    ARGS = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
            "--baselines", "dm,vdm", "--seed", "3")
    MFVDM, VDM, DM = (1, 2, 3, 4, 5), (1,), (0,)

    @pytest.fixture(autouse=True)
    def own_cache(self, monkeypatch):
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)

    def test_nn_then_pipeline_searches_once(self, tmp_path, monkeypatch):
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert _run(*self.ARGS, "--out", str(fresh)) == 0
        calls = _count_calls(monkeypatch)
        assert _run("nn", *self.ARGS[1:], "--out", str(out)) == 0
        assert _run(*self.ARGS, "--out", str(out)) == 0
        assert sorted(calls) == sorted([
            ("nn_search", self.MFVDM), ("nn_search", self.DM),
            ("nn_search", self.VDM), ("align_neighbors", self.MFVDM),
            ("align_neighbors", self.VDM)])
        assert _tree_digest(out, skip=()) == _tree_digest(fresh, skip=())

    @pytest.mark.parametrize("flag,value,searched", [
        ("--kappa", "8", [MFVDM, DM, VDM]),
        ("--t", "2", [MFVDM, DM, VDM]),
        ("--mk", "8", [MFVDM, DM, VDM]),
        ("--kmax", "4", [(1, 2, 3, 4)]),
    ])
    def test_a_changed_input_misses(self, tmp_path, monkeypatch, flag,
                                    value, searched):
        """kappa, t and m change every method's result; k_max changes
        MFVDM's only, so VDM and DM keep theirs."""
        fresh, out = tmp_path / "fresh", tmp_path / "out"
        assert _run(*self.ARGS, flag, value, "--out", str(fresh)) == 0
        assert _run(*self.ARGS, "--out", str(out)) == 0
        calls = _count_calls(monkeypatch)
        assert _run(*self.ARGS, flag, value, "--out", str(out)) == 0
        assert [f for name, f in calls if name == "nn_search"] == searched
        assert ([f for name, f in calls if name == "align_neighbors"]
                == [f for f in searched if f != self.DM])
        assert _tree_digest(out) == _tree_digest(fresh)

    @pytest.mark.parametrize("kind", ["nn", "align"])
    @pytest.mark.parametrize("damage", ["truncated", "wrong-shape",
                                        "out-of-range"])
    def test_damaged_entry_is_recomputed(self, tmp_path, monkeypatch, kind,
                                         damage):
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert _run(*self.ARGS, "--out", str(clean)) == 0
        assert _run(*self.ARGS, "--out", str(out)) == 0
        entry = _entry(out, kind, "mfvdm")
        whole = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(whole[:len(whole) // 2])
        else:
            with np.load(entry) as data:
                arrays = {key: data[key] for key in data.files}
            first = next(iter(arrays))
            if damage == "wrong-shape":
                arrays[first] = arrays[first][:-1]
            else:
                # A neighbor index n, or an angle of 2*pi.
                arrays[first][0] = 250 if kind == "nn" else 2.0 * np.pi
            with open(entry, "wb") as handle:
                np.savez(handle, **arrays)
        calls = _count_calls(monkeypatch)
        assert _run(*self.ARGS, "--out", str(out)) == 0
        assert calls == [("nn_search" if kind == "nn" else "align_neighbors",
                          self.MFVDM)]
        assert entry.read_bytes() == whole
        assert _tree_digest(out, skip=()) == _tree_digest(clean, skip=())

    def test_rerun_reports_each_reuse(self, tmp_path, capsys):
        """One hit line per frequency, as before any result was kept, and
        one ``kept`` line per result, which does not read as a bundle
        hit."""
        out = tmp_path / "out"
        assert _run(*self.ARGS, "--out", str(out)) == 0
        capsys.readouterr()
        assert _run(*self.ARGS, "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        hits = [line for line in lines if "cache hit" in line]
        assert hits == [f"[embed] k={k} cache hit" for k in range(6)]
        assert not [line for line in lines if "reused" in line]
        kept = [line for line in lines if line.endswith(".npz")]
        assert kept == [
            f"[{method} p=0.4] kept cache/p0.4/{kind}_{method}.npz"
            for method in ("mfvdm", "dm", "vdm") for kind in ("nn", "align")
            if (method, kind) != ("dm", "align")]


def _stamps(root):
    """(inode, mtime_ns) of every file under root, by relative path."""
    stamps = {}
    for path in Path(root).rglob("*"):
        if path.is_file():
            info = path.stat()
            stamps[path.relative_to(root).as_posix()] = (info.st_ino,
                                                         info.st_mtime_ns)
    return stamps


def _rewritten(before, after):
    """Files of ``after`` that are new or were replaced since ``before``."""
    return {name for name, stamp in after.items() if before.get(name) != stamp}


def _bundles(out):
    """The eigenbundles under ``out``, by relative path."""
    return {path.relative_to(out).as_posix()
            for path in (Path(out) / "cache").glob("bundle_*.npz")}


class TestManifest:
    """``cache/manifest.json`` keys every file under --out by the program
    and the inputs that made it, with the sha256 of its bytes: a file is
    kept only when both still match, and rebuilt otherwise."""

    ARGS = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
            "--baselines", "vdm", "--seed", "3")
    REPORT = {f"p0.4/report_vdm_{kind}" for kind in
              ("nn_hist.csv", "align_hist.csv", "scalars.json")}
    RESULTS = {f"cache/p0.4/{kind}_{method}.npz" for kind in ("nn", "align")
               for method in ("mfvdm", "vdm")}

    @pytest.fixture(autouse=True)
    def own_cache(self, monkeypatch):
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)

    @pytest.fixture(scope="class")
    def fresh(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fresh") / "out"
        assert _run(*self.ARGS, "--out", str(out)) == 0
        return out

    def test_another_config_rebuilds_truth_and_graphs(self, tmp_path):
        """A pipeline after a generate of other settings, into one --out,
        writes what a fresh --out gets, not the first run's graphs."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert _run("generate", "--n", "400", "--kappa-build", "20",
                    "--seed", "0", "--p", "0.4", "--out", str(out)) == 0
        args = ("pipeline", "--n", "300", "--kappa-build", "10", "--kappa",
                "5", "--kmax", "3", "--mk", "6", "--seed", "7", "--p", "0.4")
        assert _run(*args, "--out", str(out)) == 0
        assert (out / "graph_p0.4.txt").read_text().startswith("n 300\n")
        rows = (out / "p0.4" / "nn_mfvdm.csv").read_text().splitlines()
        assert len(rows) == 1 + 300 * 5
        assert _run(*args, "--out", str(fresh)) == 0
        assert _tree_digest(out) == _tree_digest(fresh)

    def test_identical_rerun_keeps_every_output(self, fresh, tmp_path,
                                                monkeypatch, capsys):
        """A rerun leaves every file as it is, names each output it keeps,
        and neither searches, aligns, formats a table nor scores."""
        out = tmp_path / "out"
        assert _run(*self.ARGS, "--out", str(out)) == 0
        before = _stamps(out)

        def forbidden(*args, **kwargs):
            raise AssertionError("a kept output was rebuilt")

        for name in ("score_nn", "score_alignment"):
            monkeypatch.setattr(cli, name, forbidden)
        monkeypatch.setattr(embedding, "nn_search", forbidden)
        monkeypatch.setattr(alignment, "align_neighbors", forbidden)
        monkeypatch.setattr(mio, "_write_table", forbidden)
        capsys.readouterr()
        assert _run(*self.ARGS, "--out", str(out)) == 0
        lines = capsys.readouterr().out.splitlines()
        kept = {line.split(" kept ")[1] for line in lines if " kept " in line}
        # The clean graph is not looked at once the rewired one is kept.
        assert kept == (set(_tree_digest(out)) | self.RESULTS) - {
            "graph_clean.txt"}
        # One hit per bundle (k = 1..5), as pipebench counts them.
        assert sum("cache hit" in line for line in lines) == 5
        assert _stamps(out) == before
        assert _tree_digest(out, skip=()) == _tree_digest(fresh, skip=())

    @pytest.mark.parametrize("damage", ["edited_nn_csv", "deleted_report",
                                        "garbage_manifest"])
    def test_damage_rewrites_only_the_affected_files(self, fresh, tmp_path,
                                                     damage):
        out = tmp_path / "out"
        assert _run(*self.ARGS, "--out", str(out)) == 0
        outputs = set(_tree_digest(out))
        if damage == "edited_nn_csv":
            csv = out / "p0.4" / "nn_mfvdm.csv"
            csv.write_text(csv.read_text().replace(",", ";", 1))
            affected = {"p0.4/nn_mfvdm.csv"}
        elif damage == "deleted_report":
            (out / "p0.4" / "report_vdm_scalars.json").unlink()
            affected = self.REPORT
        else:
            (out / "cache" / "manifest.json").write_bytes(b"\x00{garbage")
            affected = outputs | self.RESULTS | _bundles(out)
        before = _stamps(out)
        assert _run(*self.ARGS, "--out", str(out)) == 0
        assert (_rewritten(before, _stamps(out))
                == affected | {"cache/manifest.json"})
        assert _tree_digest(out, skip=()) == _tree_digest(fresh, skip=())

    def test_new_kappa_keeps_truth_and_graphs(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert _run(*self.ARGS, "--out", str(out)) == 0
        before = _stamps(out)
        assert _run(*self.ARGS, "--kappa", "8", "--out", str(out)) == 0
        replaced = _rewritten(before, _stamps(out)) & set(before)
        assert replaced == {
            "p0.4/nn_mfvdm.csv", "p0.4/nn_vdm.csv", "p0.4/align_mfvdm.csv",
            "p0.4/align_vdm.csv", "cache/manifest.json", *self.REPORT,
            *{name.replace("vdm", "mfvdm") for name in self.REPORT},
            *self.RESULTS}
        assert _run(*self.ARGS, "--kappa", "8", "--out", str(fresh)) == 0
        assert _tree_digest(out) == _tree_digest(fresh)

    def test_a_shorter_command_leaves_only_its_files(self, tmp_path):
        """``nn`` after a ``pipeline`` of another kappa removes the
        pipeline's alignments and alignment histogram, so --out holds what
        a fresh ``nn`` writes, bundles and manifest included."""
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        args = ("--manifold", "sphere", *SMALL, "--p", "0.4", "--seed", "3")
        assert _run("pipeline", *args, "--out", str(out)) == 0
        assert (out / "p0.4" / "align_mfvdm.csv").exists()
        assert _run("nn", *args, "--kappa", "8", "--out", str(out)) == 0
        assert _run("nn", *args, "--kappa", "8", "--out", str(fresh)) == 0
        assert _tree_digest(out, skip=()) == _tree_digest(fresh, skip=())

    def test_dropped_baselines_leave_no_files(self, fresh, tmp_path):
        out = tmp_path / "out"
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--seed", "3")
        assert _run(*args, "--baselines", "dm,vdm", "--out", str(out)) == 0
        assert _run(*args, "--out", str(out)) == 0
        # The bundle cache keeps dm's k=0 bundle.
        names = {name for name in _tree_digest(out, skip=())
                 if not name.startswith("cache/bundle_")}
        assert not {name for name in names if "_dm" in name or "_vdm" in name}
        assert names == {name for name in _tree_digest(fresh, skip=())
                         if not name.startswith("cache/bundle_")
                         and "_vdm" not in name}

    def test_spectrum_files_survive_a_pipeline(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ("--manifold", "sphere", *SMALL, "--p", "0.4", "--seed", "3",
                "--ks", "1,2", "--out", str(out))
        assert _run("spectrum", *args) == 0
        spectra = {name: digest for name, digest in _tree_digest(out).items()
                   if "/spectrum_k" in name}
        assert len(spectra) == 4
        assert _run("pipeline", *args) == 0
        assert spectra.items() <= _tree_digest(out).items()
        capsys.readouterr()
        assert _run("spectrum", *args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert {line.split(" kept ")[1] for line in lines
                if " kept p0.4/" in line} == set(spectra)

    def test_another_program_rewrites_everything(self, fresh, tmp_path,
                                                 monkeypatch):
        """Every file under --out is rebuilt, the bundles and results too,
        so no solve, search or alignment of another program is reused."""
        out = tmp_path / "out"
        assert _run(*self.ARGS, "--out", str(out)) == 0
        before = _stamps(out)
        monkeypatch.setattr(mio, "program_identity", lambda: "other program")
        calls = _count_calls(monkeypatch)
        assert _run(*self.ARGS, "--out", str(out)) == 0
        assert sorted(calls) == [("align_neighbors", (1,)),
                                 ("align_neighbors", (1, 2, 3, 4, 5)),
                                 ("nn_search", (1,)),
                                 ("nn_search", (1, 2, 3, 4, 5))]
        rewritten = _rewritten(before, _stamps(out))
        assert len(_bundles(out)) == 5
        assert rewritten == (set(_tree_digest(out)) | self.RESULTS
                             | _bundles(out) | {"cache/manifest.json"})
        assert _tree_digest(out) == _tree_digest(fresh)


class TestCrashSafety:
    def test_half_written_graph_is_rebuilt_on_rerun(self, tmp_path,
                                                    monkeypatch, fail_writes):
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        args = ("pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "vdm", "--seed", "3")
        clean, out = tmp_path / "clean", tmp_path / "out"
        assert _run(*args, "--out", str(clean)) == 0
        size = (clean / "graph_p0.4.txt").stat().st_size
        with fail_writes("graph_p0.4.txt", size // 2):
            assert _run(*args, "--out", str(out)) == 2
        assert _run(*args, "--out", str(out)) == 0
        assert _tree_digest(out, skip=()) == _tree_digest(clean, skip=())


class TestExternalGraph:
    def test_graph_flag_implies_external(self, tmp_path):
        out = tmp_path / "out"
        assert _run("generate", "--manifold", "sphere", "--n", "90",
                    "--kappa-build", "5", "--p", "1", "--out", str(out),
                    "--seed", "5", "--kappa", "10", "--kmax", "4") == 0
        ext_out = tmp_path / "ext"
        code = _run("nn", "--graph", str(out / "graph_clean.txt"),
                    "--p", "1", "--kappa", "8", "--kmax", "3",
                    "--mk", "8", "--out", str(ext_out), "--seed", "0",
                    "--n", "90", "--kappa-build", "5")
        assert code == 0
        assert (ext_out / "p1" / "nn_mfvdm.csv").exists()
        # no ground truth: no score reports
        assert not list((ext_out / "p1").glob("report_*"))

    def test_graph_path_in_a_config_file_implies_external(self, tmp_path):
        out = tmp_path / "out"
        assert _run("generate", "--manifold", "torus", "--n", "40",
                    "--kappa-build", "4", "--p", "1", "--out", str(out),
                    "--seed", "0", "--kappa", "10") == 0
        config = tmp_path / "run.cfg"
        config.write_text(f"graph_path = {out / 'graph_clean.txt'}\n")
        ext_out = tmp_path / "ext"
        assert _run("nn", "--config", str(config), "--n", "40",
                    "--kappa-build", "4", "--p", "1", "--kappa", "5",
                    "--kmax", "2", "--mk", "5", "--out", str(ext_out)) == 0
        assert (ext_out / "p1" / "nn_mfvdm.csv").exists()
        assert not (ext_out / "truth.txt").exists()
        assert not list(ext_out.rglob("report_*"))

    @pytest.mark.parametrize("where", ["flags", "file"])
    def test_graph_with_a_synthetic_manifold_is_one(self, tmp_path, where):
        graph = tmp_path / "edges.txt"
        if where == "flags":
            argv = ["--graph", str(graph), "--manifold", "torus"]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"graph_path = {graph}\nmanifold = sphere\n")
            argv = ["--config", str(config)]
        out = tmp_path / "out"
        assert _run("nn", *argv, "--n", "40", "--kappa-build", "4",
                    "--p", "1", "--kappa", "5", "--kmax", "2", "--mk", "5",
                    "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("p", ["0.4,0.1", "0.5", "1,0.5"])
    def test_a_p_below_one_is_a_config_error(self, tmp_path, p):
        """An external graph is not rewired, so any p but 1 would run the
        same graph under another p's name."""
        out = tmp_path / "out"
        assert _run("generate", "--manifold", "torus", "--n", "40",
                    "--kappa-build", "4", "--p", "1", "--out", str(out),
                    "--seed", "0", "--kappa", "10") == 0
        ext_out = tmp_path / "ext"
        assert _run("nn", "--graph", str(out / "graph_clean.txt"),
                    "--p", p, "--kappa", "5", "--kmax", "2", "--mk", "5",
                    "--out", str(ext_out)) == 1
        assert not ext_out.exists()

    def test_kappa_is_checked_against_the_graph(self, tmp_path,
                                                monkeypatch):
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        out = tmp_path / "out"
        assert _run("generate", "--manifold", "torus", "--n", "40",
                    "--kappa-build", "4", "--p", "1", "--out", str(out),
                    "--seed", "0", "--kappa", "10", "--kmax", "2") == 0
        ext_out = tmp_path / "ext"
        code = _run("nn", "--graph", str(out / "graph_clean.txt"),
                    "--p", "1", "--kappa", "45", "--kmax", "2",
                    "--mk", "5", "--out", str(ext_out))
        assert code == 1
        assert not list(ext_out.rglob("bundle_*.npz"))

    @pytest.mark.parametrize("kappa", ["5", "30"])
    def test_config_n_bounds_nothing(self, tmp_path, monkeypatch, kappa):
        """With --graph, n and kappa_build go unused: --n 20 with the
        default kappa_build=150, or --kappa 30 >= n, is no error when the
        graph has 40 nodes."""
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        out = tmp_path / "out"
        assert _run("generate", "--manifold", "torus", "--n", "40",
                    "--kappa-build", "4", "--p", "1", "--out", str(out),
                    "--seed", "0", "--kappa", "10", "--kmax", "2") == 0
        ext_out = tmp_path / "ext"
        code = _run("nn", "--graph", str(out / "graph_clean.txt"),
                    "--n", "20", "--kappa", kappa, "--p", "1", "--kmax", "2",
                    "--mk", "5", "--out", str(ext_out))
        assert code == 0
        rows = (ext_out / "p1" / "nn_mfvdm.csv").read_text().splitlines()
        assert len(rows) == 1 + 40 * int(kappa)


class TestSpectrum:
    ARGS = ("--manifold", "sphere", "--n", "300", "--kappa-build", "10",
            "--ks", "1,2", "--seed", "0")

    def test_sphere_leading_cluster(self, tmp_path):
        out = tmp_path / "out"
        code = _run("spectrum", "--manifold", "sphere", "--n", "1500",
                    "--kappa-build", "30", "--ks", "1", "--p", "1",
                    "--out", str(out), "--seed", "0", "--kappa", "10",
                    "--kmax", "5")
        assert code == 0
        payload = json.loads(
            (out / "p1" / "spectrum_k1_clusters.json").read_text()
        )
        assert payload["cluster_sizes"][0] == 3
        assert payload["theory_multiplicities"][0] == 3
        assert abs(payload["h"] - 0.04) < 1e-12
        assert (out / "p1" / "spectrum_k1_spectrum.csv").exists()

    def test_h_follows_the_solved_graph(self, tmp_path, capsys):
        """The same config keeps the 200-node graph that ``generate`` wrote;
        another --n rebuilds the graph, and h follows the one solved."""
        out = tmp_path / "out"
        assert _run("generate", "--manifold", "sphere", "--n", "200",
                    "--kappa-build", "10", "--p", "1", "--out", str(out),
                    "--seed", "0", "--kappa", "10", "--kmax", "5") == 0
        for n in (200, 300):
            capsys.readouterr()
            assert _run("spectrum", "--manifold", "sphere", "--n", str(n),
                        "--kappa-build", "10", "--ks", "1", "--p", "1",
                        "--out", str(out), "--seed", "0", "--kappa", "10",
                        "--kmax", "5") == 0
            kept = "[generate p=1] kept graph_clean.txt"
            assert (kept in capsys.readouterr().out.splitlines()) == (n == 200)
            assert read_graph(out / "graph_clean.txt").n == n
            payload = json.loads(
                (out / "p1" / "spectrum_k1_clusters.json").read_text()
            )
            assert payload["h"] == 2.0 * 10 / n

    def test_p_list_writes_each_single_p_report(self, tmp_path):
        out = tmp_path / "sweep"
        assert _run("spectrum", *self.ARGS, "--p", "1,0.5",
                    "--out", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "cache", "graph_clean.txt", "graph_p0.5.txt", "p0.5", "p1",
            "truth.txt"]
        for tag in ("1", "0.5"):
            single = tmp_path / f"single{tag}"
            assert _run("spectrum", *self.ARGS, "--p", tag,
                        "--out", str(single)) == 0
            written = _tree_digest(out / f"p{tag}")
            assert sorted(written) == [
                f"spectrum_k{k}_{kind}" for k in (1, 2)
                for kind in ("clusters.json", "spectrum.csv")]
            assert written == _tree_digest(single / f"p{tag}")

    def test_rejects_torus(self, tmp_path):
        code = _run("spectrum", "--manifold", "torus", "--n", "100",
                    "--kappa-build", "5", "--p", "1,0.5",
                    "--out", str(tmp_path / "out"), "--seed", "0",
                    "--kappa", "10", "--kmax", "5")
        assert code == 1
        assert not (tmp_path / "out").exists()

    def test_rejects_an_external_graph(self, tmp_path):
        graph_out = tmp_path / "graph"
        assert _run("generate", "--manifold", "sphere", "--n", "100",
                    "--kappa-build", "5", "--p", "1",
                    "--out", str(graph_out)) == 0
        out = tmp_path / "out"
        assert _run("spectrum", "--graph", str(graph_out / "graph_clean.txt"),
                    "--p", "1,0.5", "--kappa", "10", "--out", str(out)) == 1
        assert not out.exists()


class TestCommaLists:
    @pytest.mark.parametrize("flag,key,text,expected", [
        ("--baselines", "baselines", "dm,vdm", ("dm", "vdm")),
        ("--baselines", "baselines", "dm,", ("dm",)),
        ("--baselines", "baselines", " vdm , dm ", ("vdm", "dm")),
        ("--ks", "spectrum_ks", "1,2,5", (1, 2, 5)),
        ("--ks", "spectrum_ks", "3,", (3,)),
        ("--p", "p", "1,0.4", (1.0, 0.4)),
        ("--p", "p", " 0.3 ", (0.3,)),
        ("--n", "n", "250", 250),
    ])
    def test_flag_and_config_line_agree(self, tmp_path, flag, key, text,
                                        expected):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {text}\n")
        args = cli.build_parser().parse_args(["pipeline", flag, text])
        config = resolve_config(overrides=cli._overrides(args))
        assert getattr(config, key) == expected
        assert load_config_file(str(path))[key] == expected

    @pytest.mark.parametrize("ks", ["1,x", "2.5", ","])
    def test_bad_ks_is_a_config_error(self, tmp_path, ks):
        assert _run("spectrum", "--manifold", "sphere", "--n", "100",
                    "--kappa-build", "5", "--ks", ks, "--p", "1",
                    "--out", str(tmp_path / "out")) == 1


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path):
        assert _run("pipeline", "--manifold", "sphere", "--p", "1.7",
                    "--out", str(tmp_path / "out")) == 1
        assert _run("pipeline", "--manifold", "hyperbolic",
                    "--out", str(tmp_path / "out")) == 1
        # A malformed or unknown flag is a configuration error too.
        for flag, text in (("--n", "abc"), ("--kmax", "2.5"),
                           ("--p", "0.4,x"), ("--p", ","), ("--p", "nan"),
                           ("--no-such-flag", "3"), ("--tfft", "64")):
            assert _run("pipeline", "--manifold", "sphere", flag, text,
                        "--out", str(tmp_path / "out")) == 1

    @pytest.mark.parametrize("line", [
        "weight_mode = unit", "sigma = 1.0", "area_uniform = true",
        "radius_major = 1.0", "radius_minor = 0.2", "spectrum_m = 30",
        "t_fft = 1024"])
    def test_fixed_setting_in_a_config_file_is_one(self, tmp_path, capsys,
                                                   line):
        """Unit weights, the area-uniform torus with R = 1 and r = 0.2, the
        spectrum's 30 eigenpairs and the alignment grid, which follows
        k_max, are fixed: a file that sets one, even to its fixed value, is
        refused before any stage runs."""
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        out = tmp_path / "out"
        assert _run("generate", "--config", str(config), "--n", "200",
                    "--out", str(out)) == 1
        assert "Unknown config key" in capsys.readouterr().err
        assert not out.exists()

    def test_kmax_above_256_aligns_on_a_longer_grid(self, tmp_path):
        """k_max = 300 needs more than 1024 grid angles: the grid grows to
        4 * k_max = 1200."""
        out = tmp_path / "out"
        assert _run("align", "--manifold", "torus", "--n", "40",
                    "--kappa-build", "4", "--kappa", "3", "--kmax", "300",
                    "--mk", "2", "--p", "1", "--seed", "0",
                    "--out", str(out)) == 0
        rows = (out / "p1" / "align_mfvdm.csv").read_text().splitlines()
        assert len(rows) == 1 + 40 * 3

    def test_io_error_is_two(self, tmp_path, capsys):
        assert _run("nn", "--graph", str(tmp_path / "missing.txt"),
                    "--p", "1", "--out", str(tmp_path / "out"),
                    "--kappa", "5", "--kmax", "2", "--n", "50",
                    "--kappa-build", "5", "--mk", "5") == 2
        # A truth file with fewer rows than its header's n, or with a NaN
        # in a data row (the graph is rebuilt from it, so a NaN that got
        # through would surface as a numerical error instead).
        for damage in ("short", "nan"):
            out = tmp_path / damage
            args = ("generate", "--manifold", "torus", "--n", "50",
                    "--kappa-build", "4", "--kappa", "5", "--p", "1",
                    "--out", str(out))
            assert _run(*args) == 0
            truth = out / "truth.txt"
            lines = truth.read_text().splitlines(True)
            if damage == "short":
                lines = lines[:-10]
            else:
                lines[3] = "nan 1.0 2.0\n"
            truth.write_text("".join(lines))
            # The clean graph is rebuilt from the truth, and the manifest
            # vouches for the damaged bytes, so the file is parsed rather
            # than rebuilt.
            (out / "graph_clean.txt").unlink()
            manifest = out / "cache" / "manifest.json"
            entries = json.loads(manifest.read_text())
            entries["truth.txt"]["sha256"] = mio.file_sha256(truth)
            manifest.write_text(json.dumps(entries))
            capsys.readouterr()
            assert _run(*args) == 2
            assert str(truth) in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0.1234567,0.1234568", "0.4,0.4"])
    def test_p_values_sharing_a_file_tag_are_a_config_error(self, tmp_path,
                                                            p):
        out = tmp_path / "out"
        assert _run("generate", "--n", "200", "--kappa-build", "8",
                    "--p", p, "--out", str(out)) == 1
        assert not out.exists()

    def test_numerical_error_is_three(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise ConvergenceError("forced failure")
        monkeypatch.setattr(cli, "top_eigenpairs", boom)
        code = _run("embed", "--manifold", "torus", "--n", "60",
                    "--kappa-build", "4", "--kmax", "2", "--mk", "5",
                    "--p", "1", "--out", str(tmp_path / "out"),
                    "--seed", "0", "--kappa", "5")
        assert code == 3

    def test_arpack_failure_names_its_frequency_once(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(spectral, "DENSE_THRESHOLD", 0)
        monkeypatch.setattr(spectral, "_MAX_ITERS", 1)
        code = _run("embed", "--manifold", "torus", "--n", "60",
                    "--kappa-build", "4", "--kmax", "2", "--mk", "5",
                    "--p", "1", "--out", str(tmp_path / "out"),
                    "--seed", "0", "--kappa", "5")
        assert code == 3
        assert capsys.readouterr().err.count("frequency k=") == 1

    def test_success_is_zero(self, tmp_path):
        assert _run("generate", "--manifold", "torus", "--n", "60",
                    "--kappa-build", "4", "--p", "1",
                    "--out", str(tmp_path / "out"), "--seed", "0",
                    "--kappa", "5", "--kmax", "3") == 0


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(**extra):
    """This process's environment without BLAS thread settings, with the
    package's sources first on the path."""
    env = {k: v for k, v in os.environ.items()
           if k not in _BLAS_VARS and k != mio.CACHE_ENV}
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    env.update(extra)
    return env


class TestThreads:
    def test_import_pins_blas_to_one_thread(self):
        probe = ("import os, sys; import mfvdm; "
                 "print(*(os.environ[k] for k in sys.argv[1:]))")
        for extra, expected in (({}, "1 1 1"),
                                ({"OPENBLAS_NUM_THREADS": "3"}, "3 1 1")):
            done = subprocess.run([sys.executable, "-c", probe, *_BLAS_VARS],
                                  env=_child_env(**extra), capture_output=True,
                                  text=True, check=True)
            assert done.stdout.split() == expected.split()

    def test_import_does_not_load_scipy(self):
        probe = ("import sys, mfvdm.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe],
                              env=_child_env(), capture_output=True,
                              text=True, check=True)
        assert done.stdout.strip() == "[]"

    def test_warm_rerun_does_not_load_scipy(self, tmp_path):
        """A rerun that keeps every output and hits every bundle reads and
        hashes files only: scipy, which builds the matrices of a solve,
        stays unloaded."""
        out = tmp_path / "out"
        args = ["pipeline", "--manifold", "sphere", *SMALL, "--p", "0.4",
                "--baselines", "dm,vdm", "--seed", "3", "--out", str(out)]
        subprocess.run([sys.executable, "-m", "mfvdm.cli", *args],
                       env=_child_env(), check=True, stdout=subprocess.DEVNULL)
        before = _stamps(out)
        probe = ("import sys; from mfvdm import cli; "
                 "assert cli.main(sys.argv[1:]) == 0; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        done = subprocess.run([sys.executable, "-c", probe, *args],
                              env=_child_env(), capture_output=True,
                              text=True, check=True)
        lines = done.stdout.splitlines()
        assert sum("cache hit" in line for line in lines) == 6
        assert _stamps(out) == before
        assert lines[-1] == "[]"

    def test_blas_pin_holds_when_scipy_loads_in_a_worker(self):
        """A sparse solve on a worker thread is the first to load scipy;
        the thread settings, and scipy's own OpenBLAS where it exports its
        thread count, still say one thread."""
        probe = """
import ctypes, glob, os, sys, threading
import numpy as np
from mfvdm.connection import build_sk
from mfvdm.graph import AlignmentGraph
from mfvdm.parallel import map_workers
from mfvdm import spectral
from mfvdm.spectral import top_eigenpairs
assert "scipy" not in sys.modules
spectral.DENSE_THRESHOLD = 10
n = 40
rows = np.arange(n)
graph = AlignmentGraph.from_edges(n=n, rows=np.minimum(rows, (rows + 1) % n),
                                  cols=np.maximum(rows, (rows + 1) % n),
                                  weights=np.ones(n), angles=np.zeros(n))
# The calling thread works through items too, so the call itself runs off
# the main thread.
caller = threading.Thread(target=map_workers, args=(
    lambda k: top_eigenpairs(build_sk(graph, k), 4), [1, 2], 2))
caller.start()
caller.join()
assert "scipy.sparse.linalg" in sys.modules
import scipy
counts = []
for lib in glob.glob(os.path.join(os.path.dirname(scipy.__file__) + ".libs",
                                  "*openblas*")):
    for name in ("scipy_openblas_get_num_threads", "openblas_get_num_threads"):
        func = getattr(ctypes.CDLL(lib), name, None)
        if func is not None:
            counts.append(func())
            break
print(*(os.environ[k] for k in sys.argv[1:]), *counts)
"""
        done = subprocess.run([sys.executable, "-c", probe, *_BLAS_VARS],
                              env=_child_env(), capture_output=True,
                              text=True, check=True)
        assert set(done.stdout.split()) == {"1"}

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs two CPUs to pin a run to")
    def test_core_count_does_not_change_outputs(self, tmp_path):
        """The sparse eigensolver, NN search and alignment give the same
        bytes on one CPU and on two.  ``workers`` defaults to the CPU
        count, so the two runs also use one and two worker threads."""
        cpus = sorted(os.sched_getaffinity(0))
        trees = []
        for allowed in ({cpus[0]}, set(cpus[:2])):
            probe = subprocess.run(
                [sys.executable, "-c", "from mfvdm.config import "
                 "ExperimentConfig; print(ExperimentConfig().workers)"],
                env=_child_env(), check=True, capture_output=True, text=True,
                preexec_fn=lambda allowed=allowed: os.sched_setaffinity(
                    0, allowed))
            assert int(probe.stdout) == len(allowed)
            out = tmp_path / f"cpus{len(allowed)}"
            subprocess.run(
                [sys.executable, "-m", "mfvdm.cli", "pipeline",
                 "--n", str(DENSE_THRESHOLD + 100), "--kappa-build", "30",
                 "--kappa", "10", "--kmax", "3", "--mk", "6",
                 "--seed", "1", "--out", str(out)],
                env=_child_env(), check=True, stdout=subprocess.DEVNULL,
                preexec_fn=lambda allowed=allowed: os.sched_setaffinity(
                    0, allowed))
            trees.append(_tree_digest(out, skip=()))
        assert trees[0] == trees[1]
