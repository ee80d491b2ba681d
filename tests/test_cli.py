"""Command-line interface: artifacts, determinism, caching, exit codes."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from mfvdm import cli
from mfvdm.errors import ConvergenceError
from mfvdm.io import read_graph


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


SMALL = ["--n", "250", "--kappa-build", "20", "--kappa", "10",
         "--kmax", "5", "--mk", "10", "--tfft", "64"]


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
        for tag in ("p1", "p0.4"):
            base = pipeline_out / tag
            for method in ("mfvdm", "vdm", "dm"):
                assert (base / f"nn_{method}.csv").exists()
                assert (base / f"report_{method}_scalars.json").exists()
                assert (base / f"report_{method}_nn_hist.csv").exists()
            for method in ("mfvdm", "vdm"):
                assert (base / f"align_{method}.csv").exists()
                assert (base / f"report_{method}_align_hist.csv").exists()
            assert not (base / "align_dm.csv").exists()

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

    def test_worker_count_does_not_change_outputs(self, pipeline_out,
                                                  tmp_path):
        rerun = tmp_path / "workers"
        code = _run("pipeline", "--manifold", "sphere", *SMALL,
                    "--p", "1,0.4", "--baselines", "dm,vdm",
                    "--out", str(rerun), "--seed", "3", "--workers", "3")
        assert code == 0
        assert _tree_digest(rerun) == _tree_digest(pipeline_out)


class TestCache:
    def test_warm_embed_hits_cache(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ("embed", "--manifold", "torus", "--n", "120",
                "--kappa-build", "6", "--kmax", "3", "--mk", "8",
                "--p", "1", "--out", str(out), "--seed", "2",
                "--kappa", "10", "--tfft", "64")
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
        args = ("embed", "--manifold", "torus", "--n", "100",
                "--kappa-build", "5", "--kmax", "2", "--mk", "6",
                "--p", "1", "--out", str(out), "--seed", "2",
                "--kappa", "10", "--tfft", "64")
        assert _run(*args) == 0
        assert list(shared.glob("bundle_*.npz"))
        assert not (out / "cache").exists()

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
        assert load_bundle(bundle) is not None
        assert sorted(p.name for p in (out / "cache").iterdir()) == sorted(
            p.name for p in (clean / "cache").iterdir())


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
                    "--n", "90", "--kappa-build", "5", "--tfft", "64")
        assert code == 0
        assert (ext_out / "p1" / "nn_mfvdm.csv").exists()
        # no ground truth: no score reports
        assert not list((ext_out / "p1").glob("report_*"))


class TestSpectrum:
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

    def test_rejects_torus(self, tmp_path):
        code = _run("spectrum", "--manifold", "torus", "--n", "100",
                    "--kappa-build", "5", "--p", "1",
                    "--out", str(tmp_path / "out"), "--seed", "0",
                    "--kappa", "10", "--kmax", "5")
        assert code == 1


class TestExitCodes:
    def test_config_error_is_one(self, tmp_path):
        assert _run("pipeline", "--manifold", "sphere", "--p", "1.7",
                    "--out", str(tmp_path / "out")) == 1
        assert _run("pipeline", "--manifold", "hyperbolic",
                    "--out", str(tmp_path / "out")) == 1
        assert _run("embed", "--manifold", "sphere", "--p", "0.5,0.6",
                    "--out", str(tmp_path / "out")) == 1

    def test_io_error_is_two(self, tmp_path):
        assert _run("nn", "--graph", str(tmp_path / "missing.txt"),
                    "--p", "1", "--out", str(tmp_path / "out"),
                    "--kappa", "5", "--kmax", "2", "--n", "50",
                    "--kappa-build", "5", "--mk", "5", "--tfft", "64") == 2

    def test_numerical_error_is_three(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise ConvergenceError("forced failure")
        monkeypatch.setattr(cli, "top_eigenpairs", boom)
        code = _run("embed", "--manifold", "torus", "--n", "60",
                    "--kappa-build", "4", "--kmax", "2", "--mk", "5",
                    "--p", "1", "--out", str(tmp_path / "out"),
                    "--seed", "0", "--kappa", "5", "--tfft", "64")
        assert code == 3

    def test_success_is_zero(self, tmp_path):
        assert _run("generate", "--manifold", "torus", "--n", "60",
                    "--kappa-build", "4", "--p", "1",
                    "--out", str(tmp_path / "out"), "--seed", "0",
                    "--kappa", "5", "--kmax", "3") == 0
