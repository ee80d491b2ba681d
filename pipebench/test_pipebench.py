"""Tiny-n smoke test of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q pipebench
"""

from __future__ import annotations

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small enough for the dense eigensolver; the layer mix is not the point.
TINY_COLD = dataclasses.replace(run.SPHERE_COLD, n=300, kappa_build=20,
                                kappa=10, k_max=4, m=6, p_values=(0.5,))
TINY_WARM = dataclasses.replace(TINY_COLD, kappa=12, prime=TINY_COLD)


def _names(section: str) -> set:
    return {metric["name"] for metric in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("workload", [TINY_COLD, TINY_WARM],
                         ids=["cold", "warm"])
def test_run_reports_every_metric_and_passes_the_gate(workload, tmp_path):
    untraced = run.run_benchmark("tiny", workload, 3, 0.01, False, tmp_path)
    result = untraced["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    assert set(result["metrics"]) == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run_benchmark("tiny", workload, 3, 0.01, True, tmp_path)
    layers = traced["result"]["metrics"]
    assert traced["result"]["correct"]
    assert set(layers) == _names("per_layer")
    warm = workload.prime is not None
    assert layers["spectral.solves"]["value"] == (0 if warm
                                                  else workload.solves)
    assert layers["io.bundle_hits"]["value"] == (workload.solves if warm
                                                 else 0)
    assert layers["embedding.nn_queries"]["value"] == 3 * workload.n
    # Tracing must not change what the program writes.
    digests = {i["sha256"] for i in untraced["invocations"]
               + traced["invocations"]}
    assert len(digests) == 1
    assert not list(tmp_path.iterdir())


def test_gate_rejects_truncated_csv_and_wrong_cache_state(tmp_path):
    out, cache = tmp_path / "out", tmp_path / "cache"
    inv = run.run_cli(TINY_COLD, 1, out, cache, expected_hits=0)
    assert inv.code == 0 and not inv.problems

    rerun = run.run_cli(TINY_COLD, 1, out, cache, expected_hits=0)
    assert any("cache hits" in p for p in rerun.problems)

    nn_csv = out / "p0.5" / "nn_mfvdm.csv"
    lines = nn_csv.read_text().splitlines(keepends=True)
    nn_csv.write_text("".join(lines[:-1]))
    assert any("nn_mfvdm.csv" in p
               for p in checks.check_outputs(out, TINY_COLD))
    (out / "p0.5" / "stray.txt").write_text("x")
    assert any("unexpected" in p
               for p in checks.check_outputs(out, TINY_COLD))


def test_tracer_fails_loudly_when_a_wrapped_name_is_gone():
    import mfvdm.cli
    from mfvdm import connection
    from mfvdm import io as mio

    renamed = types.SimpleNamespace(**{
        name: getattr(mfvdm.cli, name) for name in tracer.CLI_NAMES
        if name != "top_eigenpairs"
    })
    with pytest.raises(tracer.TracerError, match="top_eigenpairs"):
        tracer.install(tracer.Tracer(), renamed, mio, connection)


def test_union_of_overlapping_spans():
    assert tracer._union_seconds([(0, 2), (1, 3), (5, 6)]) == 4
