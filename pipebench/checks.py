"""Correctness gate applied to every timed CLI invocation.

The checks are independent of the program: they know the artifact layout
the CLI documents, not how it builds it.  Each check returns a list of
problems; an empty list means the invocation passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def p_tag(p: float) -> str:
    return "%g" % p


def expected_artifacts(workload) -> set:
    """Relative paths a ``pipeline`` run writes outside the bundle cache."""
    files = {"truth.txt", "graph_clean.txt"}
    methods = ["mfvdm", *workload.baselines]
    for p in workload.p_values:
        tag = p_tag(p)
        if p < 1.0:
            files.add(f"graph_p{tag}.txt")
        for method in methods:
            files |= {f"p{tag}/nn_{method}.csv",
                      f"p{tag}/report_{method}_nn_hist.csv",
                      f"p{tag}/report_{method}_scalars.json"}
            if method != "dm":
                files |= {f"p{tag}/align_{method}.csv",
                          f"p{tag}/report_{method}_align_hist.csv"}
    return files


def output_files(out_dir: Path) -> list:
    """Sorted relative paths of every file under out_dir except cache/."""
    rels = (path.relative_to(out_dir) for path in out_dir.rglob("*")
            if path.is_file())
    return sorted(rel.as_posix() for rel in rels if "cache" not in rel.parts)


def outputs_sha256(out_dir: Path) -> str:
    """One digest over the names and bytes of every non-cache output."""
    digest = hashlib.sha256()
    for rel in output_files(out_dir):
        digest.update(rel.encode("utf-8") + b"\0")
        digest.update((out_dir / rel).read_bytes())
    return digest.hexdigest()


def _data_rows(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for _ in handle) - 1


def quality(out_dir: Path, workload, method: str) -> dict:
    """Scalars of one method on the noisiest graph of the sweep."""
    tag = p_tag(min(workload.p_values))
    path = out_dir / f"p{tag}" / f"report_{method}_scalars.json"
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(out_dir: Path, workload) -> list:
    """Artifact set, CSV row counts, finite scalars, MFVDM beats VDM."""
    present = set(output_files(out_dir))
    expected = expected_artifacts(workload)
    problems = []
    if present != expected:
        problems.append(f"artifact set differs: missing "
                        f"{sorted(expected - present)}, unexpected "
                        f"{sorted(present - expected)}")
        return problems
    rows = workload.n * workload.kappa
    for rel in sorted(expected):
        if rel.split("/")[-1].startswith(("nn_", "align_")):
            got = _data_rows(out_dir / rel)
            if got != rows:
                problems.append(f"{rel}: {got} rows, expected {rows}")
    scalars = {method: quality(out_dir, workload, method)
               for method in ["mfvdm", *workload.baselines]}
    for method, values in scalars.items():
        keys = ["nn_mean", "nn_median"]
        if method != "dm":
            keys.append("align_median_abs_deg")
        for key in keys:
            value = values.get(key)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{method} {key} is not finite: {value!r}")
    if not problems and "vdm" in scalars:
        mf = scalars["mfvdm"]["align_median_abs_deg"]
        vdm = scalars["vdm"]["align_median_abs_deg"]
        if not mf < vdm:
            problems.append(f"MFVDM alignment median {mf:g} deg does not "
                            f"beat VDM's {vdm:g} deg on the noisy graph")
    return problems


def cache_hits(log_text: str) -> int:
    """Bundle cache hits the CLI reported on stdout."""
    return sum(1 for line in log_text.splitlines() if "cache hit" in line)


def check_cache(log_text: str, cache_dir: Path, expected_hits: int,
                expected_bundles: int) -> list:
    """The run hit the bundle cache exactly as its workload intends."""
    problems = []
    hits = cache_hits(log_text)
    if hits != expected_hits:
        problems.append(f"{hits} bundle cache hits, expected {expected_hits}")
    bundles = len(list(cache_dir.glob("bundle_*.npz")))
    if bundles != expected_bundles:
        problems.append(f"{bundles} cached bundles, expected "
                        f"{expected_bundles}")
    return problems
