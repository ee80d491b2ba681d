"""Command-line pipeline: generate, embed, nn, align, pipeline, spectrum.

``pipeline`` runs the whole chain for every p in ``--p``: ground truth and
graphs, the eigenbundles of each frequency, NN search, grid alignment, and
the scores.  ``generate``, ``embed``, ``nn`` and ``align`` run the same
chain up to their own stage (``generate`` for every p, the others for one
p) and write that prefix's artifacts under ``pipeline``'s file names.
``spectrum`` writes the eigenvalue-cluster report of a sphere graph.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numerical
failure.  All stochastic stages derive their randomness from the single
config seed, so any command rerun with the same inputs reproduces its
output files byte for byte.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from mfvdm.alignment import align_neighbors
from mfvdm.config import (
    ExperimentConfig,
    _parse_value,
    load_config_file,
    resolve_config,
)
from mfvdm.connection import build_sk, degrees
from mfvdm.embedding import (
    baseline_embedding,
    build_embedding_set,
    nn_search,
)
from mfvdm.errors import (
    ConfigError,
    ConvergenceError,
    GraphFileError,
    MfvdmError,
    UnsupportedManifoldError,
)
from mfvdm.evaluation import (
    merge_reports,
    score_alignment,
    score_nn,
    spectral_report,
)
from mfvdm.graph import build_clean_knn_graph, rewire_graph
from mfvdm.sampling import make_truth
from mfvdm.spectral import top_eigenpairs
from mfvdm import io as mio

_CURRENT_STAGE = "setup"


def _stage(name: str) -> None:
    global _CURRENT_STAGE
    _CURRENT_STAGE = name
    print(f"[{name}]", flush=True)


def _p_tag(p: float) -> str:
    return "%g" % p


def _parse_p_list(text: str) -> list:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"Bad --p value {text!r}: {exc}") from exc
    if not values:
        raise ConfigError("Empty --p list.")
    for p in values:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p must lie in [0, 1]. Got {p}.")
    return values


def _echo_params(config: ExperimentConfig, p: float) -> dict:
    params = dict(config.echo_items())
    # Execution knobs do not affect results; keep reports byte-comparable.
    params.pop("out_dir", None)
    params.pop("workers", None)
    params["p"] = repr(float(p))
    return params


def _reuse_or_build(path: Path, read, write, build):
    """The artifact at ``path`` if the file exists, else build and write it."""
    if path.exists():
        return read(path)
    value = build()
    write(value, path)
    return value


def _truth_and_clean_graph(config: ExperimentConfig):
    """Ground truth and the graph every p starts from.

    An external graph has no truth; a synthetic truth and its k-NN graph
    are built once (or reloaded from ``--out``).
    """
    if config.manifold == "external":
        return None, mio.read_graph(config.graph_path)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    truth = _reuse_or_build(
        out / "truth.txt", mio.read_truth, mio.write_truth,
        lambda: make_truth(config.manifold, config.n, config.seed,
                           radius_major=config.radius_major,
                           radius_minor=config.radius_minor,
                           area_uniform=config.area_uniform))
    clean = _reuse_or_build(
        out / "graph_clean.txt", mio.read_graph, mio.write_graph,
        lambda: build_clean_knn_graph(truth, config.kappa_build,
                                      weight_mode=config.weight_mode,
                                      sigma=config.sigma))
    return truth, clean


def _graph_for_p(config: ExperimentConfig, clean_graph, p: float):
    """The graph as given at p=1 or when external, else rewired at p."""
    if p >= 1.0 or config.manifold == "external":
        return clean_graph
    return _reuse_or_build(
        Path(config.out_dir) / f"graph_p{_p_tag(p)}.txt", mio.read_graph,
        mio.write_graph, lambda: rewire_graph(clean_graph, p, config.seed))


def _compute_bundles(config: ExperimentConfig, graph, ks, m: int) -> dict:
    """Top-m eigenpairs per frequency, through the on-disk cache."""
    cache = mio.cache_dir_for(config.out_dir)
    digest = mio.graph_hash(graph)
    degree_vector = degrees(graph)
    m = min(m, graph.n)

    def solve(k: int):
        path = mio.bundle_cache_path(cache, digest, k, m)
        bundle = mio.load_bundle(path, k=k, shape=(graph.n, m))
        if bundle is not None:
            print(f"[embed] k={k} cache hit", flush=True)
            return k, bundle
        matrix = build_sk(graph, k, degree_vector)
        try:
            bundle = top_eigenpairs(matrix, m)
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"Eigensolve failed at frequency k={k}: {exc}",
                residuals=exc.residuals,
            ) from exc
        mio.save_bundle(bundle, path)
        return k, bundle

    ks = sorted(set(ks))
    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(solve, ks))
    else:
        results = [solve(k) for k in ks]
    return dict(results)


def _method_embedding(method: str, bundles, config: ExperimentConfig):
    if method == "mfvdm":
        chosen = [bundles[k] for k in range(1, config.k_max + 1)]
        return build_embedding_set(chosen, config.t, mode="squared")
    if method == "vdm":
        return baseline_embedding(bundles[1], config.t)
    if method == "dm":
        return baseline_embedding(bundles[0], config.t)
    raise ConfigError(f"Unknown method {method!r}.")


def _run(config: ExperimentConfig, p_values, last: str) -> None:
    """Run the chain for each p and stop after stage ``last``.

    The stages are generate (truth and graphs), embed (eigenbundles for
    every frequency), nn (neighbor search and its scores) and align (grid
    angles, merged into the same reports).  Every command is a prefix of
    this chain, so a stage writes the same files whichever command ran it.
    """
    if last == "generate" and config.manifold == "external":
        raise ConfigError("generate needs a synthetic manifold.")
    _stage("generate")
    truth, clean = _truth_and_clean_graph(config)
    for p in p_values:
        tag = _p_tag(p)
        _stage(f"generate p={tag}")
        graph = _graph_for_p(config, clean, p)
        if last == "generate":
            continue
        _stage(f"embed p={tag}")
        ks = range(0 if "dm" in config.baselines else 1, config.k_max + 1)
        bundles = _compute_bundles(config, graph, ks, config.m_k)
        if last == "embed":
            continue
        out = Path(config.out_dir) / f"p{tag}"
        out.mkdir(parents=True, exist_ok=True)
        params = _echo_params(config, p)
        for method in ["mfvdm", *config.baselines]:
            _stage(f"{method} p={tag}")
            embeddings = _method_embedding(method, bundles, config)
            neighbors = nn_search(embeddings, config.kappa_search,
                                  workers=config.workers)
            mio.write_nn_csv(neighbors, out / f"nn_{method}.csv")
            table = None
            if last == "align" and method != "dm":
                table = align_neighbors(embeddings, neighbors, config.t_fft)
                mio.write_alignment_csv(table, out / f"align_{method}.csv")
            if truth is not None:
                report = score_nn(neighbors, truth, method=method,
                                  params=params)
                if table is not None:
                    report = merge_reports(
                        report,
                        score_alignment(table, truth, method=method,
                                        params=params),
                    )
                mio.write_eval_report(report, out / f"report_{method}")


def _single_p(p_values) -> float:
    if len(p_values) != 1:
        raise ConfigError("This command takes a single p value.")
    return p_values[0]


def cmd_generate(config: ExperimentConfig, p_values) -> None:
    _run(config, p_values, "generate")


def cmd_embed(config: ExperimentConfig, p_values) -> None:
    _run(config, [_single_p(p_values)], "embed")


def cmd_nn(config: ExperimentConfig, p_values) -> None:
    _run(config, [_single_p(p_values)], "nn")


def cmd_align(config: ExperimentConfig, p_values) -> None:
    _run(config, [_single_p(p_values)], "align")


def cmd_pipeline(config: ExperimentConfig, p_values) -> None:
    _run(config, p_values, "align")


def cmd_spectrum(config: ExperimentConfig, p_values) -> None:
    if config.manifold != "sphere":
        raise UnsupportedManifoldError(
            f"spectrum requires the sphere manifold. Got {config.manifold!r}."
        )
    p = _single_p(p_values)
    _stage("generate")
    _, clean = _truth_and_clean_graph(config)
    graph = _graph_for_p(config, clean, p)
    _stage("spectrum")
    bundles = _compute_bundles(config, graph, config.spectrum_ks,
                               config.spectrum_m)
    out = Path(config.out_dir) / f"p{_p_tag(p)}"
    out.mkdir(parents=True, exist_ok=True)
    for k in config.spectrum_ks:
        # h describes the graph that was solved, not the config's n.
        report = spectral_report(bundles[k], config.kappa_build, graph.n,
                                 manifold=config.manifold)
        mio.write_spectral_report(report, out / f"spectrum_k{k}")


_COMMANDS = {
    "generate": cmd_generate,
    "embed": cmd_embed,
    "nn": cmd_nn,
    "align": cmd_align,
    "pipeline": cmd_pipeline,
    "spectrum": cmd_spectrum,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfvdm",
        description="Multi-frequency vector diffusion maps: joint "
                    "nearest-neighbor search and rotational alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None,
                         help="key = value config file")
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--p", type=str, default=None,
                         help="keep probability, or comma list for sweeps")
        cmd.add_argument("--kmax", type=int, default=None)
        cmd.add_argument("--mk", type=int, default=None)
        cmd.add_argument("--t", type=int, default=None)
        cmd.add_argument("--kappa", type=int, default=None,
                         help="neighbors per node in the NN search")
        cmd.add_argument("--kappa-build", type=int, default=None,
                         help="neighbors per node when building the graph")
        cmd.add_argument("--n", type=int, default=None)
        cmd.add_argument("--manifold", type=str, default=None)
        cmd.add_argument("--graph", type=str, default=None,
                         help="edge-list file for manifold=external")
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--workers", type=int, default=None)
        cmd.add_argument("--baselines", type=str, default=None,
                         help="comma list from: dm, vdm")
        cmd.add_argument("--tfft", type=int, default=None)
        cmd.add_argument("--ks", type=str, default=None,
                         help="comma list of frequencies for spectrum")
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    overrides = {
        "seed": args.seed,
        "k_max": args.kmax,
        "m_k": args.mk,
        "t": args.t,
        "kappa_search": args.kappa,
        "kappa_build": args.kappa_build,
        "n": args.n,
        "manifold": args.manifold,
        "graph_path": args.graph,
        "out_dir": args.out,
        "workers": args.workers,
        "t_fft": args.tfft,
    }
    # Comma lists parse exactly as they do in a config file.
    for name, text in (("baselines", args.baselines),
                       ("spectrum_ks", args.ks)):
        if text is not None:
            overrides[name] = _parse_value(name, text)
    if args.graph is not None and args.manifold is None:
        overrides["manifold"] = "external"
    return overrides


def main(argv=None) -> int:
    global _CURRENT_STAGE
    _CURRENT_STAGE = "setup"
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = (load_config_file(args.config)
                       if args.config else {})
        overrides = _overrides(args)
        config = resolve_config(file_values, overrides)
        p_values = (_parse_p_list(args.p) if args.p is not None
                    else [config.p])
        _COMMANDS[args.command](config, p_values)
        return 0
    except (ConfigError, UnsupportedManifoldError) as exc:
        print(f"config error in stage {_CURRENT_STAGE}: {exc}",
              file=sys.stderr)
        return 1
    except (GraphFileError, OSError) as exc:
        print(f"I/O error in stage {_CURRENT_STAGE}: {exc}", file=sys.stderr)
        return 2
    except MfvdmError as exc:
        print(f"numerical error in stage {_CURRENT_STAGE}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
