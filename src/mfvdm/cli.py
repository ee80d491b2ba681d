"""Command-line pipeline: generate, embed, nn, align, pipeline, spectrum.

Every command runs one chain, ``_run``, for every p in ``--p`` and stops
after its own stage: ground truth and graphs (``generate``), the
eigenbundles of each frequency (``embed``), NN search (``nn``), and grid
alignment with the scores (``align``, also named ``pipeline``).  A stage
writes the same files whichever command ran it.  ``spectrum`` follows the
graphs with the eigenvalue-cluster report of each frequency in ``--ks``,
on the sphere.

Every file a run writes, the eigenbundles included (which
``MFVDM_CACHE_DIR`` may move out of ``--out``), goes through the run
manifest of ``--out``: a file made by this program from the same inputs,
whose bytes are as recorded, is kept, and any other is rebuilt.  Each
method's neighbor list and alignment angles are such files, under
``cache/p<tag>``, so ``nn`` followed by ``align`` searches once, and a
kept result writes the same files as a computed one.  A kept truth or
graph is parsed only when a stage this run reruns needs its values (a
solve, a rewiring, a clean-graph build, or a report to score), and at most
once.  Everything made from a graph is keyed by the sha256 of the graph's
file, which the manifest records for a synthetic graph.  A p's graph is
dropped once its bundles exist, and the clean graph (or ``--graph`` file)
once the last p in ``--p`` has its graph.  After each p, every command but
``spectrum`` removes the ``nn_*``, ``align_*`` and ``report_*`` files of
that p that the manifest records and this run neither wrote nor kept, so
``--out`` holds no other config's results.

Exit codes: 0 success, 1 configuration error, 2 I/O error, 3 numerical
failure.  All stochastic stages derive their randomness from the single
config seed, so any command rerun with the same inputs reproduces its
output files byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, NamedTuple

from mfvdm import alignment, embedding
from mfvdm.config import ExperimentConfig, load_config_file, resolve_config
from mfvdm.connection import build_sk, degrees
from mfvdm.embedding import (
    baseline_embedding,
    build_embedding_set,
    build_features,
)
from mfvdm.errors import (
    ConfigError,
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
from mfvdm.parallel import map_workers
from mfvdm.sampling import make_truth
from mfvdm.spectral import top_eigenpairs
from mfvdm import io as mio

_CURRENT_STAGE = "setup"

# Eigenpairs per frequency in the ``spectrum`` report.
_SPECTRUM_M = 30


def _stage(name: str) -> None:
    global _CURRENT_STAGE
    _CURRENT_STAGE = name
    print(f"[{name}]", flush=True)


def _p_tag(p: float) -> str:
    return "%g" % p


def _check_p_tags(p_values) -> None:
    tags = [_p_tag(p) for p in p_values]
    for tag in tags:
        if tags.count(tag) > 1:
            # The tag names each p's graph file and output directory.
            raise ConfigError(f"Two --p values share the file tag {tag}.")


def _echo_params(config: ExperimentConfig, p: float) -> dict:
    params = dict(config.echo_items())
    # Execution knobs do not affect results; keep reports byte-comparable.
    params.pop("out_dir", None)
    params.pop("workers", None)
    params["p"] = repr(float(p))
    return params


def _output(manifest: mio.RunManifest, name: str, inputs: list, build,
            write, read=None, suffixes=("",)):
    """The artifact ``name`` under ``--out``, made from ``inputs``.

    Its files are ``name`` plus each of ``suffixes``.  If the manifest
    records each under the key of ``inputs`` and its bytes are still the
    recorded ones, the files are kept: a neighbor list or alignment table
    is read back by ``read``, and any other artifact gives None.  Otherwise
    ``build()`` is written by ``write(value, path)`` and recorded.
    """
    key = mio.artifact_key(inputs)
    files = [name + suffix for suffix in suffixes]
    path = manifest.root / name
    if manifest.holds(files, key):
        for file in files:
            print(f"[{_CURRENT_STAGE}] kept {file}", flush=True)
        return None if read is None else read(path)
    value = build()
    path.parent.mkdir(parents=True, exist_ok=True)
    write(value, path)
    manifest.record([(file, key) for file in files])
    return value


def _generate_inputs(config: ExperimentConfig, *more) -> list:
    """What the truth is made from; a graph adds kappa_build, then p."""
    return [config.manifold, config.n, config.seed, *more]


def _loader(manifest: mio.RunManifest, name: str, inputs: list, build,
            write, read) -> Callable:
    """The truth or graph file ``name``, kept or rebuilt by ``_output``, as
    a function that returns its value: the one built, or the kept file
    parsed by ``read`` on the first call only."""
    value = _output(manifest, name, inputs, build, write)
    if value is None:
        return functools.cache(functools.partial(read, manifest.root / name))
    return lambda: value


class _Graph(NamedTuple):
    """A graph as the stages after generate take it: the sha256 of its
    file, which keys everything made from it, its node count, and a
    function that returns it."""

    digest: str
    n: int
    load: Callable


def _graph_file(config: ExperimentConfig, manifest: mio.RunManifest,
                name: str, inputs: list, build) -> _Graph:
    """The synthetic graph file ``name``, kept or rebuilt, keyed by the
    sha256 that the manifest has just verified or recorded."""
    load = _loader(manifest, name, _generate_inputs(config, *inputs), build,
                   mio.write_graph, mio.read_graph)
    return _Graph(manifest.entries[name]["sha256"], config.n, load)


def _external_graph(config: ExperimentConfig) -> _Graph:
    """The ``--graph`` file, read and checked against ``kappa_search``."""
    graph = mio.read_graph(config.graph_path)
    if not 1 <= config.kappa_search < graph.n:
        raise ConfigError(
            f"kappa_search must satisfy 1 <= kappa_search < n={graph.n} "
            f"of {config.graph_path}. Got {config.kappa_search}.")
    return _Graph(mio.file_sha256(config.graph_path), graph.n, lambda: graph)


def _truth_and_clean_graph(config: ExperimentConfig,
                           manifest: mio.RunManifest):
    """A function that returns the ground truth, and one that returns the
    graph every p starts from, made on its first call and held until its
    ``cache_clear``.

    An external graph has no truth and is read and checked at once.  A
    synthetic truth is built (or kept in ``--out``) at once, and its k-NN
    graph on the second function's first call only, so a rerun that keeps
    each p's rewired graph never checks ``graph_clean.txt``.  A kept truth
    or graph is parsed only when its value is asked for.
    """
    if config.manifold == "external":
        external = functools.cache(functools.partial(_external_graph, config))
        external()
        return None, external
    truth = _loader(
        manifest, "truth.txt", _generate_inputs(config),
        lambda: make_truth(config.manifold, config.n, config.seed),
        mio.write_truth, mio.read_truth)
    clean = functools.cache(lambda: _graph_file(
        config, manifest, "graph_clean.txt", [config.kappa_build],
        lambda: build_clean_knn_graph(truth(), config.kappa_build)))
    return truth, clean


def _graph_for_p(config: ExperimentConfig, manifest: mio.RunManifest, clean,
                 p: float) -> _Graph:
    """The graph ``clean()`` as given at p=1, else rewired at p."""
    if p >= 1.0:
        return clean()
    return _graph_file(
        config, manifest, f"graph_p{_p_tag(p)}.txt",
        [config.kappa_build, repr(float(p))],
        lambda: rewire_graph(clean().load(), p, config.seed))


def _compute_bundles(config: ExperimentConfig, manifest: mio.RunManifest,
                     graph: _Graph, ks, m: int,
                     keep=lambda bundle: bundle) -> dict:
    """``keep`` of the top-m eigenpairs of ``graph`` per frequency:
    run-manifest artifacts in the cache directory, made from the graph's
    digest, k and m.  The workers load the held bundles and solve the rest,
    and each applies ``keep`` as soon as it has its bundle, so a bundle
    outlives its worker only through what ``keep`` returns."""
    cache = mio.cache_dir_for(config.out_dir)
    m = min(m, graph.n)
    ks = sorted(set(ks))
    paths = {k: mio.bundle_cache_path(cache, graph.digest, k, m) for k in ks}
    keys = {k: mio.artifact_key(["bundle", graph.digest, k, m]) for k in ks}
    missing = [k for k in ks
               if not manifest.holds([manifest.name(paths[k])], keys[k])]
    if missing:
        # Parsed once, here, for every worker's solve.
        edges = graph.load()
        deg = degrees(edges)

    def solve(k: int):
        if k not in missing:
            return keep(mio.load_bundle(paths[k]))
        bundle = top_eigenpairs(build_sk(edges, k, deg), m)
        mio.save_bundle(bundle, paths[k])
        return keep(bundle)

    values = map_workers(solve, ks, config.workers)
    # Printed and recorded here, not by the workers, so each hit is one
    # whole line and only one thread uses the manifest.
    for k in ks:
        if k not in missing:
            print(f"[embed] k={k} cache hit", flush=True)
    if missing:
        manifest.record([(manifest.name(paths[k]), keys[k])
                         for k in missing])
    return dict(zip(ks, values))


def _method_embedding(method: str, features, config: ExperimentConfig):
    """The method's embedding from the per-frequency ``features``; the
    methods share the feature blocks of their common frequencies."""
    if method == "mfvdm":
        chosen = [features[k] for k in range(1, config.k_max + 1)]
        return build_embedding_set(chosen)
    if method == "vdm":
        return baseline_embedding(features[1])
    return baseline_embedding(features[0])


def _run(config: ExperimentConfig, last: str) -> None:
    """Run the chain for each p in ``config.p`` and stop after ``last``.

    The stages are generate (truth and graphs), embed (eigenbundles for
    every frequency), nn (neighbor search and its scores) and align (grid
    angles, merged into the same reports), or generate and spectrum.  Every
    command is a prefix of this chain, so a stage writes the same files
    whichever command ran it.  Nothing is written before the manifold
    checks.
    """
    if last == "generate" and config.manifold == "external":
        raise ConfigError("generate needs a synthetic manifold.")
    if last == "spectrum" and config.manifold != "sphere":
        raise UnsupportedManifoldError(f"spectrum requires the sphere "
                                       f"manifold. Got {config.manifold!r}.")
    _stage("generate")
    manifest = mio.RunManifest(config.out_dir)
    truth, clean = _truth_and_clean_graph(config, manifest)
    if last == "generate":
        clean()  # written even when every p's rewired graph is kept
    for p in config.p:
        _run_p(config, manifest, truth, clean, p, last)


def _run_p(config: ExperimentConfig, manifest: mio.RunManifest, truth,
           clean, p: float, last: str) -> None:
    """The chain at one p, from its graph on.  What it holds is dropped when
    it returns, before the next p's graph is made."""
    tag = _p_tag(p)
    digest, solved = _graph_and_bundles(config, manifest, clean, p, last)
    if last == "spectrum":
        for k in config.spectrum_ks:
            _output(manifest, f"p{tag}/spectrum_k{k}",
                    ["spectrum", digest, k, solved[k].m, config.kappa_build],
                    lambda: spectral_report(solved[k], config.kappa_build),
                    mio.write_spectral_report,
                    suffixes=("_spectrum.csv", "_clusters.json"))
        return
    if last not in ("generate", "embed"):
        params = _echo_params(config, p)
        for method in ["mfvdm", *config.baselines]:
            _stage(f"{method} p={tag}")
            _run_method(config, manifest, method, solved, digest, truth,
                        params, tag, last)
    # A result at p that this command neither made nor kept is another
    # config's: a longer command's, or another method's.
    for name in manifest.drop_unused(tuple(
            f"{folder}p{tag}/{kind}_" for folder in ("", "cache/")
            for kind in ("nn", "align", "report"))):
        print(f"[{_CURRENT_STAGE}] removed {name}", flush=True)


def _graph_and_bundles(config: ExperimentConfig, manifest: mio.RunManifest,
                       clean, p: float, last: str):
    """The generate stage at p, then embed or spectrum's solves: the digest
    of p's graph, and what is kept of each of its bundles by frequency (the
    features, or for ``spectrum`` the bundle; none for ``generate``).

    Only this call holds p's graph, so the graph is dropped once its
    bundles exist; the clean graph is dropped once the last p in ``--p``
    has its graph.  The methods share each frequency's features, so each
    is held once and no bundle is.
    """
    tag = _p_tag(p)
    _stage(f"generate p={tag}")
    graph = _graph_for_p(config, manifest, clean, p)
    if p == config.p[-1]:
        clean.cache_clear()
    if last == "generate":
        return graph.digest, {}
    if last == "spectrum":
        _stage(f"spectrum p={tag}")
        return graph.digest, _compute_bundles(
            config, manifest, graph, config.spectrum_ks, _SPECTRUM_M)
    _stage(f"embed p={tag}")
    ks = range(0 if "dm" in config.baselines else 1, config.k_max + 1)
    return graph.digest, _compute_bundles(
        config, manifest, graph, ks, config.m_k,
        keep=lambda bundle: build_features(bundle, config.t))


# The search and the alignment as ``--out`` artifacts.  They keep the
# library functions' names, under which pipebench's tracer times and counts
# the CLI's calls, so a trace of a run that keeps a result shows its read in
# the span of the stage it replaces.
def nn_search(embeddings, kappa: int, workers: int, output):
    """``embedding.nn_search``'s neighbor list, kept or searched by
    ``output`` (``_output`` but for its build, write and read)."""
    return output(
        lambda: embedding.nn_search(embeddings, kappa, workers=workers),
        mio.save_result, mio.load_neighbors)


def align_neighbors(embeddings, neighbors, workers: int, output):
    """``alignment.align_neighbors``' table of the pairs in ``neighbors``,
    kept or estimated by ``output`` as in ``nn_search``."""
    return output(
        lambda: alignment.align_neighbors(embeddings, neighbors,
                                          workers=workers),
        mio.save_result, lambda path: mio.load_alignment(path, neighbors))


def _run_method(config: ExperimentConfig, manifest: mio.RunManifest,
                method: str, features, digest: str, truth, params: dict,
                tag: str, last: str) -> None:
    """One method's NN search, alignment and scores, written under
    ``p<tag>``.

    The neighbor list and the alignment angles are kept under
    ``cache/p<tag>`` with the inputs that determine them: the graph
    ``digest``, the method's frequencies, m, t and kappa.  Each CSV has its
    result's inputs, and the report those of both and the echoed
    ``params``, so a rerun that keeps them formats and scores nothing, and
    calls ``truth`` (None for an external graph) for no value.
    """
    embeddings = _method_embedding(method, features, config)
    inputs = [digest, embeddings.frequencies, min(config.m_k, embeddings.n),
              config.t, config.kappa_search]

    def output(kind):
        return functools.partial(_output, manifest,
                                 f"cache/p{tag}/{kind}_{method}.npz",
                                 [kind, *inputs])

    neighbors = nn_search(embeddings, config.kappa_search, config.workers,
                          output("nn"))
    _output(manifest, f"p{tag}/nn_{method}.csv", ["nn", *inputs],
            lambda: neighbors, mio.write_nn_csv)
    table, kinds, reported = None, ["nn"], ["_nn_hist.csv"]
    if last == "align" and method != "dm":
        table = align_neighbors(embeddings, neighbors, config.workers,
                                output("align"))
        _output(manifest, f"p{tag}/align_{method}.csv", ["align", *inputs],
                lambda: table, mio.write_alignment_csv)
        kinds.append("align")
        reported.append("_align_hist.csv")
    if truth is None:
        return

    def report():
        scores = score_nn(neighbors, truth(), method=method, params=params)
        if table is None:
            return scores
        return merge_reports(scores, score_alignment(
            table, truth(), method=method, params=params))

    _output(manifest, f"p{tag}/report_{method}", [kinds, *inputs, params],
            report, mio.write_eval_report,
            suffixes=(*reported, "_scalars.json"))


# The last stage ``_run`` runs for each command.
_COMMANDS = {"generate": "generate", "embed": "embed", "nn": "nn",
             "align": "align", "pipeline": "align", "spectrum": "spectrum"}


# (flag, config field, help) of every flag that sets one config field.  Its
# value is parsed by the config parser, exactly as the line ``field = value``
# in a config file would be.
_FLAGS = (
    ("--seed", "seed", "seed of every random stage"),
    ("--kmax", "k_max", "highest frequency k of the embedding"),
    ("--mk", "m_k", "eigenvectors per frequency"),
    ("--t", "t", "diffusion time"),
    ("--kappa", "kappa_search", "neighbors per node in the NN search"),
    ("--kappa-build", "kappa_build",
     "neighbors per node when building the graph"),
    ("--n", "n", "node count of a synthetic manifold"),
    ("--p", "p", "keep probability, or comma list for sweeps"),
    ("--manifold", "manifold", "sphere, torus or external"),
    ("--graph", "graph_path",
     "edge-list file; without --manifold, means manifold=external"),
    ("--out", "out_dir", "output directory"),
    ("--workers", "workers", "threads, the calling one included"),
    ("--baselines", "baselines", "comma list from: dm, vdm"),
    ("--ks", "spectrum_ks", "comma list of frequencies for spectrum"),
)


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error (unknown flag, missing command) as a
    ConfigError, so it exits 1 like a bad config file line."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="mfvdm",
        description="Multi-frequency vector diffusion maps: joint "
                    "nearest-neighbor search and rotational alignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None,
                         help="key = value config file")
        for flag, field, text in _FLAGS:
            cmd.add_argument(flag, dest=field, help=text)
    return parser


def _overrides(args: argparse.Namespace) -> dict:
    """The flags given, as their text: ``resolve_config`` parses them."""
    return {field: getattr(args, field)
            for _, field, _ in _FLAGS if getattr(args, field) is not None}


def main(argv=None) -> int:
    global _CURRENT_STAGE
    _CURRENT_STAGE = "setup"
    try:
        args = build_parser().parse_args(argv)
        file_values = (load_config_file(args.config)
                       if args.config else {})
        overrides = _overrides(args)
        config = resolve_config(file_values, overrides)
        _check_p_tags(config.p)
        _run(config, _COMMANDS[args.command])
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
