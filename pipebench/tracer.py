"""Traced CLI run: wraps the public functions ``mfvdm.cli`` calls.

Run as a child process in place of ``python3 -m mfvdm.cli``::

    python3 pipebench/tracer.py SPANS.json pipeline --manifold sphere ...

It installs timing wrappers on the names the CLI looks up at call time (the
functions imported into the ``mfvdm.cli`` namespace and the ``mfvdm.io``
functions it reaches through ``mio``), counts ``SparseHermitian.matvec``
calls, runs ``mfvdm.cli.main`` and writes every span to ``SPANS.json``.
Nothing in ``src/`` changes.  A wrapped name that no longer exists stops
the run with exit code ``TRACER_ERROR_EXIT`` instead of silently reading
zero for its layer.

``summarize`` turns one such trace into the per-layer metrics.  This module
imports nothing from ``mfvdm`` at import time, so the harness can import
``summarize`` without the package on its path.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time

TRACER_ERROR_EXIT = 70

# Functions imported into the mfvdm.cli namespace that the pipeline calls,
# with the layer their spans are named after.  The names are fixed here, not
# read from ``__module__``, so moving a function cannot rename its metric.
CLI_NAMES = {
    "make_truth": "sampling",
    "build_clean_knn_graph": "graph",
    "rewire_graph": "graph",
    "degrees": "connection",
    "build_sk": "connection",
    "top_eigenpairs": "spectral",
    "build_embedding_set": "embedding",
    "baseline_embedding": "embedding",
    "nn_search": "embedding",
    "align_neighbors": "alignment",
    "score_nn": "evaluation",
    "score_alignment": "evaluation",
    "merge_reports": "evaluation",
}

# mfvdm.io functions the CLI calls as ``mio.<name>``; the value is the
# position of the output path argument of a writer, else None.
IO_NAMES = {
    "write_truth": 1,
    "read_truth": None,
    "write_graph": 1,
    "read_graph": None,
    "graph_hash": None,
    "write_nn_csv": 1,
    "write_alignment_csv": 1,
    "write_eval_report": None,
    "save_bundle": 1,
    "load_bundle": None,
}

# Per-layer metrics: busy seconds summed over the spans of one function.
BUSY_METRICS = {
    "spectral.top_eigenpairs_s": "spectral.top_eigenpairs",
    "connection.build_sk_s": "connection.build_sk",
    "embedding.nn_search_s": "embedding.nn_search",
    "alignment.align_neighbors_s": "alignment.align_neighbors",
    "graph.build_clean_knn_graph_s": "graph.build_clean_knn_graph",
    "graph.rewire_graph_s": "graph.rewire_graph",
    "sampling.make_truth_s": "sampling.make_truth",
    "evaluation.score_nn_s": "evaluation.score_nn",
    "evaluation.score_alignment_s": "evaluation.score_alignment",
    **{f"io.{name}_s": f"io.{name}" for name in IO_NAMES},
}

COUNTERS = (
    "connection.matvecs",
    "embedding.nn_queries",
    "alignment.pairs",
    "io.bundle_hits",
    "io.bundle_misses",
    "io.bytes_written",
)


class TracerError(RuntimeError):
    """A name the tracer must wrap is missing from the program."""


class Tracer:
    """In-memory spans and counters of one traced CLI run."""

    def __init__(self) -> None:
        self.spans = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.root = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def span(self, name: str, func):
        """Run ``func`` inside a span; its parent is the enclosing span on
        this thread, or the root span for work handed to a worker thread."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span_id = len(self.spans)
            self.spans.append(None)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = {
                "id": span_id,
                "name": name,
                "parent": parent,
                "thread": threading.current_thread().name,
                "start": start,
                "end": end,
            }

    def wrap(self, name: str, func, on_result=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = self.span(name, lambda: func(*args, **kwargs))
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def run_root(self, func):
        """Run the CLI entry point as the root span that all others share."""
        with self._lock:
            self.root = len(self.spans)
            self.spans.append(None)
        start = time.perf_counter()
        try:
            return func()
        finally:
            self.spans[self.root] = {
                "id": self.root, "name": "cli.main", "parent": None,
                "thread": threading.current_thread().name,
                "start": start, "end": time.perf_counter(),
            }


def install(tracer: Tracer, cli, mio, connection) -> None:
    """Wrap the CLI's functions in place; raise TracerError on a missing name."""
    missing = [name for name in CLI_NAMES
               if not callable(getattr(cli, name, None))]
    missing += [f"io.{name}" for name in IO_NAMES
                if not callable(getattr(mio, name, None))]
    if not callable(getattr(connection.SparseHermitian, "matvec", None)):
        missing.append("connection.SparseHermitian.matvec")
    if missing:
        raise TracerError("pipebench tracer: the program no longer has "
                          + ", ".join(missing)
                          + "; update pipebench/tracer.py to the new names.")

    on_result = {
        "nn_search": lambda args, res: tracer.count("embedding.nn_queries",
                                                    res.n),
        "align_neighbors": lambda args, res: tracer.count(
            "alignment.pairs", int(res.i.shape[0])),
    }
    for name, layer in CLI_NAMES.items():
        setattr(cli, name, tracer.wrap(f"{layer}.{name}", getattr(cli, name),
                                       on_result.get(name)))

    def written(index):
        def record(args, result):
            tracer.count("io.bytes_written", os.path.getsize(args[index]))
        return record

    def written_report(args, paths):
        tracer.count("io.bytes_written",
                     sum(os.path.getsize(path) for path in paths))

    def bundle_lookup(args, bundle):
        tracer.count("io.bundle_misses" if bundle is None
                     else "io.bundle_hits")

    for name, path_index in IO_NAMES.items():
        hook = None
        if path_index is not None:
            hook = written(path_index)
        elif name == "write_eval_report":
            hook = written_report
        elif name == "load_bundle":
            hook = bundle_lookup
        setattr(mio, name, tracer.wrap(f"io.{name}", getattr(mio, name), hook))

    matvec = connection.SparseHermitian.matvec

    @functools.wraps(matvec)
    def counted_matvec(self, x):
        tracer.count("connection.matvecs")
        return matvec(self, x)

    connection.SparseHermitian.matvec = counted_matvec


def _union_seconds(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, covered_to = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > covered_to:
            total += end - max(start, covered_to)
            covered_to = end
    return total


def summarize(trace: dict, traced_wall: float, untraced_wall: float,
              cpu_s: float) -> dict:
    """Per-layer metrics {name: (value, unit)} from one trace."""
    spans = trace["spans"]
    root = next(s for s in spans if s["parent"] is None)
    metrics = {}
    for metric, span_name in BUSY_METRICS.items():
        metrics[metric] = (sum(s["end"] - s["start"] for s in spans
                               if s["name"] == span_name), "s")
    solves = [(s["start"], s["end"]) for s in spans
              if s["name"] == "spectral.top_eigenpairs"]
    metrics["spectral.top_eigenpairs_wall_s"] = (_union_seconds(solves), "s")
    metrics["spectral.solves"] = (len(solves), "count")
    for name, value in trace["counters"].items():
        metrics[name] = (value, "bytes" if name == "io.bytes_written"
                         else "count")
    children = [(s["start"], s["end"]) for s in spans
                if s["parent"] == root["id"]]
    metrics["cli.self_s"] = (root["end"] - root["start"]
                             - _union_seconds(children), "s")
    metrics["run.cpu_s"] = (cpu_s, "s")
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <mfvdm CLI arguments>",
              file=sys.stderr)
        return 2
    out_path, cli_argv = argv[0], argv[1:]
    import mfvdm.cli as cli
    from mfvdm import connection
    from mfvdm import io as mio

    tracer = Tracer()
    try:
        install(tracer, cli, mio, connection)
    except TracerError as exc:
        print(exc, file=sys.stderr)
        return TRACER_ERROR_EXIT
    code = tracer.run_root(lambda: cli.main(cli_argv))
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counters": tracer.counters},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
