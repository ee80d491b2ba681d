"""Pipeline benchmark: times the real ``mfvdm`` CLI end to end.

Usage (from the repository root)::

    python3 pipebench/run.py --workload sphere_cold --seed 0 --seconds 30 --trace 0

Each timed run is a fresh ``python3 -m mfvdm.cli pipeline ...`` process,
one at a time (closed loop), with the workload seed passed as ``--seed``.
Invocations repeat until ``--seconds`` have passed; the last one is
finished, not cut.  Every invocation passes the correctness gate in
``checks.py`` or counts as failed.

``--trace 0`` reports the end-to-end metrics (medians over the run's
invocations).  ``--trace 1`` runs the CLI once untraced and once under
``tracer.py`` and reports the per-layer metrics.  The last stdout line is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A
fuller record (environment, per-invocation timings and output digests) is
written to ``.pipebench_work/results/``.  README.md explains the workloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".pipebench_work"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import tracer  # noqa: E402

# One invocation may not take longer than this; the whole run must end
# within 180 s.
INVOCATION_TIMEOUT_S = 150.0
# Process start plus ``import mfvdm.cli`` is sampled this many times.
IMPORT_SAMPLES = 7
THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                   "MKL_NUM_THREADS", "MFVDM_DISABLE_EXT")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (setup or tracer failure)."""


@dataclass(frozen=True)
class Workload:
    """One ``pipeline`` configuration and how its runs start."""

    manifold: str
    n: int
    kappa_build: int
    kappa: int
    k_max: int
    m: int
    p_values: tuple
    baselines: tuple
    workers: int
    # When set, set-up runs this workload once with the same seed and every
    # timed invocation reruns into its out dir and bundle cache.
    prime: Workload | None = None

    @property
    def solves(self) -> int:
        """Eigensolves a cold run makes: one per graph and frequency."""
        return len(self.p_values) * (self.k_max + ("dm" in self.baselines))

    def cli_args(self, seed: int, out_dir: Path) -> list:
        return ["pipeline", "--manifold", self.manifold,
                "--n", str(self.n), "--kappa-build", str(self.kappa_build),
                "--kappa", str(self.kappa), "--kmax", str(self.k_max),
                "--mk", str(self.m),
                "--p", ",".join(checks.p_tag(p) for p in self.p_values),
                "--baselines", ",".join(self.baselines),
                "--seed", str(seed), "--out", str(out_dir),
                "--workers", str(self.workers)]


# n stays just above the 2000-node threshold where top_eigenpairs switches
# from Lanczos to the dense solver, so every workload keeps the matvec-bound
# eigensolve while one invocation fits the run length.
SPHERE_COLD = Workload(manifold="sphere", n=2100, kappa_build=60, kappa=30,
                       k_max=10, m=20, p_values=(0.4,),
                       baselines=("dm", "vdm"), workers=1)

WORKLOADS = {
    "sphere_cold": SPHERE_COLD,
    "sphere_warm": dataclasses.replace(SPHERE_COLD, kappa=50,
                                       prime=SPHERE_COLD),
    # m=10 keeps two torus invocations inside one run's window.
    "torus_sweep": Workload(manifold="torus", n=2100, kappa_build=40,
                            kappa=20, k_max=10, m=10, p_values=(1.0, 0.3),
                            baselines=("vdm",), workers=2),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "nn_mean_mfvdm": "rad",
    "align_median_abs_deg_mfvdm": "deg",
}


@dataclass
class Invocation:
    """One child process: its cost, exit code, log, and gate result."""

    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    code: int
    log: str
    problems: list = dataclasses.field(default_factory=list)
    hits: int | None = None
    sha256: str | None = None
    quality: dict | None = None


def child_env(cache_dir: Path | None = None) -> dict:
    """The caller's environment with this checkout's sources on the path and,
    for CLI runs, an explicit bundle cache.  Thread variables pass through
    as found, so the benchmark measures what users run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("MFVDM_CACHE_DIR", None)
    if cache_dir is not None:
        env["MFVDM_CACHE_DIR"] = str(cache_dir)
    return env


def invoke(argv: list, env: dict, log_path: Path) -> Invocation:
    """Run one child process to completion and measure it."""
    with open(log_path, "w+b") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, env=env, cwd=ROOT)
        watchdog = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        text = log.read().decode("utf-8", errors="replace")
    return Invocation(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0,
                      cpu_s=usage.ru_utime + usage.ru_stime,
                      code=proc.returncode, log=text)


def run_cli(workload: Workload, seed: int, out_dir: Path, cache_dir: Path,
            expected_hits: int, spans_path: Path | None = None) -> Invocation:
    """One gated ``pipeline`` invocation, under the tracer if spans_path."""
    entry = (["-m", "mfvdm.cli"] if spans_path is None
             else [str(BENCH_DIR / "tracer.py"), str(spans_path)])
    argv = [sys.executable, *entry, *workload.cli_args(seed, out_dir)]
    cache_dir.mkdir(parents=True, exist_ok=True)
    inv = invoke(argv, child_env(cache_dir),
                 out_dir.parent / f"{out_dir.name}.log")
    if spans_path is not None and inv.code == tracer.TRACER_ERROR_EXIT:
        raise BenchError(inv.log.strip())
    if inv.code != 0:
        inv.problems.append(f"exit code {inv.code}: {inv.log.strip()[-500:]}")
        return inv
    inv.hits = checks.cache_hits(inv.log)
    inv.problems += checks.check_outputs(out_dir, workload)
    inv.problems += checks.check_cache(inv.log, cache_dir, expected_hits,
                                       workload.solves)
    inv.sha256 = checks.outputs_sha256(out_dir)
    if not inv.problems:
        scalars = checks.quality(out_dir, workload, "mfvdm")
        inv.quality = {
            "nn_mean_mfvdm": scalars["nn_mean"],
            "align_median_abs_deg_mfvdm": scalars["align_median_abs_deg"],
        }
    return inv


class Run:
    """One benchmark run: one workload, one seed."""

    def __init__(self, workload: Workload, seed: int, work_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.invocations = []
        self.setup = {}
        self.spans = None

    @property
    def warm(self) -> bool:
        return self.workload.prime is not None

    def _dirs(self) -> tuple:
        """Out dir and bundle cache for the next invocation: new and empty
        on a cold workload, the primed pair on a warm one."""
        if self.warm:
            base = self.work_dir / "prime"
        else:
            base = self.work_dir / f"cold{len(self.invocations) + 1}"
            base.mkdir()
        return base / "out", base / "cache"

    def invocation(self, spans_path: Path | None = None) -> Invocation:
        out_dir, cache_dir = self._dirs()
        inv = run_cli(self.workload, self.seed, out_dir, cache_dir,
                      self.workload.solves if self.warm else 0, spans_path)
        first = next((i.sha256 for i in self.invocations if i.sha256), None)
        if inv.sha256 and first and inv.sha256 != first:
            inv.problems.append("outputs differ from this run's first "
                                "invocation")
        self.invocations.append(inv)
        if not self.warm:
            shutil.rmtree(out_dir.parent)
        status = ("ok" if not inv.problems
                  else "FAILED: " + "; ".join(inv.problems))
        print(f"  {'traced ' if spans_path else ''}invocation "
              f"{len(self.invocations)}: wall {inv.wall_s:.3f} s, peak rss "
              f"{inv.peak_rss_mb:.1f} MB, cache hits {inv.hits}, sha256 "
              f"{(inv.sha256 or '-')[:16]}: {status}", flush=True)
        return inv

    def set_up(self, imports: bool) -> None:
        """Process start plus imports, sampled; then priming if warm."""
        if imports:
            samples = []
            for _ in range(IMPORT_SAMPLES):
                inv = invoke([sys.executable, "-c", "import mfvdm.cli"],
                             child_env(), self.work_dir / "import.log")
                if inv.code != 0:
                    raise BenchError(f"import mfvdm.cli failed:\n{inv.log}")
                samples.append(inv.wall_s)
            self.setup["import_s"] = samples
        if self.warm:
            base = self.work_dir / "prime"
            base.mkdir()
            prime = run_cli(self.workload.prime, self.seed, base / "out",
                            base / "cache", 0)
            if prime.problems:
                raise BenchError("priming run failed: "
                                 + "; ".join(prime.problems))
            self.setup["prime_s"] = prime.wall_s
            self.setup["prime_sha256"] = prime.sha256
            print(f"  prime: wall {prime.wall_s:.3f} s", flush=True)

    def measure(self, seconds: float) -> dict:
        """Closed loop: invocations back to back until the window has
        passed; the last one is finished, not cut.  Returns the end-to-end
        metrics."""
        start = time.perf_counter()
        while not self.invocations or time.perf_counter() - start < seconds:
            self.invocation()
        passed = [i for i in self.invocations if not i.problems]
        counted = passed or self.invocations
        metrics = {
            "wall_s": statistics.median(i.wall_s for i in counted),
            "peak_rss_mb": statistics.median(i.peak_rss_mb for i in counted),
            "setup_s": (statistics.median(self.setup["import_s"])
                        + self.setup.get("prime_s", 0.0)),
        }
        for name in ("nn_mean_mfvdm", "align_median_abs_deg_mfvdm"):
            values = [i.quality[name] for i in passed]
            metrics[name] = statistics.median(values) if values else None
        return {name: (value, END_TO_END_UNITS[name])
                for name, value in metrics.items()}

    def measure_traced(self) -> dict:
        """One untraced and one traced invocation; the per-layer metrics."""
        untraced = self.invocation()
        spans_path = self.work_dir / "spans.json"
        traced = self.invocation(spans_path)
        if traced.code != 0:
            return {}
        with open(spans_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        self.spans = trace["spans"]
        layers = tracer.summarize(trace, traced.wall_s, untraced.wall_s,
                                  traced.cpu_s)
        solves = layers["spectral.solves"][0]
        hits = layers["io.bundle_hits"][0]
        if hits != traced.hits or solves != self.workload.solves - hits:
            traced.problems.append(
                f"trace shows {solves} solves and {hits} bundle hits, the "
                f"CLI reported {traced.hits} hits of {self.workload.solves}")
            print(f"  traced invocation FAILED: {traced.problems[-1]}")
        return layers


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def _source_sha256() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts \
                and path.suffix not in (".pyc", ".so"):
            digest.update(path.relative_to(src).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


_PROBE = """
import json, sys, numpy, scipy, mfvdm.kernels
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "blas": blas.get("name"), "blas_version": blas.get("version"),
                  "kernels_backend": mfvdm.kernels.backend(),
                  "mfvdm_path": mfvdm.kernels.__file__}))
"""


def environment() -> dict:
    """What produced a result: sources, versions, BLAS, threads, cores."""
    done = subprocess.run([sys.executable, "-c", _PROBE], env=child_env(),
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchError(f"environment probe failed:\n{done.stderr}")
    env = json.loads(done.stdout)
    if not Path(env["mfvdm_path"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"mfvdm imported from {env['mfvdm_path']}, not "
                         f"from this checkout")
    env.update({
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    })
    return env


def run_benchmark(name: str, workload: Workload, seed: int, seconds: float,
                  trace: bool, work_root: Path = WORK_DIR) -> dict:
    """One run; returns the full record (result line under "result")."""
    work_dir = work_root / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    run = Run(workload, seed, work_dir)
    try:
        env = environment()
        print(f"{name} seed={seed} trace={int(trace)} "
              f"{' '.join(workload.cli_args(seed, Path('OUT')))}", flush=True)
        print(f"environment: {json.dumps(env, sort_keys=True)}", flush=True)
        run.set_up(imports=not trace)
        metrics = run.measure_traced() if trace else run.measure(seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(1 for i in run.invocations if i.problems)
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(run.invocations),
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    return {
        "workload": name,
        "config": dataclasses.asdict(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "setup": run.setup,
        "invocations": [
            {"wall_s": i.wall_s, "peak_rss_mb": i.peak_rss_mb,
             "cpu_s": i.cpu_s, "code": i.code, "cache_hits": i.hits,
             "sha256": i.sha256, "quality": i.quality,
             "problems": i.problems}
            for i in run.invocations
        ],
        "spans": run.spans,
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "mfvdm" / "cli.py").is_file():
        print(f"pipebench: no mfvdm sources under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    try:
        record = run_benchmark(args.workload, WORKLOADS[args.workload],
                               args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"pipebench: {exc}", file=sys.stderr)
        return 1
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / (f"{args.workload}-seed{args.seed}-"
                      f"trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    result = record["result"]
    print(f"record: {path.relative_to(ROOT)}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:34s} {entry['value']} {entry['unit']}")
    print(f"correctness: {'PASS' if result['correct'] else 'FAIL'} "
          f"(attempted {result['attempted']}, failed {result['failed']}, "
          f"failed_share {result['failed'] / result['attempted']:g})")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
