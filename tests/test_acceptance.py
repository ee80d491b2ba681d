"""Acceptance suite: eight end-to-end guarantees at benchmark scale.

Each test checks one numbered criterion and prints exactly one
``PASS``/``FAIL`` line (run with ``-s`` to see the lines as they appear).
Heavyweight shared state (graphs, eigenbundles, embeddings) is built
lazily and cached for the session, so each stated runtime budget covers
the work that criterion triggers first.

Benchmark setup: unit sphere, n = 3000 nodes, kappa_build = 60 neighbors
(h = 2 * kappa_build / n = 0.04), kappa_search = 30, frequencies
k = 1..10 with m_k = 20 eigenvectors each, diffusion time t = 1.
Noisy graphs come from edge rewiring with keep probability p.
"""

from __future__ import annotations

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from mfvdm import (
    align_neighbors,
    alignment_sequences,
    baseline_embedding,
    build_clean_knn_graph,
    build_embedding_set,
    build_features,
    build_sk,
    estimate_angles,
    make_truth,
    nn_search,
    rewire_graph,
    score_alignment,
    score_nn,
    spectral_report,
    top_eigenpairs,
    wrap_pi,
)
from mfvdm import cli
from mfvdm import io as mio
from mfvdm.graph import AlignmentGraph
from mfvdm.spectral import SpectralBundle
from oracles import affinity_k, mfvdm_distance, normalized_affinity

N = 3000
KAPPA_BUILD = 60
KAPPA_SEARCH = 30
K_MAX = 10
M_K = 20
T_DIFF = 1
H = 2.0 * KAPPA_BUILD / N

REWIRE_SEEDS = {0.4: 101, 0.2: 102, 0.1: 103, 0.08: 104}


def _embed(bundles):
    """The MFVDM embedding of ``bundles`` at diffusion time T_DIFF."""
    return build_embedding_set(build_features(b, T_DIFF) for b in bundles)


class _Store:
    """Lazy cache of the expensive shared objects."""

    def __init__(self):
        self._cache = {}

    def _get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def truth(self):
        return self._get("truth", lambda: make_truth("sphere", N, seed=0))

    def graph(self, p):
        if p == 1.0:
            return self._get("clean", lambda: build_clean_knn_graph(
                self.truth(), kappa_build=KAPPA_BUILD))
        return self._get(("graph", p), lambda: rewire_graph(
            self.graph(1.0), p=p, seed=REWIRE_SEEDS[p]))

    def bundle(self, p, k, m):
        return self._get(("bundle", p, k, m), lambda: top_eigenpairs(
            build_sk(self.graph(p), k), m=m))

    def spectral(self, k):
        return self._get(("spectral", k), lambda: spectral_report(
            self.bundle(1.0, k, 30), kappa_build=KAPPA_BUILD))

    def embedding(self, method, p):
        def build():
            if method == "mfvdm":
                bundles = [self.bundle(p, k, M_K) for k in range(1, K_MAX + 1)]
                return _embed(bundles)
            k = 1 if method == "vdm" else 0
            return baseline_embedding(
                build_features(self.bundle(p, k, M_K), T_DIFF))
        return self._get(("embedding", method, p), build)

    def neighbors(self, method, p):
        return self._get(("neighbors", method, p), lambda: nn_search(
            self.embedding(method, p), kappa=KAPPA_SEARCH))

    def nn_mean(self, method, p):
        def build():
            report = score_nn(self.neighbors(method, p), self.truth())
            return report.nn_mean
        return self._get(("nn_mean", method, p), build)

    def align_report(self, method, p):
        def build():
            table = align_neighbors(self.embedding(method, p),
                                    self.neighbors(method, p))
            return score_alignment(table, self.truth(), method=method)
        return self._get(("align", method, p), build)


@pytest.fixture(scope="session")
def store():
    return _Store()


def _emit(num: int, checks: list) -> None:
    """Print the one-line verdict for a criterion and assert it."""
    ok = all(flag for flag, _ in checks)
    detail = "; ".join(text for _, text in checks)
    line = f"{'PASS' if ok else 'FAIL'} [criterion {num}] {detail}"
    print(line, flush=True)
    assert ok, line


def _mark(flag: bool, text: str) -> tuple:
    return bool(flag), text


def _cluster_segments(report):
    """(values, center) per detected cluster, in spectral order."""
    segments = []
    start = 0
    for size in report.cluster_sizes:
        seg = report.one_minus_lambda[start:start + size]
        segments.append((seg, float(np.mean(seg))))
        start += size
    return segments


def _max_spread_ratio(report, leading: int) -> float:
    """Worst cluster std over the nearest center-to-center gap."""
    segments = _cluster_segments(report)
    worst = 0.0
    for idx in range(leading):
        seg, center = segments[idx]
        spread = float(np.std(seg))
        gaps = []
        if idx > 0:
            gaps.append(center - segments[idx - 1][1])
        if idx + 1 < len(segments):
            gaps.append(segments[idx + 1][1] - center)
        worst = max(worst, spread / min(gaps))
    return worst


class TestCriterion1:
    def test_spectral_multiplicities(self, store):
        t0 = time.perf_counter()
        expected = {1: (3, 5, 7), 2: (5, 7, 9), 5: (11, 13)}
        checks = []
        worst = 0.0
        for k, sizes in expected.items():
            report = store.spectral(k)
            got = tuple(report.cluster_sizes[:len(sizes)])
            checks.append(_mark(got == sizes, f"k={k} clusters {got}"))
            worst = max(worst, _max_spread_ratio(report, len(sizes)))
        checks.append(_mark(worst < 0.20,
                            f"max spread/gap {worst:.1%} (< 20%)"))
        elapsed = time.perf_counter() - t0
        checks.append(_mark(elapsed < 120.0,
                            f"runtime {elapsed:.1f}s (< 120s)"))
        _emit(1, checks)


class TestCriterion2:
    def test_eigenvalue_asymptotics(self, store):
        checks = []
        gaps = []
        for k in range(1, 6):
            report = store.spectral(k)
            measured = float(report.one_minus_lambda[0])
            theory = report.theory_one_minus[0]
            ratio = measured / theory
            gaps.append(report.leading_gap)
            checks.append(_mark(measured > 0.0 and 0.5 <= ratio <= 2.0,
                                f"k={k} correction ratio {ratio:.3f}"))
        monotone = all(b >= a for a, b in zip(gaps, gaps[1:]))
        gap_text = "/".join(f"{g:.4f}" for g in gaps)
        checks.append(_mark(monotone, f"leading gaps {gap_text} nondecreasing"))
        _emit(2, checks)


class TestCriterion3:
    def test_noisy_nn_search(self, store):
        t0 = time.perf_counter()
        m04 = store.nn_mean("mfvdm", 0.4)
        v04 = store.nn_mean("vdm", 0.4)
        d04 = store.nn_mean("dm", 0.4)
        m01 = store.nn_mean("mfvdm", 0.1)
        v01 = store.nn_mean("vdm", 0.1)
        checks = [
            _mark(m04 <= v04 <= d04,
                  f"p=0.4 mean angle {m04:.4f} <= {v04:.4f} <= {d04:.4f}"),
            _mark(m01 < 0.5 * v01,
                  f"p=0.1 mfvdm/vdm {m01 / v01:.3f} (< 0.5)"),
        ]
        elapsed = time.perf_counter() - t0
        checks.append(_mark(elapsed < 600.0,
                            f"runtime {elapsed:.1f}s (< 600s)"))
        _emit(3, checks)


def _central_mass(report) -> float:
    """Fraction of alignment errors inside [-10, 10] degrees."""
    edges = report.align_bin_edges_deg
    lo = int(np.searchsorted(edges, -10.0))
    hi = int(np.searchsorted(edges, 10.0))
    total = report.align_counts.sum()
    return float(report.align_counts[lo:hi].sum() / total)


class TestCriterion4:
    def test_alignment_accuracy(self, store):
        clean = store.align_report("mfvdm", 1.0).align_median_abs_deg
        m04 = store.align_report("mfvdm", 0.4).align_median_abs_deg
        v04 = store.align_report("vdm", 0.4).align_median_abs_deg
        m_mass = _central_mass(store.align_report("mfvdm", 0.08))
        v_mass = _central_mass(store.align_report("vdm", 0.08))
        checks = [
            _mark(clean < 2.0, f"p=1 median error {clean:.3f} deg (< 2)"),
            _mark(m04 < v04,
                  f"p=0.4 median mfvdm {m04:.3f} < vdm {v04:.3f} deg"),
            _mark(m_mass > v_mass,
                  f"p=0.08 mass within 10 deg mfvdm {m_mass:.3f}"
                  f" > vdm {v_mass:.3f}"),
        ]
        _emit(4, checks)


class TestCriterion5:
    def test_single_frequency_classifiers(self, store):
        singles = []
        for k in range(1, K_MAX + 1):
            emb = _embed([store.bundle(0.2, k, M_K)])
            report = score_nn(nn_search(emb, kappa=KAPPA_SEARCH),
                              store.truth())
            singles.append(report.nn_mean)
        singles = np.array(singles)
        combined = store.nn_mean("mfvdm", 0.2)
        spread = float(singles.max() / singles.min())
        boost = float(combined / singles.min())
        checks = [
            _mark(spread <= 1.3,
                  f"p=0.2 single-k means within {spread - 1.0:.1%} (<= 30%)"),
            _mark(boost <= 0.9,
                  f"combined/best-single {boost:.3f} (<= 0.9)"),
        ]
        _emit(5, checks)


def _dense_sk_power(graph, k, power):
    matrix = build_sk(graph, k).to_dense()
    return np.linalg.matrix_power(matrix, power)


def _outer_vector(features_list, node):
    """Explicit stacked outer-product feature vector for one node."""
    parts = []
    for features in features_list:
        phi = features.phi[node]
        parts.append(np.outer(phi, np.conj(phi)).ravel())
    return np.concatenate(parts)


def _small_graphs():
    clean = build_clean_knn_graph(make_truth("sphere", 150, seed=5),
                                  kappa_build=10)
    noisy_base = build_clean_knn_graph(make_truth("sphere", 200, seed=6),
                                       kappa_build=12)
    noisy = rewire_graph(noisy_base, p=0.6, seed=7)
    return {"clean_n150": clean, "rewired_n200": noisy}


class TestCriterion6:
    def test_dense_oracle_equivalence(self, store):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        checks = []
        ks = (1, 2, 3)
        for name, graph in _small_graphs().items():
            n = graph.n
            bundles = [top_eigenpairs(build_sk(graph, k), m=n) for k in ks]
            emb = _embed(bundles)
            powers = {k: _dense_sk_power(graph, k, 2 * T_DIFF) for k in ks}

            # (a) untruncated affinity equals |S_k^(2t)(i, j)|^2
            aff_err = 0.0
            for features, k in zip(emb.features, ks):
                phi = features.phi
                aff_err = max(aff_err, float(
                    np.abs(np.abs(phi @ phi.conj().T) ** 2
                           - np.abs(powers[k]) ** 2).max()))
            pairs = rng.integers(0, n, size=(50, 2))
            for i, j in pairs:
                for features, k in zip(emb.features, ks):
                    direct = affinity_k(features, int(i), int(j))
                    aff_err = max(aff_err, abs(
                        direct - abs(powers[k][i, j]) ** 2))
            checks.append(_mark(aff_err < 1e-10,
                                f"{name} affinity err {aff_err:.1e}"))

            # (b) z(k) equals the dense power entry
            ii, jj = rng.integers(0, n, size=(100, 2)).T
            ii, jj = ii[ii != jj], jj[ii != jj]
            z = alignment_sequences(emb, ii, jj)
            z_err = max(float(np.abs(z[:, pos] - powers[k][ii, jj]).max())
                        for pos, k in enumerate(ks))
            checks.append(_mark(z_err < 1e-10, f"z err {z_err:.1e}"))

            # (c) d2 = 2 - 2N, cross-checked against the explicit
            # outer-product feature geometry
            d_err = 0.0
            for i, j in rng.integers(0, n, size=(20, 2)):
                if i == j:
                    continue
                d2 = emb.distance_sq_block([int(i)])[0, j]
                ident = 2.0 - 2.0 * normalized_affinity(emb, int(i), int(j))
                vi = _outer_vector(emb.features, int(i))
                vj = _outer_vector(emb.features, int(j))
                vi /= np.linalg.norm(vi)
                vj /= np.linalg.norm(vj)
                oracle = float(np.linalg.norm(vi - vj) ** 2)
                d_err = max(d_err, abs(d2 - ident), abs(d2 - oracle),
                            abs(mfvdm_distance(emb, int(i), int(j)) - oracle))
            checks.append(_mark(d_err < 1e-12, f"d2 err {d_err:.1e}"))

        # (d) refined angle matches a one-million-point grid argmax.
        # Near-tie rule: the grid's maximum on a lobe lies below the lobe's
        # peak by at most max|f''| (step/2)^2 / 2 <= sum k^2 |z_k| (step/2)^2
        # / 2, so when two lobes' grid maxima differ by less than that bound
        # the grid cannot tell which is higher (z dominated by k=2 has two
        # lobes pi apart), and the refined angle may sit on either.  It must
        # then match the grid maximum of its own lobe, within pi/(2 K_max).
        graph = _small_graphs()["rewired_n200"]
        bundles = [top_eigenpairs(build_sk(graph, k), m=graph.n) for k in ks]
        emb = _embed(bundles)
        step = 2.0 * np.pi / 1_000_000
        grid = step * np.arange(1_000_000)
        phase = np.exp(-1j * grid)
        ii, jj = rng.integers(0, graph.n, size=(25, 2)).T
        ii, jj = ii[ii != jj], jj[ii != jj]
        z = alignment_sequences(emb, ii, jj)
        alpha_hat, _ = estimate_angles(z)
        tol = step + 1e-3
        angle_err = 0.0
        ties = 0
        for row, alpha in zip(z, alpha_hat):
            acc = np.zeros_like(phase)
            for zk in row[::-1]:
                acc = (acc + zk) * phase
            values = acc.real
            top = int(np.argmax(values))
            err = abs(float(wrap_pi(alpha - grid[top])))
            if err >= tol:
                bound = float(np.sum(np.square(ks) * np.abs(row))) \
                    * (step / 2.0) ** 2 / 2.0
                lobe = np.flatnonzero(np.abs(wrap_pi(grid - alpha))
                                      < np.pi / (2 * max(ks)))
                own = int(lobe[np.argmax(values[lobe])])
                own_err = abs(float(wrap_pi(alpha - grid[own])))
                if values[top] - values[own] < bound and own_err < tol:
                    ties += 1
                    err = own_err
            angle_err = max(angle_err, err)
        checks.append(_mark(angle_err < tol,
                            f"grid-argmax angle err {angle_err:.1e} "
                            f"({ties} near-tie)"))

        elapsed = time.perf_counter() - t0
        checks.append(_mark(elapsed < 60.0,
                            f"runtime {elapsed:.1f}s (< 60s)"))
        _emit(6, checks)


def _complete_graph(n: int) -> AlignmentGraph:
    rows, cols = np.triu_indices(n, k=1)
    return AlignmentGraph(
        n=n,
        rows=rows.astype(np.int64),
        cols=cols.astype(np.int64),
        weights=np.ones(rows.size),
        angles=np.zeros(rows.size),
    )


def _random_unitary(rng, size: int) -> np.ndarray:
    raw = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _pair_angles(emb, pairs):
    ii, jj = np.asarray(pairs).T
    return estimate_angles(alignment_sequences(emb, ii, jj))[0]


def _normalized(emb, pairs):
    """The library's normalized affinity N = 1 - d2/2 of each pair."""
    return np.array([1.0 - 0.5 * emb.distance_sq_block([i])[0, j]
                     for i, j in pairs])


class TestCriterion7:
    def test_invariants(self, store):
        t0 = time.perf_counter()
        rng = np.random.default_rng(77)
        checks = []
        graph = _small_graphs()["rewired_n200"]
        ks = (1, 2, 3)

        herm_ok = True
        spec_err = 0.0
        for k in ks:
            dense = build_sk(graph, k).to_dense()
            herm_ok = herm_ok and np.array_equal(dense, dense.conj().T)
            values = np.linalg.eigvalsh(dense)
            spec_err = max(spec_err, float(max(-1.0 - values.min(),
                                               values.max() - 1.0, 0.0)))
        checks.append(_mark(herm_ok, "Hermitian symmetry exact"))
        checks.append(_mark(spec_err <= 1e-8,
                            f"spectrum overshoot {spec_err:.1e} (<= 1e-8)"))

        # gauge invariance: per-eigenvector phases change nothing observable
        bundles = [top_eigenpairs(build_sk(graph, k), m=15) for k in ks]
        emb = _embed(bundles)
        gauged = []
        for bundle in bundles:
            phases = np.exp(2j * np.pi * rng.random(bundle.eigenvalues.size))
            gauged.append(SpectralBundle(
                k=bundle.k, eigenvalues=bundle.eigenvalues,
                eigenvectors=bundle.eigenvectors * phases[None, :]))
        emb_gauged = _embed(gauged)
        pairs = [(i, j) for i, j in rng.integers(0, graph.n, size=(20, 2))
                 if i != j]
        gauge_err = max(
            float(np.max(np.abs(_normalized(emb, pairs)
                                - _normalized(emb_gauged, pairs)))),
            float(np.max(np.abs(wrap_pi(_pair_angles(emb, pairs)
                                        - _pair_angles(emb_gauged, pairs))))),
        )
        checks.append(_mark(gauge_err <= 1e-8,
                            f"gauge invariance err {gauge_err:.1e}"))

        # rotating an exactly degenerate eigenvector cluster is unobservable
        complete = _complete_graph(8)
        base, mixed = [], []
        for k in ks:
            bundle = top_eigenpairs(build_sk(complete, k), m=8)
            unitary = _random_unitary(rng, 7)
            vectors = bundle.eigenvectors.copy()
            vectors[:, 1:] = vectors[:, 1:] @ unitary
            base.append(bundle)
            mixed.append(SpectralBundle(k=bundle.k,
                                        eigenvalues=bundle.eigenvalues,
                                        eigenvectors=vectors))
        emb_base = _embed(base)
        emb_mixed = _embed(mixed)
        cpairs = [(i, j) for i in range(8) for j in range(i + 1, 8)]
        cluster_err = max(
            float(np.max(np.abs(_normalized(emb_base, cpairs)
                                - _normalized(emb_mixed, cpairs)))),
            float(np.max(np.abs(wrap_pi(
                _pair_angles(emb_base, cpairs)
                - _pair_angles(emb_mixed, cpairs))))),
        )
        checks.append(_mark(cluster_err <= 1e-8,
                            f"degenerate-cluster rotation err"
                            f" {cluster_err:.1e}"))

        # rewiring expectation: E[W_k] = p * W_k(clean) entrywise
        clean = build_clean_knn_graph(make_truth("sphere", 200, seed=9),
                                      kappa_build=10)
        p_keep = 0.5
        rounds = 600
        keys = clean.rows * clean.n + clean.cols
        order = np.argsort(keys)
        keys = keys[order]
        count = keys.size
        sums = {k: np.zeros(count, dtype=complex) for k in ks}
        squares = {k: np.zeros((count, 2)) for k in ks}
        for r in range(rounds):
            rewired = rewire_graph(clean, p=p_keep, seed=1000 + r)
            rkeys = rewired.rows * rewired.n + rewired.cols
            pos = np.searchsorted(keys, rkeys)
            ok = (pos < count)
            ok[ok] &= keys[pos[ok]] == rkeys[ok]
            for k in ks:
                sample = np.zeros(count, dtype=complex)
                sample[pos[ok]] = (rewired.weights[ok]
                                   * np.exp(1j * k * rewired.angles[ok]))
                sums[k] += sample
                squares[k][:, 0] += sample.real ** 2
                squares[k][:, 1] += sample.imag ** 2
        worst_sigma = 0.0
        for k in ks:
            target = p_keep * (clean.weights[order]
                               * np.exp(1j * k * clean.angles[order]))
            mean = sums[k] / rounds
            var = squares[k] / rounds - np.stack(
                [mean.real ** 2, mean.imag ** 2], axis=1)
            sem = np.sqrt(np.maximum(var, 0.0) / rounds)
            sem = np.maximum(sem, 1e-12)
            z_re = np.abs(mean.real - target.real) / sem[:, 0]
            z_im = np.abs(mean.imag - target.imag) / sem[:, 1]
            worst_sigma = max(worst_sigma, float(z_re.max()),
                              float(z_im.max()))
        checks.append(_mark(worst_sigma < 5.0,
                            f"rewiring mean within {worst_sigma:.2f} SE"
                            f" over {rounds} rounds (< 5)"))

        # transported angles around torus triangles cancel to roundoff
        torus = build_clean_knn_graph(make_truth("torus", 600, seed=4),
                                      kappa_build=8)
        edge = {(int(i), int(j)): float(a)
                for i, j, a in zip(torus.rows, torus.cols, torus.angles)}
        targets = {}
        for i, j in edge:
            targets.setdefault(i, []).append(j)
        cycle_err = 0.0
        triangles = 0
        for (i, j), a_ij in edge.items():
            for l in targets.get(j, ()):  # noqa: E741 - i < j < l chain
                if (i, l) in edge:
                    triangles += 1
                    residual = wrap_pi(a_ij + edge[(j, l)] - edge[(i, l)])
                    cycle_err = max(cycle_err, abs(float(residual)))
        cycle_tol = 16.0 * np.finfo(float).eps
        checks.append(_mark(triangles > 1000 and cycle_err <= cycle_tol,
                            f"{triangles} torus cycles closed to"
                            f" {cycle_err:.1e} (<= {cycle_tol:.1e})"))

        elapsed = time.perf_counter() - t0
        checks.append(_mark(elapsed < 120.0,
                            f"runtime {elapsed:.1f}s (< 120s)"))
        _emit(7, checks)


def _run_pipeline(out_dir: Path, workers: int | None = None) -> dict:
    argv = ["pipeline", "--manifold", "sphere", "--seed", "3",
            "--p", "0.4", "--baselines", "dm,vdm", "--out", str(out_dir),
            "--n", "500", "--kappa-build", "20", "--kappa", "10",
            "--kmax", "5", "--mk", "10"]
    if workers is not None:
        argv += ["--workers", str(workers)]
    code = cli.main(argv)
    assert code == 0, f"pipeline exited {code}"
    digests = {}
    for path in sorted(out_dir.rglob("*")):
        rel = path.relative_to(out_dir)
        if path.is_file() and "cache" not in rel.parts:
            digests[rel.as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests


class TestCriterion8:
    def test_pipeline_determinism(self, tmp_path, monkeypatch):
        # Each run caches under its own out dir, so no run loads another's
        # neighbor lists or angles.
        monkeypatch.delenv(mio.CACHE_ENV, raising=False)
        first = _run_pipeline(tmp_path / "a")
        rerun = _run_pipeline(tmp_path / "b")
        threads = _run_pipeline(tmp_path / "c", workers=3)
        csvs = [name for name in first if name.endswith(".csv")]
        checks = [
            _mark(len(csvs) >= 5 and set(first) == set(rerun) == set(threads),
                  f"{len(first)} artifacts ({len(csvs)} CSVs)"),
            _mark(first == rerun, "rerun byte-identical"),
            _mark(first == threads, "worker count byte-identical"),
        ]
        _emit(8, checks)
