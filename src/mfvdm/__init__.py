"""Multi-frequency vector diffusion maps on angular-alignment graphs."""

import os

# ``--workers`` is the package's whole thread budget.  BLAS reads its thread
# count once, when numpy or scipy first loads it, so it is pinned to one
# thread here, before either is imported; a value the caller set wins.  A
# BLAS pool inside every worker thread costs time, and a threaded reduction
# makes results depend on the core count.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
del _name

from mfvdm.angles import wrap_pi, wrap_two_pi
from mfvdm.alignment import (
    AlignmentTable,
    align_neighbors,
    alignment_sequences,
    estimate_angles,
)
from mfvdm.config import ExperimentConfig, load_config_file, resolve_config
from mfvdm.connection import SparseHermitian, build_sk, degrees
from mfvdm.embedding import (
    EmbeddingSet,
    FrequencyFeatures,
    NeighborList,
    baseline_embedding,
    build_embedding_set,
    build_features,
    nn_search,
)
from mfvdm.errors import (
    BadEdgeError,
    ConfigError,
    ConvergenceError,
    DegenerateAlignmentError,
    DegenerateEmbeddingError,
    GraphFileError,
    MfvdmError,
    ParameterError,
    UndefinedAlignmentError,
    UnsupportedManifoldError,
    ZeroDegreeError,
)
from mfvdm.evaluation import (
    EvalReport,
    SpectralReport,
    detect_clusters,
    score_alignment,
    score_nn,
    spectral_report,
    theoretical_eigenvalue,
    theoretical_gap,
    theoretical_multiplicity,
)
from mfvdm.graph import (
    AlignmentGraph,
    RewireDiagnostics,
    build_clean_knn_graph,
    rewire_graph,
)
from mfvdm.sampling import (
    SphereTruth,
    TorusTruth,
    make_truth,
    sample_so3_uniform,
    sample_torus_uniform,
)
from mfvdm.spectral import SpectralBundle, gauge_fix, top_eigenpairs

__version__ = "0.1.0"

__all__ = [
    "AlignmentGraph",
    "AlignmentTable",
    "BadEdgeError",
    "ConfigError",
    "ConvergenceError",
    "DegenerateAlignmentError",
    "DegenerateEmbeddingError",
    "EmbeddingSet",
    "EvalReport",
    "ExperimentConfig",
    "FrequencyFeatures",
    "GraphFileError",
    "MfvdmError",
    "NeighborList",
    "ParameterError",
    "RewireDiagnostics",
    "SparseHermitian",
    "SpectralBundle",
    "SpectralReport",
    "SphereTruth",
    "TorusTruth",
    "UndefinedAlignmentError",
    "UnsupportedManifoldError",
    "ZeroDegreeError",
    "align_neighbors",
    "alignment_sequences",
    "baseline_embedding",
    "build_clean_knn_graph",
    "build_embedding_set",
    "build_features",
    "build_sk",
    "degrees",
    "detect_clusters",
    "estimate_angles",
    "gauge_fix",
    "load_config_file",
    "make_truth",
    "nn_search",
    "resolve_config",
    "rewire_graph",
    "sample_so3_uniform",
    "sample_torus_uniform",
    "score_alignment",
    "score_nn",
    "spectral_report",
    "theoretical_eigenvalue",
    "theoretical_gap",
    "theoretical_multiplicity",
    "top_eigenpairs",
    "wrap_pi",
    "wrap_two_pi",
    "__version__",
]
