"""Hot inner kernels shared by the embedding stages.

``accumulate_abs2``
    In-place ``acc += |z|**2`` for a complex block ``z``.

The Hermitian matvec is a scipy CSR product on ``SparseHermitian``.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation; always ``"numpy"``."""
    return "numpy"


def accumulate_abs2(acc: np.ndarray, z: np.ndarray) -> None:
    """acc += z.real**2 + z.imag**2, in place."""
    acc += z.real ** 2
    acc += z.imag ** 2
